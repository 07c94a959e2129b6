"""End-to-end service tests: HTTP API, restart durability, concurrency.

The repo carries no async test plugin, so each test drives its own event
loop with ``asyncio.run`` and talks to the server over raw asyncio streams
— which also exercises the hand-rolled HTTP/1.1 framing from the outside.
"""

import asyncio
import base64
import json
import random
import shutil
from pathlib import Path

import pytest

from repro.core.attack import find_shared_primes
from repro.rsa.corpus import generate_weak_corpus
from repro.rsa.der import encode_rsa_public_key, encode_subject_public_key_info
from repro.rsa.keys import generate_key
from repro.rsa.pem import private_key_from_pem, public_key_to_pem
from repro.rsa.primes import generate_prime
from repro.service.http import HttpServer, ServiceConfig, WeakKeyService

BITS = 64


@pytest.fixture(scope="module")
def corpus():
    # 12 keys: one shared-prime pair and one exact duplicate
    return generate_weak_corpus(12, BITS, shared_groups=(2,), duplicates=1, seed=77)


# -- raw asyncio HTTP client ---------------------------------------------------


async def request(port, method, path, body=None, *, raw_body=None,
                  content_type=None, timeout=30.0):
    """One HTTP/1.1 round-trip; returns (status, headers, parsed-JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = raw_body if raw_body is not None else (
            json.dumps(body).encode() if body is not None else b""
        )
        ctype = f"Content-Type: {content_type}\r\n" if content_type else ""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n{ctype}"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob) if body_blob else None


def serve(state_dir, test, **overrides):
    """Start a service on an OS-assigned port, run ``test(server)``, stop."""
    settings = dict(state_dir=Path(state_dir), linger_ms=2.0, wait_timeout=30.0)
    settings.update(overrides)

    async def run():
        server = HttpServer(WeakKeyService(ServiceConfig(**settings)), port=0)
        await server.start()
        try:
            return await test(server)
        finally:
            await server.close()

    return asyncio.run(run())


# -- submission formats --------------------------------------------------------


class TestSubmit:
    def test_hex_moduli_with_wait(self, tmp_path, corpus):
        async def go(server):
            return await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(n) for n in corpus.moduli]},
            )

        status, _, doc = serve(tmp_path, go)
        assert status == 200 and doc["status"] == "done"
        assert doc["submitted"] == corpus.n_keys
        by_status = [r["status"] for r in doc["results"]]
        assert by_status.count("registered") == corpus.n_keys - 1
        assert by_status.count("duplicate") == 1  # the planted exact duplicate
        weak = {r["index"] for r in doc["results"] if r.get("weak")}
        expected = {i for w in corpus.weak_pairs for i in (w.i, w.j)}
        # corpus indices == registry indices here: keys registered in order,
        # with the duplicate resolving to its first occurrence
        dup = [w for w in corpus.weak_pairs if w.prime == corpus.moduli[w.i]][0]
        expected -= {dup.i, dup.j}  # a reused modulus is not a shared-prime hit
        shared = [w for w in corpus.weak_pairs if w.prime != corpus.moduli[w.i]][0]
        assert {shared.i, shared.j} <= weak and weak == {shared.i, shared.j}
        assert expected == weak

    def test_decimal_moduli(self, tmp_path, corpus):
        async def go(server):
            return await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": corpus.moduli[:3]},
            )

        status, _, doc = serve(tmp_path, go)
        assert status == 200
        assert all(r["status"] == "registered" for r in doc["results"])

    def test_pem_bundle(self, tmp_path, corpus):
        bundle = "".join(
            public_key_to_pem(k.public(), pkcs1=(i % 2 == 0))
            for i, k in enumerate(corpus.keys[:4])
        )

        async def go(server):
            return await request(server.port, "POST", "/submit?wait=1", {"pem": bundle})

        status, _, doc = serve(tmp_path, go)
        assert status == 200 and doc["submitted"] == 4
        assert all(r["status"] == "registered" for r in doc["results"])

    def test_der_blobs(self, tmp_path, corpus):
        k0, k1 = corpus.keys[0], corpus.keys[1]
        ders = [
            base64.b64encode(encode_subject_public_key_info(k0.n, k0.e)).decode(),
            base64.b64encode(encode_rsa_public_key(k1.n, k1.e)).decode(),
        ]

        async def go(server):
            return await request(server.port, "POST", "/submit?wait=1", {"der": ders})

        status, _, doc = serve(tmp_path, go)
        assert status == 200 and doc["submitted"] == 2

    def test_unparsable_entries_reported_not_fatal(self, tmp_path, corpus):
        async def go(server):
            return await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(corpus.moduli[0]), "not-hex", True]},
            )

        status, _, doc = serve(tmp_path, go)
        assert status == 200 and doc["submitted"] == 1
        assert len(doc["rejected"]) == 2

    def test_invalid_keys_get_per_key_errors(self, tmp_path):
        async def go(server):
            return await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [4, hex((1 << 63) + 5), hex((1 << 31) + 11)]},
            )

        status, _, doc = serve(tmp_path, go, bits=BITS)
        assert status == 200
        statuses = [r["status"] for r in doc["results"]]
        assert statuses == ["invalid", "registered", "invalid"]  # even, ok, wrong size

    def test_ticket_poll_lifecycle(self, tmp_path, corpus):
        async def go(server):
            status, _, doc = await request(
                server.port, "POST", "/submit", {"moduli": corpus.moduli[:5]}
            )
            assert status in (200, 202)
            ticket = doc["ticket"]
            for _ in range(200):
                status, _, doc = await request(server.port, "GET", f"/ticket/{ticket}")
                assert status == 200
                if doc["status"] == "done":
                    return doc
                await asyncio.sleep(0.01)
            raise AssertionError("ticket never completed")

        doc = serve(tmp_path, go)
        assert len(doc["results"]) == 5


# -- read-side endpoints -------------------------------------------------------


class TestReadEndpoints:
    def test_hits_broken_healthz_metricsz(self, tmp_path, corpus):
        shared = [w for w in corpus.weak_pairs if w.prime != corpus.moduli[w.i]][0]

        async def go(server):
            await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(n) for n in corpus.moduli]},
            )
            out = {}
            for path in ("/hits", "/broken", "/healthz", "/metricsz"):
                status, _, doc = await request(server.port, "GET", path)
                assert status == 200
                out[path] = doc
            return out

        views = serve(tmp_path, go)
        hits = views["/hits"]
        assert hits["keys"] == corpus.n_keys - 1  # duplicate deduped away
        assert [(h["i"], h["j"]) for h in hits["hits"]] == [(shared.i, shared.j)]
        assert int(hits["hits"][0]["prime"], 16) == shared.prime

        broken = views["/broken"]["broken"]
        assert [b["index"] for b in broken] == [shared.i, shared.j]
        for entry in broken:
            key = private_key_from_pem(entry["pem"])
            assert key.n == int(entry["modulus"], 16)
            assert key.d == corpus.keys[entry["index"]].d

        health = views["/healthz"]
        assert health["status"] == "ok"
        assert health["keys"] == corpus.n_keys - 1
        assert health["hits"] == 1
        assert health["duplicate_submissions"] == 1
        assert health["bits"] == BITS

        counters = views["/metricsz"]["counters"]
        assert counters["service.keys_registered"] == corpus.n_keys - 1
        m = corpus.n_keys - 1
        assert counters["scan.pairs_tested"] == m * (m - 1) // 2

    def test_healthz_on_empty_service(self, tmp_path):
        async def go(server):
            return await request(server.port, "GET", "/healthz")

        status, _, doc = serve(tmp_path, go)
        assert status == 200 and doc["keys"] == 0 and doc["bits"] is None


# -- parse_submission edge cases ----------------------------------------------


class TestParseSubmission:
    def test_hex_spellings_all_decode(self):
        from repro.service.http import parse_submission

        keys, rejected = parse_submission(
            {"moduli": ["f", "0xF", "0Xf", " 23 ", "AbCd"]}
        )
        assert rejected == []
        assert [n for n, _ in keys] == [15, 15, 15, 0x23, 0xABCD]

    def test_mixed_fields_preserve_order(self, corpus):
        from repro.rsa.pem import public_key_to_pem
        from repro.service.http import parse_submission

        key = generate_key(BITS, random.Random(5))
        pem = public_key_to_pem(key.public())
        doc = {"moduli": [hex(corpus.moduli[0]), corpus.moduli[1]], "pem": pem}
        keys, rejected = parse_submission(doc)
        assert rejected == []
        # moduli first (order preserved), then the PEM block's (n, e)
        assert [n for n, _ in keys] == [
            corpus.moduli[0], corpus.moduli[1], key.n,
        ]
        assert keys[2][1] == key.e

    def test_rejections_never_drop_good_keys(self):
        from repro.service.http import parse_submission

        keys, rejected = parse_submission(
            {"moduli": [True, "0x23", None, "zz", 33, 3.5]}
        )
        assert [n for n, _ in keys] == [0x23, 33]
        assert len(rejected) == 4
        assert all("error" in r for r in rejected)

    def test_empty_and_malformed_documents(self):
        from repro.service.http import parse_submission

        assert parse_submission({}) == ([], [])
        for bad in ([1, 2], "text", {"moduli": "0x23"}, {"pem": 7},
                    {"der": "blob"}, {"surprise": []}):
            with pytest.raises(ValueError):
                parse_submission(bad)


# -- HTTP error surface --------------------------------------------------------


async def raw_round_trip(port, blob, timeout=10.0):
    """Write a raw request blob; return (status, raw response bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(blob)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return int(raw.split(b" ", 2)[1]), raw


class TestErrors:
    def test_routing_and_body_errors(self, tmp_path):
        async def go(server):
            p = server.port
            checks = [
                (await request(p, "POST", "/submit", raw_body=b"{nope"), 400),
                (await request(p, "POST", "/submit", {"moduli": []}), 400),
                (await request(p, "POST", "/submit", {"surprise": [1]}), 400),
                (await request(p, "POST", "/submit", {"moduli": ["xyz"]}), 400),
                (await request(p, "GET", "/ticket/ffffff-deadbeef"), 404),
                (await request(p, "GET", "/nope"), 404),
                (await request(p, "GET", "/submit"), 405),
                (await request(p, "POST", "/hits"), 405),
            ]
            for (status, _, doc), expected in checks:
                assert status == expected, doc
                assert "error" in doc

        serve(tmp_path, go)

    def test_oversized_body_rejected(self, tmp_path):
        async def go(server):
            server.max_body = 64
            status, _, doc = await request(
                server.port, "POST", "/submit", {"moduli": [hex(1 << 63) + "f" * 80]}
            )
            assert status == 413 and "error" in doc

        serve(tmp_path, go)

    def test_oversized_declaration_rejected_before_buffering(self, tmp_path):
        # the cap must fire on the *declared* length: no body byte is ever
        # read, so a hostile declaration cannot make the server allocate
        async def go(server):
            server.max_body = 64
            status, raw = await raw_round_trip(
                server.port,
                b"POST /submit HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 999999999\r\nConnection: close\r\n\r\n",
            )
            assert status == 413 and b"exceeds" in raw

        serve(tmp_path, go)

    def test_malformed_content_length_rejected(self, tmp_path):
        async def go(server):
            for value in (b"abc", b"-5", b"1e9"):
                status, raw = await raw_round_trip(
                    server.port,
                    b"POST /submit HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + value + b"\r\nConnection: close\r\n\r\n",
                )
                assert status == 400, raw
                assert b"Content-Length" in raw

        serve(tmp_path, go)

    def test_header_flood_rejected_with_431(self, tmp_path):
        async def go(server):
            flood = b"".join(
                b"X-Pad-%d: %s\r\n" % (i, b"y" * 1024) for i in range(64)
            )
            status, raw = await raw_round_trip(
                server.port,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + flood + b"\r\n",
            )
            assert status == 431 and b"header section exceeds" in raw

        serve(tmp_path, go)

    def test_responses_are_compact_json(self, tmp_path):
        # the submit path serialises every verdict row: cosmetic JSON
        # whitespace would be pure wire and encoder overhead
        async def go(server):
            status, raw = await raw_round_trip(
                server.port,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            body = raw.partition(b"\r\n\r\n")[2]
            assert status == 200
            assert b": " not in body and b", " not in body
            json.loads(body)  # still well-formed

        serve(tmp_path, go)

    def test_backpressure_returns_429_with_retry_after(self, tmp_path, corpus):
        async def go(server):
            service = server.service
            gate = asyncio.Event()
            entered = asyncio.Event()
            inner = service.batcher.scan

            async def gated(items):
                entered.set()
                await gate.wait()
                return await inner(items)

            service.batcher.scan = gated
            p = server.port
            hexes = [hex(n) for n in corpus.moduli]
            # head batch enters the (gated) scan...
            s1, _, _ = await request(p, "POST", "/submit", {"moduli": hexes[:2]})
            assert s1 == 202
            await asyncio.wait_for(entered.wait(), timeout=5)
            # ...the next fills the queue exactly, then one more must bounce
            s2, _, _ = await request(p, "POST", "/submit", {"moduli": hexes[2:6]})
            assert s2 == 202
            s3, headers, doc = await request(p, "POST", "/submit", {"moduli": hexes[6:7]})
            assert s3 == 429
            assert 0.05 <= float(headers["retry-after"]) <= 30.0
            assert "retry" in doc["error"]
            gate.set()
            # the bounced key is admissible once the backlog drains
            for _ in range(500):
                _, _, health = await request(p, "GET", "/healthz")
                if health["pending_keys"] == 0:
                    break
                await asyncio.sleep(0.01)
            s4, _, doc = await request(p, "POST", "/submit?wait=1", {"moduli": hexes[6:7]})
            assert s4 == 200 and doc["results"][0]["status"] == "registered"

        serve(tmp_path, go, max_batch=2, max_pending=4)


# -- restart durability --------------------------------------------------------


class TestRestart:
    def test_restart_restores_and_never_rescans(self, tmp_path, corpus):
        state = tmp_path / "state"
        shared = [w for w in corpus.weak_pairs if w.prime != corpus.moduli[w.i]][0]

        async def first_run(server):
            await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(n) for n in corpus.moduli]},
            )
            _, _, hits = await request(server.port, "GET", "/hits")
            return hits

        hits_before = serve(state, first_run)
        m = corpus.n_keys - 1  # the duplicate never registered
        assert len(hits_before["hits"]) == 1

        # a new key sharing a prime with the pre-restart corpus: the hit
        # must surface across the restart boundary
        rng = random.Random(4242)
        mate = generate_prime(BITS // 2, rng, avoid={corpus.keys[shared.i].p})
        straddler = corpus.keys[shared.i].p * mate
        fresh = generate_key(BITS, rng).n

        async def second_run(server):
            _, _, health = await request(server.port, "GET", "/healthz")
            _, _, metrics = await request(server.port, "GET", "/metricsz")
            s, _, doc = await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(straddler), hex(fresh)]},
            )
            assert s == 200
            _, _, metrics_after = await request(server.port, "GET", "/metricsz")
            _, _, hits = await request(server.port, "GET", "/hits")
            return health, metrics, doc, metrics_after, hits

        health, metrics, doc, metrics_after, hits = serve(state, second_run)
        assert health["keys"] == m and health["hits"] == 1
        assert health["duplicate_submissions"] == 1  # survived the restart
        # telemetry is per-process: zero pairs scanned before the submission...
        assert metrics["counters"].get("scan.pairs_tested", 0) == 0
        # ...and afterwards exactly the new keys' pairs — no old-vs-old rescan
        assert metrics_after["counters"]["scan.pairs_tested"] == 2 * m + 1
        # the straddler was broken by pre-restart keys: it carries the
        # shared prime, so it pairs with both members of the original hit
        assert doc["results"][0]["weak"]
        partners = {h["partner"] for h in doc["results"][0]["hits"]}
        assert partners == {shared.i, shared.j}
        # and the hit list grew without duplicating the old hit
        pairs = [(h["i"], h["j"]) for h in hits["hits"]]
        assert len(pairs) == len(set(pairs)) == 3
        assert (shared.i, shared.j) in set(pairs)

    def test_restart_without_a_tree_spool_rebuilds_it(self, tmp_path):
        # a state dir whose last server kept no product tree on disk (the
        # retired pairwise tier wrote no ptree/): the tree is rebuilt from
        # the registry at start and the stream carries on with exact hits
        corpus = generate_weak_corpus(24, BITS, shared_groups=(2, 3), seed="no-spool")
        state = tmp_path / "state"
        first, second = corpus.moduli[:12], corpus.moduli[12:]

        def submit_then_hits(moduli):
            async def go(server):
                if moduli:
                    s, _, _ = await request(
                        server.port, "POST", "/submit?wait=1",
                        {"moduli": [hex(n) for n in moduli]},
                    )
                    assert s == 200
                _, _, hits = await request(server.port, "GET", "/hits")
                _, _, metrics = await request(server.port, "GET", "/metricsz")
                return hits["hits"], metrics["counters"]

            return go

        before, _ = serve(state, submit_then_hits(first))
        shutil.rmtree(state / "ptree")
        restored, counters = serve(state, submit_then_hits([]))
        assert restored == before
        assert counters["ptree.rebuilds"] == 1
        assert (state / "ptree").is_dir()
        after, _ = serve(state, submit_then_hits(second))
        oracle = find_shared_primes(corpus.moduli, backend="scalar")
        assert {(h["i"], h["j"]) for h in after} == oracle.hit_pairs
        assert any(h["i"] < 12 <= h["j"] for h in after)  # a cross-restart hit

    def test_restart_with_conflicting_bits_refused(self, tmp_path, corpus):
        state = tmp_path / "state"

        async def seed(server):
            await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(corpus.moduli[0])]},
            )

        serve(state, seed)
        with pytest.raises(ValueError, match="conflicts"):
            serve(state, seed, bits=128)


# -- concurrent clients --------------------------------------------------------


class TestConcurrency:
    def test_parallel_overlapping_clients_match_one_shot_attack(self, tmp_path):
        corpus = generate_weak_corpus(
            24, BITS, shared_groups=(2, 2, 3), duplicates=2, seed=909
        )
        # four clients with overlapping slices: every key reaches the
        # service at least once, many reach it twice from different clients
        slices = [
            corpus.moduli[0:9],
            corpus.moduli[6:15],
            corpus.moduli[12:21],
            corpus.moduli[18:24] + corpus.moduli[0:4],
        ]

        async def client(port, moduli):
            outcomes = []
            for start in range(0, len(moduli), 3):
                chunk = [hex(n) for n in moduli[start : start + 3]]
                status, _, doc = await request(port, "POST", "/submit?wait=1",
                                               {"moduli": chunk})
                assert status == 200, doc
                outcomes.extend(r["status"] for r in doc["results"])
            return outcomes

        async def go(server):
            results = await asyncio.gather(
                *(client(server.port, s) for s in slices)
            )
            _, _, hits = await request(server.port, "GET", "/hits")
            _, _, health = await request(server.port, "GET", "/healthz")
            return results, hits, health, server.service.registry.moduli

        results, hits, health, registered = serve(
            tmp_path, go, max_batch=8, linger_ms=5.0
        )

        deduped = list(dict.fromkeys(corpus.moduli))
        assert sorted(registered) == sorted(deduped)
        total = sum(len(r) for r in results)
        regs = sum(r.count("registered") for r in results)
        dups = sum(r.count("duplicate") for r in results)
        assert regs == len(deduped)
        assert regs + dups == total
        assert health["duplicate_submissions"] == total - len(deduped)

        # the union of service hits == a one-shot attack on the deduped union
        oneshot = find_shared_primes(deduped, backend="batch")
        expected = {
            frozenset((deduped[i], deduped[j])) for i, j in oneshot.hit_pairs
        }
        got = {
            frozenset((registered[h["i"]], registered[h["j"]]))
            for h in hits["hits"]
        }
        assert got == expected
        pairs = [(h["i"], h["j"]) for h in hits["hits"]]
        assert len(pairs) == len(set(pairs))
