"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.rsa.corpus import WeakCorpus
from repro.rsa.pem import load_public_moduli
from repro.util.intops import available_backends


class TestGcd:
    def test_paper_pair(self, capsys):
        assert main(["gcd", "1043915", "768955"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    @pytest.mark.parametrize("alg", list("ABCDE"))
    def test_all_algorithms(self, capsys, alg):
        assert main(["gcd", "48", "32", "--algorithm", alg]) == 0
        assert capsys.readouterr().out.strip() == "16"

    def test_invalid_input_reports_error(self, capsys):
        assert main(["gcd", "--", "-3", "5"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_approx_trace_matches_table3(self, capsys):
        assert main(["trace", "1043915", "768955", "--algorithm", "approx", "--d", "4"]) == 0
        out = capsys.readouterr().out
        assert "gcd = 5 in 9 iterations" in out
        assert "case 4-B  (alpha, beta)=(7, 0)" in out

    def test_original_trace_shows_quotients(self, capsys):
        assert main(["trace", "1043915", "768955", "--algorithm", "original"]) == 0
        out = capsys.readouterr().out
        assert "gcd = 5 in 11 iterations" in out
        assert "Q=83" in out


class TestKeygen:
    def test_stdout_public(self, capsys):
        assert main(["keygen", "--bits", "64", "--count", "2", "--seed", "k"]) == 0
        out = capsys.readouterr().out
        assert out.count("BEGIN PUBLIC KEY") == 2
        assert len(load_public_moduli(out)) == 2

    def test_private_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "keys.pem"
        assert main(
            ["keygen", "--bits", "64", "--private", "--out", str(out_file), "--seed", "k"]
        ) == 0
        assert "BEGIN RSA PRIVATE KEY" in out_file.read_text()

    def test_deterministic(self, capsys):
        main(["keygen", "--bits", "64", "--seed", "same"])
        a = capsys.readouterr().out
        main(["keygen", "--bits", "64", "--seed", "same"])
        b = capsys.readouterr().out
        assert a == b


class TestCorpusAndScan:
    @pytest.fixture()
    def corpus_file(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        rc = main(
            [
                "corpus",
                "--keys", "12",
                "--bits", "64",
                "--groups", "2,3",
                "--seed", "cli-test",
                "--out", str(path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return path

    def test_corpus_reports_plants(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        main(["corpus", "--keys", "8", "--bits", "64", "--groups", "2", "--out", str(path), "--seed", "x"])
        out = capsys.readouterr().out
        assert "1 weak pair(s) planted" in out
        assert path.exists()

    @pytest.mark.parametrize("backend", ["bulk", "scalar", "batch"])
    def test_scan_corpus_all_backends(self, corpus_file, capsys, backend):
        rc = main(["scan", "--corpus", str(corpus_file), "--backend", backend, "--group-size", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WEAK keys" in out
        assert "all 4 planted pair(s) found" in out

    def test_scan_pem_bundle(self, tmp_path, capsys):
        corpus_json = tmp_path / "c.json"
        pem = tmp_path / "bundle.pem"
        main(
            [
                "corpus", "--keys", "10", "--bits", "64", "--groups", "2",
                "--seed", "pem-scan", "--out", str(corpus_json), "--pem", str(pem),
            ]
        )
        capsys.readouterr()
        rc = main(["scan", "--pem", str(pem), "--group-size", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WEAK keys" in out

    def test_scan_json_output(self, corpus_file, capsys):
        rc = main(["scan", "--corpus", str(corpus_file), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moduli"] == 12
        assert len(payload["hits"]) == 4
        for hit in payload["hits"]:
            assert int(hit["prime"]) > 1

    def test_scan_stream_matches_ground_truth(self, corpus_file, tmp_path, capsys):
        stats = tmp_path / "stream.json"
        rc = main(
            ["scan", "--corpus", str(corpus_file), "--stream", "5",
             "--stats-json", str(stats)]
        )
        assert rc == 0
        assert "all 4 planted pair(s) found" in capsys.readouterr().out
        payload = json.loads(stats.read_text())
        truth = WeakCorpus.from_json(corpus_file.read_text()).weak_pair_set()
        assert {(h["i"], h["j"]) for h in payload["hits"]} == truth
        assert payload["ground_truth_matched"] is True
        assert payload["coverage_complete"] is True
        assert payload["batches"] == 3
        assert payload["pairs_tested"] == 12 * 11 // 2

    def test_scan_too_few_keys(self, tmp_path, capsys):
        pem = tmp_path / "one.pem"
        main(["keygen", "--bits", "64", "--out", str(pem), "--seed", "solo"])
        capsys.readouterr()
        assert main(["scan", "--pem", str(pem)]) == 2
        assert "need at least 2" in capsys.readouterr().err


class TestCensus:
    def test_census_output(self, capsys):
        rc = main(["census", "--bits", "64", "--pairs", "4", "--seed", "c"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(E) Approximate Euclidean algorithm" in out
        assert "(E) - (B)" in out

    def test_census_early(self, capsys):
        rc = main(["census", "--bits", "64", "--pairs", "4", "--early"])
        assert rc == 0
        assert "early-terminate" in capsys.readouterr().out


class TestCertificateFlow:
    def test_keygen_certs_then_scan(self, tmp_path, capsys):
        bundle = tmp_path / "certs.pem"
        rc = main(
            ["keygen", "--bits", "512", "--count", "3", "--cert",
             "--out", str(bundle), "--seed", "certs"]
        )
        assert rc == 0
        capsys.readouterr()
        assert bundle.read_text().count("BEGIN CERTIFICATE") == 3
        rc = main(["scan", "--certs", str(bundle), "--verify-certs", "--group-size", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no shared primes found" in out

    def test_scan_certs_finds_weak_pair(self, tmp_path, capsys):
        from repro.rsa.corpus import generate_weak_corpus
        from repro.rsa.x509 import certificate_to_pem, create_self_signed_certificate

        corpus = generate_weak_corpus(6, 512, shared_groups=(2,), seed="cli-cert")
        bundle = tmp_path / "scrape.pem"
        bundle.write_text(
            "".join(
                certificate_to_pem(create_self_signed_certificate(k, serial=i + 1))
                for i, k in enumerate(corpus.keys)
            )
        )
        rc = main(["scan", "--certs", str(bundle), "--group-size", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WEAK keys" in out


class TestScanStats:
    """The observability surface: scan --stats-json / --progress / --memlog.

    The 200-modulus corpus mirrors the PR's acceptance scenario: the stats
    report must carry stage timings, pair throughput, histogram quantiles
    and (with --memlog) word-access counts.
    """

    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stats") / "corpus.json"
        rc = main(
            ["corpus", "--keys", "200", "--bits", "96", "--groups", "2,2,3",
             "--seed", "stats", "--out", str(path)]
        )
        assert rc == 0
        return path

    @pytest.mark.parametrize("backend", ["bulk", "scalar", "batch"])
    def test_stats_json_report(self, corpus_path, tmp_path, capsys, backend):
        out = tmp_path / f"stats-{backend}.json"
        rc = main(
            ["scan", "--corpus", str(corpus_path), "--backend", backend,
             "--stats-json", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["moduli"] == 200
        assert payload["pairs_tested"] == 200 * 199 // 2
        assert payload["ground_truth_matched"] is True
        assert payload["pairs_per_second"] > 0
        metrics = payload["metrics"]
        assert metrics["stages"]["scan"]["total_seconds"] > 0
        assert metrics["counters"]["scan.pairs_tested"] == payload["pairs_tested"]
        # at least one histogram with real quantiles
        quantiled = [
            h for h in metrics["histograms"].values() if h["count"] > 0
        ]
        assert quantiled and all("p50" in h and "p95" in h for h in quantiled)

    def test_stats_json_hit_sets_identical_across_backends(
        self, corpus_path, tmp_path, capsys
    ):
        hits = {}
        for backend in ("bulk", "scalar", "batch"):
            out = tmp_path / f"x-{backend}.json"
            rc = main(
                ["scan", "--corpus", str(corpus_path), "--backend", backend,
                 "--stats-json", str(out)]
            )
            assert rc == 0
            payload = json.loads(out.read_text())
            hits[backend] = [(h["i"], h["j"], h["prime"]) for h in payload["hits"]]
        capsys.readouterr()
        assert hits["bulk"] == hits["scalar"] == hits["batch"]

    def test_stats_json_to_stdout(self, corpus_path, capsys):
        rc = main(["scan", "--corpus", str(corpus_path), "--stats-json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert "metrics" in payload

    def test_progress_writes_to_stderr(self, corpus_path, capsys):
        rc = main(["scan", "--corpus", str(corpus_path), "--progress"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "%" in captured.err and "ETA" in captured.err

    def test_memlog_word_access_counts(self, tmp_path, capsys):
        small = tmp_path / "small.json"
        assert main(
            ["corpus", "--keys", "16", "--bits", "64", "--groups", "2",
             "--seed", "ml", "--out", str(small)]
        ) == 0
        out = tmp_path / "memlog.json"
        rc = main(
            ["scan", "--corpus", str(small), "--backend", "scalar",
             "--memlog", "--stats-json", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        counters = json.loads(out.read_text())["metrics"]["counters"]
        assert counters["memlog.reads"] > 0
        assert counters["memlog.writes"] > 0
        hist = json.loads(out.read_text())["metrics"]["histograms"]
        assert hist["memlog.accesses_per_iteration"]["count"] > 0

    def test_memlog_requires_scalar_backend(self, tmp_path, capsys):
        small = tmp_path / "s.json"
        assert main(
            ["corpus", "--keys", "4", "--bits", "64", "--seed", "x",
             "--out", str(small)]
        ) == 0
        rc = main(["scan", "--corpus", str(small), "--backend", "bulk", "--memlog"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scalar backend" in err

    def test_events_jsonl(self, corpus_path, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        rc = main(
            ["scan", "--corpus", str(corpus_path), "--events-jsonl", str(events)]
        )
        capsys.readouterr()
        assert rc == 0
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert records[0]["event"] == "scan.start"
        assert records[-1]["event"] == "scan.done"
        assert all(r["v"] == 1 for r in records)


class TestBatchscan:
    """The disk-streamed, checkpointed pipeline behind ``repro batchscan``."""

    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("batchscan") / "corpus.json"
        rc = main(
            ["corpus", "--keys", "20", "--bits", "64", "--groups", "2,3",
             "--seed", "batchscan", "--out", str(path),
             "--moduli-out", str(path.with_suffix(".txt"))]
        )
        assert rc == 0
        return path

    def test_corpus_against_ground_truth(self, corpus_path, tmp_path, capsys):
        rc = main(
            ["batchscan", "--corpus", str(corpus_path),
             "--spool-dir", str(tmp_path / "spool")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "WEAK keys" in out
        assert "all 4 planted pair(s) found" in out

    def test_moduli_text_source(self, corpus_path, tmp_path, capsys):
        rc = main(
            ["batchscan", "--moduli", str(corpus_path.with_suffix(".txt")),
             "--spool-dir", str(tmp_path / "spool"), "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moduli"] == 20
        assert len(payload["hits"]) == 4
        assert "ground_truth_matched" not in payload

    def test_resume_skips_completed_stages(self, corpus_path, tmp_path, capsys):
        spool = tmp_path / "spool"
        args = ["batchscan", "--corpus", str(corpus_path), "--spool-dir", str(spool)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resumed"] is True
        assert payload["stages_run"] == []
        assert payload["ground_truth_matched"] is True
        assert {(h["i"], h["j"]) for h in payload["hits"]} == {
            tuple(map(int, line.split()[2:5:2]))
            for line in first.splitlines() if line.startswith("WEAK")
        }

    def test_help_lists_no_pool_or_chunking_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["batchscan", "--help"])
        assert info.value.code == 0
        usage = capsys.readouterr().out
        assert "--spool-dir" in usage
        for flag in ("--workers", "--memory-budget", "--shard-size", "--chunk-attempts"):
            assert flag not in usage

    def test_events_jsonl_stream(self, corpus_path, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        rc = main(
            ["batchscan", "--corpus", str(corpus_path),
             "--spool-dir", str(tmp_path / "spool"),
             "--events-jsonl", str(events)]
        )
        capsys.readouterr()
        assert rc == 0
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[-1]["event"] == "pipeline.done"
        assert any(r["event"] == "pipeline.stage.done" for r in records)

    def test_stats_json_to_stdout(self, corpus_path, tmp_path, capsys):
        rc = main(
            ["batchscan", "--corpus", str(corpus_path),
             "--spool-dir", str(tmp_path / "spool"), "--stats-json", "-"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["pipeline.bytes_spilled"] > 0

    def test_backend_flag_recorded(self, corpus_path, tmp_path, capsys):
        rc = main(
            ["batchscan", "--corpus", str(corpus_path),
             "--spool-dir", str(tmp_path / "spool"),
             "--backend", "python", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["int_backend"] == "python"
        assert payload["metrics"]["gauges"]["backend.name"] == "python"


class TestBackendsCommand:
    """``repro backends`` and the int-backend selection flags."""

    def test_text_listing(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "available" in out
        assert "REPRO_INT_BACKEND" in out
        assert "auto resolves to:" in out

    def test_json_listing(self, capsys):
        assert main(["backends", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert "python" in info["available"]
        assert info["auto"] in info["available"]
        assert isinstance(info["gmpy2"]["installed"], bool)

    def test_env_var_shown(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_INT_BACKEND", "python")
        assert main(["backends"]) == 0
        assert "REPRO_INT_BACKEND = python" in capsys.readouterr().out

    @pytest.fixture()
    def corpus_file(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        assert main(
            ["corpus", "--keys", "10", "--bits", "64", "--groups", "2",
             "--seed", "be", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_scan_int_backend_recorded(self, corpus_file, capsys):
        rc = main(
            ["scan", "--corpus", str(corpus_file), "--backend", "batch",
             "--int-backend", "python", "--stats-json", "-"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["int_backend"] == "python"
        assert payload["metrics"]["gauges"]["backend.name"] == "python"

    @pytest.mark.skipif(
        "gmpy2" in available_backends(), reason="gmpy2 IS installed here"
    )
    def test_requesting_missing_gmpy2_fails_loudly(self, corpus_file, capsys):
        rc = main(
            ["scan", "--corpus", str(corpus_file), "--backend", "batch",
             "--int-backend", "gmpy2"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "gmpy2" in err


class TestSubmitCommand:
    """``repro submit`` against a live in-process service: the JSON and
    RGWIRE1 paths must print identical tallies and verdicts, and both ride
    one pooled keep-alive connection across ``--chunk``-sized requests."""

    @pytest.fixture()
    def server(self, tmp_path):
        import asyncio
        import threading

        from repro.service.http import HttpServer, ServiceConfig, WeakKeyService

        started = threading.Event()
        box = {}

        def run():
            async def go():
                service = WeakKeyService(
                    ServiceConfig(state_dir=tmp_path / "state", linger_ms=2.0)
                )
                server = HttpServer(service, port=0)
                await server.start()
                box["port"] = server.port
                box["service"] = service
                started.set()
                await box["stop"]
                await server.close()

            loop = asyncio.new_event_loop()
            box["loop"] = loop
            box["stop"] = loop.create_future()
            loop.run_until_complete(go())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(10)
        yield box
        box["loop"].call_soon_threadsafe(box["stop"].set_result, None)
        thread.join(timeout=10)

    @pytest.fixture()
    def weak_corpus(self):
        from repro.rsa.corpus import generate_weak_corpus

        return generate_weak_corpus(8, 64, shared_groups=(2,), seed=31)

    def test_binary_and_json_submissions_agree(
        self, server, weak_corpus, tmp_path, capsys
    ):
        url = f"http://127.0.0.1:{server['port']}"
        listing = tmp_path / "moduli.txt"
        listing.write_text("".join(f"{n}\n" for n in weak_corpus.moduli))
        rc = main(["submit", "--url", url, "--wait", "--chunk", "3",
                   "--moduli", str(listing)])
        json_out = capsys.readouterr().out
        assert rc == 0
        rc = main(["submit", "--url", url, "--wait", "--chunk", "3", "--binary",
                   "--moduli", str(listing)])
        bin_out = capsys.readouterr().out
        assert rc == 0
        # ...and a JSON resubmission of the same corpus: both duplicate
        # passes see the steady-state registry, so their output must be
        # identical line for line across formats
        rc = main(["submit", "--url", url, "--wait", "--chunk", "3",
                   "--moduli", str(listing)])
        json_dup_out = capsys.readouterr().out
        assert rc == 0
        assert "8 key(s) in 3 request(s): 8 registered" in json_out
        assert "8 key(s) in 3 request(s): 0 registered, 8 duplicate" in bin_out
        assert bin_out == json_dup_out
        weak = [l for l in bin_out.splitlines() if l.startswith("WEAK")]
        assert len(weak) == 2  # both halves of the planted shared-prime pair

    def test_binary_positional_moduli_and_fetch(self, server, capsys):
        url = f"http://127.0.0.1:{server['port']}"
        n1, n2 = 0xAD8BA849A3F3C3F1 , 0x8C6A46D14A1C1453
        rc = main(["submit", "--url", url, "--wait", "--binary",
                   f"{n1:x}", f"0x{n2:x}"])
        out = capsys.readouterr().out
        assert rc == 0 and "2 key(s) in 1 request(s)" in out
        rc = main(["submit", "--url", url, "--fetch", "health"])
        out = capsys.readouterr().out
        assert rc == 0 and "keys: 2" in out

    def test_unreachable_service_fails_loudly(self, capsys):
        rc = main(["submit", "--url", "http://127.0.0.1:9", "--wait", "ff"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot reach service" in err
