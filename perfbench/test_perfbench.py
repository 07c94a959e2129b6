"""Self-tests of the benchmark: run from the repository root with

    python3 -m pytest perfbench -q

They use the ``tiny`` scale, so they check wiring and the oracle, not speed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_oracle_catches_a_mutated_truth_file(tmp_path):
    pem, truth_path = run.one_shot_inputs("batchscan-2048", 5, "tiny", tmp_path)
    truth = json.loads(truth_path.read_text())
    i, j, prime = truth["hits"][0]
    truth["hits"][0] = [i, j, str(int(prime) + 2)]
    truth_path.write_text(json.dumps(truth))
    result = run.run_one_shot("batchscan-2048", pem, truth_path, 0, tmp_path, traced=False)
    assert result.attempted == 1 and result.failed == 1


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    def inputs(workload: str, seed: int, name: str) -> list[bytes]:
        (tmp_path / name).mkdir()
        return [p.read_bytes() for p in run.one_shot_inputs(workload, seed, "tiny", tmp_path / name)]

    for workload in ("batchscan-2048", "paper-bulk"):
        assert inputs(workload, 7, f"{workload}-a") == inputs(workload, 7, f"{workload}-b") != inputs(workload, 8, f"{workload}-c")
    corpora = [gen.corpus(256, 20, 2, random.Random(seed)) for seed in (1, 1, 2)]
    assert corpora[0] == corpora[1] != corpora[2]


def test_generated_moduli_have_exact_size_and_only_planted_pairs():
    moduli, truth, halves = gen.corpus(512, 12, 2, random.Random(4))
    assert all(n.bit_length() == 512 for n in moduli)
    assert all(half.bit_length() == 256 for half in halves)
    shared = {(i, j) for i in range(12) for j in range(i + 1, 12) if math.gcd(moduli[i], moduli[j]) > 1}
    assert shared == {(i, j) for i, j, _ in truth}


def test_catalog_names_every_declared_layer_metric():
    catalog = json.loads((HERE / "catalog.json").read_text())
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(catalog["per_layer"]) - {"_units"} == layer_names
    assert set(catalog["workloads"]) == {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(catalog["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "batchscan-2048", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
