"""Smoke test of the benchmark harness at tiny sizes; no timing gate.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, workloads.SRC)

TINY = {
    "cli_pipeline": {"persons": 600, "chains": 2},
    "analysis_inmem": {"persons": 600, "q5_values": 4},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_and_runs_the_checks(name, trace):
    result, record = run.run_workload(name, seed=1, seconds=0, trace=bool(trace), sizes=TINY[name])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["failed"] == 0 and result["correct"], record["errors"]
    assert result["attempted"] >= 4
    assert record["workload"] == name and record["seed"] == 1
    for key in ("git_sha", "python", "numpy", "nproc", "kernels_backend", "sizes", "units"):
        assert key in record


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_reference_counts_match_a_cell_by_cell_count():
    rng = np.random.default_rng(0)
    states = rng.integers(-2, 5, size=(40, 6)).astype(np.int8)
    pairs, triples = checks.reference_counts(states)
    want_pairs = np.zeros_like(pairs)
    want_triples = np.zeros_like(triples)
    for row in states:
        for k in range(len(row) - 1):
            if row[k] >= 0 and row[k + 1] >= 0:
                want_pairs[k, row[k], row[k + 1]] += 1
            if k < len(row) - 2 and min(row[k], row[k + 1], row[k + 2]) >= 0:
                want_triples[k, row[k], row[k + 1], row[k + 2]] += 1
    assert np.array_equal(pairs, want_pairs)
    assert np.array_equal(triples, want_triples)


def test_affinity_check_rejects_a_bent_row():
    rows = [(30, "Q1->Q5", q, 5.0 + 2.0 * q) for q in (1.0, 2.0, 3.0)]
    assert checks.affine_in_q5(rows)
    rows[1] = (30, "Q1->Q5", 2.0, 9.0 + 1e-6)
    assert not checks.affine_in_q5(rows)


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
