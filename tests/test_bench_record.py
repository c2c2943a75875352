"""scripts/bench_record.py groups perfbench's records by workload, code
hash and run length, and summarises each metric as its ``better`` says."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
DECLARED = [{"name": "runs_per_s", "unit": "1/s", "better": "higher"},
            {"name": "epoch_ms", "unit": "ms", "better": "lower"}]


@pytest.fixture(scope="module")
def bench_record():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved  # the script puts src/ and perfbench/ first
    return module


def record(seed, seconds, runs_per_s, epoch_ms, workload="cold-ica",
           code="a" * 64):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": 0,
            "env": {"code_sha256": code, "git_sha": "unknown",
                    "backend": "c", "numpy": "2.0", "nproc": 2},
            "result": {"correct": True, "metrics": {
                "runs_per_s": {"value": runs_per_s},
                "epoch_ms": {"value": epoch_ms}}}}


def test_runs_of_two_lengths_make_two_groups(bench_record):
    records = [record(1, 10.0, 16.0, 0.15), record(2, 30.0, 21.0, 0.12),
               record(3, 10.0, 17.0, 0.14), record(4, 30.0, 20.0, 0.13),
               record(5, 10.0, 15.0, 0.16)]
    groups = bench_record.summarise(records, DECLARED)
    assert [(g["seconds"], g["n"], g["seeds"]) for g in groups] == [
        (10.0, 3, [1, 3, 5]), (30.0, 2, [2, 4])]
    short, long = groups
    assert short["metrics"]["runs_per_s"]["median"] == 16.0
    assert long["metrics"]["runs_per_s"]["median"] == 20.5


def test_workloads_and_code_hashes_stay_apart(bench_record):
    records = [record(1, 10.0, 16.0, 0.15),
               record(2, 10.0, 25.0, 0.10, code="b" * 64),
               record(3, 10.0, 4.0, 0.50, workload="matrix-gcn")]
    groups = bench_record.summarise(records, DECLARED)
    assert [(g["workload"], g["code_sha256"][0], g["n"]) for g in groups] == [
        ("cold-ica", "a", 1), ("cold-ica", "b", 1), ("matrix-gcn", "a", 1)]


def test_median_and_best_follow_each_metrics_better(bench_record):
    records = [record(1, 30.0, 10.0, 0.30), record(2, 30.0, 30.0, 0.10),
               record(3, 30.0, 20.0, 0.20)]
    (group,) = bench_record.summarise(records, DECLARED)
    metrics = group["metrics"]
    assert metrics["runs_per_s"] == {"unit": "1/s", "better": "higher",
                                     "median": 20.0, "best": 30.0}
    assert metrics["epoch_ms"] == {"unit": "ms", "better": "lower",
                                   "median": 0.20, "best": 0.10}
    assert group["n_correct"] == 3
