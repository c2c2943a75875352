"""modgcn benchmark: one workload on a seeded cora-shaped synthetic graph.

    python3 perfbench/run.py --workload matrix-gcn --seed 1 --seconds 30 --trace 0

Run it from the root of the repository. It generates the graph from the
seed (not timed), measures set-up in fresh interpreters, runs the workload
in its own process, checks the outputs and prints a JSON result as its
last line: the end-to-end metrics untraced, the per-layer metrics with
--trace 1. A full record also goes to .perfbench_out/records/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import synth
from workloads import DATASET, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
# every trained GCN/ChebNet run must beat always predicting the largest
# class by this margin. ICA runs are only checked for finite accuracy: at
# 5 labels per class its relational weights are fitted on the few training
# nodes that have a labelled neighbour, and on many seeds its sweeps
# collapse almost every prediction into one class.
FLOOR_MARGIN = 0.1
ACC_FLOOR = max(synth.CLASS_SIZES) / synth.NUM_NODES + FLOOR_MARGIN


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("MODGCN_KERNELS", None)  # measure the default backend
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_child(script, args, timeout) -> dict:
    """Run a perfbench script in a fresh interpreter; parse its last line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} ran longer than {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_hash(w) -> str:
    """Identifies the code a result comes from: the library's sources and
    the workload's definition."""
    h = hashlib.sha256(repr(w).encode())
    for path in sorted((ROOT / "src" / "modgcn").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_digest(key: str, digest: str) -> list:
    """Compare with the digest an earlier run of the same code, seed and
    backend left in this checkout; record it if there is none."""
    path = OUT_DIR / "digests" / key
    if path.is_file():
        earlier = path.read_text().strip()
        return [] if earlier == digest else [
            f"results digest {digest[:12]} differs from {earlier[:12]} "
            f"of an earlier run of the same code"]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_text(digest + "\n")
    tmp.replace(path)
    return []


def check_passes(w, passes) -> list:
    problems = []
    for i, p in enumerate(passes):
        if len(p["rows"]) != w.runs_per_pass:
            problems.append(f"pass {i}: {len(p['rows'])} result rows, "
                            f"{w.runs_per_pass} jobs attempted")
        low = [acc for model, acc, _ in p["rows"] if not math.isfinite(acc)
               or (model != "ica" and acc < ACC_FLOOR)]
        if low:
            problems.append(f"pass {i}: accuracies {low} not finite or "
                            f"below the floor {ACC_FLOOR:.3f}")
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"passes of one run (traced and untraced) gave "
                        f"{len(digests)} different results digests")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modgcn" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'modgcn'} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / (
        f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        return run(args, w, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, w, work) -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metric list: {exc}") from exc
    units = {m["name"]: m["unit"] for m in declared}
    labels, edges, features = synth.generate(args.seed)
    graph = synth.stats(labels, edges, features)
    dataset_dir = work / "data" / DATASET
    synth.write_linqs(dataset_dir, DATASET, args.seed, labels, edges,
                      features)
    problems = [f"graph: {p}" for p in synth.check_stats(graph)]

    probe_args = (w.name, dataset_dir, dataset_dir.parent)
    run_child("probe.py", probe_args, PROBE_TIMEOUT_S)  # cold: fills the cache
    setup = [] if args.trace else [
        run_child("probe.py", probe_args, PROBE_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_REPEATS)]
    started = time.perf_counter()
    measured = run_child(
        "measure.py", (w.name, args.seed, args.seconds, args.trace,
                       dataset_dir, work / "measure"), MEASURE_TIMEOUT_S)
    measure_s = time.perf_counter() - started

    passes = measured["passes"] + ([measured["traced_pass"]]
                                   if args.trace else [])
    problems += check_passes(w, passes)
    accs = [acc for _, acc, _ in passes[0]["rows"]]
    test_acc_mean = float(np.mean(accs)) if accs else math.nan
    if not abs(test_acc_mean - w.reference_acc) <= w.acc_tolerance:
        problems.append(f"test_acc_mean {test_acc_mean:.4f} is not within "
                        f"{w.acc_tolerance} of the reference "
                        f"{w.reference_acc}")
    backend, code = measured["backend"], code_hash(w)
    problems += check_digest(f"{w.name}-{args.seed}-{backend}-{code[:16]}",
                             passes[0]["digest"])

    attempted = w.runs_per_pass * len(passes)
    completed = sum(1 for p in passes for _, acc, _ in p["rows"]
                    if math.isfinite(acc))
    if args.trace:
        values = measured["per_layer"]
    else:
        values = {
            "runs_per_s": statistics.median(
                len(p["rows"]) / p["wall_s"] for p in passes),
            "epoch_ms": statistics.median(
                1e3 * p["wall_s"] / p["train_epochs"]
                for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": measured["peak_rss_mb"],
            "test_acc_mean": test_acc_mean,
            "completed_share": completed / attempted,
        }
    if set(units) != set(values):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "created": time.time(),
        "env": {
            "git_sha": git_sha(), "code_sha256": code,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "thread_caps": THREAD_CAPS,
            "backend": backend,
            "available_backends": measured["available_backends"],
        },
        "graph": graph, "setup_s": setup, "measure_s": measure_s,
        "computed": ("kernels.*.gflop is 2*nnz*width per kernel call and "
                     "kernels.mbytes comes from array sizes; neither is a "
                     "hardware count"),
        "passes": passes,
        "problems": problems, "result": result,
    }
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{w.name} seed={args.seed} backend={backend} "
          f"passes={len(passes)} graph={json.dumps(graph)}")
    for k, m in result["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
