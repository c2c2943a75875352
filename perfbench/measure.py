"""The workload process: timed passes over one workload.

    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE DATASET_DIR WORK_DIR

Untraced (TRACE=0): passes until the next one would end after SECONDS,
at least one. Traced (TRACE=1): one untraced pass, then one pass at
jobs=1 with spans installed around the library's functions. Prints one
JSON object as its last line. The process holds nothing but the library
and the workload, so its peak memory is the workload's.
"""

import csv
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import ALPHA, CHEB_ORDER, EPOCHS, WORKLOADS

from modgcn import kernels
from modgcn.harness import (MatrixConfig, alpha_sweep, run_matrix,
                            write_results_csv, write_sweep_csv)
from spans import Tracer


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(w, seed, dataset_dir, out_dir, jobs) -> dict:
    config = MatrixConfig(
        dataset=str(dataset_dir), data_dir=str(dataset_dir.parent),
        models=w.models, budgets=w.budgets, n_runs=w.n_runs, base_seed=seed,
        epochs=EPOCHS, cheb_order=CHEB_ORDER, alpha=ALPHA,
        out_dir=str(out_dir), jobs=jobs)
    wall, cpu = time.perf_counter(), cpu_seconds()
    if w.grid:
        sweeps, runs = alpha_sweep(config, grid=w.grid)
        write_sweep_csv(out_dir / "sweep.csv", sweeps)
        write_results_csv(out_dir / "results.csv", runs)
    else:
        run_matrix(config)
    wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu

    digest = hashlib.sha256()
    for name in ("results.csv", "sweep.csv"):
        if (out_dir / name).is_file():
            digest.update((out_dir / name).read_bytes())
    with open(out_dir / "results.csv", newline="") as fh:
        rows = [[r["model"], float(r["accuracy"]), int(r["epochs"])]
                for r in csv.DictReader(fh)]
    # optimizer epochs the runs are configured for: ICA fits two
    # logistic regressions per run
    train_epochs = sum(2 * config.ica.epochs if model == "ica"
                       else config.epochs for model, _, _ in rows)
    return {"wall_s": wall, "cpu_s": cpu, "rows": rows,
            "train_epochs": train_epochs, "digest": digest.hexdigest()}


def main(workload, seed, seconds, trace, dataset_dir, work_dir):
    w = WORKLOADS[workload]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    dataset_dir, work_dir = Path(dataset_dir), Path(work_dir)

    def one_pass(index, jobs):
        base = work_dir / f"pass{index}"
        source = dataset_dir
        if w.cold:
            # a private copy of the LINQS files, so its cache dir is empty
            source = base / "data" / dataset_dir.name
            shutil.copytree(dataset_dir, source)
        return run_pass(w, seed, source, base / "out", jobs)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes), w.jobs))
        elapsed = time.perf_counter() - start
        if trace or elapsed + passes[-1]["wall_s"] > seconds:
            break
    # ru_maxrss is in KiB. The children's figure is the largest reaped pool
    # worker's, and 0 when the workload runs without a pool.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"backend": kernels.backend_name(),
           "available_backends": kernels.available_backends(),
           "passes": passes,
           "peak_rss_mb": (own + w.jobs * worker) / 1024.0}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = one_pass(len(passes), 1)
        finally:
            tracer.uninstall()
        out["traced_pass"] = traced
        out["per_layer"] = tracer.metrics(
            traced["wall_s"], traced["cpu_s"] / passes[0]["cpu_s"] - 1.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main(*sys.argv[1:])
