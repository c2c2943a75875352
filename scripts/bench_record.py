"""Summarise perfbench run records into one benchmark record file.

    python3 scripts/bench_record.py OUT.json [RECORDS_DIR ...]

Reads the records that ``perfbench/run.py`` writes (``*.json`` in each
RECORDS_DIR, by default ``.perfbench_out/records``), keeps the untraced
ones, and groups them by workload and by the hash of the code they ran
(``env.code_sha256``). For each group OUT.json holds the number of runs,
the median and the best of every end-to-end metric that BENCHMARK.json
declares, and the git SHA, kernel backend, numpy version and CPU count the
runs recorded. It also holds one calibration figure timed when the script
runs: the C kernel's product of the row-normalised feature matrix of the
seed-5 perfbench graph with a 16-column W. Records made on another day or
machine can be put on one scale by it.
"""

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import synth  # noqa: E402
from modgcn import kernels  # noqa: E402
from modgcn.datasets import preprocess_features  # noqa: E402
from modgcn.sparse import build_graph  # noqa: E402

CALIBRATION_SEED = 5
CALIBRATION_WIDTH = 16
CALIBRATION_REPEATS = 200
ENV_FIELDS = ("git_sha", "backend", "numpy", "nproc")


def load_records(dirs) -> list:
    records = []
    for directory in dirs:
        for path in sorted(Path(directory).glob("*.json")):
            record = json.loads(path.read_text())
            if not record["trace"]:
                records.append(record)
    return records


def summarise(records, declared) -> list:
    groups = defaultdict(list)
    for r in records:
        groups[r["workload"], r["env"]["code_sha256"]].append(r)
    out = []
    for (workload, code), group in sorted(groups.items()):
        metrics = {}
        for m in declared:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in group]
            best = max if m["better"] == "higher" else min
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "median": statistics.median(values),
                                  "best": best(values)}
        out.append({
            "workload": workload, "code_sha256": code, "n": len(group),
            "n_correct": sum(r["result"]["correct"] for r in group),
            "seeds": sorted(r["seed"] for r in group),
            "seconds": sorted({r["seconds"] for r in group}),
            **{name: sorted({str(r["env"][name]) for r in group})
               for name in ENV_FIELDS},
            "metrics": metrics,
        })
    return out


def calibration() -> dict:
    """Best and median wall time of the C kernel's X·W on the seed-5
    perfbench graph, X row-normalised as training reads it."""
    labels, edges, features = synth.generate(CALIBRATION_SEED)
    x = preprocess_features(build_graph(edges, features, labels)).feature_csr
    w = np.random.default_rng(0).standard_normal((x.n_cols, CALIBRATION_WIDTH))
    kernels.set_backend("c")
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        kernels.csr_dense_matmul(x.n_rows, x.n_cols, x.row_offsets,
                                 x.col_indices, x.values, w)
        times.append(time.perf_counter() - start)
    best = min(times)
    return {"what": f"C spmm of X ({x.n_rows} x {x.n_cols}, {x.nnz} "
                    f"stored, perfbench graph seed {CALIBRATION_SEED}) by a "
                    f"dense {x.n_cols} x {CALIBRATION_WIDTH} W",
            "repeats": CALIBRATION_REPEATS,
            "best_ms": 1e3 * best,
            "median_ms": 1e3 * statistics.median(times),
            "gflops": 2 * x.nnz * CALIBRATION_WIDTH / best / 1e9}


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out, dirs = Path(argv[0]), argv[1:] or [ROOT / ".perfbench_out" / "records"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = load_records(dirs)
    if not records:
        print(f"no untraced records in {[str(d) for d in dirs]}",
              file=sys.stderr)
        return 1
    summary = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "calibration": calibration(),
               "groups": summarise(records, declared)}
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}: {len(summary['groups'])} groups from "
          f"{len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
