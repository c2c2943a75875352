"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records run.py writes (by default under
.perfbench_out/records/); copy one commit's records aside before running
the other's. For each workload, trace mode and metric it prints both
sides' median with quartiles and the change of the medians. It refuses,
with exit code 2, to compare records taken on different kernel backends:
their times differ for reasons no change to the code explains, and their
results need not match bit for bit.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """{(workload, trace): {metric: [values]}} and the backends seen."""
    groups, backends = {}, set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        backends.add(record["env"]["backend"])
        metrics = groups.setdefault((record["workload"], record["trace"]), {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return groups, backends


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_backends), (new, new_backends) = map(load, argv)
    if not base or not new:
        print("error: no records in one of the directories", file=sys.stderr)
        return 2
    backends = base_backends | new_backends
    if len(backends) != 1:
        print(f"error: records come from different kernel backends "
              f"{sorted(backends)}; not comparing", file=sys.stderr)
        return 2
    print(f"backend: {backends.pop()}")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): median [q1, q3], "
              f"n = {len(next(iter(base[key].values())))} vs "
              f"{len(next(iter(new[key].values())))} runs")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = summary(base[key][name]), summary(new[key][name])
            change = (f"{n[1] / b[1] - 1:+.2%}" if b[1] else "n/a")
            print(f"  {name:38s} {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  ->  "
                  f"{n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
