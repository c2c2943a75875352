"""One set-up measurement in a fresh interpreter: importing the library,
then a load_dataset (warm when the cache exists), training_features and
build_supports for each encoder the workload trains.

    python3 perfbench/probe.py WORKLOAD DATASET_DIR DATA_DIR

Prints {"setup_s": seconds} as its last line.
"""

import json
import sys
import time

from workloads import CHEB_ORDER, WORKLOADS


def main(workload, dataset_dir, data_dir):
    start = time.perf_counter()
    import modgcn
    from modgcn.harness import training_features
    from modgcn.model import build_supports

    graph = modgcn.load_dataset(dataset_dir, data_dir, "row_normalize")
    training_features(graph)
    for encoder in WORKLOADS[workload].encoders:
        build_supports(modgcn.ModelSpec(encoder=encoder,
                                        cheb_order=CHEB_ORDER), graph)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(*sys.argv[1:])
