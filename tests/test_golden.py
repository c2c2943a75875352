"""Committed output digests: "same bits" checked against fixed values, not
only between two backends or two runs of the same code.

On a small seeded graph, a child process writes the ``results.csv`` of a
gcn/chebnet x plain/mod/aux matrix and of an ICA matrix, one training log
and one checkpoint per encoder x variant, a ``sweep.csv`` of two models
at two alphas, the accuracy line that ``modgcn ica`` prints, the weights
and biases of ICA's two regressions without and with L2, and the output
of ``check-gradients --instances 6``. The test compares their SHA-256
with the digests below, which change only in a commit that moves bits on
purpose and says which outputs moved and why.

The backends agree bit for bit, so one set of digests serves both. The
machine does not: NumPy's SIMD dispatch moves ``exp``, ``log`` and
``tanh``, and OpenBLAS's CPU kernel moves the dense products. The child
therefore runs under a pinned dispatch that every x86-64 machine can run,
AVX2 and AVX-512 off in NumPy and OpenBLAS's Nehalem kernel. NumPy's
version fixes these bits too, so on another NumPy version, or outside
x86-64, only the CSV files and the ICA accuracy line are checked, whose
argmax hides the low bits, and the logs, checkpoints, ICA weights and
gradient output skip with the reason.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modgcn

DIGEST_NUMPY = "2.4.6"
PINNED_ENV = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Nehalem",
}

RESULTS_SHA256 = (
    "b34d6b7214a97a433c2ef2a3bcee7e91cbc6faf722f6482c4cd9432dc6789516")
# accuracies, checked on every machine
CSV_SHA256 = {
    "ica results.csv":
        "53b525b0b4bdbe9529dc484ade94e73674f0b1ba32f7f15cf817edfdb3bbc082",
    "sweep.csv":
        "cb2636280801d285726904c1426e7401e408885a8678ea93709b830c36d5ea47",
    "ica accuracy line":
        "92c54bd56b59239e94478b826cd0a92527b463dd32b3b8791f3f78296388c064",
}
# every bit of ICA's regressions, and the gradient suite's printed errors
BITS_SHA256 = {
    "ica weights l2=0.0":
        "6d6506690852a75e05e44cee78a17cd81552ed820a50ac26657b44e4d26fb1a7",
    "ica weights l2=0.01":
        "60693acc170a7ab28a2465532081399b89b5a0caf6663bb7d76b6dc3671a789d",
    "check-gradients":
        "b9c36a3c1c902f94a1d8c1830d8751b5dff94b0bf57ca67cf16d27da9d03b568",
}
# per encoder-variant model: (training log, checkpoint)
TRAINED_SHA256 = {
    "gcn": (
        "ec2d838f56c7428ef8fe4af1bc3b6a49c2ae9d04b3c63df224074c1acab34cb2",
        "499fed084e05e90024862fa75c2d6ddfb3e24544c1c4dc1abbe70d6f0d2a6321"),
    "gcn-mod": (
        "eeacdfbf940254dc26f96775c3f7fd001d48c58282563a9ea11114664284ea9f",
        "ca370b1678c6dacd6388c45ce9f8ee86dd6bb3acdeca94539d845d2428db1bd6"),
    "gcn-aux": (
        "b4877bf8ab8f6cb6769e1e6b33c47aad3c957c953bb9918a5d58a0dac37b77d6",
        "b1543a880b5efd15248c120b5543b8b7bce3aeef3c494d7a3ee868d9fb148fef"),
    "chebnet": (
        "c5fd6ea3c175b709f61af44cb7f3da6e6cacb5c2b655fcbc57534b136957a1a9",
        "1a869350c294c4b522b3989e50c97cde5ec5d6caaebec65854448e9212e93cd2"),
    "chebnet-mod": (
        "983d840082be28e41ec4734304bb1635ca357c1500f11b228c38a97360e896fd",
        "c889fa5935b4b88ec4473795a41c7ee8dd61b667edbb8fd82fbe43da14784160"),
    "chebnet-aux": (
        "2d2741aac24f914d28220a3fc48f1239c989ec097b09898e7bab7a07b7c92659",
        "4b812281a0cc3d7ed3c177506f42875666481774f494f6faac2fd444c767bbd7"),
}

CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path

from modgcn import cli
from modgcn.datasets import load_dataset, stratified_split
from modgcn.harness import (MatrixConfig, alpha_sweep, run_matrix, train_once,
                            write_sweep_csv)
from modgcn.ica import IcaConfig, train_classifiers
from modgcn.model import ModelSpec, build_model, save_checkpoint

data, out = Path(sys.argv[1]), Path(sys.argv[2])
models = ("gcn", "gcn-mod", "gcn-aux", "chebnet", "chebnet-mod",
          "chebnet-aux")
run_matrix(MatrixConfig(dataset=str(data / "golden"), data_dir=str(data),
                        models=models, budgets=(3, 10), n_runs=2,
                        test_size=100, alpha=0.5, out_dir=str(out)))
graph = load_dataset(str(data / "golden"), str(data))
split = stratified_split(graph, 5, test_size=100, seed=3)

def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()

digests = {"results.csv": sha256(out / "results.csv")}
for name in models:
    encoder, _, variant = name.partition("-")
    variant = variant or "plain"
    spec = ModelSpec(encoder=encoder, variant=variant,
                     alpha=0.0 if variant == "plain" else 0.5)
    model = build_model(spec, graph)
    log, checkpoint = out / f"{name}.csv", out / f"{name}.npz"
    train_once(model, graph, split, log_path=log)
    save_checkpoint(model, checkpoint)
    digests[name] = [sha256(log), sha256(checkpoint)]
run_matrix(MatrixConfig(dataset=str(data / "golden"), data_dir=str(data),
                        models=("ica",), budgets=(3, 10), n_runs=2,
                        test_size=100, out_dir=str(out / "ica")))
digests["ica results.csv"] = sha256(out / "ica" / "results.csv")
# as CI's comparison of the backends hashes them
for cfg in (IcaConfig(), IcaConfig(l2=0.01)):
    h = hashlib.sha256()
    for clf in train_classifiers(graph, split.train_ids, cfg, split.seed):
        h.update(clf.weight.tobytes() + clf.bias.tobytes())
    digests[f"ica weights l2={cfg.l2}"] = h.hexdigest()
sweeps, _ = alpha_sweep(MatrixConfig(
    dataset=str(data / "golden"), data_dir=str(data),
    models=("gcn-mod", "chebnet-aux"), budgets=(3,), n_runs=1,
    test_size=100), grid=(0.1, 0.5))
write_sweep_csv(out / "sweep.csv", sweeps)
digests["sweep.csv"] = sha256(out / "sweep.csv")
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    cli.main(["ica", "--dataset", str(data / "golden"), "--data-dir",
              str(data), "--labels-per-class", "5", "--test-size", "100",
              "--seed", "3"])
# the settings line names the temporary data directory; hash the result
(line,) = [row for row in printed.getvalue().splitlines()
           if row.startswith("ica test accuracy")]
digests["ica accuracy line"] = hashlib.sha256(line.encode()).hexdigest()
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    cli.main(["check-gradients", "--instances", "6"])
digests["check-gradients"] = hashlib.sha256(
    printed.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def write_golden_graph(root: Path, seed: int = 2024) -> None:
    """A 240-node, 4-class LINQS dataset ``golden`` under ``root``: class
    words and mostly within-class edges, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n, k, words = 240, 4, 48
    labels = np.arange(n) % k
    lines = []
    for i in range(n):
        row = (rng.random(words) < 0.05).astype(int)
        row[labels[i] * 12 + rng.integers(0, 12, size=3)] = 1
        lines.append("\t".join([f"p{i}", *map(str, row), f"c{labels[i]}"]))
    edges = set()
    while len(edges) < 3 * n:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j and (labels[i] == labels[j] or rng.random() < 0.2):
            edges.add((min(i, j), max(i, j)))
    base = root / "golden"
    base.mkdir(parents=True)
    (base / "golden.content").write_text("\n".join(lines) + "\n")
    (base / "golden.cites").write_text(
        "".join(f"p{i}\tp{j}\n" for i, j in sorted(edges)))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_golden_graph(root / "data")
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": str(Path(modgcn.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "data"),
                           str(root / "out")], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_results_csv_keeps_its_digest(digests):
    assert digests["results.csv"] == RESULTS_SHA256


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_ica_results_and_sweep_keep_their_digests(digests, name):
    assert digests[name] == CSV_SHA256[name]


pinned_numpy_on_x86_64 = pytest.mark.skipif(
    np.__version__ != DIGEST_NUMPY or platform.machine() not in (
        "x86_64", "AMD64"),
    reason=f"trained bits follow NumPy's version and the CPU; their "
           f"digests hold for NumPy {DIGEST_NUMPY} on x86-64 (the CSV files "
           f"are still checked)")


@pinned_numpy_on_x86_64
@pytest.mark.parametrize("name", sorted(TRAINED_SHA256))
def test_training_log_and_checkpoint_keep_their_digests(digests, name):
    assert tuple(digests[name]) == TRAINED_SHA256[name]


@pinned_numpy_on_x86_64
@pytest.mark.parametrize("name", sorted(BITS_SHA256))
def test_ica_weights_and_gradient_output_keep_their_digests(digests, name):
    assert digests[name] == BITS_SHA256[name]
