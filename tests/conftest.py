"""Shared fixtures: synthetic graphs, a tiny on-disk dataset, the CSR
product's sequential reference, and the optional real citation-network
data (tests that need it skip when the files are absent)."""

import os
from pathlib import Path

import numpy as np
import pytest

from modgcn.datasets import load_dataset, resolve_dataset
from modgcn.sparse import Graph, build_graph


def random_graph(rng: np.random.Generator, n: int, p: float = 0.3,
                 num_classes: int = 3, n_feats: int = 4,
                 ensure_edge: bool = True) -> Graph:
    """Erdos-Renyi-ish test graph with round-robin labels."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    if ensure_edge and not edges:
        edges = [(0, 1)]
    features = rng.standard_normal((n, n_feats))
    labels = np.arange(n) % num_classes
    return build_graph(edges, features, labels)


def assert_same_graph(got: Graph, want: Graph) -> None:
    """The same adjacency, feature and label arrays, byte for byte and
    dtype for dtype, and the same counts."""
    for name in ("adjacency", "feature_csr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        for field in ("row_offsets", "col_indices", "values"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (name, field)
            assert x.tobytes() == y.tobytes(), (name, field)
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert (got.num_edges, got.num_classes) == (want.num_edges,
                                                want.num_classes)


def sequential_spmm(indptr, indices, data, x, out):
    """out + A @ x, one stored entry at a time in stored order: the sums
    every kernel backend must reproduce bit for bit."""
    out = out.copy()
    for i in range(len(indptr) - 1):
        row = out[i]
        for jj in range(indptr[i], indptr[i + 1]):
            row = row + data[jj] * x[indices[jj]]
        out[i] = row
    return out


def two_cliques_graph(scale: float = 1.0, bridge: bool = True) -> Graph:
    """Two 4-cliques, optionally joined by one edge; attributes separate
    the cliques exactly. Hand-traceable fixture."""
    clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges = clique + [(i + 4, j + 4) for i, j in clique]
    if bridge:
        edges.append((3, 4))
    features = np.zeros((8, 2))
    features[:4, 0] = scale
    features[4:, 1] = scale
    labels = np.array([0] * 4 + [1] * 4)
    return build_graph(edges, features, labels)


TINY_CONTENT = """\
n1\t1\t0\t0\tphysics
n2\t0\t1\t0\tbiology
n3\t0\t0\t1\tphysics
"""

TINY_CITES = """\
n1\tn2
"""


def write_tiny_dataset(root: Path, name: str = "tiny",
                       content: str = TINY_CONTENT,
                       cites: str = TINY_CITES) -> Path:
    """Materialize a 3-node LINQS-format dataset under root/name."""
    base = root / name
    base.mkdir(parents=True, exist_ok=True)
    (base / f"{name}.content").write_text(content)
    (base / f"{name}.cites").write_text(cites)
    return base


def write_blobs_dataset(root: Path, n_per_class: int = 12,
                        num_classes: int = 3, seed: int = 5) -> Path:
    """A larger on-disk dataset for CLI/harness tests: noisy one-hot
    attributes, dense within-class wiring, sparse across."""
    rng = np.random.default_rng(seed)
    name = "blobs"
    base = root / name
    base.mkdir(parents=True, exist_ok=True)
    n = n_per_class * num_classes
    labels = np.repeat(np.arange(num_classes), n_per_class)
    lines = []
    for i in range(n):
        row = rng.integers(0, 2, size=num_classes)
        row[labels[i]] = 1
        words = "\t".join(str(v) for v in row)
        lines.append(f"v{i}\t{words}\tclass{labels[i]}")
    (base / f"{name}.content").write_text("\n".join(lines) + "\n")
    cites = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.5 if labels[i] == labels[j] else 0.04
            if rng.random() < p:
                cites.append(f"v{i}\tv{j}")
    (base / f"{name}.cites").write_text("\n".join(cites) + "\n")
    return base


def _cora_dir() -> Path:
    return Path(os.environ.get("MODGCN_DATA_DIR", "data"))


def cora_available() -> bool:
    try:
        resolve_dataset("cora", str(_cora_dir()))
        return True
    except ValueError:
        return False


requires_cora = pytest.mark.skipif(
    not cora_available(),
    reason="cora dataset files not present (see scripts/fetch_cora.sh)")


@pytest.fixture(scope="session")
def cora_graph():
    if not cora_available():
        pytest.skip("cora dataset files not present")
    return load_dataset("cora", str(_cora_dir()))


@pytest.fixture
def tiny_dataset(tmp_path):
    return write_tiny_dataset(tmp_path)


@pytest.fixture
def blobs_dataset(tmp_path):
    return write_blobs_dataset(tmp_path)
