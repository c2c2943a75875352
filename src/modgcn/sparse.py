"""Sparse graph core: CSR matrices, graph construction, what a graph fixes
(degrees, the dense features, the layer-1 feature operand, a memo of built
filters), the normalized graph operators, and the lazily-applied modularity
operator.

Dense matrices throughout the package are float64 numpy arrays in row-major
order. CSR index arrays are int64.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import kernels

UNLABELED = -1

# below this density the feature matrix goes through the sparse kernels
SPARSE_FEATURE_DENSITY = 0.25


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed-sparse-row real matrix in canonical form.

    Canonical means: row_offsets is non-decreasing with row_offsets[0] = 0
    and row_offsets[-1] = nnz, column indices are strictly increasing within
    each row, and no explicit zeros are stored.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "CsrMatrix":
        """Build a canonical CSR matrix from coordinate triplets.

        Duplicate coordinates are summed; entries that are exactly zero
        after summation are dropped.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            new_group = np.empty(len(rows), dtype=bool)
            new_group[0] = True
            new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group_ids = np.cumsum(new_group) - 1
            vals = np.bincount(group_ids, weights=vals)
            rows, cols = rows[new_group], cols[new_group]
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
        return cls(n_rows, n_cols, offsets, cols, vals)

    @classmethod
    def from_dense(cls, arr) -> "CsrMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out

    @cached_property
    def T(self) -> "CsrMatrix":
        """The transpose, built on first use and kept with the matrix."""
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_offsets))
        return CsrMatrix.from_coo(self.n_cols, self.n_rows, self.col_indices, rows, self.values)

    def scaled(self, c: float) -> "CsrMatrix":
        if c == 0.0:
            return CsrMatrix.from_coo(self.n_rows, self.n_cols, [], [], [])
        return CsrMatrix(self.n_rows, self.n_cols, self.row_offsets,
                         self.col_indices, self.values * c)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x for dense x of shape (n_cols, p) or (n_cols,)."""
        if x.ndim == 1:
            return self.dot(x[:, None])[:, 0]
        return kernels.csr_dense_matmul(self.n_rows, self.n_cols, self.row_offsets,
                                        self.col_indices, self.values, x)

    def validate(self) -> None:
        """Raise ValueError if any canonical-form invariant is violated."""
        off, cols, vals = self.row_offsets, self.col_indices, self.values
        if (off.dtype != np.int64 or cols.dtype != np.int64 or vals.dtype != np.float64
                or off.ndim != 1 or cols.ndim != 1 or vals.ndim != 1):
            raise ValueError("CSR arrays must be 1-D: int64 row_offsets and "
                             "col_indices, float64 values")
        if len(off) != self.n_rows + 1 or off[0] != 0 or off[-1] != len(vals):
            raise ValueError("row_offsets inconsistent with stored entries")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(cols) != len(vals):
            raise ValueError("col_indices and values length mismatch")
        # the compiled kernel reads x[col] unchecked
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        # bad[j] flags stored entries j and j+1; pairs that straddle a row
        # boundary are not compared
        bad = np.diff(cols) <= 0
        bounds = off[1:-1]
        bad[bounds[(bounds > 0) & (bounds < len(cols))] - 1] = False
        if np.any(bad):
            first = int(np.argmax(bad))
            row = int(np.searchsorted(off, first, side="right")) - 1
            raise ValueError(f"column indices not strictly increasing in row {row}")
        if np.any(vals == 0.0):
            raise ValueError("explicit zero stored")


def sparse_add(a: CsrMatrix, b: CsrMatrix, ca: float = 1.0, cb: float = 1.0) -> CsrMatrix:
    """ca*a + cb*b as a canonical CSR matrix (exact zeros dropped)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} + {b.shape}")
    rows_a = np.repeat(np.arange(a.n_rows, dtype=np.int64), np.diff(a.row_offsets))
    rows_b = np.repeat(np.arange(b.n_rows, dtype=np.int64), np.diff(b.row_offsets))
    return CsrMatrix.from_coo(
        a.n_rows, a.n_cols,
        np.concatenate([rows_a, rows_b]),
        np.concatenate([a.col_indices, b.col_indices]),
        np.concatenate([ca * a.values, cb * b.values]),
    )


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph.

    adjacency is symmetric, binary, zero-diagonal CSR; feature_csr holds
    the (n, C) node features as canonical CSR; labels holds class ids in
    0..num_classes-1 with UNLABELED (-1) for nodes without a label. What
    the graph fixes is derived on first use and lives and dies with the
    graph object.
    """

    adjacency: CsrMatrix
    feature_csr: CsrMatrix
    labels: np.ndarray
    num_classes: int
    num_edges: int

    @property
    def num_nodes(self) -> int:
        return self.adjacency.n_rows

    @cached_property
    def degrees(self) -> np.ndarray:
        """Unweighted node degrees k_i; sum(degrees) == 2 * num_edges."""
        return np.diff(self.adjacency.row_offsets).astype(np.float64)

    @cached_property
    def features(self) -> np.ndarray:
        """The features as a dense (n, C) float64 array, built on first use
        (by ICA; training reads ``feature_operand``)."""
        return self.feature_csr.to_dense()

    @cached_property
    def feature_operand(self):
        """The layer-1 input: ``feature_csr`` itself when the feature
        density is below SPARSE_FEATURE_DENSITY, else the dense array."""
        x = self.feature_csr
        size = x.n_rows * x.n_cols
        if size and x.nnz / size < SPARSE_FEATURE_DENSITY:
            return x
        return self.features

    @cached_property
    def filters(self) -> dict:
        """Built graph filters, keyed by what fixes each (``model.build_model``
        fills it)."""
        return {}

    def __getstate__(self):
        # the fields only: a copy, such as a pool worker's, derives its own
        return {f.name: getattr(self, f.name) for f in fields(self)}


def node_ids(ids, what: str, num_nodes: int) -> np.ndarray:
    """``ids`` as int64 ids of nodes 0..num_nodes-1. A non-integer dtype or
    an id out of range is a ValueError, not a cast or a wrap (floats
    truncate, a boolean mask reads as nodes 1 and 0, id -1 is the last
    node); an empty array passes, for the caller to name in its own terms."""
    arr = np.asarray(ids)
    if not arr.size:
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} must be integer node ids, not {arr.dtype}")
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise ValueError(f"{what} out of range")
    return arr.astype(np.int64, copy=False)


def train_node_ids(ids, num_nodes: int) -> np.ndarray:
    """``node_ids`` for a training set, where a repeated id is a ValueError
    too: a trainer would count the repeated node twice."""
    ids = node_ids(ids, "train ids", num_nodes)
    if ids.size:
        unique, counts = np.unique(ids, return_counts=True)
        if counts.max() > 1:
            raise ValueError(f"train id {unique[counts > 1][0]} is repeated")
    return ids


def build_graph(edge_list, features, labels) -> Graph:
    """Assemble a Graph from an undirected edge list and a dense or CSR
    (n, C) feature matrix.

    Self-loops are dropped, duplicate edges (in either orientation) are
    deduplicated, and the adjacency is symmetrized.
    """
    if isinstance(features, CsrMatrix):
        features.validate()
    else:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        features = CsrMatrix.from_dense(features)
    n = features.n_rows
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != n:
        raise ValueError(f"label list length {len(labels)} != node count {n}")
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("node id out of range in edge list")
    edges = edges[edges[:, 0] != edges[:, 1]]  # drop self-loops
    both = np.concatenate([edges, edges[:, ::-1]])
    adjacency = CsrMatrix.from_coo(n, n, both[:, 0], both[:, 1], np.ones(len(both)))
    # duplicates were summed during canonicalization; reset to binary
    adjacency = CsrMatrix(n, n, adjacency.row_offsets, adjacency.col_indices,
                          np.ones(adjacency.nnz))
    num_classes = int(labels.max()) + 1 if np.any(labels != UNLABELED) else 0
    return Graph(adjacency, features, labels, num_classes, adjacency.nnz // 2)


def gcn_support(g: Graph) -> CsrMatrix:
    """Self-loop-augmented symmetric normalization Dt^{-1/2}(A+I)Dt^{-1/2}."""
    a_tilde = sparse_add(g.adjacency, CsrMatrix.identity(g.num_nodes))
    d_tilde = g.degrees + 1.0
    return _scale_sym(a_tilde, 1.0 / np.sqrt(d_tilde))


def normalized_laplacian(g: Graph) -> CsrMatrix:
    """I - D^{-1/2} A D^{-1/2}; rows of isolated nodes reduce to the identity."""
    d = g.degrees
    s = np.zeros_like(d)
    nz = d > 0
    s[nz] = 1.0 / np.sqrt(d[nz])
    return sparse_add(_scale_sym(g.adjacency, s), CsrMatrix.identity(g.num_nodes), ca=-1.0)


def _scale_sym(m: CsrMatrix, s: np.ndarray) -> CsrMatrix:
    """Entrywise s_i * m_ij * s_j."""
    rows = np.repeat(np.arange(m.n_rows), np.diff(m.row_offsets))
    return CsrMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices,
                     m.values * s[rows] * s[m.col_indices])


def _check_modularity_args(g: Graph, h: np.ndarray) -> np.ndarray:
    if g.num_edges == 0:
        raise ValueError("empty graph: modularity undefined when e = 0")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        h = h[:, None]
    if h.shape[0] != g.num_nodes:
        raise ValueError(f"assignment matrix has {h.shape[0]} rows, expected {g.num_nodes}")
    return h


def modularity_apply(g: Graph, h: np.ndarray) -> np.ndarray:
    """B @ H for the modularity matrix B = A - k k^T / 2e, applied lazily.

    The dense B is never formed: cost is O(nnz(A) * p + n * p).
    """
    h = _check_modularity_args(g, h)
    k = g.degrees
    two_e = 2.0 * g.num_edges
    return g.adjacency.dot(h) - np.outer(k, k @ h) / two_e


def modularity_trace(g: Graph, h: np.ndarray) -> float:
    """Raw partition score tr(H^T B H)."""
    h = _check_modularity_args(g, h)
    return float(np.sum(h * modularity_apply(g, h)))


def modularity_score(g: Graph, h: np.ndarray) -> float:
    """Normalized modularity Q = tr(H^T B H) / 2e."""
    return modularity_trace(g, h) / (2.0 * g.num_edges)
