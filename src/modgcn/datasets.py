"""Citation-network ingestion (LINQS plain-text format), feature scaling,
stratified label sampling, and an optional binary graph cache.

Loaders are pure; every returned Graph is immutable. Network access is out
of scope: file paths are supplied by the caller (see scripts/fetch_cora.sh).
"""

import hashlib
import math
import os
import warnings
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .sparse import UNLABELED, CsrMatrix, Graph, build_graph

FEATURE_MODES = ("none", "row_normalize")

# part of every cache file name; bump it when the cache layout or the checks
# on load change, so that older files are ignored rather than misread
CACHE_FORMAT = 3

# loader self-checks: (nodes, feature dim, classes)
KNOWN_DATASETS = {
    "cora": (2708, 1433, 7),
    "citeseer": (3312, 3703, 6),
}


@dataclass(frozen=True)
class DatasetSource:
    """Paths to one dataset's .content and .cites files."""

    content_path: Path
    cites_path: Path
    name: str


@dataclass(frozen=True)
class Split:
    """A train/test split with the budget, seed and run index that made it."""

    train_ids: np.ndarray
    test_ids: np.ndarray
    labels_per_class: int
    seed: int
    run_index: int = 0


def resolve_dataset(dataset: str, data_dir: str) -> DatasetSource:
    """Map a dataset argument (known name or directory path) to file paths.

    Known names look under ``<data_dir>/<name>/<name>.content``; anything
    else is treated as a directory containing exactly one ``*.content``.
    """
    if dataset.lower() in KNOWN_DATASETS:
        name = dataset.lower()
        base = Path(data_dir) / name
        content, cites = base / f"{name}.content", base / f"{name}.cites"
    else:
        base = Path(dataset)
        matches = sorted(base.glob("*.content")) if base.is_dir() else []
        if len(matches) != 1:
            raise ValueError(
                f"dataset {dataset!r} is not a known name and is not a "
                f"directory with exactly one .content file")
        content = matches[0]
        cites = content.with_suffix(".cites")
        name = content.stem
    for path in (content, cites):
        if not path.is_file():
            raise ValueError(
                f"dataset file not found: {path} "
                f"(fetch the data or point --data-dir at it)")
    return DatasetSource(content, cites, name)


def load_linqs(src: DatasetSource) -> Graph:
    """Parse .content/.cites files into a Graph.

    String node ids become dense indices in file order; class names map to
    0..k-1 in lexicographic order; citation edges are symmetrized and any
    referencing an unknown id are dropped with a single count warning.
    """
    # numpy parses each row into one reused buffer and only the row's
    # nonzeros are kept: the features are CSR from the first line on
    ids, names, row_cols, row_vals = [], [], [], []
    n_cols = row = None
    with open(src.content_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if row is None:
                n_cols = len(fields)
                if n_cols < 3:
                    raise ValueError(
                        f"{src.content_path}:{lineno}: expected "
                        f"`id w_1..w_C class`, got {n_cols} columns")
                row = np.empty(n_cols - 2)
            if len(fields) != n_cols:
                raise ValueError(
                    f"{src.content_path}:{lineno}: expected {n_cols} "
                    f"columns, got {len(fields)}")
            try:
                row[:] = fields[1:-1]
            except ValueError as err:
                raise ValueError(f"{src.content_path}:{lineno}: {err}") from None
            # a -0 token is a zero like any other and is not stored
            nonzero = np.flatnonzero(row)
            row_cols.append(nonzero)
            row_vals.append(row[nonzero])
            ids.append(fields[0])
            names.append(fields[-1])
    if not ids:
        raise ValueError(f"{src.content_path}: empty .content file")
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum([c.size for c in row_cols], out=offsets[1:])
    features = CsrMatrix(len(ids), n_cols - 2, offsets,
                         np.concatenate(row_cols, dtype=np.int64),
                         np.concatenate(row_vals))

    index = {node_id: i for i, node_id in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError(f"{src.content_path}: duplicate node ids")
    class_names = sorted(set(names))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[c] for c in names], dtype=np.int64)

    edges, dropped = [], 0
    with open(src.cites_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(
                    f"{src.cites_path}:{lineno}: expected `cited citing`, "
                    f"got {len(fields)} columns")
            cited, citing = fields
            if cited in index and citing in index:
                edges.append((index[cited], index[citing]))
            else:
                dropped += 1
    if dropped:
        warnings.warn(
            f"{src.name}: dropped {dropped} citation(s) referencing "
            f"unknown node ids", stacklevel=2)

    graph = build_graph(edges, features, labels)
    expected = KNOWN_DATASETS.get(src.name)
    if expected is not None:
        got = (graph.num_nodes, features.n_cols, graph.num_classes)
        if got != expected:
            raise ValueError(
                f"{src.name}: loaded (nodes, features, classes)={got}, "
                f"expected {expected}; dataset files look corrupted")
    return graph


def preprocess_features(g: Graph, mode: str = "row_normalize") -> Graph:
    """Feature scaling. row_normalize multiplies each row's stored entries
    by 1 / its L1 norm, summed over those entries in column order (zero
    rows untouched; a product that underflows to 0 is dropped); none
    returns the graph unchanged."""
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {mode!r}; "
                         f"expected one of {FEATURE_MODES}")
    if mode == "none":
        return g
    x = g.feature_csr
    rows = np.repeat(np.arange(x.n_rows), np.diff(x.row_offsets))
    norms = np.bincount(rows, weights=np.abs(x.values), minlength=x.n_rows)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    values = x.values * scale[rows]
    keep = values != 0.0
    offsets = np.zeros_like(x.row_offsets)
    np.cumsum(np.bincount(rows[keep], minlength=x.n_rows), out=offsets[1:])
    return replace(g, feature_csr=CsrMatrix(
        x.n_rows, x.n_cols, offsets, x.col_indices[keep], values[keep]))


def stratified_split(g: Graph, labels_per_class: int, test_size: int = 1000,
                     seed: int = 0, run_index: int = 0) -> Split:
    """Sample ``labels_per_class`` train ids uniformly per class, then
    ``test_size`` test ids from the remaining labeled nodes. Disjoint,
    deterministic given the seed; ``run_index`` is only recorded."""
    if labels_per_class < 1:
        raise ValueError("labels_per_class must be >= 1")
    if test_size < 1:
        raise ValueError("test_size must be >= 1")
    labeled = np.flatnonzero(g.labels >= 0)
    needed = labels_per_class * g.num_classes + test_size
    if needed > labeled.size:
        raise ValueError(
            f"split needs {needed} labeled nodes, graph has {labeled.size}")
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(g.num_classes):
        members = np.flatnonzero(g.labels == c)
        if members.size < labels_per_class:
            raise ValueError(
                f"class {c} has {members.size} nodes, "
                f"need {labels_per_class}")
        picks.append(rng.choice(members, size=labels_per_class,
                                replace=False))
    train_ids = np.sort(np.concatenate(picks))
    remaining = np.setdiff1d(labeled, train_ids, assume_unique=True)
    if remaining.size < test_size:
        raise ValueError(
            f"only {remaining.size} nodes left for a test set of "
            f"{test_size}")
    test_ids = np.sort(rng.choice(remaining, size=test_size, replace=False))
    return Split(train_ids, test_ids, labels_per_class, seed, run_index)


def _file_digest(path: Path, h) -> None:
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def content_hash(src: DatasetSource) -> str:
    """Hex digest of both dataset files; keys the binary cache."""
    h = hashlib.sha256()
    _file_digest(src.content_path, h)
    _file_digest(src.cites_path, h)
    return h.hexdigest()


def save_graph_cache(g: Graph, path: Path) -> None:
    """Write ``g`` to ``path`` atomically: a crash leaves the old file or none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        # a file object, so that numpy does not append ".npz" to the name
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, **_csr_members("", g.adjacency),
                **_csr_members("feature_", g.feature_csr),
                labels=g.labels,
                meta=np.array([g.adjacency.n_rows, g.adjacency.n_cols,
                               g.num_classes, g.num_edges,
                               g.feature_csr.n_cols], dtype=np.int64))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_CSR_FIELDS = ("row_offsets", "col_indices", "values")


def _csr_members(prefix: str, m: CsrMatrix) -> dict:
    return {prefix + name: getattr(m, name) for name in _CSR_FIELDS}


def _csr_from(arrays: dict, prefix: str, n_rows: int, n_cols: int) -> CsrMatrix:
    return CsrMatrix(n_rows, n_cols, *(arrays[prefix + name]
                                       for name in _CSR_FIELDS))


def read_npz(path, what: str, parse):
    """Return ``parse(arrays)`` for the .npz archive at ``path``, where
    ``arrays`` maps each member's name to its array, in archive order.

    Every member's .npy header is checked against the member's stored size
    before any data is read, so a corrupt shape allocates nothing; pickled
    members are refused, and the zip CRC catches corrupted data. Any
    failure, in the file or in ``parse``, is one ValueError that names
    ``path`` as a malformed ``what``.
    """
    try:
        if not zipfile.is_zipfile(path):
            raise ValueError("not an .npz archive")
        with np.load(path, allow_pickle=False) as data:
            for info in data.zip.infolist():
                _check_npy_header(data.zip, info)
            return parse({name: data[name] for name in data.files})
    except (ValueError, TypeError, KeyError, OSError, EOFError,
            zipfile.BadZipFile) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed {what} {path}: {detail}") from exc


def _check_npy_header(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> None:
    with archive.open(info) as fh:
        version = np.lib.format.read_magic(fh)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, _, dtype = read_header(fh)
        claimed = fh.tell() + math.prod(shape) * dtype.itemsize
    if claimed != info.file_size:
        raise ValueError(f"member {info.filename!r} claims a {dtype} array "
                         f"of shape {shape} but stores {info.file_size} bytes")


def load_graph_cache(path: Path) -> Graph:
    """Read a cache written by :func:`save_graph_cache`.

    Raises one ValueError naming ``path`` when the file is unreadable or the
    graph in it breaks an invariant that later code relies on.
    """
    return read_npz(path, "graph cache", _cached_graph)


def _cached_graph(arrays: dict) -> Graph:
    meta = arrays["meta"]
    # a negative node count with empty row_offsets would reach an index
    # that CsrMatrix.validate assumes exists
    if meta.shape != (5,) or np.any(meta < 0):
        raise ValueError(f"meta must be 5 non-negative counts, got "
                         f"{meta.dtype} {meta.shape}")
    n_rows, n_cols, num_classes, num_edges, n_features = (int(v) for v in meta)
    adjacency = _csr_from(arrays, "", n_rows, n_cols)
    features = _csr_from(arrays, "feature_", n_rows, n_features)
    labels = arrays["labels"]
    _check_cached_graph(adjacency, features, labels, num_classes, num_edges)
    return Graph(adjacency, features, labels, num_classes, num_edges)


def _check_cached_graph(adjacency, features, labels, num_classes, num_edges):
    n = adjacency.n_rows
    if features.row_offsets.shape != (n + 1,):
        raise ValueError(f"features must have {n} rows, got row_offsets of "
                         f"shape {features.row_offsets.shape}")
    for what, m in (("adjacency", adjacency), ("features", features)):
        try:
            m.validate()
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
    if adjacency.n_cols != n:
        raise ValueError(f"adjacency is {adjacency.shape}, not square")
    if labels.dtype != np.int64 or labels.shape != (n,):
        raise ValueError(f"labels must be int64 of length {n}, got "
                         f"{labels.dtype} {labels.shape}")
    if n and (labels.min() < UNLABELED or labels.max() >= num_classes):
        raise ValueError(f"labels outside [{UNLABELED}, {num_classes})")
    if 2 * num_edges != adjacency.nnz:
        raise ValueError(f"{num_edges} edges recorded but the adjacency "
                         f"stores {adjacency.nnz} entries")


def load_dataset(dataset: str, data_dir: str = "data",
                 features: str = "row_normalize",
                 use_cache: bool = True) -> Graph:
    """Resolve, load (through the cache when possible), and preprocess.

    A cache that cannot be written costs one RuntimeWarning, not the load.
    """
    src = resolve_dataset(dataset, data_dir)
    graph = None
    if use_cache:
        cache = Path(data_dir) / ".cache" / (
            f"{src.name}-v{CACHE_FORMAT}-{content_hash(src)[:16]}.npz")
        if cache.is_file():
            graph = load_graph_cache(cache)
    if graph is None:
        graph = load_linqs(src)
        if use_cache:
            try:
                save_graph_cache(graph, cache)
            except OSError as exc:
                # the graph parsed; only the cache is lost, and the next load re-parses
                warnings.warn(f"could not write graph cache {cache}: {exc}",
                              RuntimeWarning, stacklevel=2)
    return preprocess_features(graph, features)
