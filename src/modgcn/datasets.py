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


# .content is parsed this many characters at a time, cut back to whole
# lines, so memory stays flat whatever the file's size
CONTENT_BLOCK_CHARS = 1 << 18

# False at the code points that str.split() splits on (those for which
# str.isspace() holds), looked up by code point; a code point above
# U+3000, the last of them, is clipped to the final True
_IS_WORD = np.ones(0x3002, dtype=bool)
_IS_WORD[[0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85,
          0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
          0x205F, 0x3000]] = False


def _not_utf8(path) -> ValueError:
    """One error naming ``path:line`` of the file's first byte that is not
    UTF-8, its lines counted under universal newlines."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValueError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is "
                          f"not UTF-8 ({exc.reason})")
    return ValueError(f"{path}: not UTF-8 text")


def _content_rows(path, lines, lineno: int, n_cols: int | None):
    """Parse .content ``lines``, numbered from ``lineno``, one at a time:
    returns ``(n_cols, ids, names, row_cols, row_vals)`` or raises the
    ValueError, naming ``path:line``, of the first line it refuses.

    ``n_cols`` is the token count of every line, or None to take it from
    the first line that is not blank. Only the feature tokens other than
    ``"0"`` are converted, each by NumPy's parse, and only their nonzeros
    are kept. :func:`_content_block` parses whole blocks of lines and
    calls this only to word its error."""
    ids, names, row_cols, row_vals = [], [], [], []
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split()
        if not fields:
            continue
        if n_cols is None:
            n_cols = len(fields)
            if n_cols < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected `id w_1..w_C class`, got "
                    f"{n_cols} columns")
        if len(fields) != n_cols:
            raise ValueError(f"{path}:{lineno}: expected {n_cols} columns, "
                             f"got {len(fields)}")
        tokens = fields[1:-1]
        cols = [j for j, token in enumerate(tokens) if token != "0"]
        kept = [tokens[j] for j in cols]
        # float() also reads "1_0" as 10 and non-ASCII digits as digits
        joined = "".join(kept)
        if "_" in joined or not joined.isascii():
            bad = next(t for t in kept if "_" in t or not t.isascii())
            raise ValueError(f"{path}:{lineno}: feature value {bad!r} is not "
                             f"a plain decimal number")
        try:
            vals = np.array(kept, dtype=np.float64)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        finite = np.isfinite(vals)
        if not finite.all():
            raise ValueError(f"{path}:{lineno}: non-finite feature value "
                             f"{tokens[cols[np.argmin(finite)]]!r}")
        # another spelling of zero (-0, 0.0, an underflow) is not stored
        nonzero = vals != 0.0
        row_cols.append(np.array(cols, dtype=np.int64)[nonzero])
        row_vals.append(vals[nonzero])
        ids.append(fields[0])
        names.append(fields[-1])
    return n_cols, ids, names, row_cols, row_vals


def _content_block(path, text: str, lineno: int, n_cols: int | None):
    """Parse ``text``, whole .content lines numbered from ``lineno``, at
    once: returns ``(n_cols, ids, names, rows, cols, vals)``, the stored
    features as (row in the block, column, value) in row-major order.

    Token boundaries come from a whitespace lookup over the block's code
    points, so ``"0"`` tokens, most of a LINQS file, are skipped without
    a Python-level pass; the other feature tokens are sliced out and
    converted by one ``np.array(..., float64)``. The tokens, values and
    errors are those of :func:`_content_rows`, which words the error when
    anything here is refused."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    word = np.take(_IS_WORD, codes, mode="clip")
    edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    # before[k]: the tokens that start before line k ends
    before = np.searchsorted(starts, np.append(np.flatnonzero(codes == 10),
                                               len(codes)))
    per_line = np.diff(before, prepend=0)
    full = np.flatnonzero(per_line)
    if not full.size:
        nothing = np.zeros(0, dtype=np.int64)
        return n_cols, [], [], nothing, nothing, np.zeros(0)
    width = int(per_line[full[0]]) if n_cols is None else n_cols
    refused = width < 3 or np.any(per_line[full] != width)
    if not refused:
        kept = np.flatnonzero((ends - starts != 1)
                              | (codes[starts] != ord("0")))
        line = np.searchsorted(before, kept, side="right")
        col = kept - before[line] + width
        value = (col >= 1) & (col <= width - 2)
        kept, line, col = kept[value], line[value], col[value] - 1
        tokens = [text[a:b] for a, b in zip(starts[kept].tolist(),
                                            ends[kept].tolist())]
        joined = "".join(tokens)
        refused = "_" in joined or not joined.isascii()
    if not refused:
        try:
            vals = np.array(tokens, dtype=np.float64)
        except ValueError:
            refused = True
        else:
            refused = not np.isfinite(vals).all()
    if refused:
        _content_rows(path, text.split("\n"), lineno, n_cols)
        raise RuntimeError(f"{path}:{lineno}: the block parse refused a "
                           f"line that the row parse accepts")
    first, last = before[full] - width, before[full] - 1
    ids = [text[a:b] for a, b in zip(starts[first].tolist(), ends[first].tolist())]
    names = [text[a:b] for a, b in zip(starts[last].tolist(), ends[last].tolist())]
    # another spelling of zero (-0, 0.0, an underflow) is not stored
    nonzero = vals != 0.0
    return (width, ids, names, np.searchsorted(full, line[nonzero]),
            col[nonzero], vals[nonzero])


def _read_content(path):
    """The node ids, class names and feature CSR of a .content file, read
    as UTF-8 under universal newlines a block of whole lines at a time."""
    ids, names, rows, cols, vals = [], [], [], [], []
    n_cols, lineno, rest = None, 1, ""
    try:
        with open(path, encoding="utf-8") as fh:
            while True:
                chunk = fh.read(CONTENT_BLOCK_CHARS)
                text = rest + chunk
                cut = text.rfind("\n") + 1 if chunk else len(text)
                if cut:
                    n_cols, b_ids, b_names, b_rows, b_cols, b_vals = \
                        _content_block(path, text[:cut], lineno, n_cols)
                    rows.append(b_rows + len(ids))
                    ids += b_ids
                    names += b_names
                    cols.append(b_cols)
                    vals.append(b_vals)
                    lineno += text.count("\n", 0, cut)
                rest = text[cut:]
                if not chunk:
                    break
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not ids:
        raise ValueError(f"{path}: empty .content file")
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate(rows), minlength=len(ids)),
              out=offsets[1:])
    features = CsrMatrix(len(ids), n_cols - 2, offsets,
                         np.concatenate(cols, dtype=np.int64),
                         np.concatenate(vals))
    return ids, names, features


def load_linqs(src: DatasetSource) -> Graph:
    """Parse .content/.cites files into a Graph.

    Both files are read as UTF-8 under universal newlines, whatever the
    locale; a byte that is not UTF-8 is one ValueError naming ``path:line``.
    Tokens are separated as ``str.split()`` separates them. String node
    ids become dense indices in file order; class names map to 0..k-1 in
    lexicographic order; citation edges are symmetrized and any
    referencing an unknown id are dropped with a single count warning.
    A feature is a plain decimal number that NumPy parses; only the
    nonzeros are stored, so the features are CSR from the first block on
    (see :func:`_content_block`).
    """
    ids, names, features = _read_content(src.content_path)

    index = {node_id: i for i, node_id in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError(f"{src.content_path}: duplicate node ids")
    class_names = sorted(set(names))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[c] for c in names], dtype=np.int64)

    edges, dropped = [], 0
    try:
        with open(src.cites_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != 2:
                    raise ValueError(
                        f"{src.cites_path}:{lineno}: expected `cited "
                        f"citing`, got {len(fields)} columns")
                cited, citing = fields
                if cited in index and citing in index:
                    edges.append((index[cited], index[citing]))
                else:
                    dropped += 1
    except UnicodeDecodeError:
        raise _not_utf8(src.cites_path) from None
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
