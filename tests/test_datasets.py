"""LINQS parsing, feature scaling, stratified splits, and the graph cache."""

import dataclasses
import importlib.util
import io
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import (TINY_CITES, TINY_CONTENT, assert_same_graph,
                      write_tiny_dataset)
from modgcn import datasets
from modgcn.datasets import (DatasetSource, Split, content_hash,
                             load_dataset, load_graph_cache, load_linqs,
                             preprocess_features, resolve_dataset,
                             save_graph_cache, stratified_split)
from modgcn.sparse import CsrMatrix, build_graph, upper_edges

SYNTH = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"


def tiny_source(tmp_path, content=TINY_CONTENT, cites=TINY_CITES):
    base = write_tiny_dataset(tmp_path, content=content, cites=cites)
    return DatasetSource(base / "tiny.content", base / "tiny.cites", "tiny")


class TestResolve:
    def test_known_name_under_data_dir(self, tmp_path):
        base = tmp_path / "cora"
        base.mkdir()
        (base / "cora.content").write_text(TINY_CONTENT)
        (base / "cora.cites").write_text(TINY_CITES)
        src = resolve_dataset("cora", str(tmp_path))
        assert src.name == "cora"
        assert src.content_path.is_file()

    def test_directory_path(self, tiny_dataset):
        src = resolve_dataset(str(tiny_dataset), "ignored")
        assert src.name == "tiny"

    def test_missing_files_error_is_single_line(self, tmp_path):
        with pytest.raises(ValueError) as err:
            resolve_dataset("cora", str(tmp_path / "nowhere"))
        assert "\n" not in str(err.value)


class TestLoadLinqs:
    def test_tiny_fixture_shapes(self, tmp_path):
        g = load_linqs(tiny_source(tmp_path))
        assert g.num_nodes == 3
        assert g.features.shape == (3, 3)
        assert g.num_edges == 1
        # classes sorted lexicographically: biology=0, physics=1
        np.testing.assert_array_equal(g.labels, [1, 0, 1])
        np.testing.assert_array_equal(
            g.adjacency.to_dense(),
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_unknown_citation_dropped_with_warning(self, tmp_path):
        src = tiny_source(tmp_path, cites="n1\tn2\nn1\tghost\n")
        with pytest.warns(UserWarning, match="dropped 1 citation"):
            g = load_linqs(src)
        assert g.num_edges == 1

    def test_malformed_content_line(self, tmp_path):
        bad = TINY_CONTENT + "n4\t1\tphysics\n"  # wrong column count
        with pytest.raises(ValueError, match="columns"):
            load_linqs(tiny_source(tmp_path, content=bad))

    def test_features_equal_a_per_row_parse(self, tmp_path):
        # integers, shortest reprs, subnormals, signed zeros and more digits
        # than a double holds, and a blank line, each row parsed as numpy
        # parses a list of tokens; the one exception is -0, a zero that is
        # not stored and so reads back as +0.0
        rng = np.random.default_rng(0)
        values = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        rows = [[repr(v) for v in row] for row in values.tolist()]
        rows[0] = ["0", "1", "-0", "1e-320", "3.14159265358979323846264"]
        rows[1][:2] = ["0.1", "-2.5E+3"]
        content = "".join(f"n{i}\t" + "\t".join(row) + f"\tc{i % 2}\n"
                          + "\n" * (i == 2) for i, row in enumerate(rows))
        g = load_linqs(tiny_source(tmp_path, content=content))
        want = np.stack([np.array(row, dtype=np.float64) for row in rows])
        assert np.signbit(want[0, 2]) and want[0, 2] == 0.0
        want[0, 2] = 0.0
        g.feature_csr.validate()
        assert g.feature_csr.nnz == np.count_nonzero(want)
        assert g.features.shape == want.shape
        assert g.features.tobytes() == want.tobytes()

    def test_non_numeric_feature_names_its_line(self, tmp_path):
        bad = TINY_CONTENT + "\nn4\t1\tx\t0\tphysics\n"  # line 5
        with pytest.raises(ValueError, match=r"tiny\.content:5: .*'x'") as err:
            load_linqs(tiny_source(tmp_path, content=bad))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
    def test_non_finite_feature_names_its_line(self, tmp_path, token):
        bad = TINY_CONTENT + f"n4\t1\t{token}\t0\tphysics\n"  # line 4
        with pytest.raises(ValueError, match=rf"tiny\.content:4: non-finite "
                                             rf"feature value '{token}'"):
            load_linqs(tiny_source(tmp_path, content=bad))

    # float() reads "1_0" as 10.0 and the Arabic-Indic digit one as 1.0
    @pytest.mark.parametrize("token", ["1_0", "١", "0.5_5"])
    def test_loose_float_spelling_names_its_line(self, tmp_path, token):
        bad = TINY_CONTENT + f"n4\t1\t{token}\t0\tphysics\n"  # line 4
        with pytest.raises(ValueError, match=rf"tiny\.content:4: feature "
                                             rf"value '{token}' is not a "
                                             rf"plain decimal number"):
            load_linqs(tiny_source(tmp_path, content=bad))

    def test_underscored_class_name_loads(self, tmp_path):
        # cora's classes include Case_Based
        content = TINY_CONTENT.replace("biology", "Case_Based")
        g = load_linqs(tiny_source(tmp_path, content=content))
        np.testing.assert_array_equal(g.labels, [1, 0, 1])
        assert g.feature_csr.nnz == 3

    def test_malformed_cites_line(self, tmp_path):
        with pytest.raises(ValueError, match="cited citing"):
            load_linqs(tiny_source(tmp_path, cites="n1\tn2\tn3\n"))

    def test_empty_content_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_linqs(tiny_source(tmp_path, content=""))

    def test_duplicate_ids_rejected(self, tmp_path):
        dup = TINY_CONTENT + "n1\t0\t0\t0\tbiology\n"
        with pytest.raises(ValueError, match="duplicate"):
            load_linqs(tiny_source(tmp_path, content=dup))

    # a byte that is not UTF-8 on the second line, after a CRLF: one error
    # that names the file and the line, read as universal newlines read it
    @pytest.mark.parametrize("which", ["content", "cites"])
    def test_file_that_is_not_utf8_names_its_line(self, tmp_path, which):
        src = tiny_source(tmp_path, cites=TINY_CITES + "n2\tn3\n")
        path = getattr(src, f"{which}_path")
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\r\n" + rest.replace(b"n", b"\xffn", 1))
        with pytest.raises(ValueError) as err:
            load_linqs(src)
        assert str(err.value) == (f"{path}:2: byte 0xff is not UTF-8 "
                                  f"(invalid start byte)")

    # each refused line, far enough into the file that a small block puts
    # it in a later block than the first line
    @pytest.mark.parametrize("bad, message", [
        ("n4\t1\tphysics\n", "expected 5 columns, got 3"),
        ("n4\t1\tx\t0\tphysics\n", "could not convert string to float: 'x'"),
        ("n4\t1\tnan\t0\tphysics\n", "non-finite feature value 'nan'"),
        ("n4\t1\t1_0\t0\tphysics\n",
         "feature value '1_0' is not a plain decimal number"),
    ])
    @pytest.mark.parametrize("block", [1, 7, 30, datasets.CONTENT_BLOCK_CHARS])
    def test_refused_line_is_named_at_any_block_size(self, tmp_path,
                                                     monkeypatch, bad,
                                                     message, block):
        monkeypatch.setattr(datasets, "CONTENT_BLOCK_CHARS", block)
        content = TINY_CONTENT + "\r\n" + bad + TINY_CONTENT.replace("n", "m")
        src = tiny_source(tmp_path, content=content)
        with pytest.raises(ValueError) as err:
            load_linqs(src)
        assert str(err.value) == f"{src.content_path}:5: {message}"

    def test_self_check_rejects_truncated_known_dataset(self, tmp_path):
        base = write_tiny_dataset(tmp_path, name="cora")
        src = DatasetSource(base / "cora.content", base / "cora.cites",
                            "cora")
        with pytest.raises(ValueError, match="expected"):
            load_linqs(src)


class TestPreprocess:
    def test_row_normalize(self):
        g = build_graph([(0, 1)], np.array([[1.0, 1.0, 2.0],
                                            [0.0, 0.0, 0.0]]),
                        np.array([0, 1]))
        out = preprocess_features(g, "row_normalize")
        np.testing.assert_allclose(out.features[0], [0.25, 0.25, 0.5])
        np.testing.assert_array_equal(out.features[1], [0.0, 0.0, 0.0])

    def test_entry_that_underflows_is_dropped(self):
        # -5e-324 / 4 rounds to -0.0: not stored, so it reads back as +0.0
        g = build_graph([(0, 1)], np.array([[-5e-324, 4.0], [0.0, 3.0]]),
                        np.array([0, 1]))
        out = preprocess_features(g, "row_normalize")
        out.feature_csr.validate()
        assert out.features.tobytes() == np.array([[0.0, 1.0],
                                                   [0.0, 1.0]]).tobytes()

    def test_none_is_identity(self):
        g = build_graph([(0, 1)], np.array([[1.0], [2.0]]),
                        np.array([0, 1]))
        out = preprocess_features(g, "none")
        assert out.features is g.features

    def test_unknown_mode(self):
        g = build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]))
        with pytest.raises(ValueError, match="feature mode"):
            preprocess_features(g, "standardize")


def synthetic_graph(n=200, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
             for _ in range(3 * n)]
    labels = np.arange(n) % num_classes
    return build_graph(edges, rng.standard_normal((n, 3)), labels)


class TestStratifiedSplit:
    def test_sizes_and_disjointness(self):
        g = synthetic_graph()
        split = stratified_split(g, 5, test_size=100, seed=1)
        assert len(split.train_ids) == 5 * 4
        assert len(split.test_ids) == 100
        assert len(np.intersect1d(split.train_ids, split.test_ids)) == 0

    def test_per_class_counts_equal(self):
        g = synthetic_graph()
        split = stratified_split(g, 7, test_size=50, seed=2)
        counts = np.bincount(g.labels[split.train_ids], minlength=4)
        np.testing.assert_array_equal(counts, [7, 7, 7, 7])

    def test_split_records_what_made_it(self):
        g = synthetic_graph()
        split = stratified_split(g, 5, test_size=100, seed=11, run_index=4)
        assert isinstance(split, Split)
        assert (split.labels_per_class, split.seed, split.run_index) == \
            (5, 11, 4)
        assert stratified_split(g, 5, test_size=100, seed=11).run_index == 0

    def test_draw_order_is_pinned(self):
        # the ids every results.csv is built on: a change to the order of
        # the rng draws moves them
        split = stratified_split(synthetic_graph(n=20), 2, test_size=5,
                                 seed=7)
        np.testing.assert_array_equal(split.train_ids,
                                      [6, 7, 9, 12, 13, 14, 16, 19])
        np.testing.assert_array_equal(split.test_ids, [0, 1, 4, 10, 15])

    def test_same_seed_same_split(self):
        g = synthetic_graph()
        a = stratified_split(g, 5, test_size=100, seed=3)
        b = stratified_split(g, 5, test_size=100, seed=3)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)

    def test_different_seed_different_split(self):
        g = synthetic_graph()
        a = stratified_split(g, 5, test_size=100, seed=4)
        b = stratified_split(g, 5, test_size=100, seed=5)
        assert not np.array_equal(a.train_ids, b.train_ids)

    def test_property_balance_and_disjointness_1000_seeds(self):
        g = synthetic_graph()
        for seed in range(1000):
            split = stratified_split(g, 3, test_size=40, seed=seed)
            assert len(np.intersect1d(split.train_ids, split.test_ids)) == 0
            np.testing.assert_array_equal(
                np.bincount(g.labels[split.train_ids], minlength=4),
                [3, 3, 3, 3])

    def test_class_too_small(self):
        # 17 of class 0 but only 3 of class 1: the total is plenty,
        # the per-class quota is not
        labels = np.array([0] * 17 + [1] * 3)
        g = build_graph([(i, i + 1) for i in range(19)],
                        np.ones((20, 2)), labels)
        with pytest.raises(ValueError, match="class"):
            stratified_split(g, 4, test_size=2, seed=0)

    def test_test_set_too_large(self):
        g = synthetic_graph(n=20)
        with pytest.raises(ValueError, match="labeled nodes"):
            stratified_split(g, 2, test_size=500, seed=0)

    @pytest.mark.parametrize("labels_per_class, test_size, field", [
        (0, 5, "labels_per_class"), (2, 0, "test_size")])
    def test_sizes_below_one(self, labels_per_class, test_size, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            stratified_split(synthetic_graph(n=20), labels_per_class,
                             test_size=test_size, seed=0)


def with_features(g, n_rows=None, last_col=None, last_value=None):
    """``g`` with its feature CSR cut to ``n_rows`` rows, or its last stored
    entry moved to column ``last_col`` or set to ``last_value``."""
    x = g.feature_csr
    off, cols, vals = x.row_offsets, x.col_indices.copy(), x.values.copy()
    if n_rows is not None:
        off = off[:n_rows + 1]
        cols, vals = cols[:off[-1]], vals[:off[-1]]
    if last_col is not None:
        cols[-1] = last_col
    if last_value is not None:
        vals[-1] = last_value
    return dataclasses.replace(g, feature_csr=CsrMatrix(
        len(off) - 1, x.n_cols, off, cols, vals))


def replace_member(path, name, data):
    """Rewrite the .npz at ``path`` with member ``name`` set to ``data``:
    raw bytes, or an array saved in .npy form."""
    if isinstance(data, np.ndarray):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, data)
        data = buf.getvalue()
    with zipfile.ZipFile(path) as archive:
        members = {i.filename: archive.read(i) for i in archive.infolist()}
    members[name] = data
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for member, raw in members.items():
            archive.writestr(member, raw)


class TestCache:
    def test_round_trip_identical(self, tmp_path):
        g = synthetic_graph(n=30)
        path = tmp_path / "g.npz"
        save_graph_cache(g, path)
        loaded = load_graph_cache(path)
        np.testing.assert_array_equal(loaded.adjacency.to_dense(),
                                      g.adjacency.to_dense())
        np.testing.assert_array_equal(loaded.features, g.features)
        np.testing.assert_array_equal(loaded.labels, g.labels)
        assert loaded.num_classes == g.num_classes
        assert loaded.num_edges == g.num_edges

    def test_content_hash_tracks_file_changes(self, tmp_path):
        src = tiny_source(tmp_path)
        before = content_hash(src)
        src.cites_path.write_text("n2\tn3\n")
        assert content_hash(src) != before

    def test_load_dataset_uses_and_refreshes_cache(self, tmp_path):
        write_tiny_dataset(tmp_path)
        g1 = load_dataset(str(tmp_path / "tiny"), str(tmp_path))
        caches = list((tmp_path / ".cache").glob("*.npz"))
        assert [c.name[:len("tiny-v4-")] for c in caches] == ["tiny-v4-"]
        g2 = load_dataset(str(tmp_path / "tiny"), str(tmp_path))
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.adjacency.to_dense(),
                                      g2.adjacency.to_dense())

    def test_load_dataset_without_cache(self, tmp_path):
        write_tiny_dataset(tmp_path)
        load_dataset(str(tmp_path / "tiny"), str(tmp_path), use_cache=False)
        assert not (tmp_path / ".cache").exists()

    def test_save_leaves_no_extra_files(self, tmp_path):
        path = tmp_path / "g.cache"
        save_graph_cache(synthetic_graph(n=30), path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.cache"]

    def test_failed_write_leaves_nothing_and_next_load_reparses(
            self, tmp_path, monkeypatch):
        write_tiny_dataset(tmp_path)

        def write_half_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        parsed = load_dataset(str(tmp_path / "tiny"), str(tmp_path), use_cache=False)
        monkeypatch.setattr(datasets.np, "savez_compressed", write_half_then_fail)
        with pytest.warns(RuntimeWarning, match="disk full"):
            graph = load_dataset(str(tmp_path / "tiny"), str(tmp_path))
        np.testing.assert_array_equal(graph.adjacency.to_dense(),
                                      parsed.adjacency.to_dense())
        np.testing.assert_array_equal(graph.features, parsed.features)
        np.testing.assert_array_equal(graph.labels, parsed.labels)
        assert list((tmp_path / ".cache").iterdir()) == []
        monkeypatch.undo()

        parses = []
        real_load_linqs = datasets.load_linqs
        monkeypatch.setattr(datasets, "load_linqs",
                            lambda src: parses.append(src) or real_load_linqs(src))
        load_dataset(str(tmp_path / "tiny"), str(tmp_path))
        assert len(parses) == 1
        assert len(list((tmp_path / ".cache").glob("*.npz"))) == 1

    @pytest.mark.parametrize("corrupt, message", [
        (lambda g: dataclasses.replace(g, adjacency=CsrMatrix(
            g.num_nodes, g.num_nodes, g.adjacency.row_offsets,
            np.where(np.arange(g.adjacency.nnz) == g.adjacency.nnz - 1,
                     g.num_nodes, g.adjacency.col_indices),
            g.adjacency.values)), "edge list out of range"),
        (lambda g: with_features(g, n_rows=29),
         "labels must be 29 integer class ids"),
        (lambda g: with_features(g, last_col=3),
         "features: column index out of range"),
        (lambda g: with_features(g, last_col=0),
         "features: column indices not strictly increasing in row 29"),
        (lambda g: with_features(g, last_value=0.0),
         "features: explicit zero stored"),
        (lambda g: with_features(g, last_value=np.nan),
         "features: non-finite value stored"),
        (lambda g: dataclasses.replace(g, labels=g.labels[:-1]),
         "labels must be 30 integer class ids"),
    ], ids=["column", "feature_rows", "feature_column", "feature_order",
            "feature_zero", "feature_nan", "label_count"])
    def test_malformed_cache_is_one_error_naming_the_file(
            self, tmp_path, corrupt, message):
        path = tmp_path / "bad.npz"
        save_graph_cache(corrupt(synthetic_graph(n=30)), path)
        with pytest.raises(ValueError, match=message) as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("member, forge, message", [
        ("edges", lambda e: np.vstack([[0, 0], e]), "not each edge once"),
        ("edges", lambda e: np.vstack([e[0, ::-1], e[1:]]),
         "not each edge once"),
        ("edges", lambda e: np.vstack([e[:1], e]), "not each edge once"),
        ("edges", lambda e: e[[1, 0, *range(2, len(e))]],
         "not each edge once"),
        ("edges", lambda e: np.vstack([e, [[0, 30]]]),
         "edge list out of range"),
        ("edges", lambda e: np.vstack([[[-1, 0]], e]),
         "edge list out of range"),
        ("edges", lambda e: e.astype(np.float64),
         "edge list must be integer node ids, not float64"),
        ("edges", lambda e: e.ravel(), r"must be \(m, 2\) pairs"),
        ("labels", lambda y: y.astype(np.float64),
         "labels must be 30 integer class ids, got float64"),
        ("labels", lambda y: y == 1, "labels must be 30 integer class ids"),
        ("labels", lambda y: np.where(y == 1, -2, y), "label -2 is below -1"),
        ("labels", lambda y: np.append(y, 0),
         "labels must be 30 integer class ids"),
        ("feature_width", lambda w: w.astype(np.float64),
         "feature_width must be one integer"),
    ], ids=["self_loop", "reversed", "duplicated", "out_of_order",
            "id_too_large", "negative_id", "float_ids", "flat_edges",
            "float_labels", "boolean_labels", "label_below_unlabeled",
            "label_count", "float_width"])
    def test_forged_cache_is_one_error_naming_the_file(
            self, tmp_path, member, forge, message):
        # the stored arrays are build_graph's inputs, and a load refuses
        # what build_graph refuses and an edge list that is not the
        # rebuilt graph's own
        path = tmp_path / "bad.npz"
        save_graph_cache(synthetic_graph(n=30), path)
        with np.load(path) as data:
            replace_member(path, f"{member}.npy", forge(data[member]))
        with pytest.raises(ValueError, match=message) as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)
        assert "\n" not in str(err.value)

    def test_format_3_members_under_a_v4_name(self, tmp_path):
        # the adjacency's own arrays and the count meta of format 3, one
        # adjacency entry forged to 2.0: the load needs format 4's members
        g = synthetic_graph(n=30)
        a, x = g.adjacency, g.feature_csr
        path = tmp_path / f"g-v{datasets.CACHE_FORMAT}-0.npz"
        np.savez_compressed(
            path, row_offsets=a.row_offsets, col_indices=a.col_indices,
            values=np.where(np.arange(a.nnz) == 0, 2.0, a.values),
            feature_row_offsets=x.row_offsets,
            feature_col_indices=x.col_indices, feature_values=x.values,
            labels=g.labels,
            meta=np.array([30, 30, g.num_classes, g.num_edges, x.n_cols]))
        with pytest.raises(ValueError, match="missing") as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)

    def test_stored_edges_are_the_upper_triangle_in_csr_order(self, tmp_path):
        g = synthetic_graph(n=30)
        path = tmp_path / "g.npz"
        save_graph_cache(g, path)
        with np.load(path) as data:
            edges = data["edges"]
            assert sorted(data.files) == [
                "edges", "feature_col_indices", "feature_row_offsets",
                "feature_values", "feature_width", "labels"]
        assert edges.dtype == np.int64 and edges.shape == (g.num_edges, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        np.testing.assert_array_equal(order, np.arange(len(edges)))
        np.testing.assert_array_equal(edges, upper_edges(g.adjacency))

    def test_cached_graph_is_the_parsed_graph_byte_for_byte(self, tmp_path):
        # the tiny fixture and a cora-shaped graph from perfbench's generator
        spec = importlib.util.spec_from_file_location("synth", SYNTH)
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        write_tiny_dataset(tmp_path)
        synth.write_linqs(tmp_path / "synthcora", "synthcora", 5,
                          *synth.generate(5))
        for name in ("tiny", "synthcora"):
            src = resolve_dataset(str(tmp_path / name), str(tmp_path))
            parsed = load_linqs(src)
            save_graph_cache(parsed, tmp_path / f"{name}.npz")
            assert_same_graph(load_graph_cache(tmp_path / f"{name}.npz"),
                              parsed)
        assert parsed.num_nodes == 2708 and parsed.num_classes == 7

    def test_member_header_claiming_more_than_it_stores(self, tmp_path):
        # a header claiming 10**10 float64 entries must allocate nothing
        path = tmp_path / "g.npz"
        save_graph_cache(synthetic_graph(n=30), path)
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False,
                  "shape": (10**5, 10**5)})
        replace_member(path, "feature_values.npy", buf.getvalue() + bytes(64))
        with pytest.raises(ValueError,
                           match="'feature_values.npy' claims") as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)

    def test_unreadable_cache_is_one_error_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip file")
        with pytest.raises(ValueError, match="malformed graph cache") as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)
