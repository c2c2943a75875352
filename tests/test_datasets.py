"""LINQS parsing, feature scaling, stratified splits, and the graph cache."""

import dataclasses
import io
import zipfile

import numpy as np
import pytest

from conftest import TINY_CITES, TINY_CONTENT, write_tiny_dataset
from modgcn import datasets
from modgcn.datasets import (DatasetSource, Split, content_hash,
                             load_dataset, load_graph_cache, load_linqs,
                             preprocess_features, resolve_dataset,
                             save_graph_cache, stratified_split)
from modgcn.sparse import CsrMatrix, build_graph


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
        assert [c.name[:len("tiny-v3-")] for c in caches] == ["tiny-v3-"]
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
            g.adjacency.values)), "column index out of range"),
        (lambda g: with_features(g, n_rows=29), "features must have 30 rows"),
        (lambda g: with_features(g, last_col=3),
         "features: column index out of range"),
        (lambda g: with_features(g, last_col=0),
         "features: column indices not strictly increasing in row 29"),
        (lambda g: with_features(g, last_value=0.0),
         "features: explicit zero stored"),
        (lambda g: dataclasses.replace(g, labels=g.labels[:-1]),
         "labels must be int64 of length 30"),
        (lambda g: dataclasses.replace(g, num_edges=g.num_edges + 1),
         "edges recorded"),
    ], ids=["column", "feature_rows", "feature_column", "feature_order",
            "feature_zero", "label_count", "edge_count"])
    def test_malformed_cache_is_one_error_naming_the_file(
            self, tmp_path, corrupt, message):
        path = tmp_path / "bad.npz"
        save_graph_cache(corrupt(synthetic_graph(n=30)), path)
        with pytest.raises(ValueError, match=message) as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("meta, emptied", [
        ([30, 30, 4, 10], ()),
        ([-1, -1, 0, 0, 3], ("row_offsets.npy", "feature_row_offsets.npy")),
    ], ids=["v2_meta", "negative_count"])
    def test_bad_meta_is_one_error_naming_the_file(self, tmp_path, meta,
                                                   emptied):
        # a format-2 meta (no feature count) in a file under a v3 name, and
        # a negative node count whose CSR arrays are empty to match
        path = tmp_path / "bad.npz"
        save_graph_cache(synthetic_graph(n=30), path)
        replace_member(path, "meta.npy", np.array(meta))
        for name in emptied:
            replace_member(path, name, np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="meta must be 5 non-negative "
                                             "counts") as err:
            load_graph_cache(path)
        assert str(path) in str(err.value)
        assert "\n" not in str(err.value)

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
