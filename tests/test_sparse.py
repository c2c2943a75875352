"""CSR container invariants, graph construction, the normalized operators,
and the lazy modularity application against dense oracles."""

import dataclasses

import numpy as np
import pytest

from conftest import random_graph, two_cliques_graph
from modgcn.sparse import (CsrMatrix, build_graph, gcn_support,
                           modularity_apply, modularity_score,
                           modularity_trace, normalized_laplacian,
                           sparse_add)


def dense_modularity(g):
    """Oracle: materialize B = A - k k^T / (2e)."""
    a = g.adjacency.to_dense()
    k = a.sum(axis=1)
    return a - np.outer(k, k) / (2.0 * g.num_edges)


class TestCsrMatrix:
    def test_from_coo_sorts_merges_and_drops_zeros(self):
        rows = np.array([1, 0, 1, 1, 0])
        cols = np.array([2, 1, 2, 0, 0])
        vals = np.array([1.0, 2.0, 3.0, 5.0, 0.0])
        m = CsrMatrix.from_coo(2, 3, rows, cols, vals)
        # duplicates at (1,2) merged, explicit zero at (0,0) dropped
        assert m.nnz == 3
        np.testing.assert_array_equal(m.row_offsets, [0, 1, 3])
        np.testing.assert_array_equal(m.col_indices, [1, 0, 2])
        np.testing.assert_array_equal(m.values, [2.0, 5.0, 4.0])

    def test_duplicate_sum_cancellation_is_dropped(self):
        m = CsrMatrix.from_coo(1, 2, np.array([0, 0]), np.array([1, 1]),
                               np.array([2.0, -2.0]))
        assert m.nnz == 0

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) > 0.4] = 0.0
        np.testing.assert_array_equal(CsrMatrix.from_dense(dense).to_dense(),
                                      dense)

    def test_validate_accepts_canonical(self):
        CsrMatrix.from_dense(np.eye(3)).validate()

    def test_validate_rejects_unsorted_columns(self):
        m = CsrMatrix(1, 3, np.array([0, 2]), np.array([2, 0]),
                      np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            m.validate()

    def test_validate_names_first_unsorted_row_after_empty_row(self):
        # row 0 is empty, row 1 is sorted, row 2 is not; the boundary
        # between rows 1 and 2 is not a violation
        m = CsrMatrix(4, 5, np.array([0, 0, 2, 4, 4]),
                      np.array([1, 4, 3, 0]), np.ones(4))
        with pytest.raises(ValueError, match="in row 2$"):
            m.validate()
        CsrMatrix(3, 3, np.array([0, 0, 2, 3]), np.array([1, 2, 0]),
                  np.ones(3)).validate()

    def test_validate_rejects_column_out_of_range(self):
        for col in (3, -1):
            m = CsrMatrix(2, 3, np.array([0, 1, 2]), np.array([0, col]),
                          np.ones(2))
            with pytest.raises(ValueError, match="column index out of range"):
                m.validate()

    def test_validate_rejects_wrong_dtypes(self):
        with pytest.raises(ValueError, match="col_indices must be a "
                                             "C-contiguous 1-D int64 array"):
            CsrMatrix(1, 2, np.array([0, 1]), np.array([1], dtype=np.int32),
                      np.ones(1)).validate()

    @pytest.mark.parametrize("m", [
        CsrMatrix(-1, 3, np.zeros(0, np.int64), np.zeros(0, np.int64),
                  np.zeros(0)),
        CsrMatrix(2, -3, np.zeros(3, np.int64), np.zeros(0, np.int64),
                  np.zeros(0)),
    ], ids=["rows", "cols"])
    def test_validate_rejects_negative_shape(self, m):
        # checked before any index is read
        with pytest.raises(ValueError, match="negative dimension"):
            m.validate()
        with pytest.raises(ValueError, match="negative dimension"):
            build_graph([], m, [])

    def test_validate_rejects_stored_zero(self):
        m = CsrMatrix(1, 2, np.array([0, 1]), np.array([0]),
                      np.array([0.0]))
        with pytest.raises(ValueError, match="explicit zero stored"):
            m.validate()

    def test_dot_and_transpose_dot_match_dense(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((5, 7))
        dense[rng.random((5, 7)) > 0.5] = 0.0
        m = CsrMatrix.from_dense(dense)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((5, 3))
        np.testing.assert_allclose(m.dot(x), dense @ x, atol=1e-14)
        np.testing.assert_allclose(m.T.dot(y), dense.T @ y, atol=1e-14)

    def test_dot_wraps_vectors(self):
        m = CsrMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
        np.testing.assert_allclose(m.dot(np.array([1.0, 1.0])),
                                   np.array([3.0, 3.0]))

    def test_transpose(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((4, 6))
        dense[rng.random((4, 6)) > 0.4] = 0.0
        m = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(m.T.to_dense(), dense.T)
        assert m.T is m.T
        m.T.validate()

    def test_identity(self):
        np.testing.assert_array_equal(CsrMatrix.identity(4).to_dense(),
                                      np.eye(4))

    def test_sparse_add_matches_dense(self):
        rng = np.random.default_rng(3)
        da = rng.standard_normal((6, 6))
        db = rng.standard_normal((6, 6))
        da[rng.random((6, 6)) > 0.4] = 0.0
        db[rng.random((6, 6)) > 0.4] = 0.0
        a, b = CsrMatrix.from_dense(da), CsrMatrix.from_dense(db)
        np.testing.assert_allclose(
            sparse_add(a, b, 2.0, -1.0).to_dense(), 2.0 * da - db,
            atol=1e-14)


class TestBuildGraph:
    def test_symmetrizes_dedups_and_drops_self_loops(self):
        feats = np.zeros((3, 1))
        g = build_graph([(0, 1), (1, 0), (0, 1), (2, 2)], feats,
                        np.array([0, 1, 0]))
        np.testing.assert_array_equal(
            g.adjacency.to_dense(),
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert g.num_edges == 1

    def test_counts_classes_and_validates_ids(self):
        feats = np.zeros((2, 1))
        g = build_graph([(0, 1)], feats, np.array([0, 2]))
        assert g.num_classes == 3
        with pytest.raises(ValueError):
            build_graph([(0, 5)], feats, np.array([0, 1]))

    @pytest.mark.parametrize("edges, labels, message", [
        ([(0.9, 2.5)], [0, 1, 2],
         "edge list must be integer node ids, not float64"),
        (np.array([[0, 2]], dtype=np.float32), [0, 1, 2],
         "edge list must be integer node ids, not float32"),
        ([(True, False)], [0, 1, 2], "edge list must be integer node ids"),
        ([(0, 2)], [0.7, 1.2, 2.9],
         "labels must be 3 integer class ids, got float64"),
        ([(0, 2)], [True, False, True],
         "labels must be 3 integer class ids, got bool"),
        ([(0, 2)], [0, -2, 1], "label -2 is below -1"),
        ([(0, 2)], np.array([0, 2**63, 1], dtype=np.uint64),
         "is below -1"),
        ([(0, 2)], [[0, 1, 2]], r"got int64 of shape \(1, 3\)"),
        (np.array([[0, 1, 2]]), [0, 1, 2], r"must be \(m, 2\) pairs"),
        (np.array([0, 1, 1, 2]), [0, 1, 2], r"must be \(m, 2\) pairs"),
    ], ids=["float_ids", "float32_ids", "boolean_ids", "float_labels",
            "boolean_labels", "label_below_unlabeled", "uint64_label",
            "label_matrix", "triples", "flat_ids"])
    def test_ids_and_labels_are_refused_not_cast(self, edges, labels,
                                                 message):
        # floats truncate and booleans read as 1 and 0 under a cast
        with pytest.raises(ValueError, match=message):
            build_graph(edges, np.eye(3), labels)

    def test_integer_edge_array_is_taken_as_it_is(self):
        pairs = [(2, 0), (0, 1), (1, 2), (0, 1)]
        want = build_graph(pairs, np.eye(3), np.array([0, -1, 1]))
        for edges in (np.array(pairs), np.array(pairs, dtype=np.int32),
                      np.array(pairs, dtype=np.uint8)):
            g = build_graph(edges, np.eye(3), np.array([0, -1, 1]))
            np.testing.assert_array_equal(g.adjacency.row_offsets,
                                          want.adjacency.row_offsets)
            np.testing.assert_array_equal(g.adjacency.col_indices,
                                          want.adjacency.col_indices)
            assert g.adjacency.col_indices.dtype == np.int64
        assert (g.num_edges, g.num_classes) == (3, 2)

    def test_counts_are_derived(self):
        g = build_graph([], np.zeros((2, 1)), np.array([-1, -1]))
        assert (g.num_edges, g.num_classes) == (0, 0)
        assert [f.name for f in dataclasses.fields(g)] == [
            "adjacency", "feature_csr", "labels"]
        g = build_graph(np.zeros((0, 2), np.int64), np.zeros((0, 1)), [])
        assert (g.num_nodes, g.num_edges, g.num_classes) == (0, 0, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_non_finite_feature_is_refused(self, form, value):
        # CsrMatrix.validate refuses it, whichever form the features take
        feats = np.array([[1.0, 0.0], [0.0, value]])
        if form == "csr":
            feats = CsrMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]),
                              np.array([1.0, value]))
        with pytest.raises(ValueError, match="non-finite value stored"):
            build_graph([(0, 1)], feats, np.array([0, 1]))

    def test_degree_vector(self):
        g = two_cliques_graph()
        d = g.degrees
        np.testing.assert_array_equal(d, [3, 3, 3, 4, 4, 3, 3, 3])
        assert d.dtype == np.float64 and g.degrees is d


class TestGcnSupport:
    def test_k2_oracle(self):
        # two nodes, one edge: A+I all-ones, degrees+1 = 2 everywhere
        g = build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]))
        np.testing.assert_allclose(gcn_support(g).to_dense(),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_path_endpoint_entry(self):
        # path 0-1-2: entry (1,1) = 1/(deg+1) = 1/3
        g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)),
                        np.array([0, 1, 0]))
        s = gcn_support(g).to_dense()
        assert s[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)))
            a = g.adjacency.to_dense()
            d = 1.0 / np.sqrt(a.sum(axis=1) + 1.0)
            want = d[:, None] * (a + np.eye(len(a))) * d[None, :]
            np.testing.assert_allclose(gcn_support(g).to_dense(), want,
                                       atol=1e-13)

    def test_isolated_node_maps_to_itself(self):
        g = build_graph([(0, 1)], np.zeros((3, 1)), np.array([0, 1, 0]))
        s = gcn_support(g).to_dense()
        np.testing.assert_allclose(s[2], [0.0, 0.0, 1.0], atol=1e-15)


class TestNormalizedLaplacian:
    def test_k2_oracle(self):
        g = build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]))
        np.testing.assert_allclose(normalized_laplacian(g).to_dense(),
                                   [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)))
            a = g.adjacency.to_dense()
            deg = a.sum(axis=1)
            inv = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg),
                            where=deg > 0)
            want = np.eye(len(a)) - inv[:, None] * a * inv[None, :]
            np.testing.assert_allclose(normalized_laplacian(g).to_dense(),
                                       want, atol=1e-13)

    def test_zero_degree_row_is_identity(self):
        g = build_graph([(0, 1)], np.zeros((3, 1)), np.array([0, 1, 0]))
        lap = normalized_laplacian(g).to_dense()
        np.testing.assert_array_equal(lap[2], [0.0, 0.0, 1.0])


class TestModularity:
    def test_apply_matches_dense_oracle_100_graphs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(2, 51)),
                             p=float(rng.uniform(0.05, 0.6)))
            h = rng.standard_normal((g.num_nodes, 3))
            b = dense_modularity(g)
            np.testing.assert_allclose(
                modularity_apply(g, h), b @ h, atol=1e-12)
            want_trace = float(np.trace(h.T @ b @ h))
            assert modularity_trace(g, h) == pytest.approx(
                want_trace, abs=1e-12 * max(1.0, abs(want_trace)))
            want_q = want_trace / (2.0 * g.num_edges)
            assert modularity_score(g, h) == pytest.approx(
                want_q, abs=1e-12)

    def test_all_ones_assignment_scores_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_graph(rng, 20, p=0.2)
            h = np.ones((20, 1))
            assert abs(modularity_score(g, h)) < 1e-12

    def test_two_disjoint_edges_fixture_is_half(self):
        # 2 communities, each one whole edge: Q = 1 - 2*(1/2)^2 = 1/2
        g = build_graph([(0, 1), (2, 3)], np.zeros((4, 1)),
                        np.array([0, 0, 1, 1]))
        h = np.zeros((4, 2))
        h[[0, 1], 0] = 1.0
        h[[2, 3], 1] = 1.0
        assert modularity_score(g, h) == 0.5
        assert modularity_trace(g, h) == 2.0

    def test_two_cliques_partition_score(self):
        # 13 edges, 12 within; degree halves are equal: Q = 12/13 - 1/2
        g = two_cliques_graph()
        h = np.zeros((8, 2))
        h[:4, 0] = 1.0
        h[4:, 1] = 1.0
        assert modularity_score(g, h) == pytest.approx(
            12.0 / 13.0 - 0.5, abs=1e-14)

    def test_empty_graph_is_an_error(self):
        g = build_graph([], np.zeros((3, 1)), np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="modularity undefined"):
            modularity_score(g, np.ones((3, 1)))
