"""ICA protocol behavior on hand-traceable fixtures."""

import numpy as np
import pytest

from conftest import two_cliques_graph
from modgcn.ica import (IcaConfig, ica_train_predict, neighbor_label_counts)
from modgcn.sparse import build_graph


class TestConfig:
    def test_defaults(self):
        cfg = IcaConfig()
        assert cfg.max_iters == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            IcaConfig(max_iters=0)
        with pytest.raises(ValueError):
            IcaConfig(lr=0.0)


class TestNeighborCounts:
    def test_counts_only_known_labels(self):
        g = two_cliques_graph()
        labels = np.full(8, -1)
        labels[0] = 0
        labels[4] = 1
        counts = neighbor_label_counts(g, labels)
        # nodes 1 and 2 see exactly the one known clique-1 label
        np.testing.assert_array_equal(counts[1], [1.0, 0.0])
        np.testing.assert_array_equal(counts[2], [1.0, 0.0])
        # node 3 also bridges to node 4, whose label is known
        np.testing.assert_array_equal(counts[3], [1.0, 1.0])
        np.testing.assert_array_equal(counts[5], [0.0, 1.0])
        # node 0's own label does not count for itself
        np.testing.assert_array_equal(counts[0], [0.0, 0.0])


class TestIca:
    def test_class_absent_from_training_is_an_error(self):
        g = two_cliques_graph()
        with pytest.raises(ValueError, match="absent"):
            ica_train_predict(g, np.array([0, 1]), np.array([5]))

    # a cast or a wrap would read each of these as some other node
    @pytest.mark.parametrize("train, test, message", [
        ([0.7, 4.2], [1, 5], "train ids must be integer"),
        ([0, 4], [1.0, 5.0], "test ids must be integer"),
        ([0, 4], np.arange(8) >= 4, "test ids must be integer"),
        ([0, -4], [1, 5], "train ids out of range"),
        ([0, 4], [1, 8], "test ids out of range"),
    ], ids=["float-train", "float-test", "bool-test", "negative-train",
            "past-end-test"])
    def test_bad_node_ids_are_an_error(self, train, test, message):
        with pytest.raises(ValueError, match=message):
            ica_train_predict(two_cliques_graph(), train, test)

    def test_two_clique_fixture_fully_recovered(self):
        g = two_cliques_graph(scale=3.0)
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        result = ica_train_predict(g, train, test, IcaConfig(), seed=0)
        np.testing.assert_array_equal(result.predicted, g.labels[test])
        assert 1 <= result.iterations <= 10

    def test_deterministic_given_seed(self):
        g = two_cliques_graph(scale=3.0)
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        a = ica_train_predict(g, train, test, IcaConfig(), seed=3)
        b = ica_train_predict(g, train, test, IcaConfig(), seed=3)
        np.testing.assert_array_equal(a.predicted, b.predicted)
        assert a.iterations == b.iterations

    def test_zero_edge_graph_reduces_to_attributes(self):
        # without edges the relational inputs stay zero, so more sweeps
        # cannot change anything
        rng = np.random.default_rng(1)
        n = 12
        labels = np.arange(n) % 2
        feats = np.zeros((n, 2))
        feats[np.arange(n), labels] = 2.0
        feats += 0.05 * rng.standard_normal((n, 2))
        g = build_graph([], feats, labels)
        train = np.array([0, 1, 2, 3])
        test = np.arange(4, n)
        short = ica_train_predict(g, train, test, IcaConfig(max_iters=1),
                                  seed=0)
        long = ica_train_predict(g, train, test, IcaConfig(max_iters=10),
                                 seed=0)
        np.testing.assert_array_equal(short.predicted, long.predicted)
        assert long.iterations <= 2

    def test_iteration_budget_respected(self):
        g = two_cliques_graph(scale=0.0)  # uninformative attributes
        train = np.array([0, 4])
        test = np.array([1, 2, 3, 5, 6, 7])
        result = ica_train_predict(g, train, test, IcaConfig(max_iters=3),
                                   seed=0)
        assert result.iterations <= 3
