"""Loss values, fused gradients, and the per-variant objective wiring."""

import dataclasses

import numpy as np
import pytest

from conftest import random_graph, two_cliques_graph
from modgcn.layers import softmax_rows
from modgcn.model import ModelSpec, build_model
from modgcn.objectives import (LabelMask, masked_cross_entropy,
                               modularity_loss, objective_for)


class TestLabelMask:
    def test_builds_onehot_on_train_rows_only(self):
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [0, 4])
        assert mask.onehot.shape == (8, 2)
        np.testing.assert_array_equal(mask.onehot.sum(axis=1),
                                      [1, 0, 0, 0, 1, 0, 0, 0])

    def test_rejects_empty_and_out_of_range(self):
        g = two_cliques_graph()
        with pytest.raises(ValueError, match="empty"):
            LabelMask.from_graph(g, [])
        with pytest.raises(ValueError, match="out of range"):
            LabelMask.from_graph(g, [99])

    @pytest.mark.parametrize("ids", [np.array([0.7, 4.2]), [True, False]],
                             ids=["float", "bool"])
    def test_rejects_non_integer_ids(self, ids):
        # a cast would train on nodes 0 and 4, or 1 and 0
        with pytest.raises(ValueError, match="train ids must be integer"):
            LabelMask.from_graph(two_cliques_graph(), ids)

    def test_rejects_repeated_train_id(self):
        # the loss would count node 0 twice while its fused gradient
        # counts it once
        with pytest.raises(ValueError, match="train id 0 is repeated"):
            LabelMask.from_graph(two_cliques_graph(), [0, 0, 4])

    def test_rejects_unlabeled_train_node(self):
        g = two_cliques_graph()
        labels = g.labels.copy()
        labels[0] = -1
        g2 = dataclasses.replace(g, labels=labels)
        with pytest.raises(ValueError, match="unlabeled"):
            LabelMask.from_graph(g2, [0])


class TestMaskedCrossEntropy:
    def test_uniform_probabilities_give_m_log_k(self):
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [0, 1, 4])
        z = np.full((8, 2), 0.5)
        loss, _ = masked_cross_entropy(z, mask)
        assert loss == pytest.approx(3 * np.log(2.0), abs=1e-12)

    def test_perfect_predictions_give_zero(self):
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [0, 4])
        loss, grad = masked_cross_entropy(mask.onehot.copy(), mask)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(grad, np.zeros((8, 2)))

    def test_gradient_is_z_minus_y_on_labeled_rows(self):
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [1, 5])
        rng = np.random.default_rng(0)
        z = softmax_rows(rng.standard_normal((8, 2)))
        _, grad = masked_cross_entropy(z, mask)
        np.testing.assert_allclose(grad[[1, 5]],
                                   z[[1, 5]] - mask.onehot[[1, 5]])
        untouched = [i for i in range(8) if i not in (1, 5)]
        np.testing.assert_array_equal(grad[untouched], np.zeros((6, 2)))

    def test_log_clamp_bounds_the_loss(self):
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [0])
        z = np.zeros((8, 2))  # picked probability exactly 0
        loss, _ = masked_cross_entropy(z, mask)
        assert loss == pytest.approx(-np.log(1e-12))


class TestModularityLoss:
    def test_loss_is_negated_score(self):
        g = two_cliques_graph()
        h = np.zeros((8, 2))
        h[:4, 0] = h[4:, 1] = 1.0
        loss, _ = modularity_loss(g, h)
        assert loss == pytest.approx(-(12.0 / 13.0 - 0.5), abs=1e-14)

    def test_gradient_matches_dense_formula(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 12, p=0.3)
        h = rng.standard_normal((12, 3))
        a = g.adjacency.to_dense()
        k = a.sum(axis=1)
        b = a - np.outer(k, k) / (2.0 * g.num_edges)
        _, grad = modularity_loss(g, h)
        np.testing.assert_allclose(grad, -(2.0 / (2.0 * g.num_edges)) * b @ h,
                                   atol=1e-12)

    def test_refuses_a_one_dimensional_h(self):
        # h * B @ H must not broadcast a 1-D h against B @ H's one column
        g = two_cliques_graph()
        with pytest.raises(ValueError, match="2-D"):
            modularity_loss(g, np.ones(8))


class TestObjectiveWiring:
    def test_plain_report_has_zero_modularity(self, monkeypatch):
        g = two_cliques_graph()
        model = build_model(ModelSpec(), g)
        mask = LabelMask.from_graph(g, [0, 4])

        def unexpected(*args):
            raise AssertionError("plain variant scored the modularity")
        monkeypatch.setattr("modgcn.objectives.modularity_apply", unexpected)
        report, grads, fwd = objective_for(model, g, mask)
        assert report.modularity_term == 0.0
        assert report.alpha == 0.0
        assert report.total == report.supervised
        assert set(grads) == {"layer1.w0", "layer1.b",
                              "layer2.w0", "layer2.b"}

    def test_output_reg_total_arithmetic(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="mod", alpha=0.3), g)
        mask = LabelMask.from_graph(g, [0, 4])
        report, _, fwd = objective_for(model, g, mask)
        assert report.total == pytest.approx(
            0.7 * report.supervised - 0.3 * report.modularity_term, abs=1e-12)
        assert report.alpha == 0.3
        # scored on the output softmax matrix
        q = -modularity_loss(g, fwd.output)[0]
        assert report.modularity_term == q

    def test_aux_objective_routes_alpha_to_aux_head(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.5), g)
        mask = LabelMask.from_graph(g, [0, 4])
        report, grads, fwd = objective_for(model, g, mask)
        assert "aux.w" in grads and "aux.b" in grads
        assert report.total == pytest.approx(
            0.5 * report.supervised - 0.5 * report.modularity_term, abs=1e-12)
        # scored on the auxiliary head, not on the output
        q = -modularity_loss(g, fwd.aux_out)[0]
        assert report.modularity_term == q

    def test_aux_gradients_are_exact_zeros_at_alpha_zero(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.0), g)
        mask = LabelMask.from_graph(g, [0, 4])
        _, grads, _ = objective_for(model, g, mask)
        assert np.all(grads["aux.w"] == 0.0)
        assert np.all(grads["aux.b"] == 0.0)

    def test_objective_for_dispatches_on_variant(self):
        # every encoder x variant: gradients keyed and ordered like params
        g = two_cliques_graph()
        mask = LabelMask.from_graph(g, [0, 4])
        for encoder in ("gcn", "chebnet"):
            for spec in (ModelSpec(encoder=encoder, seed=1),
                         ModelSpec(encoder=encoder, variant="mod", alpha=0.4,
                                   seed=1),
                         ModelSpec(encoder=encoder, variant="aux", alpha=0.4,
                                   seed=1)):
                model = build_model(spec, g)
                report, grads, fwd = objective_for(model, g, mask)
                assert np.isfinite(report.total)
                params = model.params()
                assert list(grads) == list(params)
                for name, p in params.items():
                    assert grads[name].shape == p.shape, name
