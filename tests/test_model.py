"""Model assembly, spec validation, and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from conftest import random_graph, two_cliques_graph
from modgcn.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Model,
                          ModelSpec, build_model, load_checkpoint,
                          load_model, save_checkpoint)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert (spec.encoder, spec.variant) == ("gcn", "plain")
        assert spec.hidden_dim == 16
        assert spec.epochs == 100
        assert spec.lr == 0.01

    def test_model_name(self):
        assert ModelSpec().model_name == "gcn"
        assert ModelSpec(variant="mod").model_name == "gcn-mod"
        assert ModelSpec(encoder="chebnet",
                         variant="aux").model_name == "chebnet-aux"

    def test_effective_alpha_ignores_alpha_for_plain(self):
        assert ModelSpec(alpha=0.7).effective_alpha == 0.0
        assert ModelSpec(variant="mod", alpha=0.7).effective_alpha == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(encoder="gat")
        with pytest.raises(ValueError):
            ModelSpec(variant="extra")
        with pytest.raises(ValueError):
            ModelSpec(variant="mod", alpha=1.2)
        with pytest.raises(ValueError):
            ModelSpec(hidden_dim=0)
        with pytest.raises(ValueError):
            ModelSpec(encoder="chebnet", cheb_order=-1)


class TestBuildModel:
    def test_gcn_shapes(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(hidden_dim=5), g, seed=0)
        assert model.layer1.weights[0].shape == (2, 5)
        assert model.layer2.weights[0].shape == (5, 2)
        assert model.aux is None

    def test_chebnet_has_order_plus_one_supports(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 9)
        model = build_model(ModelSpec(encoder="chebnet", cheb_order=3), g,
                            seed=0)
        assert model.layer1.filter.order == 3
        assert model.layer1.filter.size == 4
        assert len(model.layer1.weights) == 4

    def test_aux_head_defaults_to_class_count(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.2), g, seed=0)
        assert model.aux.weight.shape == (16, 2)
        wide = build_model(ModelSpec(variant="aux", alpha=0.2, k_aux=5), g,
                           seed=0)
        assert wide.aux.weight.shape == (16, 5)

    def test_same_seed_same_weights_across_variants(self):
        # shared layers must initialize identically so alpha=0 variants
        # retrace the plain model
        g = two_cliques_graph()
        plain = build_model(ModelSpec(), g, seed=7)
        mod = build_model(ModelSpec(variant="mod", alpha=0.5), g, seed=7)
        aux = build_model(ModelSpec(variant="aux", alpha=0.5), g, seed=7)
        for a, b in ((plain, mod), (plain, aux)):
            np.testing.assert_array_equal(a.layer1.weights[0],
                                          b.layer1.weights[0])
            np.testing.assert_array_equal(a.layer2.weights[0],
                                          b.layer2.weights[0])

    def test_forward_output_is_row_stochastic(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.2), g, seed=0)
        fwd = model.forward(g.features)
        np.testing.assert_allclose(fwd.output.sum(axis=1), np.ones(8),
                                   atol=1e-12)
        np.testing.assert_allclose(fwd.aux_out.sum(axis=1), np.ones(8),
                                   atol=1e-12)

    def test_aux_head_exactly_when_variant_is_aux(self):
        g = two_cliques_graph()
        aux = build_model(ModelSpec(variant="aux", alpha=0.5), g, seed=0)
        for variant in ("plain", "mod"):
            spec = ModelSpec(variant=variant, alpha=0.5)
            with pytest.raises(ValueError, match="no aux head"):
                Model(spec, aux.layer1, aux.layer2, aux.aux)
            Model(spec, aux.layer1, aux.layer2, None)
        with pytest.raises(ValueError, match="an aux head"):
            Model(aux.spec, aux.layer1, aux.layer2, None)

    def test_params_are_live_views(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(), g, seed=0)
        params = model.params()
        params["layer1.w0"][0, 0] = 123.0
        assert model.layer1.weights[0][0, 0] == 123.0


class TestCheckpoints:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = two_cliques_graph()
        spec = ModelSpec(variant="aux", alpha=0.25, hidden_dim=4)
        model = build_model(spec, g, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded_spec, arrays = load_checkpoint(path)
        assert loaded_spec == spec
        for name, value in model.params().items():
            np.testing.assert_array_equal(arrays[name], value)

    def test_load_model_forward_matches(self, tmp_path):
        g = two_cliques_graph()
        spec = ModelSpec(encoder="chebnet", hidden_dim=4)
        model = build_model(spec, g, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_model(path, g)
        np.testing.assert_array_equal(restored.forward(g.features).output,
                                      model.forward(g.features).output)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        g = two_cliques_graph()
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelSpec(hidden_dim=4), g, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope" + b"\x00" * 32)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)


def _raw_checkpoint(header) -> bytes:
    """A valid preamble around ``header``: a dict, or raw header bytes."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return (CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(blob))
            + blob)


class TestMalformedCheckpoints:
    """Every malformed checkpoint is one ValueError that names the file."""

    def _assert_rejected(self, path, match):
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")
        self._assert_rejected(path, "malformed checkpoint")

    def test_header_without_arrays(self, tmp_path):
        path = tmp_path / "no_arrays.ckpt"
        path.write_bytes(_raw_checkpoint({"spec": {}}))
        self._assert_rejected(path, "missing field 'arrays'")

    def test_unknown_spec_field(self, tmp_path):
        path = tmp_path / "extra_field.ckpt"
        path.write_bytes(_raw_checkpoint({"spec": {"dropout": 0.5},
                                          "arrays": []}))
        self._assert_rejected(path, "dropout")

    def test_array_longer_than_the_file(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(_raw_checkpoint(
            {"spec": {}, "arrays": [{"name": "w", "shape": [10**12]}]}))
        self._assert_rejected(path, "truncated")

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "bad_json.ckpt"
        path.write_bytes(_raw_checkpoint(b"{not json"))
        self._assert_rejected(path, "malformed checkpoint")
