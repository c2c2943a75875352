"""Model assembly, spec validation, and checkpoint round-trips."""

import inspect
import io
import json
import struct
import zipfile
from dataclasses import asdict

import numpy as np
import pytest

from conftest import random_graph, two_cliques_graph
from modgcn.datasets import Split
from modgcn.harness import train_once
from modgcn.model import (Model, ModelSpec, build_model, load_checkpoint,
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

    @pytest.mark.parametrize("fields, message", [
        ({"alpha": 0.7}, "alpha=0.7 needs the mod or aux variant"),
        ({"k_aux": 3}, "k_aux=3 needs the aux variant"),
        ({"variant": "mod", "alpha": 0.5, "k_aux": 3},
         "k_aux=3 needs the aux variant"),
        ({"lambda_max": 1.2}, "lambda_max=1.2 needs the chebnet encoder"),
    ], ids=["alpha-plain", "k_aux-plain", "k_aux-mod", "lambda_max-gcn"])
    def test_refuses_a_field_its_run_ignores(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(**fields)

    def test_accepts_each_field_where_it_applies(self):
        assert ModelSpec(variant="mod", alpha=0.7).alpha == 0.7
        assert ModelSpec(variant="aux", alpha=0.7, k_aux=3).k_aux == 3
        assert ModelSpec(encoder="chebnet", lambda_max=1.2).lambda_max == 1.2
        # every spec carries the default order, so gcn keeps accepting it
        assert ModelSpec(encoder="gcn", cheb_order=3).cheb_order == 3

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
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="lambda_max must be positive"):
                ModelSpec(encoder="chebnet", lambda_max=bad)


class TestBuildModel:
    def test_gcn_shapes(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(hidden_dim=5), g)
        assert model.layer1.weights[0].shape == (2, 5)
        assert model.layer2.weights[0].shape == (5, 2)
        assert model.aux is None

    def test_init_seed_is_the_spec_seed(self):
        assert list(inspect.signature(build_model).parameters) == [
            "spec", "graph"]
        g = two_cliques_graph()
        a, b, c = (build_model(ModelSpec(seed=s), g) for s in (3, 3, 4))
        np.testing.assert_array_equal(a.layer1.weights[0], b.layer1.weights[0])
        assert not np.array_equal(a.layer1.weights[0], c.layer1.weights[0])

    def test_chebnet_has_order_plus_one_supports(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 9)
        model = build_model(ModelSpec(encoder="chebnet", cheb_order=3), g)
        assert model.layer1.filter.order == 3
        assert model.layer1.filter.size == 4
        assert len(model.layer1.weights) == 4

    def test_aux_head_defaults_to_class_count(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.2), g)
        assert model.aux.weight.shape == (16, 2)
        wide = build_model(ModelSpec(variant="aux", alpha=0.2, k_aux=5), g)
        assert wide.aux.weight.shape == (16, 5)

    def test_same_seed_same_weights_across_variants(self):
        # shared layers must initialize identically so alpha=0 variants
        # retrace the plain model
        g = two_cliques_graph()
        plain = build_model(ModelSpec(seed=7), g)
        mod = build_model(ModelSpec(variant="mod", alpha=0.5, seed=7), g)
        aux = build_model(ModelSpec(variant="aux", alpha=0.5, seed=7), g)
        for a, b in ((plain, mod), (plain, aux)):
            np.testing.assert_array_equal(a.layer1.weights[0],
                                          b.layer1.weights[0])
            np.testing.assert_array_equal(a.layer2.weights[0],
                                          b.layer2.weights[0])

    def test_forward_output_is_row_stochastic(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(variant="aux", alpha=0.2), g)
        fwd = model.forward(g.features)
        np.testing.assert_allclose(fwd.output.sum(axis=1), np.ones(8),
                                   atol=1e-12)
        np.testing.assert_allclose(fwd.aux_out.sum(axis=1), np.ones(8),
                                   atol=1e-12)

    def test_aux_head_exactly_when_variant_is_aux(self):
        g = two_cliques_graph()
        aux = build_model(ModelSpec(variant="aux", alpha=0.5), g)
        for variant in ("plain", "mod"):
            spec = ModelSpec(variant=variant)
            with pytest.raises(ValueError, match="no aux head"):
                Model(spec, aux.layer1, aux.layer2, aux.aux)
            Model(spec, aux.layer1, aux.layer2, None)
        with pytest.raises(ValueError, match="an aux head"):
            Model(aux.spec, aux.layer1, aux.layer2, None)

    def test_params_are_live_views(self):
        g = two_cliques_graph()
        model = build_model(ModelSpec(), g)
        params = model.params()
        params["layer1.w0"][0, 0] = 123.0
        assert model.layer1.weights[0][0, 0] == 123.0


class TestCheckpoints:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = two_cliques_graph()
        spec = ModelSpec(variant="aux", alpha=0.25, hidden_dim=4, seed=3)
        model = build_model(spec, g)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded_spec, arrays = load_checkpoint(path)
        assert loaded_spec == spec
        for name, value in model.params().items():
            np.testing.assert_array_equal(arrays[name], value)

    def test_layout_is_an_uncompressed_npz(self, tmp_path):
        g = two_cliques_graph()
        model = build_model(ModelSpec(encoder="chebnet", variant="aux",
                                      alpha=0.5, seed=4), g)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == (
            ["spec.npy"] + [f"{name}.npy" for name in model.params()])
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        with np.load(path) as data:
            assert json.loads(str(data["spec"])) == asdict(model.spec)

    def test_load_model_forward_matches(self, tmp_path):
        g = two_cliques_graph()
        spec = ModelSpec(encoder="chebnet", hidden_dim=4, seed=5)
        model = build_model(spec, g)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_model(path, g)
        np.testing.assert_array_equal(restored.forward(g.features).output,
                                      model.forward(g.features).output)

    def test_trained_chebnet_with_lambda_max_reloads_bitwise(self, tmp_path):
        spec = ModelSpec(encoder="chebnet", lambda_max=1.2, hidden_dim=4,
                         epochs=5, lr=0.05, seed=5)
        g = two_cliques_graph()
        model = build_model(spec, g)
        split = Split(np.array([0, 4]), np.array([1, 2, 3, 5, 6, 7]), 1, 0)
        train_once(model, g, split)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        fresh = two_cliques_graph()
        restored = load_model(path, fresh)
        assert restored.spec.lambda_max == 1.2
        assert restored.layer1.filter.lambda_max == 1.2
        assert np.array_equal(restored.forward(fresh.feature_csr).output,
                              model.forward(g.feature_csr).output)

    def test_checkpoint_without_lambda_max_loads_as_none(self, tmp_path):
        g = two_cliques_graph()
        model = build_model(ModelSpec(encoder="chebnet", hidden_dim=4,
                                      seed=5), g)
        spec = asdict(model.spec)
        del spec["lambda_max"]
        path = tmp_path / "model.ckpt"
        _write_npz(path, spec=np.array(json.dumps(spec)), **model.params())
        restored = load_model(path, g)
        assert restored.spec.lambda_max is None
        np.testing.assert_array_equal(restored.forward(g.features).output,
                                      model.forward(g.features).output)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope" + b"\x00" * 32)
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)


def _write_npz(path, **members) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _npy_header(shape, descr="<f8") -> bytes:
    """A version 1.0 .npy header claiming ``shape``, without the data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def _spec_member(**overrides) -> np.ndarray:
    return np.array(json.dumps({**asdict(ModelSpec()), **overrides}))


class TestMalformedCheckpoints:
    """Every malformed checkpoint is one ValueError that names the file."""

    def _assert_rejected(self, path, match):
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert "\n" not in str(info.value)

    def _saved(self, tmp_path):
        model = build_model(ModelSpec(hidden_dim=4, seed=2),
                            two_cliques_graph())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        return model, path

    def test_flipped_weight_byte(self, tmp_path):
        model, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        weights = model.params()["layer1.w0"].tobytes()
        at = raw.index(weights) + len(weights) - 1
        raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        self._assert_rejected(path, "malformed checkpoint .*CRC")

    def test_old_binary_format(self, tmp_path):
        header = json.dumps({"spec": asdict(ModelSpec()), "arrays": []})
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"MGCN" + struct.pack("<HI", 1, len(header))
                         + header.encode())
        self._assert_rejected(path, "not an .npz archive")

    def test_short_file(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-40])
        self._assert_rejected(path, "malformed checkpoint")

    def test_array_longer_than_the_file(self, tmp_path):
        # a header claiming 10**10 float64 entries must allocate nothing
        path = tmp_path / "huge.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("spec.npy", _npy_header(()) + bytes(8))
            archive.writestr("layer1.w0.npy",
                             _npy_header((10**10,)) + bytes(16))
        self._assert_rejected(path, "'layer1.w0.npy' claims a float64 "
                                    "array of shape \\(10000000000,\\)")

    def test_non_float64_array(self, tmp_path):
        path = tmp_path / "f32.ckpt"
        _write_npz(path, spec=_spec_member(),
                   **{"layer1.w0": np.zeros((2, 16), dtype=np.float32)})
        self._assert_rejected(path, "'layer1.w0' is float32, not float64")

    def test_pickled_member(self, tmp_path):
        path = tmp_path / "pickled.ckpt"
        _write_npz(path, spec=_spec_member(),
                   **{"layer1.w0": np.array([{"w": 1.0}], dtype=object)})
        self._assert_rejected(path, "malformed checkpoint")

    def test_missing_spec(self, tmp_path):
        path = tmp_path / "no_spec.ckpt"
        _write_npz(path, **{"layer1.w0": np.zeros((2, 16))})
        self._assert_rejected(path, "missing 'spec'")

    def test_unknown_spec_field(self, tmp_path):
        path = tmp_path / "extra_field.ckpt"
        _write_npz(path, spec=_spec_member(dropout=0.5))
        self._assert_rejected(path, "dropout")

    def test_refused_spec(self, tmp_path):
        path = tmp_path / "plain_alpha.ckpt"
        _write_npz(path, spec=_spec_member(alpha=0.5))
        self._assert_rejected(path, "alpha=0.5 needs the mod or aux variant")

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.pop("layer2.b"),
         "name mismatch: \\['layer2.b'\\]"),
        (lambda params: params.update({"layer1.w0": np.zeros((2, 5))}),
         "shape mismatch for 'layer1.w0'"),
    ], ids=["missing", "shape"])
    def test_weights_that_do_not_fit_the_spec(self, tmp_path, edit, message):
        g = two_cliques_graph()
        model = build_model(ModelSpec(hidden_dim=4), g)
        params = model.params()
        edit(params)
        path = tmp_path / "unfit.ckpt"
        _write_npz(path, spec=np.array(json.dumps(asdict(model.spec))),
                   **params)
        with pytest.raises(ValueError, match=message) as info:
            load_model(path, g)
        assert str(path) in str(info.value)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "bad_json.ckpt"
        _write_npz(path, spec=np.array("{not json"))
        self._assert_rejected(path, "malformed checkpoint")
