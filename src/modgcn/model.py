"""Two-layer graph-convolutional models and checkpoint serialization."""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .datasets import read_npz
from .layers import DenseLayer, GraphConvLayer
from .sparse import Graph, gcn_support
from .spectral import ChebFilter, build_chebyshev_supports

ENCODERS = ("gcn", "chebnet")
VARIANTS = ("plain", "mod", "aux")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and hyperparameter description of one training run.

    A field that the run would ignore must keep its default: alpha is for
    the mod and aux variants, k_aux for aux, lambda_max for chebnet."""

    encoder: str = "gcn"
    cheb_order: int = 2
    variant: str = "plain"
    hidden_dim: int = 16
    alpha: float = 0.0
    k_aux: int = 0          # 0 means "number of label classes"
    epochs: int = 100
    lr: float = 0.01
    seed: int = 0
    lambda_max: float | None = None  # chebnet only; None means power iteration

    def __post_init__(self):
        for name in ("cheb_order", "hidden_dim", "k_aux", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr!r}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.encoder == "chebnet" and self.cheb_order < 0:
            raise ValueError("cheb_order must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.epochs < 0 or self.lr <= 0:
            raise ValueError("epochs must be >= 0 and lr > 0")
        if self.k_aux < 0:
            raise ValueError("k_aux must be >= 0")
        if self.lambda_max is not None and not 0.0 < self.lambda_max < math.inf:
            raise ValueError(f"lambda_max must be positive and finite, got "
                             f"{self.lambda_max}")
        if self.variant == "plain" and self.alpha != 0.0:
            raise ValueError(f"alpha={self.alpha} needs the mod or aux variant")
        if self.variant != "aux" and self.k_aux != 0:
            raise ValueError(f"k_aux={self.k_aux} needs the aux variant")
        if self.encoder != "chebnet" and self.lambda_max is not None:
            raise ValueError(f"lambda_max={self.lambda_max} needs the "
                             f"chebnet encoder")

    @property
    def model_name(self) -> str:
        return self.encoder if self.variant == "plain" else f"{self.encoder}-{self.variant}"


@dataclass
class ForwardResult:
    hidden: np.ndarray
    output: np.ndarray
    aux_out: np.ndarray | None
    cache1: object
    cache2: object
    cache_aux: object


class Model:
    """2-layer encoder (ReLU hidden, softmax output) with an optional
    auxiliary cluster-assignment head on the hidden layer."""

    def __init__(self, spec: ModelSpec, layer1: GraphConvLayer,
                 layer2: GraphConvLayer, aux: DenseLayer | None):
        if (aux is not None) != (spec.variant == "aux"):
            raise ValueError(f"variant {spec.variant!r} needs "
                             f"{'an' if spec.variant == 'aux' else 'no'} aux head")
        self.spec = spec
        self.layer1 = layer1
        self.layer2 = layer2
        self.aux = aux

    def forward(self, x) -> ForwardResult:
        hidden, cache1 = self.layer1.forward(x)
        output, cache2 = self.layer2.forward(hidden)
        aux_out, cache_aux = (None, None)
        if self.aux is not None:
            aux_out, cache_aux = self.aux.forward(hidden)
        return ForwardResult(hidden, output, aux_out, cache1, cache2, cache_aux)

    def params(self) -> dict:
        layers = (("layer1", self.layer1), ("layer2", self.layer2),
                  ("aux", self.aux))
        return {name: p for prefix, layer in layers if layer is not None
                for name, p in layer.param_items(prefix)}

    def set_params(self, values: dict) -> None:
        params = self.params()
        missing = set(params) ^ set(values)
        if missing:
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for key, p in params.items():
            if values[key].shape != p.shape:
                raise ValueError(f"shape mismatch for {key!r}: "
                                 f"{values[key].shape} != {p.shape}")
            p[...] = values[key]


def build_model(spec: ModelSpec, graph: Graph) -> Model:
    """Assemble a model for ``graph``, initialised from ``spec.seed``. Its
    filter (see ``build_supports``) is built on first use and kept in
    ``graph.filters``."""
    k = graph.num_classes
    if k < 2:
        raise ValueError("graph must carry at least 2 label classes")
    # keyed by what fixes the filter, and nothing else
    key = (("gcn",) if spec.encoder == "gcn"
           else ("chebnet", spec.cheb_order, spec.lambda_max))
    cheb = graph.filters.get(key)
    if cheb is None:
        cheb = graph.filters[key] = build_supports(spec, graph)
    in_dim = graph.feature_csr.n_cols
    layer1 = GraphConvLayer.create(cheb, in_dim, spec.hidden_dim, "relu",
                                   spec.seed, layer_id=0)
    layer2 = GraphConvLayer.create(cheb, spec.hidden_dim, k, "softmax_rows",
                                   spec.seed, layer_id=1)
    aux = None
    if spec.variant == "aux":
        k_aux = spec.k_aux if spec.k_aux > 0 else k
        aux = DenseLayer.create(spec.hidden_dim, k_aux, "softmax_rows",
                                spec.seed, layer_id=2)
    return Model(spec, layer1, layer2, aux)


def build_supports(spec: ModelSpec, graph: Graph) -> ChebFilter:
    """The encoder's graph filter: T_1 of the GCN support, or T_0..T_K
    of the rescaled Laplacian at ``spec.lambda_max``."""
    if spec.encoder == "gcn":
        return ChebFilter(gcn_support(graph), order=1, lowest=1)
    return build_chebyshev_supports(graph, spec.cheb_order,
                                    lambda_max=spec.lambda_max)


def save_checkpoint(model: Model, path) -> None:
    """Write ``model`` to ``path`` as an uncompressed .npz: a ``spec``
    member holding the JSON of ``asdict(model.spec)``, then every
    ``Model.params()`` array under its name, in order."""
    # a file object, so that numpy does not append ".npz" to the name
    with open(path, "wb") as fh:
        np.savez(fh, spec=np.array(json.dumps(asdict(model.spec))),
                 **model.params())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelSpec, {name: array}). A malformed
    file is one ValueError that names it."""
    return read_npz(path, "checkpoint", _checkpoint_contents)


def _checkpoint_contents(arrays: dict):
    spec = ModelSpec(**json.loads(str(arrays.pop("spec"))))
    for name, value in arrays.items():
        if value.dtype != np.float64:
            raise ValueError(f"array {name!r} is {value.dtype}, not float64")
    return spec, arrays


def load_model(path, graph: Graph) -> Model:
    """Rebuild a model for ``graph`` from a checkpoint. Weights that do not
    fit the model its spec builds on ``graph`` are one ValueError that
    names the file."""
    spec, arrays = load_checkpoint(path)
    model = build_model(spec, graph)
    try:
        model.set_params(arrays)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} does not fit {spec.model_name} "
                         f"on this graph: {exc}") from exc
    return model
