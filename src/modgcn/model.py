"""Two-layer graph-convolutional models and checkpoint serialization."""

import json
import math
import os
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .layers import DenseLayer, GraphConvLayer
from .sparse import Graph, gcn_support
from .spectral import ChebFilter, build_chebyshev_supports

ENCODERS = ("gcn", "chebnet")
VARIANTS = ("plain", "mod", "aux")

CHECKPOINT_MAGIC = b"MGCN"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and hyperparameter description of one training run."""

    encoder: str = "gcn"
    cheb_order: int = 2
    variant: str = "plain"
    hidden_dim: int = 16
    alpha: float = 0.0
    k_aux: int = 0          # 0 means "number of label classes"
    epochs: int = 100
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
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

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.variant == "plain" else self.alpha

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
        items = {}
        items.update(self.layer1.param_items("layer1"))
        items.update(self.layer2.param_items("layer2"))
        if self.aux is not None:
            items.update(self.aux.param_items("aux"))
        return items

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


def build_model(spec: ModelSpec, graph: Graph, seed=None, supports=None,
                lambda_max: float | None = None) -> Model:
    """Assemble a model for ``graph``; the filter (see ``build_supports``)
    is computed if not given."""
    if seed is None:
        seed = spec.seed
    if supports is None:
        supports = build_supports(spec, graph, lambda_max=lambda_max)
    in_dim = graph.features.shape[1]
    k = graph.num_classes
    if k < 2:
        raise ValueError("graph must carry at least 2 label classes")
    layer1 = GraphConvLayer.create(supports, in_dim, spec.hidden_dim, "relu",
                                   seed, layer_id=0)
    layer2 = GraphConvLayer.create(supports, spec.hidden_dim, k, "softmax_rows",
                                   seed, layer_id=1)
    aux = None
    if spec.variant == "aux":
        k_aux = spec.k_aux if spec.k_aux > 0 else k
        aux = DenseLayer.create(spec.hidden_dim, k_aux, "softmax_rows",
                                seed, layer_id=2)
    return Model(spec, layer1, layer2, aux)


def build_supports(spec: ModelSpec, graph: Graph,
                   lambda_max: float | None = None) -> ChebFilter:
    """The encoder's graph filter: T_1 of the GCN support, or T_0..T_K
    of the rescaled Laplacian."""
    if spec.encoder == "gcn":
        return ChebFilter(gcn_support(graph), order=1, lowest=1)
    return build_chebyshev_supports(graph, spec.cheb_order, lambda_max=lambda_max)


def save_checkpoint(model: Model, path) -> None:
    """Write the model weights and spec to ``path``.

    Layout: 4-byte magic "MGCN", u16 little-endian format version, u32
    little-endian JSON header length, the UTF-8 JSON header, then the raw
    float64 little-endian array data in header order (C order).
    """
    params = model.params()
    header = {
        "spec": asdict(model.spec),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for v in params.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelSpec, {name: array}). A malformed
    file is one ValueError that names it."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh)
    except (ValueError, TypeError, KeyError, struct.error) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed checkpoint {path}: {detail}") from exc


def _read_checkpoint(fh):
    size = os.fstat(fh.fileno()).st_size

    def read_exactly(n):
        # checked against the file size first, so a corrupt length never
        # asks for more memory than the file holds
        if not 0 <= n <= size - fh.tell():
            raise ValueError("truncated checkpoint")
        return fh.read(n)

    magic = fh.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint: bad magic {magic!r}")
    version, header_len = struct.unpack("<HI", fh.read(6))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header = json.loads(read_exactly(header_len).decode("utf-8"))
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        buf = read_exactly(8 * math.prod(shape))
        arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    if fh.read(1):
        raise ValueError("trailing bytes after the last array in checkpoint")
    return ModelSpec(**header["spec"]), arrays


def load_model(path, graph: Graph, supports=None,
               lambda_max: float | None = None) -> Model:
    """Rebuild a model for ``graph`` from a checkpoint."""
    spec, arrays = load_checkpoint(path)
    model = build_model(spec, graph, supports=supports, lambda_max=lambda_max)
    model.set_params(arrays)
    return model
