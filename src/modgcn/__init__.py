"""Graph convolutional networks with modularity-aware training.

Semi-supervised node classification on citation networks with first-order
(GCN) and Chebyshev-polynomial (ChebNet) graph convolutions, plus two ways
of folding network modularity into the training objective. Pure NumPy with
an optional compiled kernel backend; see modgcn.kernels.
"""

from .datasets import (DatasetSource, Split, load_dataset, load_linqs,
                       preprocess_features, resolve_dataset,
                       stratified_split)
from .gradcheck import numerical_gradient, run_full_suite
from .harness import (AggregateResult, MatrixConfig, RunResult, SweepResult,
                      alpha_sweep, export_embeddings, load_matrix_config,
                      run_matrix, train_once)
from .ica import IcaConfig, IcaResult, ica_train_predict
from .layers import DenseLayer, GraphConvLayer
from .model import (Model, ModelSpec, build_model, load_checkpoint,
                    load_model, save_checkpoint)
from .objectives import (LabelMask, LossReport, masked_cross_entropy,
                         modularity_loss, objective_for)
from .optim import AdamState, adam_step
from .sparse import (CsrMatrix, Graph, build_graph, gcn_support,
                     modularity_apply, modularity_score, modularity_trace,
                     normalized_laplacian)
from .spectral import (ChebFilter, build_chebyshev_supports,
                       power_iteration, rescale_laplacian)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AggregateResult", "ChebFilter", "CsrMatrix",
    "DatasetSource", "DenseLayer", "Graph",
    "GraphConvLayer", "IcaConfig", "IcaResult", "LabelMask", "LossReport",
    "MatrixConfig", "Model", "ModelSpec", "RunResult", "Split",
    "SweepResult", "adam_step", "alpha_sweep", "build_chebyshev_supports",
    "build_graph", "build_model", "export_embeddings",
    "gcn_support", "ica_train_predict",
    "load_checkpoint", "load_dataset", "load_linqs", "load_matrix_config",
    "load_model", "masked_cross_entropy", "modularity_apply",
    "modularity_loss", "modularity_score", "modularity_trace",
    "normalized_laplacian", "numerical_gradient", "objective_for",
    "power_iteration", "preprocess_features", "rescale_laplacian",
    "resolve_dataset", "run_full_suite", "run_matrix", "save_checkpoint",
    "stratified_split", "train_once",
]
