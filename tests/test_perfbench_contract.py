"""The library names that the benchmark in perfbench/ relies on.

perfbench/ is measured against the library from outside: its set-up probe
and workload process import library functions, and its tracer wraps them by
module and attribute name, skipping any it cannot find. A rename in src/
would then break a probe or quietly read a per-layer metric as zero; these
checks make it fail here instead.
"""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import modgcn
from modgcn.harness import training_features
from modgcn.model import ModelSpec, build_supports
from modgcn.sparse import CsrMatrix
from modgcn.spectral import ChebFilter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("probe.py", "measure.py", "test_synth.py")

# every span perfbench/spans.py installs on a function the library has
SPAN_TARGETS = {
    "kernels": ("csr_dense_matmul",),
    "sparse": ("gcn_support", "modularity_apply"),
    "spectral": ("build_chebyshev_supports", "power_iteration"),
    "objectives": ("objective_for", "modularity_loss"),
    "optim": ("adam_step",),
    "harness": ("train_once",),
    "model": ("build_supports", "build_model"),
    "datasets": ("load_linqs", "save_graph_cache", "load_graph_cache",
                 "preprocess_features", "stratified_split"),
    "ica": ("ica_train_predict",),
    "layers": ("GraphConvLayer.forward", "GraphConvLayer.backward",
               "GraphConvLayer.backward_from_pre", "DenseLayer.forward",
               "DenseLayer.backward", "DenseLayer.backward_from_pre"),
}


def used_names(script):
    """(object, attribute) for every modgcn name ``script`` imports, and
    for every attribute it reads of the package or of an imported module."""
    tree = ast.parse((PERFBENCH / script).read_text())
    bound = {"modgcn": modgcn}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "modgcn"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                used.append((module, alias.name))
                bound[alias.asname or alias.name] = getattr(
                    module, alias.name, None)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(bound.get(node.value.id), types.ModuleType)):
            used.append((bound[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_imported_name_exists(script):
    used = used_names(script)
    assert used, f"{script} uses no modgcn name"
    missing = [f"{obj.__name__}.{attr}" for obj, attr in used
               if not hasattr(obj, attr)]
    assert missing == []


def test_every_span_target_exists():
    for module_name, attrs in SPAN_TARGETS.items():
        module = importlib.import_module(f"modgcn.{module_name}")
        for path in attrs:
            owner = module
            for part in path.split("."):
                assert hasattr(owner, part), f"modgcn.{module_name}.{path}"
                owner = getattr(owner, part)
            assert callable(owner)


def test_kernel_span_reads_its_arguments():
    # the tracer counts work from positions 2-5: offsets, indices, values, x
    params = list(inspect.signature(
        modgcn.kernels.csr_dense_matmul).parameters)
    assert params[:6] == ["n_rows", "n_cols", "indptr", "indices", "data",
                          "x"]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_calls_run(blobs_dataset):
    workloads = _workloads()
    graph = modgcn.load_dataset(str(blobs_dataset), str(blobs_dataset.parent),
                                "row_normalize")
    x = training_features(graph)
    assert isinstance(x, (CsrMatrix, np.ndarray))
    assert x.shape == graph.features.shape
    encoders = {e for w in workloads.WORKLOADS.values() for e in w.encoders}
    assert encoders == {"gcn", "chebnet"}
    for encoder in sorted(encoders):
        built = build_supports(ModelSpec(encoder=encoder,
                                         cheb_order=workloads.CHEB_ORDER),
                               graph)
        assert isinstance(built, ChebFilter)
        assert built.operator.shape == (graph.num_nodes, graph.num_nodes)
