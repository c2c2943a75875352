"""Spans around the library's public functions, installed from outside.

Nothing under src/ knows about tracing. ``Tracer.install`` replaces each
traced function with a timing wrapper in every ``modgcn`` module that
holds a reference to it (so ``from .x import f`` bindings are caught too),
and ``uninstall`` puts the originals back. Every reported time is a self
time: a span's duration minus the time spent in traced calls nested inside
it, so the self times plus the unattributed time add up to the wall time.
"""

import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    """Aggregated spans: per name, the call count, the self time and any
    counts that the span's result adds."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.layer_names = weakref.WeakKeyDictionary()
        self._stack = []
        self._patches = []

    def _span(self, name_of, fn, on_return=None):
        def wrapper(*args, **kwargs):
            name = name_of(args)
            nested = [0.0]
            self._stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - nested[0]
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, make):
        """Wrap ``owner.attr`` where it is defined and wherever a modgcn
        module re-binds it. A function the library no longer has is
        skipped, so its metrics read zero."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        holders = [owner] if isinstance(owner, type) else [
            m for name, m in list(sys.modules.items())
            if name.split(".")[0] == "modgcn" and m is not None]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def install(self):
        from modgcn import (datasets, harness, ica, kernels, layers, model,
                            objectives, optim, sparse, spectral)

        def fixed(name):
            return lambda args: name

        def span(owner, attr, name, on_return=None):
            self._replace(owner, attr, lambda fn: self._span(
                name if callable(name) else fixed(name), fn, on_return))

        def kernel_work(name):
            def on_return(args, out):
                data, x = args[4], args[5]
                self.counts[name + ".gflop"] += 2e-9 * len(data) * out.shape[1]
                self.counts["kernels.mbytes"] += 1e-6 * (
                    args[2].nbytes + args[3].nbytes + data.nbytes
                    + 8 * x.size + out.nbytes)
            return on_return

        span(kernels, "csr_dense_matmul", "kernels.spmm",
             kernel_work("kernels.spmm"))
        span(kernels, "csr_dense_matmul_t", "kernels.spmm_t",
             kernel_work("kernels.spmm_t"))
        span(sparse, "gcn_support", "sparse.gcn_support")
        span(sparse, "sparse_matmul", "sparse.sparse_matmul")
        span(sparse, "modularity_apply", "sparse.modularity_apply")
        span(spectral, "build_chebyshev_supports",
             "spectral.build_chebyshev_supports", self._count_support_nnz)
        span(spectral, "power_iteration", "spectral.power_iteration")

        def conv_name(suffix):
            return lambda args: (
                f"layers.{self.layer_names.get(args[0], 'conv')}.{suffix}")
        span(layers.GraphConvLayer, "forward", conv_name("fwd_s"))
        span(layers.GraphConvLayer, "backward", conv_name("bwd_s"))
        span(layers.GraphConvLayer, "backward_from_pre", conv_name("bwd_s"))
        for attr in ("forward", "backward", "backward_from_pre"):
            span(layers.DenseLayer, attr, "layers.dense")

        span(objectives, "objective_for", "objectives")
        span(objectives, "modularity_loss", "objectives.modularity_loss")
        span(optim, "adam_step", "optim.adam_step")
        span(harness, "train_once", "harness.train_once")
        self._replace(model, "build_supports",
                      lambda fn: self._counter("harness.support_builds", fn))
        span(model, "build_model", "model.build_model", self._name_layers)
        for attr in ("load_linqs", "save_graph_cache", "load_graph_cache",
                     "preprocess_features", "stratified_split"):
            span(datasets, attr, f"datasets.{attr}")
        span(ica, "ica_train_predict", "ica", self._count_sweeps)

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def _name_layers(self, args, built):
        self.layer_names[built.layer1] = "conv1"
        self.layer_names[built.layer2] = "conv2"

    def _count_support_nnz(self, args, cheb):
        self.counts["spectral.support_nnz"] += sum(
            s.nnz for s in getattr(cheb, "supports", ()))

    def _count_sweeps(self, args, result):
        self.counts["ica.sweeps"] += result.iterations

    def metrics(self, wall_s, overhead_share):
        """Per-layer metrics for one traced pass of ``wall_s`` seconds."""
        s, calls = self.self_s, self.calls
        out = {
            "kernels.mbytes": self.counts["kernels.mbytes"],
            "kernels.share": (s["kernels.spmm"] + s["kernels.spmm_t"]) / wall_s,
            "sparse.gcn_support.s": s["sparse.gcn_support"],
            "spectral.build_chebyshev_supports.s":
                s["spectral.build_chebyshev_supports"],
            "spectral.power_iteration.s": s["spectral.power_iteration"],
            "spectral.support_nnz": self.counts["spectral.support_nnz"],
            "layers.dense.s": s["layers.dense"],
            "objectives.self_s": s["objectives"],
            "objectives.modularity_loss.s": s["objectives.modularity_loss"],
            "harness.train_once.self_s": s["harness.train_once"],
            "harness.support_builds": calls["harness.support_builds"],
            "model.build_model.s": s["model.build_model"],
            "ica.calls": calls["ica"],
            "ica.self_s": s["ica"],
            "ica.sweeps": self.counts["ica.sweeps"],
            "trace.wall_s": wall_s,
            "trace.unattributed_share": 1.0 - sum(s.values()) / wall_s,
            "trace.overhead_share": overhead_share,
        }
        for k in ("spmm", "spmm_t"):
            name = f"kernels.{k}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = s[name]
            out[f"{name}.gflop"] = self.counts[f"{name}.gflop"]
            out[f"{name}.gflops"] = (self.counts[f"{name}.gflop"] / s[name]
                                     if s[name] > 0 else 0.0)
        for layer in ("conv1", "conv2"):
            for part in ("fwd_s", "bwd_s"):
                out[f"layers.{layer}.{part}"] = s[f"layers.{layer}.{part}"]
        for name in ("sparse.sparse_matmul", "sparse.modularity_apply",
                     "optim.adam_step"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = s[name]
        out["harness.train_once.calls"] = calls["harness.train_once"]
        for name in ("load_linqs", "save_graph_cache", "load_graph_cache",
                     "preprocess_features", "stratified_split"):
            out[f"datasets.{name}.s"] = s[f"datasets.{name}"]
        return out
