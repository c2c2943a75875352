"""Acceptance gate: twelve numbered criteria, one verdict line each.

Criteria 1-6 are synthetic, fast, and always run. Criteria 7-12 are the
citation-network reproduction study; they need the real dataset files on
disk and skip honestly when those are absent (see scripts/fetch_cora.sh).
"""

import time
from dataclasses import replace

import numpy as np

from modgcn.datasets import Split, load_dataset, stratified_split
from modgcn.gradcheck import run_full_suite
from modgcn.harness import (
    DEFAULT_ALPHA_GRID,
    MatrixConfig,
    alpha_sweep,
    export_embeddings,
    run_matrix,
    split_seed_for,
    train_once,
)
from modgcn.model import ModelSpec, build_model
from modgcn.objectives import LabelMask, objective_for
from modgcn.sparse import (
    build_graph,
    modularity_apply,
    modularity_score,
    normalized_laplacian,
)
from modgcn.spectral import ChebFilter, power_iteration, rescale_laplacian

from conftest import random_graph, requires_cora, two_cliques_graph


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _clique_split() -> Split:
    return Split(np.array([0, 4]), np.array([1, 2, 3, 5, 6, 7]),
                 labels_per_class=1, seed=0, run_index=0)


def _log_columns(path, names):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    idx = [header.index(n) for n in names]
    return [tuple(float(line.split(",")[i]) for i in idx)
            for line in lines[1:]]


# ---------------------------------------------------------------- 1-6 --


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    results = run_full_suite(seed=0, instances=20)
    elapsed = time.perf_counter() - start
    failures = [r.name for r in results if not r.ok]
    combos = {r.name.split(":")[0] for r in results if ":" in r.name}
    ok = (not failures and elapsed < 30.0 and len(combos) == 6)
    assert _report(1, ok, f"{len(results)} gradient checks, "
                          f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_02_modularity_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.5)))
        two_e = 2.0 * g.num_edges
        h = rng.standard_normal((n, int(rng.integers(2, 5))))
        a = g.adjacency.to_dense()
        b = a - np.outer(g.degrees, g.degrees) / two_e
        worst = max(worst, float(np.max(np.abs(
            modularity_apply(g, h) - b @ h))))
        dense_q = float(np.trace(h.T @ b @ h) / two_e)
        worst = max(worst, abs(modularity_score(g, h) - dense_q))
        ones = np.ones((n, 1))
        worst = max(worst, abs(modularity_score(g, ones)))
    pair = build_graph([(0, 1), (2, 3)], np.zeros((4, 1)),
                       np.array([0, 0, 1, 1]))
    h = np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])
    exact = modularity_score(pair, h)
    ok = worst <= 1e-12 and exact == 0.5
    assert _report(2, ok, f"worst dense-oracle error {worst:.2e}, "
                          f"disjoint-edges Q = {exact}")


def test_criterion_03_chebyshev_and_power_iteration():
    rng = np.random.default_rng(3)
    z_rng = np.random.default_rng(33)  # keeps the graph stream unchanged
    worst = 0.0
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 21)),
                         p=float(rng.uniform(0.1, 0.6)))
        lap = normalized_laplacian(g)
        lam = float(np.linalg.eigvalsh(lap.to_dense()).max())
        if lam <= 0.0:
            continue
        cheb = ChebFilter(rescale_laplacian(lap, lam), 4, lambda_max=lam)
        dense = cheb.operator.to_dense()
        eye = np.eye(dense.shape[0])
        sq = dense @ dense
        closed = [eye, dense, 2 * sq - eye, 4 * dense @ sq - 3 * dense,
                  8 * sq @ sq - 8 * sq + eye]
        for t, want in zip(cheb.basis(eye), closed):
            worst = max(worst, float(np.max(np.abs(t - want))))
        zs = [z_rng.standard_normal((dense.shape[0], 3)) for _ in closed]
        want = sum(t @ z for t, z in zip(closed, zs))
        worst = max(worst, float(np.max(np.abs(cheb.apply(zs) - want))))
    k2 = build_graph([(0, 1)], np.zeros((2, 1)), np.array([0, 1]))
    k3 = build_graph([(0, 1), (0, 2), (1, 2)], np.zeros((3, 1)),
                     np.array([0, 1, 0]))
    lam2 = power_iteration(normalized_laplacian(k2))
    lam3 = power_iteration(normalized_laplacian(k3))
    ok = (worst <= 1e-10 and abs(lam2 - 2.0) <= 1e-6
          and abs(lam3 - 1.5) <= 1e-6)
    assert _report(3, ok, f"worst closed-form error {worst:.2e}, "
                          f"lambda(K2)={lam2:.8f}, lambda(K3)={lam3:.8f}")


def test_criterion_04_alpha_zero_degeneracy(tmp_path):
    g = two_cliques_graph(scale=2.0)
    split = _clique_split()
    cols = ("total", "supervised", "train_acc", "test_acc")
    worst = 0.0
    for encoder in ("gcn", "chebnet"):
        plain = ModelSpec(encoder=encoder, variant="plain", hidden_dim=8,
                          epochs=30, lr=0.01, seed=7)
        logs = {}
        for variant in ("plain", "mod", "aux"):
            spec = replace(plain, variant=variant, alpha=0.0)
            path = tmp_path / f"{encoder}-{variant}.csv"
            train_once(build_model(spec, g), g, split, log_path=path)
            logs[variant] = _log_columns(path, cols)
        for variant in ("mod", "aux"):
            diffs = [abs(a - b)
                     for row_p, row_v in zip(logs["plain"], logs[variant])
                     for a, b in zip(row_p, row_v)]
            worst = max(worst, max(diffs))
    aux_spec = ModelSpec(encoder="gcn", variant="aux", alpha=0.0,
                         hidden_dim=8, seed=7)
    model = build_model(aux_spec, g)
    mask = LabelMask.from_graph(g, split.train_ids)
    _, grads, _ = objective_for(model, g, mask)
    zero_aux = (not grads["aux.w"].any()) and (not grads["aux.b"].any())
    ok = worst <= 1e-12 and zero_aux
    assert _report(4, ok, f"worst trajectory gap {worst:.2e}, "
                          f"aux grads all zero: {zero_aux}")


def test_criterion_05_gradient_routing():
    g = two_cliques_graph(scale=2.0)
    split = _clique_split()
    mask = LabelMask.from_graph(g, split.train_ids)
    plain = build_model(ModelSpec(encoder="gcn", variant="plain",
                                  hidden_dim=8, seed=11), g)
    _, sup_grads, _ = objective_for(plain, g, mask)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        spec = ModelSpec(encoder="gcn", variant="aux", alpha=alpha,
                         hidden_dim=8, seed=11)
        _, grads, _ = objective_for(build_model(spec, g), g, mask)
        for name in ("layer2.w0", "layer2.b"):
            want = (1.0 - alpha) * sup_grads[name]
            worst = max(worst, float(np.max(np.abs(grads[name] - want))))
    ok = worst <= 1e-12
    assert _report(5, ok, f"worst routing error {worst:.2e} "
                          f"over alpha in {{0.25, 0.5, 0.75}}")


def test_criterion_06_end_to_end_determinism(blobs_dataset, tmp_path):
    graph = load_dataset(str(blobs_dataset), str(blobs_dataset.parent))
    texts = []
    for label in ("first", "second"):
        cfg = MatrixConfig(dataset="blobs", models=("gcn", "chebnet-mod"),
                           budgets=(3,), n_runs=2, test_size=12, epochs=10,
                           alpha=0.3, out_dir=str(tmp_path / label))
        run_matrix(cfg, graph=graph)
        texts.append((tmp_path / label / "results.csv").read_text())
    ok = texts[0] == texts[1] and len(texts[0].strip().split("\n")) == 5
    assert _report(6, ok, "identical results.csv across invocations: "
                          f"{texts[0] == texts[1]}")


# --------------------------------------------------------------- 7-12 --

# reference mean accuracies and tolerance bands for the reproduction runs
REFERENCE_AT_20 = {"gcn": (0.785, 0.04), "chebnet": (0.783, 0.04),
                   "ica": (0.744, 0.05)}
N_RUNS = 20


def _mean_at(graph, model: str, budget: int, out_dir, **overrides) -> float:
    base = dict(models=(model,), budgets=(budget,), n_runs=N_RUNS,
                out_dir=str(out_dir))
    base.update(overrides)
    _, aggs = run_matrix(MatrixConfig(**base), graph=graph)
    (agg,) = aggs
    return agg.mean_accuracy


def _swept_best_means(graph, model: str, budgets, out_dir, **overrides):
    base = dict(models=(model,), budgets=tuple(budgets), n_runs=N_RUNS,
                out_dir=str(out_dir))
    base.update(overrides)
    sweeps, _ = alpha_sweep(MatrixConfig(**base), grid=DEFAULT_ALPHA_GRID,
                            graph=graph)
    return {s.labels_per_class:
            next(mean for alpha, mean, _ in s.curve
                 if alpha == s.best_alpha)
            for s in sweeps}


@requires_cora
def test_criterion_07_gcn_at_20(cora_graph, tmp_path):
    mean = _mean_at(cora_graph, "gcn", 20, tmp_path)
    target, band = REFERENCE_AT_20["gcn"]
    ok = abs(mean - target) <= band
    assert _report(7, ok, f"gcn@20 mean {mean:.4f}, "
                          f"target {target} +/- {band}")


@requires_cora
def test_criterion_08_chebnet_at_20(cora_graph, tmp_path):
    mean = _mean_at(cora_graph, "chebnet", 20, tmp_path)
    target, band = REFERENCE_AT_20["chebnet"]
    ok = abs(mean - target) <= band
    assert _report(8, ok, f"chebnet@20 mean {mean:.4f}, "
                          f"target {target} +/- {band}")


@requires_cora
def test_criterion_09_ica_at_20(cora_graph, tmp_path):
    mean = _mean_at(cora_graph, "ica", 20, tmp_path)
    target, band = REFERENCE_AT_20["ica"]
    ok = abs(mean - target) <= band
    assert _report(9, ok, f"ica@20 mean {mean:.4f}, "
                          f"target {target} +/- {band}")


@requires_cora
def test_criterion_10_chebnet_mod_ordering(cora_graph, tmp_path):
    budgets = (8, 11, 14, 17)
    best = _swept_best_means(cora_graph, "chebnet-mod", budgets,
                             tmp_path / "sweep")
    _, plain_aggs = run_matrix(
        MatrixConfig(models=("chebnet",), budgets=budgets, n_runs=N_RUNS,
                     out_dir=str(tmp_path / "plain")), graph=cora_graph)
    plain = {a.labels_per_class: a.mean_accuracy for a in plain_aggs}
    deltas = {b: best[b] - plain[b] for b in budgets}
    ok = (all(d > 0.0 for d in deltas.values())
          and sum(d >= 0.01 for d in deltas.values()) >= 3)
    detail = ", ".join(f"@{b}: {d:+.4f}" for b, d in sorted(deltas.items()))
    assert _report(10, ok, f"chebnet-mod minus chebnet deltas {detail}")


@requires_cora
def test_criterion_11_gcn_mod_sparse_regime(cora_graph, tmp_path):
    best = _swept_best_means(cora_graph, "gcn-mod", (5,),
                             tmp_path / "sweep")[5]
    plain = _mean_at(cora_graph, "gcn", 5, tmp_path / "plain")
    ok = best - plain >= 0.0
    assert _report(11, ok, f"gcn-mod@5 {best:.4f} vs gcn@5 {plain:.4f} "
                           f"(delta {best - plain:+.4f})")


@requires_cora
def test_criterion_12_alpha_embedding_export(cora_graph, tmp_path):
    seed = split_seed_for(0, 5, 0)
    split = stratified_split(cora_graph, 5, 1000, seed)
    accuracy = {}
    shapes_ok = True
    for alpha in (0.0, 0.5, 1.0):
        spec = ModelSpec(encoder="chebnet", variant="mod", alpha=alpha,
                         hidden_dim=16, epochs=100, lr=0.01, seed=seed)
        model = build_model(spec, cora_graph)
        result = train_once(model, cora_graph, split)
        accuracy[alpha] = result.test_accuracy
        out = tmp_path / f"embeddings_a{alpha}.tsv"
        export_embeddings(model, cora_graph, "hidden", out)
        lines = out.read_text().strip().split("\n")
        shapes_ok &= (len(lines) == cora_graph.num_nodes + 1
                      and len(lines[0].split("\t")) == 2 + 16)
    ok = shapes_ok and accuracy[0.5] > accuracy[1.0]
    assert _report(12, ok, "exports complete, accuracies "
                           + ", ".join(f"alpha={a}: {accuracy[a]:.4f}"
                                       for a in (0.0, 0.5, 1.0)))
