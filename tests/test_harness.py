"""Experiment harness: paired splits, run bookkeeping, aggregation,
the alpha sweep, and the CSV/markdown writers."""

import inspect
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import modgcn.harness as harness
import modgcn.model as model_module
from modgcn.datasets import Split, load_dataset, stratified_split
from modgcn.harness import (
    DEFAULT_ALPHA_GRID,
    FAILURES_HEADER,
    LOG_HEADER,
    MODEL_ORDER,
    RESULTS_HEADER,
    AggregateResult,
    MatrixConfig,
    RunResult,
    SweepResult,
    accuracy_of,
    aggregate,
    alpha_sweep,
    execute_job,
    export_embeddings,
    load_matrix_config,
    model_spec_for,
    read_results_csv,
    run_ica_once,
    run_matrix,
    split_seed_for,
    train_once,
    training_features,
    write_results_csv,
    write_summary_md,
    write_sweep_csv,
)
from modgcn.ica import IcaConfig
from modgcn.model import ModelSpec, build_model
from modgcn.sparse import CsrMatrix, build_graph

from conftest import two_cliques_graph, write_tiny_dataset


def small_spec(**overrides):
    base = dict(encoder="gcn", variant="plain", hidden_dim=8,
                epochs=12, lr=0.05, seed=3)
    base.update(overrides)
    return ModelSpec(**base)


def clique_split(run_index=0, seed=0):
    return Split(np.array([0, 4]), np.array([1, 2, 3, 5, 6, 7]),
                 labels_per_class=1, seed=seed, run_index=run_index)


@pytest.fixture
def blobs_graph(blobs_dataset):
    return load_dataset(str(blobs_dataset), str(blobs_dataset.parent))


class TestSeedsAndSplits:
    def test_split_seed_arithmetic(self):
        assert split_seed_for(0, 5, 0) == 5_000
        assert split_seed_for(2, 20, 7) == 2_020_007

    def test_split_seeds_distinct_across_cells(self):
        seeds = {split_seed_for(0, b, r)
                 for b in (5, 8, 11, 14, 17, 20) for r in range(20)}
        assert len(seeds) == 6 * 20

    def test_split_deterministic(self, blobs_graph):
        a = stratified_split(blobs_graph, 3, 12, seed=11)
        b = stratified_split(blobs_graph, 3, 12, seed=11)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)
        assert a.labels_per_class == 3 and a.seed == 11

    def test_models_share_splits_at_same_run_index(self, blobs_graph):
        # the pairing guarantee: the split depends on the seed only
        seed = split_seed_for(0, 3, 4)
        for_gcn = stratified_split(blobs_graph, 3, 12, seed, run_index=4)
        for_cheb = stratified_split(blobs_graph, 3, 12, seed, run_index=4)
        np.testing.assert_array_equal(for_gcn.train_ids, for_cheb.train_ids)


class TestModelSpecFor:
    def test_plain_gets_alpha_zero(self):
        cfg = MatrixConfig(alpha=0.4)
        spec = model_spec_for("gcn", cfg, seed=9)
        assert spec.variant == "plain" and spec.alpha == 0.0
        assert spec.seed == 9

    def test_mod_gets_config_alpha(self):
        cfg = MatrixConfig(alpha=0.4)
        spec = model_spec_for("chebnet-mod", cfg, seed=0)
        assert spec.encoder == "chebnet"
        assert spec.variant == "mod" and spec.alpha == 0.4

    def test_alpha_override_and_argument(self):
        cfg = MatrixConfig(alpha=0.4,
                           alpha_overrides=(("gcn-aux", 0.7),))
        assert model_spec_for("gcn-aux", cfg, 0).alpha == 0.7
        assert model_spec_for("gcn-aux", cfg, 0, alpha=0.25).alpha == 0.25

    def test_ica_has_no_spec(self):
        with pytest.raises(ValueError, match="no model spec"):
            model_spec_for("ica", MatrixConfig(), 0)


class TestTrainingFeatures:
    def test_sparse_features_become_csr(self):
        feats = np.eye(10)[np.arange(8) % 10]
        g = build_graph([(i, i + 1) for i in range(7)], feats,
                        np.arange(8) % 2)
        x = training_features(g)
        assert isinstance(x, CsrMatrix)
        np.testing.assert_array_equal(x.to_dense(), g.features)

    def test_accuracy_of_ties_to_lowest_class(self):
        probs = np.array([[0.5, 0.5], [0.2, 0.8]])
        labels = np.array([0, 1])
        assert accuracy_of(probs, labels, np.array([0, 1])) == 1.0
        assert accuracy_of(probs, labels, np.array([0])) == 1.0


class TestTrainOnce:
    def test_learns_the_cliques(self):
        g = two_cliques_graph(scale=3.0)
        r = train_once(build_model(small_spec(epochs=60), g), g,
                       clique_split())
        assert not r.failed
        assert r.test_accuracy == 1.0
        assert r.epochs_run == 60
        assert r.model_name == "gcn" and r.variant == "plain"

    def test_takes_the_model_and_nothing_that_restates_it(self):
        params = inspect.signature(train_once).parameters
        assert list(params) == ["model", "graph", "split", "log_path"]
        assert params["log_path"].default is None

    def test_run_is_described_by_the_model_spec(self, tmp_path):
        g = two_cliques_graph(scale=3.0)
        spec = small_spec(variant="mod", alpha=0.9, epochs=7)
        log = tmp_path / "log.csv"
        r = train_once(build_model(spec, g), g, clique_split(), log_path=log)
        assert (r.model_name, r.variant, r.alpha) == ("gcn-mod", "mod", 0.9)
        assert r.epochs_run == 7 and r.final_losses.alpha == 0.9
        rows = [line.split(",") for line in log.read_text().split()[1:]]
        assert len(rows) == 8
        assert all(float(row[3]) != 0.0 for row in rows)  # modularity_term

    def test_deterministic(self):
        g = two_cliques_graph(scale=3.0)
        a = train_once(build_model(small_spec(), g), g, clique_split())
        b = train_once(build_model(small_spec(), g), g, clique_split())
        assert a.test_accuracy == b.test_accuracy
        assert a.final_losses.total == b.final_losses.total

    def test_log_has_epochs_plus_one_rows(self, tmp_path):
        g = two_cliques_graph(scale=3.0)
        log = tmp_path / "log.csv"
        spec = small_spec(epochs=7)
        r = train_once(build_model(spec, g), g, clique_split(), log_path=log)
        lines = log.read_text().strip().split("\n")
        assert lines[0] == ",".join(LOG_HEADER)
        assert len(lines) == 1 + 8  # header + epochs 0..7
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[0] == "0" and last[0] == "7"
        assert float(last[5]) == r.test_accuracy

    def test_divergence_marks_run_failed(self, tmp_path):
        g = two_cliques_graph(scale=3.0)
        spec = small_spec(lr=1e160, epochs=20)
        with np.errstate(over="ignore", invalid="ignore"):
            r = train_once(build_model(spec, g), g, clique_split())
            logged = train_once(build_model(spec, g), g, clique_split(),
                                log_path=tmp_path / "log.csv")
        assert r.failed
        assert math.isnan(r.test_accuracy)
        assert r.note != ""
        assert r.epochs_run < 20
        assert logged.failed and math.isnan(logged.test_accuracy)
        assert (logged.note, logged.epochs_run) == (r.note, r.epochs_run)

    def test_unlogged_run_scores_accuracy_once(self, monkeypatch, tmp_path):
        g = two_cliques_graph(scale=3.0)
        calls = []
        real = harness.accuracy_of

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(harness, "accuracy_of", counting)
        spec = small_spec(epochs=7)
        train_once(build_model(spec, g), g, clique_split())
        assert len(calls) == 1
        calls.clear()
        train_once(build_model(spec, g), g, clique_split(),
                   log_path=tmp_path / "log.csv")
        assert len(calls) == 2 * (7 + 1)

    @pytest.mark.parametrize("variant, alpha",
                             [("plain", 0.0), ("mod", 0.5), ("aux", 0.5)])
    def test_log_does_not_change_the_run(self, tmp_path, variant, alpha):
        g = two_cliques_graph(scale=3.0)
        spec = small_spec(variant=variant, alpha=alpha, epochs=5)
        quiet = train_once(build_model(spec, g), g, clique_split())
        logged = train_once(build_model(spec, g), g, clique_split(),
                            log_path=tmp_path / "log.csv")
        assert quiet.test_accuracy == logged.test_accuracy
        assert quiet.epochs_run == logged.epochs_run == 5
        assert quiet.final_losses == logged.final_losses

    def test_passed_model_keeps_trained_weights(self):
        g = two_cliques_graph(scale=3.0)
        spec = small_spec(epochs=25)
        model = build_model(spec, g)
        r = train_once(model, g, clique_split())
        fwd = model.forward(training_features(g))
        got = accuracy_of(fwd.output, g.labels, clique_split().test_ids)
        assert got == r.test_accuracy

    def test_precomputed_supports_match(self):
        # a run on a graph whose filter and features are already derived
        # equals one on a fresh graph
        spec = small_spec()
        fresh = two_cliques_graph(scale=3.0)
        plain = train_once(build_model(spec, fresh), fresh, clique_split())
        g = two_cliques_graph(scale=3.0)
        build_model(spec, g)
        training_features(g)
        shared = train_once(build_model(spec, g), g, clique_split())
        assert plain.test_accuracy == shared.test_accuracy
        assert plain.final_losses == shared.final_losses


class TestIcaAndJobs:
    def test_run_ica_once(self):
        g = two_cliques_graph(scale=3.0)
        r = run_ica_once(g, clique_split(), IcaConfig())
        assert not r.failed
        assert r.model_name == "ica"
        assert r.test_accuracy == 1.0

    def test_execute_job_matches_train_once(self, blobs_graph):
        cfg = MatrixConfig(models=("gcn",), budgets=(3,), n_runs=1,
                           test_size=12, epochs=10)
        r = execute_job(blobs_graph, cfg, "gcn", 3, 0)
        seed = split_seed_for(0, 3, 0)
        split = stratified_split(blobs_graph, 3, 12, seed, run_index=0)
        direct = train_once(
            build_model(model_spec_for("gcn", cfg, seed), blobs_graph),
            blobs_graph, split)
        assert r.test_accuracy == direct.test_accuracy
        assert r.split_seed == seed


class TestGraphMemo:
    def test_models_on_one_graph_share_the_filter(self, monkeypatch):
        g = two_cliques_graph()
        builds = []
        real = model_module.build_supports

        def counting(spec, graph):
            builds.append(spec)
            return real(spec, graph)
        monkeypatch.setattr(model_module, "build_supports", counting)
        a = build_model(small_spec(), g)
        b = build_model(small_spec(variant="mod", alpha=0.5, hidden_dim=4,
                                   cheb_order=3, seed=9), g)
        assert a.layer1.filter is b.layer1.filter is a.layer2.filter
        cheb = build_model(small_spec(encoder="chebnet"), g)
        assert cheb.layer1.filter is not a.layer1.filter
        assert build_model(small_spec(encoder="chebnet"), g).layer1.filter \
            is cheb.layer1.filter
        forced = build_model(small_spec(encoder="chebnet", lambda_max=1.5), g)
        assert forced.layer1.filter.lambda_max == 1.5
        assert len(builds) == 3
        # another graph object derives its own
        other = build_model(small_spec(), two_cliques_graph())
        assert other.layer1.filter is not a.layer1.filter

    def test_training_converts_no_features(self, monkeypatch):
        feats = np.eye(10)[np.arange(8) % 10]
        g = build_graph([(i, i + 1) for i in range(7)], feats,
                        np.arange(8) % 2)
        calls = []
        real = CsrMatrix.from_dense

        def counting(cls, arr):
            calls.append(arr)
            return real(arr)
        monkeypatch.setattr(CsrMatrix, "from_dense", classmethod(counting))
        spec = small_spec(epochs=3)
        split = Split(np.array([0, 1]), np.arange(2, 8), 1, 0)
        train_once(build_model(spec, g), g, split)
        train_once(build_model(spec, g), g, split)
        # the graph stores its features as CSR: training converts nothing
        assert training_features(g) is g.feature_csr
        assert calls == []

    def test_pickled_graph_derives_its_own(self):
        g = two_cliques_graph()
        build_model(small_spec(), g)
        copy = pickle.loads(pickle.dumps(g))
        assert "filters" not in vars(copy) and "degrees" not in vars(copy)
        np.testing.assert_array_equal(copy.degrees, g.degrees)
        assert copy.filters == {}


class TestRunMatrix:
    def make_config(self, out_dir, **overrides):
        base = dict(dataset="blobs", models=("gcn", "chebnet"),
                    budgets=(3,), n_runs=3, test_size=12, epochs=12,
                    out_dir=str(out_dir))
        base.update(overrides)
        return MatrixConfig(**base)

    def test_bookkeeping(self, blobs_graph, tmp_path):
        cfg = self.make_config(tmp_path / "out")
        runs, aggs = run_matrix(cfg, graph=blobs_graph)
        assert len(runs) == 2 * 1 * 3
        assert [a.model_name for a in aggs] == ["gcn", "chebnet"]
        assert all(a.n_runs == 3 and a.n_failed == 0 for a in aggs)
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.md").exists()

    def test_results_csv_round_trips_exactly(self, blobs_graph, tmp_path):
        cfg = self.make_config(tmp_path / "out")
        runs, aggs = run_matrix(cfg, graph=blobs_graph)
        back = read_results_csv(tmp_path / "out" / "results.csv")
        assert [r.test_accuracy for r in back] == \
            [r.test_accuracy for r in runs]
        re_aggs = aggregate(back, model_order=cfg.models)
        for a, b in zip(aggs, re_aggs):
            assert abs(a.mean_accuracy - b.mean_accuracy) <= 1e-12
            assert abs(a.standard_error - b.standard_error) <= 1e-12
            assert (a.n_runs, a.n_failed) == (b.n_runs, b.n_failed)

    def test_failed_runs_are_explained_in_failures_csv(self, blobs_graph,
                                                       tmp_path):
        # training diverges at this learning rate
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            runs, _ = run_matrix(self.make_config(out, lr=1e160),
                                 graph=blobs_graph)
        failed = [r for r in runs if r.failed]
        assert failed
        lines = (out / "failures.csv").read_text().splitlines()
        assert lines[0] == ",".join(FAILURES_HEADER)
        assert len(lines) == 1 + len(failed)
        for line, r in zip(lines[1:], failed):
            assert line.startswith(f"{r.model_name},{r.variant},"
                                   f"{r.alpha!r},{r.labels_per_class},"
                                   f"{r.run_index},{r.split_seed},")
            assert r.note and r.note in line
        # a later matrix in the same directory with no failure leaves none
        run_matrix(self.make_config(out), graph=blobs_graph)
        assert not (out / "failures.csv").exists()

    def test_repeat_invocations_identical(self, blobs_graph, tmp_path):
        cfg_a = self.make_config(tmp_path / "a")
        cfg_b = self.make_config(tmp_path / "b")
        run_matrix(cfg_a, graph=blobs_graph)
        run_matrix(cfg_b, graph=blobs_graph)
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    def test_loads_dataset_from_disk(self, blobs_dataset, tmp_path):
        cfg = self.make_config(tmp_path / "out", models=("gcn",),
                               n_runs=1, dataset=str(blobs_dataset),
                               data_dir=str(blobs_dataset.parent))
        runs, _ = run_matrix(cfg)
        assert len(runs) == 1 and not runs[0].failed

    def test_parallel_matches_serial(self, blobs_graph, tmp_path):
        serial = self.make_config(tmp_path / "s", models=("gcn",),
                                  n_runs=2, epochs=6)
        parallel = self.make_config(tmp_path / "p", models=("gcn",),
                                    n_runs=2, epochs=6, jobs=2)
        runs_s, _ = run_matrix(serial, graph=blobs_graph)
        runs_p, _ = run_matrix(parallel, graph=blobs_graph)
        assert [r.test_accuracy for r in runs_s] == \
            [r.test_accuracy for r in runs_p]


class TestAggregate:
    def run(self, model, budget, run_index, acc, failed=False):
        return RunResult(model, "plain", 0.0, budget, run_index,
                         split_seed_for(0, budget, run_index),
                         acc, 10, failed=failed)

    def test_mean_and_se(self):
        runs = [self.run("gcn", 5, i, a)
                for i, a in enumerate((0.7, 0.8, 0.9))]
        (agg,) = aggregate(runs)
        assert agg.mean_accuracy == pytest.approx(0.8)
        expected_se = np.std([0.7, 0.8, 0.9], ddof=1) / np.sqrt(3)
        assert agg.standard_error == pytest.approx(expected_se)

    def test_constant_accuracies_have_zero_se(self):
        runs = [self.run("gcn", 5, i, 0.75) for i in range(4)]
        (agg,) = aggregate(runs)
        assert agg.standard_error == 0.0

    def test_single_run_se_is_zero(self):
        (agg,) = aggregate([self.run("gcn", 5, 0, 0.6)])
        assert agg.standard_error == 0.0 and agg.n_runs == 1

    def test_failed_runs_excluded_with_count(self):
        runs = [self.run("gcn", 5, 0, 0.8),
                self.run("gcn", 5, 1, float("nan"), failed=True),
                self.run("gcn", 5, 2, 0.6)]
        (agg,) = aggregate(runs)
        assert agg.mean_accuracy == pytest.approx(0.7)
        assert agg.n_runs == 2 and agg.n_failed == 1

    def test_all_failed_cell(self):
        runs = [self.run("gcn", 5, 0, float("nan"), failed=True)]
        (agg,) = aggregate(runs)
        assert math.isnan(agg.mean_accuracy)
        assert agg.n_runs == 0 and agg.n_failed == 1

    def test_ordering_follows_model_order_then_budget(self):
        runs = [self.run("chebnet", 8, 0, 0.5),
                self.run("gcn", 8, 0, 0.5),
                self.run("gcn", 5, 0, 0.5)]
        aggs = aggregate(runs)
        assert [(a.model_name, a.labels_per_class) for a in aggs] == \
            [("gcn", 5), ("gcn", 8), ("chebnet", 8)]


class TestAlphaSweep:
    def fake_runs(self, jobs, acc_for):
        out = []
        for model, budget, run, alpha in jobs:
            acc = acc_for(alpha, run)
            out.append(RunResult(model, "mod", alpha, budget, run,
                                 split_seed_for(0, budget, run), acc, 5,
                                 failed=not math.isfinite(acc)))
        return out

    def test_best_alpha_ties_to_lowest(self, monkeypatch):
        table = {0.1: (0.5, 0.7), 0.5: (0.6, 0.6), 0.9: (0.5, 0.5)}
        monkeypatch.setattr(
            harness, "_run_jobs",
            lambda g, c, jobs: self.fake_runs(
                jobs, lambda a, r: table[a][r]))
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=2)
        sweeps, runs = alpha_sweep(cfg, grid=(0.1, 0.5, 0.9),
                                   graph=two_cliques_graph())
        assert len(runs) == 3 * 2
        (sweep,) = sweeps
        # 0.1 and 0.5 both average 0.6; the tie goes to 0.1
        assert sweep.best_alpha == 0.1
        assert [pt[0] for pt in sweep.curve] == [0.1, 0.5, 0.9]
        assert sweep.curve[2][1] == pytest.approx(0.5)

    def test_failed_runs_drop_out_of_the_mean(self, monkeypatch):
        acc_for = lambda a, r: float("nan") if (a, r) == (0.3, 1) else a
        monkeypatch.setattr(
            harness, "_run_jobs",
            lambda g, c, jobs: self.fake_runs(jobs, acc_for))
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=2)
        (sweep,), _ = alpha_sweep(cfg, grid=(0.3, 0.6),
                                  graph=two_cliques_graph())
        assert sweep.best_alpha == 0.6
        assert sweep.curve[0][1] == pytest.approx(0.3)  # surviving run only

    def test_all_failed_cell_has_nan_standard_error(self, monkeypatch,
                                                    tmp_path):
        acc_for = lambda a, r: float("nan") if a == 0.3 else 0.5 + 0.1 * r
        monkeypatch.setattr(
            harness, "_run_jobs",
            lambda g, c, jobs: self.fake_runs(jobs, acc_for))
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=2)
        (sweep,), _ = alpha_sweep(cfg, grid=(0.3, 0.6),
                                  graph=two_cliques_graph())
        alpha, mean, se = sweep.curve[0]
        assert alpha == 0.3 and math.isnan(mean) and math.isnan(se)
        assert sweep.best_alpha == 0.6
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [sweep])
        assert path.read_text().split()[1] == "gcn-mod,2,0.3,nan,nan,0.6"

    def test_all_failed_cell_raises(self, monkeypatch):
        monkeypatch.setattr(
            harness, "_run_jobs",
            lambda g, c, jobs: self.fake_runs(
                jobs, lambda a, r: float("nan")))
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=1)
        with pytest.raises(ValueError, match="every sweep run failed"):
            alpha_sweep(cfg, grid=(0.5,), graph=two_cliques_graph())

    def test_rejects_empty_grid_and_plain_only_config(self):
        g = two_cliques_graph()
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=1)
        with pytest.raises(ValueError, match="non-empty grid"):
            alpha_sweep(cfg, grid=(), graph=g)
        plain_cfg = MatrixConfig(models=("gcn", "ica"), budgets=(2,),
                                 n_runs=1)
        with pytest.raises(ValueError, match="no mod/aux model"):
            alpha_sweep(plain_cfg, grid=(0.5,), graph=g)

    def test_repeated_alpha_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_jobs",
                            lambda g, c, jobs: pytest.fail("ran jobs"))
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(2,), n_runs=3)
        with pytest.raises(ValueError, match="alpha 0.5 is repeated"):
            alpha_sweep(cfg, grid=(0.1, 0.5, 0.5), graph=two_cliques_graph())

    def test_bad_alpha_in_grid_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_jobs",
                            lambda g, c, jobs: pytest.fail("ran jobs"))
        monkeypatch.setattr(harness, "load_dataset",
                            lambda *a: pytest.fail("loaded the dataset"))
        cfg = MatrixConfig(models=("gcn-mod", "chebnet-aux"), budgets=(2,),
                           n_runs=3)
        with pytest.raises(ValueError, match="gcn-mod: alpha must lie in"):
            alpha_sweep(cfg, grid=(0.1, 1.5))

    def test_default_grid_spans_open_interval(self):
        assert DEFAULT_ALPHA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9)

    def test_real_sweep_on_cliques(self):
        cfg = MatrixConfig(models=("gcn-mod",), budgets=(1,), n_runs=1,
                           test_size=6, epochs=25, base_seed=1)
        sweeps, runs = alpha_sweep(cfg, grid=(0.2, 0.8),
                                   graph=two_cliques_graph(scale=3.0))
        assert len(runs) == 2
        assert sweeps[0].best_alpha in (0.2, 0.8)


class TestExportEmbeddings:
    def read_tsv(self, path):
        lines = path.read_text().strip().split("\n")
        header = lines[0].split("\t")
        rows = [line.split("\t") for line in lines[1:]]
        return header, rows

    def test_output_layer_rows_are_distributions(self, tmp_path):
        g = two_cliques_graph(scale=3.0)
        model = build_model(small_spec(), g)
        train_once(model, g, clique_split())
        out = tmp_path / "emb.tsv"
        export_embeddings(model, g, "output", out)
        header, rows = self.read_tsv(out)
        assert header == ["node_id", "true_label", "e0", "e1"]
        assert len(rows) == g.num_nodes
        for i, row in enumerate(rows):
            assert row[0] == str(i)
            assert row[1] == str(int(g.labels[i]))
            assert float(row[2]) + float(row[3]) == pytest.approx(1.0)

    def test_hidden_layer_width(self, tmp_path):
        g = two_cliques_graph()
        model = build_model(small_spec(hidden_dim=5), g)
        out = tmp_path / "emb.tsv"
        export_embeddings(model, g, "hidden", out)
        header, rows = self.read_tsv(out)
        assert header[2:] == [f"e{j}" for j in range(5)]
        fwd = model.forward(training_features(g))
        got = float(rows[0][2])
        assert got == fwd.hidden[0, 0]  # repr round-trips exactly

    def test_aux_layer_requires_aux_head(self, tmp_path):
        g = two_cliques_graph()
        aux_model = build_model(small_spec(variant="aux", alpha=0.5), g)
        export_embeddings(aux_model, g, "aux", tmp_path / "a.tsv")
        plain = build_model(small_spec(), g)
        with pytest.raises(ValueError, match="no auxiliary head"):
            export_embeddings(plain, g, "aux", tmp_path / "b.tsv")

    def test_unknown_layer(self, tmp_path):
        g = two_cliques_graph()
        model = build_model(small_spec(), g)
        with pytest.raises(ValueError, match="embedding layer"):
            export_embeddings(model, g, "logits", tmp_path / "x.tsv")


class TestWriters:
    def test_results_header_schema(self):
        assert RESULTS_HEADER == ("model", "variant", "alpha",
                                  "labels_per_class", "run_index",
                                  "split_seed", "accuracy", "epochs")

    def test_read_results_round_trip(self, tmp_path):
        runs = [RunResult("gcn", "plain", 0.0, 5, 0, 5000, 0.8125, 100),
                RunResult("gcn-mod", "mod", 0.3, 5, 1, 5001,
                          float("nan"), 4, failed=True)]
        path = tmp_path / "results.csv"
        write_results_csv(path, runs)
        back = read_results_csv(path)
        assert back[0].test_accuracy == 0.8125
        assert back[0].model_name == "gcn" and back[0].split_seed == 5000
        assert back[1].failed and math.isnan(back[1].test_accuracy)
        assert back[1].alpha == 0.3

    def test_summary_md_shape(self, tmp_path):
        cfg = MatrixConfig(models=("gcn", "chebnet"), budgets=(5, 20),
                           n_runs=2)
        aggs = [AggregateResult("gcn", 5, 0.71, 0.01, 2),
                AggregateResult("gcn", 20, 0.80, 0.005, 2),
                AggregateResult("chebnet", 5, 0.70, 0.02, 1, n_failed=1),
                AggregateResult("chebnet", 20, float("nan"), float("nan"),
                                0, n_failed=2)]
        path = tmp_path / "summary.md"
        write_summary_md(path, cfg, aggs)
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[2] == "| model | 5 | 20 |"
        gcn_row = next(l for l in lines if l.startswith("| gcn |"))
        assert "0.710 +/- 0.010" in gcn_row
        cheb_row = next(l for l in lines if l.startswith("| chebnet |"))
        assert "(n=1)" in cheb_row and "failed" in cheb_row
        assert text.index("| gcn |") < text.index("| chebnet |")

    def test_sweep_csv(self, tmp_path):
        sweep = SweepResult("gcn-mod", 8, 0.3,
                            ((0.1, 0.6, 0.01), (0.3, 0.65, 0.02)))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [sweep])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("model,labels_per_class,alpha,mean_accuracy,"
                            "standard_error,best_alpha")
        assert len(lines) == 3
        assert lines[1].startswith("gcn-mod,8,0.1,0.6,")


class TestMatrixConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            MatrixConfig(models=("gnn",))

    def test_counts_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            MatrixConfig(n_runs=0)
        with pytest.raises(ValueError, match=">= 1"):
            MatrixConfig(jobs=0)

    @pytest.mark.parametrize("field, value, message", [
        # budget 5 at run 1000 and budget 6 at run 0 both get seed 6000
        ("n_runs", 1001, "n_runs must be <= 1000"),
        ("budgets", (5, 1000), "budgets: 1000 is outside 1..999"),
        ("budgets", (0,), "budgets: 0 is outside 1..999"),
        ("base_seed", -1, "base_seed must be >= 0"),
        ("test_size", 0, "test_size must be >= 1"),
        # refused by the model specs the runs would build
        ("alpha", 1.5, "gcn-mod: alpha must lie in"),
        ("alpha_overrides", (("gcn-mod", 2.0),), "gcn-mod: alpha must lie in"),
        ("lr", 0.0, "gcn: epochs must be >= 0 and lr > 0"),
        ("epochs", -1, "gcn: epochs must be >= 0 and lr > 0"),
        ("hidden_dim", 0, "gcn: hidden_dim must be >= 1"),
        ("cheb_order", -1, "chebnet: cheb_order must be >= 0"),
    ], ids=["n_runs", "budget-high", "budget-zero", "base_seed", "test_size",
            "alpha", "alpha-override", "lr", "epochs", "hidden_dim",
            "cheb_order"])
    def test_ranges_that_would_collide_or_fail_are_refused(self, field,
                                                            value, message):
        with pytest.raises(ValueError, match=message):
            MatrixConfig(**{field: value})

    @pytest.mark.parametrize("models, overrides, message", [
        (("gcn",), (("gcn-mod", 2.0), ("nonsense", 5.0)),
         "alpha override 'gcn-mod' is not in models"),
        (MODEL_ORDER, (("gcn-mod", 0.3), ("gcn-mod", 0.7)),
         "alpha override 'gcn-mod' is repeated"),
        (MODEL_ORDER, (("nonsense", 0.3),),
         "alpha override 'nonsense' names no mod/aux model"),
        (MODEL_ORDER, (("gcn", 0.3),),
         "alpha override 'gcn' names no mod/aux model"),
        (MODEL_ORDER, (("ica", 0.3),),
         "alpha override 'ica' names no mod/aux model"),
        (("gcn", "gcn-aux"), (("gcn-aux", 0.5), ("chebnet-aux", 0.5)),
         "alpha override 'chebnet-aux' is not in models"),
        (("gcn-mod",), (("gcn-mod", -0.1),), "gcn-mod: alpha must lie in"),
    ], ids=["not-run-and-unknown", "repeated", "unknown", "plain", "ica",
            "not-run", "out-of-range"])
    def test_alpha_override_that_cannot_apply_is_refused(self, models,
                                                         overrides, message):
        with pytest.raises(ValueError, match=message):
            MatrixConfig(models=models, alpha_overrides=overrides)

    def test_widest_ranges_give_distinct_seeds(self):
        cfg = MatrixConfig(budgets=(1, 999), n_runs=1000, base_seed=0)
        seeds = {split_seed_for(base, b, r) for base in (0, 1)
                 for b in cfg.budgets for r in range(cfg.n_runs)}
        assert len(seeds) == 2 * 2 * 1000

    def test_defaults(self):
        cfg = MatrixConfig()
        assert cfg.models == MODEL_ORDER
        assert cfg.budgets == (5, 8, 11, 14, 17, 20)
        assert cfg.n_runs == 20 and cfg.epochs == 100
        assert cfg.hidden_dim == 16 and cfg.lr == 0.01

    def test_load_ini(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("""\
[experiment]
dataset = blobs
data_dir = /somewhere
models = gcn, chebnet-mod
budgets = 3, 5
n_runs = 2
epochs = 10
alpha = 0.2
out_dir = res

[alpha]
chebnet-mod = 0.7

[ica]
max_iters = 5
lr = 0.2
""")
        cfg = load_matrix_config(path)
        assert cfg.dataset == "blobs" and cfg.data_dir == "/somewhere"
        assert cfg.models == ("gcn", "chebnet-mod")
        assert cfg.budgets == (3, 5)
        assert cfg.n_runs == 2 and cfg.epochs == 10
        assert cfg.alpha_for("chebnet-mod") == 0.7
        assert cfg.alpha_for("gcn-mod") == 0.2
        assert cfg.ica.max_iters == 5 and cfg.ica.lr == 0.2
        assert cfg.ica.epochs == IcaConfig.epochs  # untouched default

    def test_load_errors(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_matrix_config(tmp_path / "missing.cfg")
        bad = tmp_path / "bad.cfg"
        bad.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError, match="experiment"):
            load_matrix_config(bad)

    @pytest.mark.parametrize("text, key", [
        ("[experiment]\nepoch = 5\n", "'epoch' in \\[experiment\\]"),
        ("[experiment]\n[ica]\nmax_iter = 3\n", "'max_iter' in \\[ica\\]"),
        ("[experiment]\n[alpha]\ngcn-mdo = 0.3\n", "'gcn-mdo' in \\[alpha\\]"),
        ("[experiment]\n[alpha]\ngcn = 0.3\n", "'gcn' in \\[alpha\\]"),
        ("[experiment]\n[alpha]\nica = 0.3\n", "'ica' in \\[alpha\\]"),
        ("[experiment]\n[icaa]\nmax_iters = 3\n", "unknown section \\[icaa\\]"),
        ("[experiment]\nmodels = gcn, gcn-mdo\n", "unknown model 'gcn-mdo'"),
        ("[experiment]\n[ica]\nmax_iters = 0\n", "max_iters must be >= 1"),
        ("[experiment]\n[ica]\nl2 = nan\n", "l2 must be finite"),
        ("[experiment]\n[ica]\nlr = inf\n", "lr must be finite"),
        ("[experiment]\n[ica]\nmax_iters = 2.5\n", "\\[ica\\] max_iters"),
        ("epochs = 5\n", "no section headers"),
        ("[experiment]\nepochs = 5\nepochs = 6\n", "'epochs'"),
        ("[experiment]\nepochs = ten\n", "\\[experiment\\] epochs"),
        ("[experiment]\nmodels = gcn, gcn\n", "model 'gcn' is repeated"),
        ("[experiment]\nbudgets = 3, 3\n", "budget 3 is repeated"),
        ("[experiment]\nbudgets = 5, 1000\n", "budgets: 1000 is outside"),
        ("[experiment]\nn_runs = 1001\n", "n_runs must be <= 1000"),
        ("[experiment]\nalpha = 1.5\n", "gcn-mod: alpha must lie in"),
        ("[experiment]\n[alpha]\ngcn-mod = 2.0\n", "gcn-mod: alpha must lie in"),
        ("[experiment]\nlr = 0.0\n", "gcn: epochs must be >= 0 and lr > 0"),
        ("[experiment]\nepochs = -1\n", "gcn: epochs must be >= 0"),
        ("[experiment]\nhidden_dim = 0\n", "gcn: hidden_dim must be >= 1"),
        ("[experiment]\ncheb_order = -1\n", "chebnet: cheb_order must be >= 0"),
        ("[experiment]\nmodels = gcn\n[alpha]\ngcn-mod = 2.0\n",
         "alpha override 'gcn-mod' is not in models"),
        ("[experiment]\nmodels = gcn, gcn-aux\n[alpha]\ngcn-aux = 0.5\n"
         "chebnet-aux = 0.5\n", "alpha override 'chebnet-aux' is not in models"),
        ("[experiment]\n[alpha]\ngcn-mod = 0.3\ngcn-mod = 0.7\n", "'gcn-mod'"),
        ("[experiment]\nlr = nan\n", "gcn: lr must be finite, got nan"),
        ("[experiment]\nlr = inf\n", "gcn: lr must be finite, got inf"),
    ], ids=["experiment-key", "ica-key", "alpha-typo", "alpha-plain",
            "alpha-ica", "section", "model-name", "ica-value", "ica-l2-nan",
            "ica-lr-inf", "ica-max-iters-float",
            "no-header", "duplicate-key", "bad-value", "repeated-model",
            "repeated-budget", "budget-range", "n-runs-range", "alpha-range",
            "alpha-override-range", "lr-range", "epochs-range",
            "hidden-dim-range", "cheb-order-range", "alpha-not-run",
            "alpha-one-not-run", "alpha-repeated", "lr-nan", "lr-inf"])
    def test_bad_config_is_one_error_naming_the_file(self, tmp_path, text,
                                                     key):
        path = tmp_path / "typo.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=key) as info:
            load_matrix_config(path)
        assert str(path) in str(info.value)

    def test_shipped_configs_load_unchanged(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        full = load_matrix_config(configs / "cora_full.cfg")
        assert full == MatrixConfig(alpha=0.5, out_dir="results/cora_full")
        quick = load_matrix_config(configs / "cora_quick.cfg")
        assert quick == MatrixConfig(models=("gcn", "chebnet-mod"),
                                     budgets=(5, 20), n_runs=2, alpha=0.5,
                                     out_dir="results/cora_quick")


def sparse_feature_graph():
    """24 nodes in 3 classes, each class a ring, one word per node out of
    12 (feature density 1/12)."""
    n, k = 24, 3
    labels = np.arange(n) % k
    edges = [(i, (i + k) % n) for i in range(n)]
    return build_graph(edges, np.eye(12)[np.arange(n) % 12], labels)


def write_linqs(graph, root):
    """``graph`` as a LINQS dataset named ``sparse`` under ``root``."""
    words = ["\t".join(map(str, row)) for row in graph.features.astype(int)]
    content = "".join(f"v{i}\t{w}\tc{label}\n"
                      for i, (w, label) in enumerate(zip(words, graph.labels)))
    rows, cols = np.nonzero(graph.adjacency.to_dense())
    cites = "".join(f"v{i}\tv{j}\n" for i, j in zip(rows, cols) if i < j)
    return write_tiny_dataset(root, name="sparse", content=content,
                              cites=cites)


class TestDenseFeaturesStayUnbuilt:
    """Training, sweeps, embeddings, ICA and the set-up a benchmark times
    read the stored feature CSR; none of them builds the dense
    ``graph.features``."""

    @staticmethod
    def config(tmp_path, jobs=1):
        return MatrixConfig(models=("gcn-mod", "chebnet-aux"), budgets=(2,),
                            n_runs=2, test_size=10, epochs=3, jobs=jobs,
                            out_dir=str(tmp_path))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_matrix(self, tmp_path, jobs):
        g = sparse_feature_graph()
        runs, _ = run_matrix(self.config(tmp_path, jobs), graph=g)
        assert len(runs) == 4 and not any(r.failed for r in runs)
        assert "features" not in vars(g)

    def test_pool_worker(self, tmp_path, monkeypatch):
        # what a worker runs, on the copy of the graph a worker receives
        monkeypatch.setattr(harness, "_WORKER", {})
        copy = pickle.loads(pickle.dumps(sparse_feature_graph()))
        harness._worker_init(copy, self.config(tmp_path, jobs=2))
        for model in ("gcn-mod", "chebnet-aux"):
            assert not harness._worker_run((model, 2, 0, None)).failed
        assert "features" not in vars(copy)

    def test_alpha_sweep(self, tmp_path):
        g = sparse_feature_graph()
        alpha_sweep(self.config(tmp_path), grid=(0.1, 0.5), graph=g)
        assert "features" not in vars(g)

    def test_export_embeddings(self, tmp_path):
        g = sparse_feature_graph()
        model = build_model(small_spec(variant="aux", alpha=0.5), g)
        export_embeddings(model, g, "aux", tmp_path / "emb.tsv")
        assert "features" not in vars(g)

    def test_load_and_set_up(self, tmp_path):
        base = write_linqs(sparse_feature_graph(), tmp_path)
        for _ in ("cold", "warm"):
            g = load_dataset(str(base), str(tmp_path))
            assert training_features(g) is g.feature_csr
            for encoder in ("gcn", "chebnet"):
                model_module.build_supports(small_spec(encoder=encoder), g)
            assert "features" not in vars(g)
        assert len(list((tmp_path / ".cache").glob("sparse-*.npz"))) == 1

    @pytest.mark.parametrize("where", ["serial", "pool-worker"])
    def test_ica_never_builds_it(self, tmp_path, monkeypatch, where):
        built = []
        real = CsrMatrix.to_dense
        monkeypatch.setattr(CsrMatrix, "to_dense",
                            lambda m: built.append(m) or real(m))
        g = sparse_feature_graph()
        config = replace(self.config(tmp_path), models=("ica",))
        if where == "serial":
            runs, _ = run_matrix(config, graph=g)
            assert len(runs) == 2 and not any(r.failed for r in runs)
        else:
            # what a worker runs, on the copy of the graph a worker receives
            monkeypatch.setattr(harness, "_WORKER", {})
            g = pickle.loads(pickle.dumps(g))
            harness._worker_init(g, replace(config, jobs=2))
            assert not harness._worker_run(("ica", 2, 0, None)).failed
        assert "features" not in vars(g)
        assert built == []


def test_import_leaves_the_process_pool_unloaded():
    # serial runs never start a pool, and its import pulls in
    # multiprocessing
    src = Path(model_module.__file__).resolve().parent.parent
    code = ("import sys, modgcn; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.strip() == "False"
