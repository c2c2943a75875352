"""Experiment harness: seeded training runs over a (model, label budget,
run index) matrix, paired splits across models, and the CSV/Markdown
emitters for the result tables.

Determinism contract: every run is fully determined by its split seed and
model spec; worker scheduling cannot change any number in the outputs.
"""

import csv
import logging
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Split, load_dataset, stratified_split
from .ica import IcaConfig, ica_train_predict
from .model import Model, ModelSpec, build_model
from .objectives import LabelMask, LossReport, objective_for
from .optim import AdamState, adam_step
from .sparse import CsrMatrix, Graph

logger = logging.getLogger(__name__)

MODEL_ORDER = ("ica", "gcn", "chebnet", "gcn-mod", "chebnet-mod",
               "gcn-aux", "chebnet-aux")
DEFAULT_BUDGETS = (5, 8, 11, 14, 17, 20)
DEFAULT_ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
RESULTS_HEADER = ("model", "variant", "alpha", "labels_per_class",
                  "run_index", "split_seed", "accuracy", "epochs")
# a failed run's key columns of results.csv, so a row names its run there
FAILURES_HEADER = ("model", "variant", "alpha", "labels_per_class",
                   "run_index", "split_seed", "note")
LOG_HEADER = ("epoch", "total", "supervised", "modularity_term",
              "train_acc", "test_acc")
EMBEDDING_LAYERS = ("hidden", "output", "aux")


@dataclass(frozen=True)
class RunResult:
    model_name: str
    variant: str
    alpha: float
    labels_per_class: int
    run_index: int
    split_seed: int
    test_accuracy: float  # nan when failed
    epochs_run: int
    final_losses: LossReport | None = None
    failed: bool = False
    note: str = ""


@dataclass(frozen=True)
class AggregateResult:
    model_name: str
    labels_per_class: int
    mean_accuracy: float
    standard_error: float
    n_runs: int
    n_failed: int = 0


@dataclass(frozen=True)
class SweepResult:
    model_name: str
    labels_per_class: int
    best_alpha: float
    # (alpha, mean accuracy, standard error) per grid point
    curve: tuple


@dataclass(frozen=True)
class MatrixConfig:
    """Declarative description of one experiment matrix."""

    dataset: str = "cora"
    data_dir: str = "data"
    features: str = "row_normalize"
    models: tuple = MODEL_ORDER
    budgets: tuple = DEFAULT_BUDGETS
    n_runs: int = 20
    base_seed: int = 0
    test_size: int = 1000
    epochs: int = 100
    lr: float = 0.01
    hidden_dim: int = 16
    cheb_order: int = 2
    alpha: float = 0.1
    alpha_overrides: tuple = ()  # ((model_name, alpha), ...)
    out_dir: str = "results"
    jobs: int = 1
    ica: IcaConfig = field(default_factory=IcaConfig)

    def __post_init__(self):
        for name in self.models:
            if name not in MODEL_ORDER:
                raise ValueError(f"unknown model {name!r}; "
                                 f"expected one of {MODEL_ORDER}")
        if self.n_runs < 1 or self.jobs < 1:
            raise ValueError("n_runs and jobs must be >= 1")
        if self.test_size < 1:
            raise ValueError("test_size must be >= 1")
        # split_seed_for packs base seed, budget and run index into one
        # integer; outside these ranges two cells would share a seed
        if self.n_runs > 1000:
            raise ValueError("n_runs must be <= 1000")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        for budget in self.budgets:
            if not 1 <= budget <= 999:
                raise ValueError(f"budgets: {budget!r} is outside 1..999")
        # a repeat would count the same runs twice in one cell
        _reject_repeat("model", self.models)
        _reject_repeat("budget", self.budgets)
        # an override that could never apply is a typo, not a no-op
        _reject_repeat("alpha override",
                       [name for name, _ in self.alpha_overrides])
        for name, value in self.alpha_overrides:
            if not _has_alpha(name):
                raise ValueError(f"alpha override {name!r} names no mod/aux "
                                 "model")
            if name not in self.models:
                raise ValueError(f"alpha override {name!r} is not in models "
                                 f"{self.models}, so it has no effect")
            _checked_spec(name, self, value)
        # a bad hyperparameter fails here, not after the runs before it
        for name in self.models:
            if name != "ica":
                _checked_spec(name, self)

    def alpha_for(self, model_name: str) -> float:
        for name, value in self.alpha_overrides:
            if name == model_name:
                return value
        return self.alpha


def _reject_repeat(what: str, values) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{what} {value!r} is repeated")


def _split_list(raw):
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


EXPERIMENT_KEYS = {
    "dataset": str, "data_dir": str, "features": str, "out_dir": str,
    "n_runs": int, "base_seed": int, "test_size": int, "epochs": int,
    "hidden_dim": int, "cheb_order": int, "jobs": int,
    "lr": float, "alpha": float, "models": _split_list,
    "budgets": lambda raw: tuple(int(b) for b in _split_list(raw)),
}
ICA_KEYS = {"max_iters": int, "epochs": int, "lr": float, "l2": float}


def load_matrix_config(path) -> MatrixConfig:
    """Parse an INI experiment config; see README for the schema.

    Anything wrong with the file (unreadable syntax, an unknown section or
    key, an [alpha] entry that names no mod/aux model or one that
    ``models`` does not run, a bad value) is one ValueError naming the
    file."""
    parser = ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError("config file not found")
        return _matrix_config(parser)
    except (ValueError, ConfigParserError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _matrix_config(parser: ConfigParser) -> MatrixConfig:
    if not parser.has_section("experiment"):
        raise ValueError("missing [experiment] section")
    for section in parser.sections():
        if section not in ("experiment", "alpha", "ica"):
            raise ValueError(f"unknown section [{section}]")

    def parse(section, schema):
        values = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ValueError(f"unknown key {key!r} in [{section}]; "
                                 f"expected one of {sorted(schema)}")
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
        return values

    kwargs = parse("experiment", EXPERIMENT_KEYS)
    if parser.has_section("ica"):
        kwargs["ica"] = IcaConfig(**parse("ica", ICA_KEYS))
    if parser.has_section("alpha"):
        alphas = parse("alpha", {m: float for m in MODEL_ORDER if _has_alpha(m)})
        kwargs["alpha_overrides"] = tuple(alphas.items())
    return MatrixConfig(**kwargs)


def split_seed_for(base_seed: int, budget: int, run_index: int) -> int:
    """Split seeds depend only on (base seed, budget, run index), so every
    model at the same run index sees the same train/test ids."""
    return base_seed * 1_000_000 + budget * 1_000 + run_index


def _parse_model_name(model_name: str) -> tuple:
    """(encoder, variant) of a trainable MODEL_ORDER name."""
    if model_name == "ica" or model_name not in MODEL_ORDER:
        raise ValueError(f"no model spec for {model_name!r}")
    encoder, _, variant = model_name.partition("-")
    return encoder, variant or "plain"


def _has_alpha(model_name: str) -> bool:
    """Whether a model name trains a mod/aux objective, where alpha counts."""
    return (model_name in MODEL_ORDER and model_name != "ica"
            and _parse_model_name(model_name)[1] != "plain")


def model_spec_for(model_name: str, config: MatrixConfig, seed: int,
                   alpha: float | None = None) -> ModelSpec:
    encoder, variant = _parse_model_name(model_name)
    if alpha is None:
        alpha = config.alpha_for(model_name) if variant != "plain" else 0.0
    return ModelSpec(encoder=encoder, cheb_order=config.cheb_order,
                     variant=variant, hidden_dim=config.hidden_dim,
                     alpha=alpha, epochs=config.epochs, lr=config.lr,
                     seed=seed)


def _checked_spec(model_name: str, config: MatrixConfig,
                  alpha: float | None = None) -> None:
    """Raise ValueError, naming the model, if its spec would be refused."""
    try:
        model_spec_for(model_name, config, 0, alpha=alpha)
    except ValueError as exc:
        raise ValueError(f"{model_name}: {exc}") from None


def training_features(graph: Graph) -> CsrMatrix:
    """The layer-1 input: the graph's feature CSR."""
    return graph.feature_csr


def accuracy_of(probs: np.ndarray, labels: np.ndarray,
                ids: np.ndarray) -> float:
    """Fraction of ``ids`` whose argmax row (ties to the lowest class
    index) matches the true label."""
    preds = np.argmax(probs[ids], axis=1)
    return float(np.mean(preds == labels[ids]))


def train_once(model: Model, graph: Graph, split: Split,
               log_path=None) -> RunResult:
    """Full-batch training of ``model``, in place, for its spec's epochs
    at its spec's learning rate, with no early stopping.

    The training log holds epochs+1 rows; row e is the state after e
    optimizer steps, so row 0 is the initialization and the last row is
    the final model. A non-finite loss or gradient aborts the run, which
    is recorded as failed."""
    spec = model.spec
    mask = LabelMask.from_graph(graph, split.train_ids)
    params = model.params()
    state = AdamState.create(params, spec.lr)

    rows = []
    report = None
    failed, note = False, ""
    epochs_run = 0
    for epoch in range(spec.epochs + 1):
        report, grads, fwd = objective_for(model, graph, mask)
        if not math.isfinite(report.total):
            failed, note = True, f"non-finite loss at epoch {epoch}"
            break
        if log_path is not None:
            rows.append((epoch, report.total, report.supervised,
                         report.modularity_term,
                         accuracy_of(fwd.output, graph.labels, split.train_ids),
                         accuracy_of(fwd.output, graph.labels, split.test_ids)))
        epochs_run = epoch
        if epoch == spec.epochs:
            break
        try:
            adam_step(state, params, grads)
        except ValueError as exc:
            failed, note = True, f"epoch {epoch}: {exc}"
            break

    if log_path is not None:
        _write_csv(log_path, LOG_HEADER, rows)
    if failed:
        logger.warning("run failed (%s, seed %d): %s",
                       spec.model_name, split.seed, note)
        return RunResult(spec.model_name, spec.variant, spec.alpha,
                         split.labels_per_class, split.run_index, split.seed,
                         float("nan"), epochs_run, report, True, note)
    # the final forward pass scores the run; a log already holds its score
    test_accuracy = rows[-1][5] if rows else accuracy_of(
        fwd.output, graph.labels, split.test_ids)
    return RunResult(spec.model_name, spec.variant, spec.alpha,
                     split.labels_per_class, split.run_index, split.seed,
                     test_accuracy, epochs_run, report)


def run_ica_once(graph: Graph, split: Split, cfg: IcaConfig) -> RunResult:
    try:
        result = ica_train_predict(graph, split.train_ids, split.test_ids,
                                   cfg, seed=split.seed)
    except ValueError as exc:
        return RunResult("ica", "plain", 0.0, split.labels_per_class,
                         split.run_index, split.seed, float("nan"), 0,
                         None, True, str(exc))
    acc = float(np.mean(result.predicted == graph.labels[split.test_ids]))
    return RunResult("ica", "plain", 0.0, split.labels_per_class,
                     split.run_index, split.seed, acc, result.iterations)


def execute_job(graph: Graph, config: MatrixConfig, model_name: str,
                budget: int, run_index: int,
                alpha: float | None = None) -> RunResult:
    split = stratified_split(
        graph, budget, config.test_size,
        split_seed_for(config.base_seed, budget, run_index), run_index)
    if model_name == "ica":
        return run_ica_once(graph, split, config.ica)
    spec = model_spec_for(model_name, config, split.seed, alpha=alpha)
    return train_once(build_model(spec, graph), graph, split)


_WORKER = {}


def _worker_init(graph, config):
    _WORKER["graph"] = graph
    _WORKER["config"] = config


def _worker_run(job):
    model_name, budget, run_index, alpha = job
    return execute_job(_WORKER["graph"], _WORKER["config"], model_name,
                       budget, run_index, alpha=alpha)


def _run_jobs(graph: Graph, config: MatrixConfig, jobs) -> list:
    """Run (model, budget, run_index, alpha) jobs, serially or on a
    process pool; results come back in job order either way."""
    if config.jobs == 1:
        return [execute_job(graph, config, *job[:3], alpha=job[3])
                for job in jobs]
    # imported here: it pulls in multiprocessing, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.jobs,
                             initializer=_worker_init,
                             initargs=(graph, config)) as pool:
        return list(pool.map(_worker_run, jobs, chunksize=1))


def run_matrix(config: MatrixConfig, graph: Graph | None = None):
    """Train every configured model at every budget for n_runs paired
    splits. Returns (runs, aggregates) and writes results.csv plus
    summary.md under config.out_dir, and failures.csv when a run failed."""
    if graph is None:
        graph = load_dataset(config.dataset, config.data_dir,
                             config.features)
    jobs = [(model, budget, run, None)
            for model in config.models
            for budget in config.budgets
            for run in range(config.n_runs)]
    runs = _run_jobs(graph, config, jobs)
    aggregates = aggregate(runs, model_order=config.models)
    out = Path(config.out_dir)
    write_results_csv(out / "results.csv", runs)
    write_failures_csv(out / "failures.csv", runs)
    write_summary_md(out / "summary.md", config, aggregates)
    return runs, aggregates


def aggregate(runs, model_order=MODEL_ORDER) -> list:
    """Mean accuracy and standard error per (model, budget); failed runs
    are excluded with their count noted."""
    groups = {}
    for r in runs:
        groups.setdefault((r.model_name, r.labels_per_class), []).append(r)
    order = {name: i for i, name in enumerate(model_order)}
    results = []
    for key in sorted(groups, key=lambda k: (order.get(k[0], 99), k[1])):
        model_name, budget = key
        accs = np.array([r.test_accuracy for r in groups[key]
                         if not r.failed], dtype=np.float64)
        mean = se = math.nan  # a cell with no finished run has neither
        if accs.size:
            mean = float(np.mean(accs))
            se = float(np.std(accs, ddof=1) / np.sqrt(accs.size)) \
                if accs.size > 1 else 0.0
        results.append(AggregateResult(model_name, budget, mean, se,
                                       accs.size, len(groups[key]) - accs.size))
    return results


def alpha_sweep(config: MatrixConfig, grid=DEFAULT_ALPHA_GRID,
                graph: Graph | None = None):
    """Grid-search alpha for every non-plain model in the config.

    Selects the alpha maximizing mean test accuracy (ties to the lowest
    alpha) per (model, budget) and reports the full curve. Returns
    (sweep_results, runs)."""
    grid = tuple(grid)
    if not grid:
        raise ValueError("alpha sweep needs a non-empty grid")
    _reject_repeat("alpha", grid)
    models = [m for m in config.models if _has_alpha(m)]
    if not models:
        raise ValueError("no mod/aux model in config.models to sweep")
    for alpha in grid:
        for model in models:
            _checked_spec(model, config, alpha)
    if graph is None:
        graph = load_dataset(config.dataset, config.data_dir,
                             config.features)
    jobs = [(model, budget, run, alpha)
            for model in models
            for budget in config.budgets
            for alpha in grid
            for run in range(config.n_runs)]
    runs = _run_jobs(graph, config, jobs)
    # a curve point is the aggregate cell of the runs at one alpha
    points = {(a.model_name, a.labels_per_class, alpha):
              (alpha, a.mean_accuracy, a.standard_error)
              for alpha in grid
              for a in aggregate([r for r in runs if r.alpha == alpha], models)}
    sweeps = []
    for model in models:
        for budget in config.budgets:
            curve = [points[model, budget, alpha] for alpha in grid]
            finite = [(mean, alpha) for alpha, mean, _ in curve
                      if math.isfinite(mean)]
            if not finite:
                raise ValueError(f"every sweep run failed for {model} "
                                 f"@{budget} labels/class")
            best_mean = max(mean for mean, _ in finite)
            best_alpha = min(alpha for mean, alpha in finite
                             if mean == best_mean)
            sweeps.append(SweepResult(model, budget, best_alpha,
                                      tuple(curve)))
    return sweeps, runs


def export_embeddings(model, graph: Graph, layer: str, path) -> None:
    """Write one node per row: node_id, true_label, then the requested
    layer's coordinates. Projection to 2-D is out of scope."""
    if layer not in EMBEDDING_LAYERS:
        raise ValueError(f"unknown embedding layer {layer!r}; "
                         f"expected one of {EMBEDDING_LAYERS}")
    fwd = model.forward(graph.feature_csr)
    if layer == "hidden":
        emb = fwd.hidden
    elif layer == "output":
        emb = fwd.output
    else:
        if fwd.aux_out is None:
            raise ValueError("model has no auxiliary head")
        emb = fwd.aux_out
    header = ["node_id", "true_label"]
    header += [f"e{j}" for j in range(emb.shape[1])]
    rows = [(i, int(graph.labels[i]), *(repr(float(v)) for v in emb[i]))
            for i in range(graph.num_nodes)]
    _write_csv(path, header, rows, delimiter="\t")


def write_results_csv(path, runs) -> None:
    """Fixed schema; floats in repr form so aggregates recompute exactly."""
    rows = [(r.model_name, r.variant, repr(float(r.alpha)),
             r.labels_per_class, r.run_index, r.split_seed,
             repr(float(r.test_accuracy)), r.epochs_run)
            for r in runs]
    _write_csv(path, RESULTS_HEADER, rows)


def write_failures_csv(path, runs) -> None:
    """Why each failed run failed, one row per run, written only when some
    run failed. Otherwise a file already at ``path`` is removed, since it
    would describe other runs."""
    rows = [(r.model_name, r.variant, repr(float(r.alpha)),
             r.labels_per_class, r.run_index, r.split_seed, r.note)
            for r in runs if r.failed]
    if rows:
        _write_csv(path, FAILURES_HEADER, rows)
    else:
        Path(path).unlink(missing_ok=True)


def read_results_csv(path) -> list:
    """Rebuild RunResults (sans loss reports) from a results.csv."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            acc = float(row["accuracy"])
            out.append(RunResult(
                row["model"], row["variant"], float(row["alpha"]),
                int(row["labels_per_class"]), int(row["run_index"]),
                int(row["split_seed"]), acc, int(row["epochs"]),
                failed=not math.isfinite(acc)))
    return out


def write_summary_md(path, config: MatrixConfig, aggregates) -> None:
    """Markdown table: one model per row, one label budget per column,
    mean accuracy with standard error in each cell."""
    budgets = sorted({a.labels_per_class for a in aggregates})
    by_model = {}
    for a in aggregates:
        by_model.setdefault(a.model_name, {})[a.labels_per_class] = a
    lines = [f"# Accuracy on {config.dataset} "
             f"({config.n_runs} runs per cell, mean +/- standard error)",
             ""]
    header = "| model | " + " | ".join(str(b) for b in budgets) + " |"
    rule = "|---" * (len(budgets) + 1) + "|"
    lines += [header, rule]
    order = {name: i for i, name in enumerate(config.models)}
    for model in sorted(by_model, key=lambda m: order.get(m, 99)):
        cells = []
        for b in budgets:
            agg = by_model[model].get(b)
            if agg is None or agg.n_runs == 0:
                cells.append("failed" if agg else "-")
                continue
            cell = f"{agg.mean_accuracy:.3f} +/- {agg.standard_error:.3f}"
            if agg.n_failed:
                cell += f" (n={agg.n_runs})"
            cells.append(cell)
        lines.append(f"| {model} | " + " | ".join(cells) + " |")
    lines.append("")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines))


def write_sweep_csv(path, sweeps) -> None:
    rows = []
    for s in sweeps:
        for alpha, mean, se in s.curve:
            rows.append((s.model_name, s.labels_per_class,
                         repr(float(alpha)), repr(float(mean)),
                         repr(float(se)),
                         repr(float(s.best_alpha))))
    _write_csv(path, ("model", "labels_per_class", "alpha",
                      "mean_accuracy", "standard_error", "best_alpha"),
               rows)


def _write_csv(path, header, rows, delimiter=",") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)
