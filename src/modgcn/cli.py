"""Command-line entry point.

Subcommands: train, experiment, sweep-alpha, export-embeddings, ica,
check-gradients. Errors exit nonzero with a single `error: ...` line on
stderr; all randomness hangs off --seed; nothing touches the network.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import gradcheck, kernels
from .datasets import FEATURE_MODES, load_dataset, stratified_split
from .harness import (DEFAULT_ALPHA_GRID, EMBEDDING_LAYERS, MatrixConfig,
                      alpha_sweep, export_embeddings, load_matrix_config,
                      run_ica_once, run_matrix, train_once,
                      write_results_csv, write_sweep_csv)
from .ica import IcaConfig
from .model import (ENCODERS, VARIANTS, ModelSpec, build_model,
                    save_checkpoint)
from .sparse import Graph

DATA_DIR_ENV = "MODGCN_DATA_DIR"


def _default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, "data")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="cora",
                   help="dataset name (cora, citeseer) or directory path")
    p.add_argument("--data-dir", default=_default_data_dir(),
                   help=f"dataset root (env {DATA_DIR_ENV} overrides the "
                        f"built-in default)")
    p.add_argument("--features", default="row_normalize",
                   choices=FEATURE_MODES, help="feature preprocessing")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the binary graph cache")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="gcn", choices=ENCODERS,
                   help="encoder architecture")
    p.add_argument("--variant", default="plain", choices=VARIANTS,
                   help="modularity wiring: none, output-reg, or aux head")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="modularity trade-off in [0, 1]")
    p.add_argument("--cheb-order", type=int, default=2,
                   help="Chebyshev filter order K")
    p.add_argument("--hidden-dim", type=int, default=16)
    p.add_argument("--k-aux", type=int, default=0,
                   help="aux head width (0 = number of classes)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lambda-max", type=float, default=None,
                   help="override the power-iteration eigenvalue estimate")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--labels-per-class", type=int, default=20)
    p.add_argument("--test-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def _add_matrix_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="INI experiment config")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (overrides config)")
    p.add_argument("--out-dir", default=None, help="overrides config")
    p.add_argument("--data-dir", default=None,
                   help=f"overrides config and {DATA_DIR_ENV}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgcn",
        description="Graph convolutional networks with modularity-aware "
                    "training on citation networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on one split")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_split_flags(p)
    p.add_argument("--log", default="training_log.csv",
                   help="per-epoch loss/accuracy CSV path")
    p.add_argument("--save", default=None,
                   help="write final weights to this checkpoint path")

    p = sub.add_parser("experiment", help="run a config-defined matrix")
    _add_matrix_flags(p)

    p = sub.add_parser("sweep-alpha",
                       help="grid-search alpha for mod/aux models")
    _add_matrix_flags(p)
    p.add_argument("--grid", default=None,
                   help="comma-separated alphas (default 0.1..0.9)")

    p = sub.add_parser("export-embeddings",
                       help="train one model and dump a layer as TSV")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_split_flags(p)
    p.add_argument("--layer", default="hidden", choices=EMBEDDING_LAYERS)
    p.add_argument("--out", default=None,
                   help="TSV path (default embeddings_<model>_a<alpha>.tsv)")

    p = sub.add_parser("ica", help="iterative classification baseline")
    _add_dataset_flags(p)
    _add_split_flags(p)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--clf-epochs", type=int, default=IcaConfig.epochs)
    p.add_argument("--clf-lr", type=float, default=IcaConfig.lr)
    p.add_argument("--clf-l2", type=float, default=IcaConfig.l2)

    p = sub.add_parser("check-gradients",
                       help="finite-difference verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20,
                   help="random full-model instances to check")
    return parser


def _print_settings(args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k != "command")
    print(f"settings: command={args.command} {pairs}")


def _load_graph(args) -> Graph:
    return load_dataset(args.dataset, args.data_dir, args.features,
                        use_cache=not args.no_cache)


def _spec_from_args(args) -> ModelSpec:
    return ModelSpec(encoder=args.model, cheb_order=args.cheb_order,
                     variant=args.variant, hidden_dim=args.hidden_dim,
                     alpha=args.alpha, k_aux=args.k_aux, epochs=args.epochs,
                     lr=args.lr, seed=args.seed, lambda_max=args.lambda_max)


def _train_from_args(args, log_path=None):
    """Train the model and split that the flags describe. Returns (model,
    graph, result), or None once a failed run has been reported."""
    spec = _spec_from_args(args)
    graph = _load_graph(args)
    split = stratified_split(graph, args.labels_per_class, args.test_size,
                             args.seed)
    model = build_model(spec, graph)
    result = train_once(model, graph, split, log_path=log_path)
    if result.failed:
        print(f"error: run failed: {result.note}", file=sys.stderr)
        return None
    return model, graph, result


def _cmd_train(args) -> int:
    run = _train_from_args(args, log_path=args.log)
    if run is None:
        return 1
    model, _, result = run
    print(f"wrote {args.log}")
    if args.save:
        save_checkpoint(model, args.save)
        print(f"wrote {args.save}")
    print(f"final test accuracy: {result.test_accuracy:.4f} "
          f"(epochs={result.epochs_run}, split_seed={result.split_seed})")
    return 0


def _matrix_config(args) -> MatrixConfig:
    config = load_matrix_config(args.config)
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.data_dir is not None:
        overrides["data_dir"] = args.data_dir
    elif DATA_DIR_ENV in os.environ:
        overrides["data_dir"] = os.environ[DATA_DIR_ENV]
    return replace(config, **overrides) if overrides else config


def _cmd_experiment(args) -> int:
    config = _matrix_config(args)
    runs, aggregates = run_matrix(config)
    out = Path(config.out_dir)
    print(f"wrote {out / 'results.csv'} ({len(runs)} runs)")
    print(f"wrote {out / 'summary.md'} ({len(aggregates)} cells)")
    print((out / "summary.md").read_text(), end="")
    return 0


def _cmd_sweep_alpha(args) -> int:
    config = _matrix_config(args)
    grid = DEFAULT_ALPHA_GRID
    if args.grid is not None:
        grid = tuple(float(tok) for tok in args.grid.split(",") if tok.strip())
    sweeps, runs = alpha_sweep(config, grid=grid)
    out = Path(config.out_dir)
    write_sweep_csv(out / "sweep.csv", sweeps)
    write_results_csv(out / "sweep_runs.csv", runs)
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_runs.csv'}")
    for s in sweeps:
        best = next(mean for alpha, mean, _ in s.curve
                    if alpha == s.best_alpha)
        print(f"best alpha {s.model_name} @{s.labels_per_class}: "
              f"{s.best_alpha} (mean accuracy {best:.4f})")
    return 0


def _cmd_export_embeddings(args) -> int:
    run = _train_from_args(args)
    if run is None:
        return 1
    model, graph, result = run
    spec = model.spec
    out = args.out or f"embeddings_{spec.model_name}_a{spec.alpha}.tsv"
    export_embeddings(model, graph, args.layer, out)
    print(f"wrote {out} (layer={args.layer}, "
          f"test accuracy {result.test_accuracy:.4f})")
    return 0


def _cmd_ica(args) -> int:
    graph = _load_graph(args)
    cfg = IcaConfig(max_iters=args.max_iters, epochs=args.clf_epochs,
                    lr=args.clf_lr, l2=args.clf_l2)
    split = stratified_split(graph, args.labels_per_class, args.test_size,
                             args.seed)
    result = run_ica_once(graph, split, cfg)
    if result.failed:
        print(f"error: {result.note}", file=sys.stderr)
        return 1
    print(f"ica test accuracy: {result.test_accuracy:.4f} "
          f"(sweeps={result.epochs_run}, split_seed={result.split_seed})")
    return 0


def _cmd_check_gradients(args) -> int:
    results = gradcheck.run_full_suite(args.seed, args.instances)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failed += 0 if r.ok else 1
        print(f"{status} {r.name} max_abs_err={r.max_abs_err:.3e}")
    print(f"gradient checks: {len(results) - failed}/{len(results)} passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "sweep-alpha": _cmd_sweep_alpha,
    "export-embeddings": _cmd_export_embeddings,
    "ica": _cmd_ica,
    "check-gradients": _cmd_check_gradients,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_settings(args)
    try:
        kernels.backend_name()  # a bad MODGCN_KERNELS fails here, before any work
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}".replace("\n", " "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
