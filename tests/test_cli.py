"""End-to-end command-line checks: every subcommand, the settings line,
and the single-line error contract."""

import pytest

from modgcn.cli import DATA_DIR_ENV, build_parser, main
from modgcn.model import load_checkpoint

SUBCOMMANDS = ("train", "experiment", "sweep-alpha", "export-embeddings",
               "ica", "check-gradients")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_config(path, blobs_dir, out_dir, models="gcn", extra=""):
    path.write_text(f"""\
[experiment]
dataset = {blobs_dir}
data_dir = {blobs_dir.parent}
models = {models}
budgets = 3
n_runs = 2
test_size = 12
epochs = 8
out_dir = {out_dir}
{extra}""")
    return path


class TestParser:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "usage: modgcn" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_data_dir_env_default(self, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, "/elsewhere")
        args = build_parser().parse_args(["train"])
        assert args.data_dir == "/elsewhere"

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "gcn" and args.variant == "plain"
        assert args.labels_per_class == 20 and args.test_size == 1000
        assert args.epochs == 100 and args.lr == 0.01
        assert args.hidden_dim == 16 and args.seed == 0


class TestSettingsLine:
    def test_printed_first(self, capsys):
        code, out, _ = run_cli(capsys, "check-gradients", "--instances", "1")
        assert code == 0
        first = out.split("\n")[0]
        assert first.startswith("settings: command=check-gradients")
        assert "seed=0" in first and "instances=1" in first

    def test_printed_even_when_command_fails(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "train", "--dataset", str(tmp_path / "nope"),
            "--data-dir", str(tmp_path))
        assert code == 2
        assert out.startswith("settings: command=train")
        assert err.startswith("error: ")


class TestTrain:
    def test_smoke(self, capsys, blobs_dataset, tmp_path):
        log = tmp_path / "log.csv"
        ckpt = tmp_path / "model.ckpt"
        code, out, err = run_cli(
            capsys, "train", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--labels-per-class", "3",
            "--test-size", "12", "--epochs", "15", "--seed", "1",
            "--log", str(log), "--save", str(ckpt))
        assert code == 0 and err == ""
        assert "final test accuracy:" in out
        assert log.exists() and ckpt.exists()
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 1 + 16  # header + epochs 0..15

    def test_mod_variant(self, capsys, blobs_dataset, tmp_path):
        code, out, _ = run_cli(
            capsys, "train", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--no-cache",
            "--model", "chebnet", "--variant", "mod", "--alpha", "0.3",
            "--labels-per-class", "3", "--test-size", "12",
            "--epochs", "10", "--log", str(tmp_path / "log.csv"))
        assert code == 0
        assert "final test accuracy:" in out

    def test_missing_dataset_is_one_error_line(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(tmp_path / "absent"),
            "--data-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")
        assert "\n" not in err.strip()


    def test_lambda_max_is_saved(self, capsys, blobs_dataset, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--model", "chebnet",
            "--lambda-max", "1.2", "--labels-per-class", "3",
            "--test-size", "12", "--epochs", "3",
            "--log", str(tmp_path / "log.csv"), "--save", str(ckpt))
        assert code == 0 and err == ""
        assert load_checkpoint(ckpt)[0].lambda_max == 1.2

    @pytest.mark.parametrize("flags, message", [
        (("--model", "gcn", "--lambda-max", "1.2"),
         "lambda_max=1.2 needs the chebnet encoder"),
        (("--variant", "plain", "--alpha", "0.5"),
         "alpha=0.5 needs the mod or aux variant"),
        (("--variant", "mod", "--alpha", "0.5", "--k-aux", "3"),
         "k_aux=3 needs the aux variant"),
    ], ids=["lambda_max-gcn", "alpha-plain", "k_aux-mod"])
    def test_field_the_run_ignores_is_one_error_line(
            self, capsys, blobs_dataset, tmp_path, flags, message):
        log = tmp_path / "log.csv"
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), *flags, "--log", str(log))
        assert code == 2
        assert err == f"error: {message}\n"
        assert not log.exists()

    @pytest.mark.parametrize("value", ["0", "-1.5", "nan"])
    def test_non_positive_lambda_max_is_one_error_line(
            self, capsys, blobs_dataset, tmp_path, value):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--model", "chebnet",
            "--lambda-max", value, "--log", str(tmp_path / "log.csv"))
        assert code == 2
        assert err.startswith("error: lambda_max must be positive")
        assert "\n" not in err.strip()


class TestExperiment:
    def test_runs_matrix_and_prints_summary(self, capsys, blobs_dataset,
                                            tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset, out_dir,
                           models="gcn, chebnet")
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0 and err == ""
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.md").exists()
        assert "| gcn |" in out and "| chebnet |" in out
        n_lines = (out_dir / "results.csv").read_text().strip().split("\n")
        assert len(n_lines) == 1 + 2 * 2  # header + 2 models x 2 runs

    def test_out_dir_override(self, capsys, blobs_dataset, tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset,
                           tmp_path / "ignored")
        override = tmp_path / "elsewhere"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out-dir", str(override))
        assert code == 0
        assert (override / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_bad_config_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--config",
                               str(tmp_path / "missing.cfg"))
        assert code == 2
        assert err.startswith("error: ")

    def test_repeated_model_is_one_error_line(self, capsys, blobs_dataset,
                                              tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset,
                           tmp_path / "out", models="gcn, gcn")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert err == f"error: {cfg}: model 'gcn' is repeated\n"
        assert not (tmp_path / "out").exists()


class TestSweepAlpha:
    def test_small_grid(self, capsys, blobs_dataset, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset, out_dir,
                           models="gcn-mod")
        code, out, err = run_cli(capsys, "sweep-alpha", "--config", str(cfg),
                                 "--grid", "0.2,0.8")
        assert code == 0 and err == ""
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "sweep_runs.csv").exists()
        assert "best alpha gcn-mod @3:" in out
        runs = (out_dir / "sweep_runs.csv").read_text().strip().split("\n")
        assert len(runs) == 1 + 2 * 2  # header + 2 alphas x 2 runs

    def test_plain_only_config_errors(self, capsys, blobs_dataset, tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset,
                           tmp_path / "out")
        code, _, err = run_cli(capsys, "sweep-alpha", "--config", str(cfg),
                               "--grid", "0.5")
        assert code == 2
        assert "no mod/aux model" in err

    def test_repeated_alpha_is_one_error_line(self, capsys, blobs_dataset,
                                              tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", blobs_dataset,
                           tmp_path / "out", models="gcn-mod")
        code, _, err = run_cli(capsys, "sweep-alpha", "--config", str(cfg),
                               "--grid", "0.5,0.2,0.5")
        assert code == 2
        assert err == "error: alpha 0.5 is repeated\n"
        assert not (tmp_path / "out").exists()


class TestExportEmbeddings:
    def test_writes_tsv(self, capsys, blobs_dataset, tmp_path):
        out = tmp_path / "emb.tsv"
        code, text, _ = run_cli(
            capsys, "export-embeddings", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--no-cache",
            "--labels-per-class", "3", "--test-size", "12",
            "--epochs", "10", "--layer", "output", "--out", str(out))
        assert code == 0
        assert f"wrote {out}" in text
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 36  # header + one row per node
        assert lines[0].split("\t")[:2] == ["node_id", "true_label"]

    def test_default_filename(self, capsys, blobs_dataset, tmp_path,
                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "export-embeddings", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--no-cache",
            "--labels-per-class", "3", "--test-size", "12",
            "--epochs", "5")
        assert code == 0
        assert (tmp_path / "embeddings_gcn_a0.0.tsv").exists()


class TestIca:
    def test_smoke(self, capsys, blobs_dataset, tmp_path):
        code, out, err = run_cli(
            capsys, "ica", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--no-cache",
            "--labels-per-class", "3", "--test-size", "12",
            "--max-iters", "5")
        assert code == 0 and err == ""
        assert "ica test accuracy:" in out

    def test_class_budget_too_large(self, capsys, blobs_dataset, tmp_path):
        code, _, err = run_cli(
            capsys, "ica", "--dataset", str(blobs_dataset),
            "--data-dir", str(tmp_path), "--no-cache",
            "--labels-per-class", "30", "--test-size", "12")
        assert code == 2
        assert err.startswith("error: ")


class TestCheckGradients:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check-gradients",
                               "--instances", "2", "--seed", "4")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.strip().split("\n") if l.startswith("PASS")]
        assert lines, "expected at least one PASS line"
        assert "passed" in out.strip().split("\n")[-1]
