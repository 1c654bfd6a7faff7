import codecs
import contextlib
import io
import json
import os
import re
import warnings
from argparse import Namespace
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon import errors
from ocon.cli import _load_stage, _mlp_config_from, _train_config_from, main
from ocon.dataset import FEATURE_KEYS, ColumnLayout, filter_usable, read_records_csv
from ocon.container import read_container, write_container
from ocon.ensemble import load_ensemble
from ocon.features import MATRIX_KIND, MATRIX_VERSION, FeatureSetKind, load_matrix
from ocon.mlp import CHECKPOINT_KIND, CHECKPOINT_VERSION, MlpConfig
from ocon.search import SearchStage
from ocon.synth import write_synth_dat
from ocon.training import EarlyStopRule, TrainConfig
from ocon.util import read_text, sha256_file, sha256_json
from tests.test_container import MALFORMED_HEADERS, PAYLOAD, write_raw


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run ingest -> preprocess once for the whole module."""
    root = tmp_path_factory.mktemp("pipeline")
    dat = str(root / "synth.dat")
    write_synth_dat(dat, seed=21, zero_rate=0.03, men=10, women=10, boys=6, girls=6)
    records = str(root / "records.csv")
    assert main(["ingest", "--data", dat, "--out", records]) == 0
    matrix = str(root / "matrix.ocm")
    assert main(["preprocess", "--records", records, "--feature-set", "tt12",
                 "--out", matrix]) == 0
    return root


def test_ingest_writes_stats_sidecar(pipeline_dir):
    stats = (pipeline_dir / "records.csv.stats.txt").read_text()
    assert "TOTAL" in stats and "ae" in stats


def test_preprocess_drops_unusable(pipeline_dir):
    stats = (pipeline_dir / "matrix.ocm.stats.txt").read_text()
    assert "dropped rows:" in stats
    matrix = load_matrix(str(pipeline_dir / "matrix.ocm"))
    assert matrix.feature_set.value == "tt12"
    assert np.all(matrix.values >= 0) and np.all(matrix.values <= 1)


def test_preprocess_exclude_children(pipeline_dir, tmp_path):
    out = str(tmp_path / "adults.ocm")
    assert main(["preprocess", "--records", str(pipeline_dir / "records.csv"),
                 "--feature-set", "ss3", "--exclude-children", "--out", out]) == 0
    matrix = load_matrix(out)
    assert set(np.unique(matrix.groups)) <= {0, 2}  # men and women only


def test_preprocess_projection_files(pipeline_dir, tmp_path):
    prefix = str(tmp_path / "proj")
    assert main(["preprocess", "--records", str(pipeline_dir / "records.csv"),
                 "--feature-set", "ss3", "--projection", prefix,
                 "--out", str(tmp_path / "m.ocm")]) == 0
    for tag in ("raw", "scaled"):
        body = open(f"{prefix}_{tag}.csv").read()
        assert body.startswith("label,")


def test_search_train_eval_infer_report(pipeline_dir, tmp_path, capsys):
    matrix = str(pipeline_dir / "matrix.ocm")

    stage = tmp_path / "stage.cfg"
    stage.write_text("""
name = smoke_stage
k_folds = 2
epochs = 4
fixed.hidden_layers = 1
fixed.batch_size = 16
grid.hidden_nodes = [4]
grid.learning_rate = [3e-3]
""")
    ranked = str(tmp_path / "ranked.csv")
    assert main(["search", "--matrix", matrix, "--stage", str(stage),
                 "--out", ranked, "--seed", "3"]) == 0
    header = open(ranked).readline()
    assert header.startswith("rank,combo_index,")
    assert os.path.exists(ranked + ".times.csv")

    mlp_cfg = tmp_path / "mlp.cfg"
    mlp_cfg.write_text("hidden_layers = [6]\nlearning_rate = 3e-3\nseed = 1\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("""
epochs_per_batch_set = 25
max_batch_sets = 1
seed = 5
early_stop.loss_threshold = 0.05
early_stop.accuracy_threshold = 99.0
""")
    model_dir = str(tmp_path / "model")
    assert main(["train", "--matrix", matrix, "--mlp-config", str(mlp_cfg),
                 "--train-config", str(train_cfg), "--out-dir", model_dir]) == 0
    assert os.path.exists(os.path.join(model_dir, "ensemble.json"))
    reports = json.load(open(os.path.join(model_dir, "train_reports.json")))
    assert len(reports) == 12

    eval_dir = str(tmp_path / "reports")
    assert main(["eval", "--model", model_dir, "--matrix", matrix,
                 "--out-dir", eval_dir]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(eval_dir, "accuracy.csv"))
    assert os.path.exists(os.path.join(eval_dir, "det.csv"))
    assert os.path.exists(os.path.join(eval_dir, "roc_ae.csv"))

    vec = ",".join(["4.0"] * 12)
    assert main(["infer", "--model", model_dir, "--input", vec]) == 0
    out = capsys.readouterr().out.strip()
    fields = out.split(",")
    assert len(fields) == 14  # 12 logits + index + label

    assert main(["infer", "--model", model_dir, "--input", vec,
                 "--format", "jsonl"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert len(payload["logits"]) == 12
    assert payload["label"] == "ae ah aw eh er ei ih iy oa oo uh uw".split()[
        payload["predicted"]]

    assert main(["report", "--dir", model_dir]) == 0
    summary = capsys.readouterr().out
    assert "train" in summary


def test_train_speaker_task(pipeline_dir, tmp_path):
    matrix = str(pipeline_dir / "matrix.ocm")
    mlp_cfg = tmp_path / "mlp.cfg"
    mlp_cfg.write_text("hidden_layers = [4]\nlearning_rate = 1e-3\nseed = 0\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs_per_batch_set = 2\nmax_batch_sets = 1\nseed = 0\n")
    model_dir = str(tmp_path / "speaker_model")
    assert main(["train", "--matrix", matrix, "--task", "speaker",
                 "--mlp-config", str(mlp_cfg), "--train-config", str(train_cfg),
                 "--out-dir", model_dir]) == 0
    manifest = json.load(open(os.path.join(model_dir, "ensemble.json")))
    assert manifest["class_names"] == ["male", "female", "children"]
    eval_dir = str(tmp_path / "speaker_eval")
    assert main(["eval", "--model", model_dir, "--matrix", matrix,
                 "--out-dir", eval_dir]) == 0
    with open(os.path.join(eval_dir, "confusion.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert rows[0] == ["true\\pred", "male", "female", "children"]
    assert [row[0] for row in rows[1:]] == ["male", "female", "children"]
    counts = np.array([[int(c) for c in row[1:]] for row in rows[1:]])
    assert counts.shape == (3, 3)
    assert counts.sum() == load_matrix(matrix).n_rows


def train_tiny_model(pipeline_dir, tmp_path, matrix_name="matrix.ocm"):
    """A one-epoch, 2-unit ensemble trained through the CLI; returns its dir."""
    matrix = str(pipeline_dir / matrix_name)
    mlp_cfg = tmp_path / "mlp.cfg"
    mlp_cfg.write_text("hidden_layers = [2]\nlearning_rate = 1e-3\nseed = 0\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs_per_batch_set = 1\nmax_batch_sets = 1\nseed = 0\n")
    model_dir = str(tmp_path / "tiny_model")
    assert main(["train", "--matrix", matrix, "--mlp-config", str(mlp_cfg),
                 "--train-config", str(train_cfg), "--out-dir", model_dir]) == 0
    return model_dir


def test_infer_all_half_vector_prints_12_logits(pipeline_dir, tmp_path, capsys):
    model_dir = train_tiny_model(pipeline_dir, tmp_path)
    capsys.readouterr()
    vec = ",".join(["0.5"] * 12)
    assert main(["infer", "--model", model_dir, "--input", vec, "--scaled"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out.split(",")) == 14


def test_ss4_preprocess_train_infer(pipeline_dir, tmp_path, capsys):
    records = str(pipeline_dir / "records.csv")
    assert main(["preprocess", "--records", records, "--feature-set", "ss4",
                 "--out", str(tmp_path / "ss4.ocm")]) == 0
    matrix = load_matrix(str(tmp_path / "ss4.ocm"))
    assert matrix.values.shape[1] == 4
    kept, _ = filter_usable(read_records_csv(records), FeatureSetKind.SS4)
    f0 = np.array([rec.f0_ss for rec in kept])
    assert np.array_equal(matrix.values[:, 3], (f0 - f0.min()) / (f0.max() - f0.min()))
    model_dir = train_tiny_model(tmp_path, tmp_path, "ss4.ocm")
    capsys.readouterr()
    assert main(["infer", "--model", model_dir, "--input", "5,15,25,120"]) == 0
    assert len(capsys.readouterr().out.strip().split(",")) == 14
    with pytest.raises(SystemExit) as err:
        main(["preprocess", "--records", records, "--feature-set", "ss4",
              "--f0-channel", "unit", "--out", str(tmp_path / "unit.ocm")])
    assert err.value.code == 2


#: every flag that reads a config file
CONFIG_FLAGS = ("--mlp-config", "--train-config", "--layout", "--stage", "--inherit")


def config_flag_argv(flag, cfg, matrix, dat, out):
    """A CLI run that reads the config file ``cfg`` through ``flag``."""
    if flag == "--layout":
        return ["ingest", "--data", str(dat), "--layout", cfg, "--out", str(out)]
    if flag in ("--stage", "--inherit"):
        stage = cfg if flag == "--stage" else "preset:stage1"
        extra = ["--inherit", cfg] if flag == "--inherit" else []
        return ["search", "--matrix", str(matrix), "--stage", stage, *extra, "--out", str(out)]
    return ["train", "--matrix", str(matrix), flag, cfg, "--out-dir", str(out)]


class TestErrorContract:
    def test_missing_file_exit_3(self, capsys):
        code = main(["ingest", "--data", "/nonexistent.dat", "--out", "/tmp/x.csv"])
        assert code == 3
        assert "ERROR FileNotFoundError" in capsys.readouterr().err

    def test_non_finite_cell_is_malformed_row(self, pipeline_dir, tmp_path, capsys):
        lines = (pipeline_dir / "synth.dat").read_text().splitlines()
        cells = lines[50].split()
        cells[3] = "inf"                       # an F1 steady-state cell
        lines[50] = " ".join(cells)
        bad = tmp_path / "inf.dat"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["ingest", "--data", str(bad), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "ERROR MalformedRow: line 51: non-finite value 'inf' for f1_ss" in \
            capsys.readouterr().err

        lines = (pipeline_dir / "records.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        records = tmp_path / "nan.csv"
        records.write_text("\n".join(lines) + "\n")
        code = main(["preprocess", "--records", str(records),
                     "--out", str(tmp_path / "m.ocm")])
        assert code == 1
        assert "ERROR MalformedRow: line 3: non-finite value 'nan' for f3_80" in \
            capsys.readouterr().err

    def test_tiny_f0_is_unusable_record(self, pipeline_dir, tmp_path, capsys):
        lines = (pipeline_dir / "records.csv").read_text().splitlines()
        at = next(i for i, line in enumerate(lines[1:], 1)
                  if "0.0" not in line.split(",")[5:])
        cells = lines[at].split(",")
        cells[5] = "1e-320"                     # f0_ss: finite, positive, tiny
        lines[at] = ",".join(cells)
        records = tmp_path / "tiny.csv"
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.ocm"
        code = main(["preprocess", "--records", str(records), "--out", str(out)])
        assert code == 1
        assert f"ERROR UnusableRecord: record {cells[0]} has a non-finite F0 ratio" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, named", [
        (1, "TooFewSamples: min-max fit needs a 2-D matrix with at least 2 rows"),
        (0, "UnusableRecord: no usable records for feature set tt12"),
    ], ids=["one_row", "header_only"])
    def test_too_few_usable_rows_named(self, pipeline_dir, tmp_path, capsys, rows, named):
        lines = (pipeline_dir / "records.csv").read_text().splitlines()
        usable = [line for line in lines[1:] if "0.0" not in line.split(",")[5:]]
        records = tmp_path / "few.csv"
        records.write_text("\n".join(lines[:1] + usable[:rows]) + "\n")
        out = tmp_path / "m.ocm"
        code = main(["preprocess", "--records", str(records), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"ERROR {named}\n"
        assert not out.exists()

    def test_domain_error_named_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("zzzzz 1 2 3\n")
        layout = tmp_path / "layout.cfg"
        layout.write_text("".join(f"{k} = {i + 1}\n" for i, k in enumerate(FEATURE_KEYS)))
        code = main(["ingest", "--data", str(bad), "--layout", str(layout),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "ERROR MalformedRow" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["preprocess"])  # missing required flags
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    @pytest.mark.parametrize("command, flag", [("search", "--desk-scale"),
                                               ("search", "--workers"), ("train", "--workers")])
    def test_bad_count_exit_2(self, pipeline_dir, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = (["--stage", "preset:stage1", "--out", str(out)] if command == "search"
                else ["--out-dir", str(out)])
        with pytest.raises(SystemExit) as err:
            main([command, "--matrix", str(pipeline_dir / "matrix.ocm"), *argv, flag, value])
        assert err.value.code == 2
        assert f"{flag}: must be a positive integer, got {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_retired_zscore_flag_exit_2(self, pipeline_dir, tmp_path):
        out = tmp_path / "m.ocm"
        with pytest.raises(SystemExit) as err:
            main(["preprocess", "--records", str(pipeline_dir / "records.csv"), "--zscore",
                  "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_retired_stats_flag_exit_2(self, tmp_path):
        stats = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["ingest", "--data", str(tmp_path / "x.dat"), "--out", str(tmp_path / "r.csv"),
                  "--stats", str(stats)])
        assert err.value.code == 2
        assert not stats.exists()

    def test_eval_on_another_feature_set_names_both(self, pipeline_dir, tmp_path, capsys):
        assert main(["preprocess", "--records", str(pipeline_dir / "records.csv"),
                     "--feature-set", "ss3", "--out", str(tmp_path / "ss3.ocm")]) == 0
        model_dir = train_tiny_model(tmp_path, tmp_path, "ss3.ocm")
        capsys.readouterr()
        assert main(["eval", "--model", model_dir,
                     "--matrix", str(pipeline_dir / "matrix.ocm")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ERROR ManifestMismatch: matrix feature set tt12 differs "
                                "from the ensemble's ss3\n")

    def test_unknown_preset(self, pipeline_dir, tmp_path, capsys):
        code = main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--stage", "preset:stage9", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "ERROR OconError" in capsys.readouterr().err

    def test_unknown_config_key_reported(self, pipeline_dir, tmp_path, capsys):
        cfg = tmp_path / "mlp.cfg"
        cfg.write_text("hidden_layers = [4]\nlerning_rate = 1e-3\n")
        code = main(["train", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--mlp-config", str(cfg), "--out-dir", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ERROR OconError" in err and "lerning_rate" in err

    @pytest.mark.parametrize("command, flag, text, named", [
        ("train", "--train-config", 'epochs_per_batch_set = "x"\n',
         "epochs_per_batch_set = 'x' is not of type int"),
        ("train", "--train-config", "early_stop.foo = 1\n", "early_stop: unknown key 'foo'"),
        ("train", "--mlp-config", 'learning_rate = "x"\n',
         "learning_rate = 'x' is not of type float"),
        ("train", "--mlp-config", "batch_norm = 1\n", "batch_norm = 1 is not of type bool"),
        ("search", "--stage", 'epochs = 1\nk_folds = 2\ngrid.learning_rate = "x"\n',
         "learning_rate = 'x' is not of type float"),
        ("search", "--stage", "epochs = 1\nk_folds = 2\ngrid.learnin_rate = [0.1, 1e-05]\n",
         "hyperparameters: unknown key 'learnin_rate'"),
        ("search", "--stage", "k_folds = x\ngrid.hidden_nodes = [4]\n",
         "stage: k_folds = 'x' is not of type int"),
        ("search", "--stage", "grid = 5\n", "stage: grid = 5 is not of type dict"),
        ("search", "--stage", "fixd.hidden_nodes = 4\ngrid.learning_rate = [0.1]\n",
         "stage: unknown key 'fixd'"),
        ("search", "--stage", "epochs = 1\nk_folds = 1\ngrid.hidden_nodes = [4]\n",
         "stage: a stage needs k_folds >= 2"),
        ("search", "--stage", "epochs = 0\nk_folds = 2\ngrid.hidden_nodes = [4]\n",
         "stage: a stage needs k_folds >= 2 and epochs >= 1"),
        ("train", "--mlp-config", "hidden_layers = [1.5]\n", "layer widths must be integers"),
        ("train", "--mlp-config", "hidden_layers = [true, 2]\n",
         "layer widths must be integers"),
        ("train", "--mlp-config", 'hidden_layers = ["7"]\n', "layer widths must be integers"),
        ("train", "--train-config",
         "fractions = [0.85, 0.15, 0.0]\nepochs_per_batch_set = 1\nmax_batch_sets = 1\n",
         "unknown key 'fractions'"),
        ("search", "--stage", "epochs = 1\nk_folds = 2\ngrid.hidden_layers = [-1]\n",
         "hidden_layers = -1 is not in 0..64"),
        ("search", "--stage", f"epochs = 1\nk_folds = 2\ngrid.hidden_layers = [{2 ** 62}]\n",
         f"hidden_layers = {2 ** 62} is not in 0..64"),
        ("train", "--train-config", "early_stop.loss_threshold = 1" + "0" * 400 + "\n"
         "early_stop.accuracy_threshold = 90\n", "int too large to convert to float"),
        ("train", "--mlp-config", "learning_rate = NaN\n", "learning rate must be >= 0"),
        ("search", "--stage", "epochs = 1\nk_folds = 2\ngrid.l2_lambda = [NaN]\n",
         "l2_lambda must be >= 0"),
        ("train", "--train-config", "balancing_tolerance = -1\n",
         "unknown key 'balancing_tolerance'"),
        ("train", "--train-config", "balancing_tolerance = NaN\n",
         "unknown key 'balancing_tolerance'"),
        ("train", "--mlp-config", 'loss = "mse"\n', "unknown key 'loss'"),
        ("train", "--mlp-config", 'activation = "relu"\n', "unknown key 'activation'"),
        ("search", "--stage", 'epochs = 1\nk_folds = 2\ngrid.loss = ["bce", "mse"]\n',
         "hyperparameters: unknown key 'loss'"),
        ("train", "--mlp-config", "input_dim = 5\n", "input_dim is not a key; the matrix fixes it"),
        ("train", "--mlp-config", "hidden_layers = [100]\nhidden_nodes = 4\n",
         "hidden_nodes needs a count of hidden_layers, not widths"),
        ("search", "--stage", "epochs = 1\nk_folds = 2\ngrid.input_dim = [5]\n",
         "hyperparameters: input_dim is not a key"),
        ("train", "--train-config", "k_folds = 1\nmax_batch_sets = 1\n",
         "k_folds is a stage key; train never folds"),
    ], ids=["train_epochs_str", "early_stop_unknown_key", "mlp_lr_str", "mlp_bool_as_int",
            "stage_lr_str", "stage_misspelt_hp", "stage_folds_str", "stage_grid_scalar",
            "stage_misspelt_section", "stage_one_fold", "stage_no_epochs",
            "mlp_width_float", "mlp_width_bool", "mlp_width_str", "train_zero_fraction",
            "stage_negative_layers", "stage_huge_layers", "early_stop_huge_int",
            "mlp_lr_nan", "stage_l2_nan", "train_tolerance_negative", "train_tolerance_nan",
            "mlp_retired_loss", "mlp_retired_activation", "stage_retired_loss",
            "mlp_input_dim", "mlp_widths_with_nodes", "stage_input_dim", "train_k_folds"])
    def test_bad_config_value_names_its_file(self, pipeline_dir, tmp_path, capsys,
                                             command, flag, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "r.csv")] if command == "search" else [
            "--out-dir", str(tmp_path / "m")]
        code = main([command, "--matrix", str(pipeline_dir / "matrix.ocm"), flag, str(cfg),
                     *out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ERROR OconError: {cfg}") and named in err, err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "r.csv") and not os.path.exists(tmp_path / "m")

    def test_bad_inherit_value_names_its_file(self, pipeline_dir, tmp_path, capsys):
        inherit = tmp_path / "inherit.cfg"
        inherit.write_text("lerning_rate = 0.1\n")
        code = main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--stage", "preset:stage1", "--inherit", str(inherit),
                     "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(
            f"ERROR OconError: {inherit}: hyperparameters: unknown key 'lerning_rate'"), err
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("text, named", [
        ("hidden_layers = [100]\n", "hidden_nodes needs a count of hidden_layers, not widths"),
        ("seed = 3\n", "seed is derived per cell; seeds are not hyperparameters"),
    ], ids=["widths_under_a_nodes_grid", "seed"])
    def test_inherited_value_the_stage_refuses_names_its_file(self, pipeline_dir, tmp_path,
                                                              capsys, text, named):
        # preset:stage1 sweeps hidden_nodes, which a list of widths cannot take
        inherit = tmp_path / "inherit.cfg"
        inherit.write_text(text)
        code = main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--stage", "preset:stage1", "--inherit", str(inherit),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"ERROR OconError: {inherit}: hyperparameters: {named}\n"
        assert os.listdir(tmp_path) == ["inherit.cfg"]

    @pytest.mark.parametrize("line, named", [
        ("skip_rows = x", "skip_rows = 'x' is not of type int"),
        ("f0_ss = 0", "layout indices must be integers"),
        ("f0_ss = true", "layout indices must be integers"),
        ("skip_rows = -1", "skip_rows must be >= 0"),
    ], ids=["skip_rows_str", "index_0", "index_bool", "skip_rows_negative"])
    def test_bad_layout_value_names_its_file(self, pipeline_dir, tmp_path, capsys, line, named):
        from ocon.dataset import FEATURE_KEYS
        layout = tmp_path / "layout.cfg"
        lines = {k: f"{k} = {i + 1}" for i, k in enumerate(FEATURE_KEYS)}
        lines[line.partition("=")[0].strip()] = line   # in place of its good line, if any
        layout.write_text("".join(text + "\n" for text in lines.values()))
        code = main(["ingest", "--data", str(pipeline_dir / "synth.dat"), "--layout", str(layout),
                     "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ERROR OconError: {layout}: ") and named in err, err

    @pytest.mark.parametrize("flag", CONFIG_FLAGS)
    @pytest.mark.parametrize("content, named", [
        (b"nonsense line\n", "line 1: expected 'key = value', got 'nonsense line'"),
        (b"# a comment\na = 1\na.b = 2\n", "line 3: 'a.b' conflicts with a scalar key"),
        (b"a = 1\n = 2\n", "line 2: empty key"),
        (b"a = 1\nb = \xff\n", "line 2: not UTF-8 text"),
    ], ids=["not_key_value", "key_under_scalar", "empty_key", "not_utf8"])
    def test_unparsable_config_file_names_its_file_and_line(self, pipeline_dir, tmp_path,
                                                             capsys, flag, content, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        code = main(config_flag_argv(flag, str(cfg), pipeline_dir / "matrix.ocm",
                                     pipeline_dir / "synth.dat", tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == f"ERROR OconError: {cfg}: {named}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key", ["started", "command", "master_seed", "outputs"])
    def test_report_names_a_missing_manifest_key(self, pipeline_dir, tmp_path, capsys, key):
        [name, *_] = sorted(f for f in os.listdir(pipeline_dir) if f.startswith("manifest-"))
        manifest = json.loads((pipeline_dir / name).read_text())
        del manifest[key]
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert (f"ERROR ManifestMismatch: {path}: unreadable run manifest "
                f"(KeyError: '{key}')") in err

    @pytest.mark.parametrize("content, error", [(b'{"command": "train"', "JSONDecodeError"),
                                                (b'{"command": "\xff"}', "UnicodeDecodeError")],
                             ids=["not_json", "not_utf8"])
    def test_report_names_an_unreadable_manifest(self, tmp_path, capsys, content, error):
        path = tmp_path / "manifest-bad.json"
        path.write_bytes(content)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR ManifestMismatch: {path}: unreadable run manifest "
                              f"({error}: "), err

    @pytest.mark.parametrize("content", [
        "early_stop.loss_threshold = 0.15\nearly_stop = null\n",
        "seed = 1\nseed = 2\n",
    ], ids=["scalar_over_table", "scalar_twice"])
    @pytest.mark.parametrize("flag", CONFIG_FLAGS)
    def test_repeated_config_key_names_its_line(self, pipeline_dir, tmp_path, capsys, flag,
                                                content):
        # the last assignment won silently: early_stop = null trained with no
        # early stopping
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(content)
        key = content.splitlines()[1].partition(" =")[0]
        code = main(config_flag_argv(flag, str(cfg), pipeline_dir / "matrix.ocm",
                                     pipeline_dir / "synth.dat", tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (f"ERROR OconError: {cfg}: line 2: "
                                           f"{key!r} is assigned twice\n")

    def test_too_deep_ensemble_manifest_exit_1(self, pipeline_dir, tmp_path, capsys):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        with open(os.path.join(model_dir, "ensemble.json"), "w") as fh:
            fh.write("[" * 200_000 + "]" * 200_000)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", ",".join(["0.5"] * 12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR ManifestMismatch: ")
        assert "ensemble.json" in captured.err and "Traceback" not in captured.err

    def test_too_deep_run_manifest_exit_1(self, tmp_path, capsys):
        path = tmp_path / "manifest-deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR ManifestMismatch: {path}: unreadable run manifest "
                              f"(RecursionError: ")
        assert "Traceback" not in err

    def test_non_utf8_infer_file_names_its_line(self, pipeline_dir, tmp_path, capsys):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"0.5,0.5\n0.5,\xff0.5\n")
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input-file", str(vectors)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ERROR MalformedRow: line 2: not UTF-8 text" in captured.err

    def test_non_utf8_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bom.txt"
        # the bad byte opens line 3: offsets counted after the mark (as
        # "utf-8-sig" gives them) would place it on line 2
        path.write_bytes(codecs.BOM_UTF8 + b"0.5,0.5\n0.5,0.5\n\xff0.5\n")
        with pytest.raises(errors.MalformedRow, match="^line 3: not UTF-8 text$"):
            read_text(str(path))

    @pytest.mark.parametrize("flags", [["--input", ",".join(["nan"] * 12)],
                                       ["--input", ",".join(["inf"] * 12), "--scaled"]])
    def test_non_finite_infer_input_exit_1(self, pipeline_dir, tmp_path, capsys, flags):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ERROR NonFiniteInput" in captured.err

    def test_non_numeric_infer_input_is_malformed_row(self, pipeline_dir, tmp_path, capsys):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", "0.5," * 11 + "x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ERROR MalformedRow: line 1: could not convert string "
                                "to float: 'x'\n")

    def test_manifest_missing_key_named(self, pipeline_dir, tmp_path, capsys):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        manifest_path = os.path.join(model_dir, "ensemble.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        del manifest["f0_mode"]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", ",".join(["0.5"] * 12)]) == 1
        assert "ERROR ManifestMismatch" in capsys.readouterr().err

    def test_swapped_member_entries_exit_1(self, pipeline_dir, tmp_path, capsys):
        # each entry is intact, so only its position names the wrong class
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        manifest_path = os.path.join(model_dir, "ensemble.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        members = manifest["members"]
        members[0], members[1] = members[1], members[0]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(errors.ManifestMismatch, match=r"member classes \['ah', 'ae'"):
            load_ensemble(model_dir)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", ",".join(["0.5"] * 12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ERROR ManifestMismatch" in captured.err

    @pytest.mark.parametrize("name, value, dtype", [
        ("labels", 12, np.int64), ("labels", -1, np.int64), ("labels", 3, np.float64),
        ("groups", 4, np.int64), ("groups", -1, np.int64),
    ], ids=["label_past_classes", "label_negative", "label_float", "group_past_codes",
            "group_negative"])
    def test_out_of_range_codes_exit_1(self, pipeline_dir, tmp_path, capsys, name, value,
                                       dtype):
        # the file's CRC is valid: only the code of row 7 (or its dtype) is wrong
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        _, meta, arrays = read_container(str(pipeline_dir / "matrix.ocm"), MATRIX_KIND,
                                         MATRIX_VERSION)
        arrays[name] = arrays[name].astype(dtype)
        arrays[name][7] = value
        crafted = str(tmp_path / "crafted.ocm")
        write_container(crafted, MATRIX_KIND, MATRIX_VERSION, meta, arrays)
        for argv in (["eval", "--model", model_dir, "--out-dir", str(tmp_path / "eval")],
                     ["train", "--out-dir", str(tmp_path / "m")]):
            capsys.readouterr()
            assert main([*argv, "--matrix", crafted]) == 1
            err = capsys.readouterr().err
            assert f"ERROR CorruptPayload: {crafted}: {name} must be integers" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["no_arrays", "header_is_a_list", "unknown_dtype",
                                      "negative_offset", "no_matrix_arrays"])
    def test_crafted_matrix_is_corrupt_payload(self, tmp_path, capsys, case):
        crafted = str(tmp_path / "crafted.ocm")
        header = MALFORMED_HEADERS.get(case, {"meta": {}, "arrays": []})
        write_raw(crafted, header, PAYLOAD, kind=MATRIX_KIND.encode())
        code = main(["train", "--matrix", crafted, "--out-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert "ERROR CorruptPayload" in err and "Traceback" not in err

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_, np.complex128])
    def test_matrix_values_not_float64_exit_1(self, pipeline_dir, tmp_path, capsys, dtype):
        # built by hand with a valid CRC, since the writer refuses most of these dtypes
        _, meta, arrays = read_container(str(pipeline_dir / "matrix.ocm"), MATRIX_KIND,
                                         MATRIX_VERSION)
        arrays["values"] = arrays["values"].astype(dtype)
        index, offset = [], 0
        for name, arr in arrays.items():
            index.append({"name": name, "dtype": arr.dtype.str.lstrip("<>=|"),
                          "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes})
            offset += arr.nbytes
        crafted = str(tmp_path / "crafted.ocm")
        write_raw(crafted, {"meta": meta, "arrays": index},
                  b"".join(arr.tobytes() for arr in arrays.values()),
                  kind=MATRIX_KIND.encode(), version=MATRIX_VERSION)
        code = main(["train", "--matrix", crafted, "--out-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ERROR CorruptPayload: {crafted}:") and "Traceback" not in err

    @staticmethod
    def _assert_edited_member_is_corrupt(pipeline_dir, tmp_path, capsys, edit, key):
        """``ocon infer`` on a tiny bank whose first member's header ``edit``
        changed exits 1 with a CorruptPayload naming the member and ``key``;
        the member's sha256 in ensemble.json is updated, so only the header
        is wrong."""
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        manifest_path = os.path.join(model_dir, "ensemble.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        entry = manifest["members"][0]
        member = os.path.join(model_dir, entry["file"])
        _, meta, arrays = read_container(member, CHECKPOINT_KIND, CHECKPOINT_VERSION)
        edit(meta)
        write_container(member, CHECKPOINT_KIND, CHECKPOINT_VERSION, meta, arrays)
        entry["sha256"] = sha256_file(member)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", ",".join(["0.5"] * 12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ERROR CorruptPayload: {member}:")
        assert key in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("key, value", [
        ("input_dim", 3.0), ("batch_norm", "yes"), ("batch_size", 32.5), ("seed", "x"),
    ])
    def test_checkpoint_config_of_wrong_type_exit_1(self, pipeline_dir, tmp_path, capsys,
                                                    key, value):
        self._assert_edited_member_is_corrupt(
            pipeline_dir, tmp_path, capsys, lambda meta: meta["config"].update({key: value}), key)

    @pytest.mark.parametrize("key, value", [
        ("step", "x"), ("step", -3), ("step", True), ("step", 7.0),
        ("manifest_hash", [1]), ("scaling_hash", 7), ("scaling_hash", None),
    ])
    def test_checkpoint_header_of_wrong_type_exit_1(self, pipeline_dir, tmp_path, capsys,
                                                    key, value):
        self._assert_edited_member_is_corrupt(
            pipeline_dir, tmp_path, capsys, lambda meta: meta.update({key: value}), key)

    @pytest.mark.parametrize("case", ["nan_lo", "swapped", "wide_span"])
    def test_invalid_scaling_record_exit_1(self, pipeline_dir, tmp_path, capsys, case):
        """A NaN bound would serve NaN probabilities, swapped bounds mirrored
        features and bounds whose span hi - lo overflows NaN again: a matrix
        file (valid CRC) holding such bounds is refused by ``train``, and an
        ``ensemble.json`` holding them (its scaling hash recomputed) by
        ``infer``."""
        _, meta, arrays = read_container(str(pipeline_dir / "matrix.ocm"), MATRIX_KIND,
                                         MATRIX_VERSION)
        lo, hi = arrays["scaling_lo"], arrays["scaling_hi"]
        lo, hi = {"nan_lo": (np.r_[np.nan, lo[1:]], hi), "swapped": (hi, lo),
                  "wide_span": (np.full_like(lo, -1e308), np.full_like(hi, 1e308))}[case]
        crafted = str(tmp_path / "crafted.ocm")
        write_container(crafted, MATRIX_KIND, MATRIX_VERSION, meta,
                        {**arrays, "scaling_lo": lo, "scaling_hi": hi})
        (tmp_path / "train.cfg").write_text("epochs_per_batch_set = 1\nmax_batch_sets = 1\n")
        assert main(["train", "--matrix", crafted, "--train-config", str(tmp_path / "train.cfg"),
                     "--out-dir", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR CorruptPayload: {crafted}:") and "hi > lo" in err

        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        manifest_path = os.path.join(model_dir, "ensemble.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["scaling"].update(lo=lo.tolist(), hi=hi.tolist())
        manifest["scaling_hash"] = sha256_json(manifest["scaling"])
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input", ",".join(["4.0"] * 12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR ManifestMismatch: ") and "hi > lo" in captured.err

    def test_unallocatable_network_is_memory_error_exit_1(self, pipeline_dir, tmp_path,
                                                          capsys):
        # hundreds of TiB exceed a 47-bit address space, so the allocation
        # fails at once and touches no memory
        (tmp_path / "wide.cfg").write_text("hidden_nodes = 10000000000000\n")
        code = main(["train", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--mlp-config", str(tmp_path / "wide.cfg"), "--out-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR MemoryError: ") and "Traceback" not in err
        assert not (tmp_path / "m").exists()


class TestConfigFuzz:
    """Config text through the loader of every config-reading flag, without
    training: each returns, or raises an OconError whose message starts
    with the file's path; nothing else escapes."""

    KEYS = st.sampled_from(sorted(
        {f.name for cls in (MlpConfig, TrainConfig, EarlyStopRule, SearchStage)
         for f in fields(cls)}
        | set(FEATURE_KEYS)
        | {"skip_rows", "hidden_nodes", "early_stop.loss_threshold", "early_stop.loss_window",
           "grid.hidden_nodes", "grid.hidden_layers", "grid.learning_rate",
           "fixed.batch_size", "fixed.optimizer"}))
    SCALARS = st.one_of(st.integers(-3, 5), st.sampled_from([10 ** 400, -2 ** 63]),
                        st.floats(), st.booleans(), st.none(), st.text(max_size=4))
    VALUES = st.one_of(
        st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3),
                     max_leaves=6).map(json.dumps),
        st.text(max_size=8), st.just("[" * 5000))
    LINES = st.one_of(st.tuples(st.one_of(KEYS, st.text(max_size=6)), VALUES).map(" = ".join),
                      st.text(max_size=12))
    CONTENT = st.one_of(st.lists(LINES, max_size=6).map(lambda lines: "\n".join(lines).encode()),
                        st.binary(max_size=24))
    #: a valid start, so the fuzzed lines also reach the checks behind parsing
    BASES = {"--layout": "".join(f"{k} = {i + 1}\n" for i, k in enumerate(FEATURE_KEYS)),
             "--stage": "epochs = 1\nk_folds = 2\ngrid.hidden_nodes = [4]\n"}

    @staticmethod
    def load(flag, path, workdir):
        if flag == "--mlp-config":
            return _mlp_config_from(Namespace(mlp_config=path, seed=None), 12)
        if flag == "--train-config":
            return _train_config_from(Namespace(train_config=path, seed=None))
        if flag == "--layout":
            return ColumnLayout.from_file(path)
        if flag == "--stage":
            return _load_stage(path)
        # the matrix is missing, so a search whose configs pass exits 3
        # before it trains
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(config_flag_argv(flag, path, workdir / "missing.ocm", None,
                                         workdir / "r.csv"))
        err = stderr.getvalue()
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("ERROR FileNotFoundError: "), err
            return None
        assert code == 1, err
        match = re.match(rf"ERROR (\w+): {re.escape(path)}: ", err)
        assert match and issubclass(getattr(errors, match[1]), errors.OconError), err
        return None

    @pytest.mark.parametrize("flag", CONFIG_FLAGS)
    @settings(max_examples=120, deadline=None)
    @given(content=CONTENT, with_base=st.booleans())
    def test_loader_returns_or_names_the_file(self, tmp_path_factory, flag, content,
                                              with_base):
        workdir = tmp_path_factory.getbasetemp()
        path = str(workdir / "fuzz.cfg")
        with open(path, "wb") as fh:
            fh.write(self.BASES.get(flag, "").encode() * with_base + content)
        try:
            self.load(flag, path, workdir)
        except errors.OconError as err:
            assert str(err).startswith(f"{path}: "), err


@pytest.mark.parametrize("body, line", [
    ("0.5,0.5\n\n0.5,x\n", "line 3: could not convert string to float: 'x'"),
    ("0.5 0.5\nnan 0.5\n", "line 2: non-finite value 'nan'"),
    ("0.5,0.5\n0.5,0.5\n\n0.5,0.5,0.5\n", "line 4: 3 values where the first row has 2"),
])
def test_malformed_infer_file_names_its_line(pipeline_dir, tmp_path, capsys, body, line):
    model_dir = train_tiny_model(pipeline_dir, tmp_path)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(body)
    capsys.readouterr()
    assert main(["infer", "--model", model_dir, "--input-file", str(vectors)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ERROR MalformedRow: {line}" in captured.err


@pytest.mark.parametrize("line, cell", [
    ("0.5,," + ",".join(["0.5"] * 11), ""),
    (",".join(["0.5"] * 12) + ",", ""),
    ("0.5, 0.5 0.5," + ",".join(["0.5"] * 9), "0.5 0.5"),
], ids=["empty_cell", "trailing_comma", "mixed_separators"])
@pytest.mark.parametrize("source", ["--input", "--input-file"])
def test_infer_refuses_a_vector_with_a_cell_that_is_no_number(pipeline_dir, tmp_path, capsys,
                                                             source, line, cell):
    # each line holds the model's 12 numbers; split at whitespace after
    # commas became spaces, the first was served with its cells shifted
    model_dir = train_tiny_model(pipeline_dir, tmp_path)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(",".join(["0.5"] * 12) + "\n\n" + line + "\n")
    arg, line_no = (line, 1) if source == "--input" else (str(vectors), 3)
    capsys.readouterr()
    assert main(["infer", "--model", model_dir, source, arg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ERROR MalformedRow: line {line_no}: could not convert "
                            f"string to float: {cell!r}\n")


@pytest.mark.parametrize("body", ["", "\n  \n\t\n"], ids=["empty", "blank_lines"])
def test_infer_file_without_vector_named(pipeline_dir, tmp_path, capsys, body):
    model_dir = train_tiny_model(pipeline_dir, tmp_path)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(body)
    capsys.readouterr()
    assert main(["infer", "--model", model_dir, "--input-file", str(vectors)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR OconError: {vectors} holds no feature vector\n"


def test_byte_order_mark_is_skipped(pipeline_dir, tmp_path, capsys):
    """Config, measurement and vector files saved with a UTF-8 byte-order
    mark read as the same files without one."""
    def run(bom):
        out = tmp_path / ("bom" if bom else "plain")
        out.mkdir()
        files = {"mlp.cfg": "hidden_layers = [2]\nlearning_rate = 1e-3\nseed = 0\n",
                 "train.cfg": "epochs_per_batch_set = 1\nmax_batch_sets = 1\nseed = 0\n",
                 "vectors.txt": "0.5," * 11 + "0.5\n" + "0.25," * 11 + "0.75\n",
                 "synth.dat": (pipeline_dir / "synth.dat").read_text()}
        for name, text in files.items():
            (out / name).write_bytes(bom + text.encode())
        assert main(["ingest", "--data", str(out / "synth.dat"),
                     "--out", str(out / "records.csv")]) == 0
        assert main(["train", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--mlp-config", str(out / "mlp.cfg"), "--train-config",
                     str(out / "train.cfg"), "--out-dir", str(out / "model")]) == 0
        capsys.readouterr()
        assert main(["infer", "--model", str(out / "model"), "--scaled",
                     "--input-file", str(out / "vectors.txt")]) == 0
        members = sorted(f for f in os.listdir(out / "model") if f.endswith(".ocmdl"))
        return ((out / "records.csv").read_bytes(), capsys.readouterr().out,
                [sha256_file(str(out / "model" / f)) for f in members])

    plain, bom = run(b""), run(codecs.BOM_UTF8)
    assert plain[2] and bom == plain


def search_manifest(directory):
    [name] = [f for f in os.listdir(directory) if f.startswith("manifest-")]
    return json.load(open(os.path.join(directory, name)))


def test_search_winner_feeds_the_next_stage(pipeline_dir, tmp_path):
    from ocon.configfile import load_config
    from ocon.search import SearchStage, run_stage

    matrix_path = str(pipeline_dir / "matrix.ocm")
    stage1 = tmp_path / "stage1.cfg"
    stage1.write_text("k_folds = 2\nepochs = 3\nfixed.batch_size = 16\n"
                      "grid.hidden_nodes = [3, 5]\ngrid.learning_rate = [3e-3, 1e-3]\n")
    stage2 = tmp_path / "stage2.cfg"
    stage2.write_text("k_folds = 2\nepochs = 3\ngrid.batch_size = [16]\n")
    os.makedirs(tmp_path / "s1")
    ranked = str(tmp_path / "s1" / "ranked.csv")
    assert main(["search", "--matrix", matrix_path, "--stage", str(stage1),
                 "--out", ranked, "--seed", "3"]) == 0
    manifest = search_manifest(tmp_path / "s1")
    selected = load_config(ranked + ".selected.cfg")
    assert {k: repr(v) for k, v in selected.items()} == manifest["extra"]["selected"]
    assert ranked + ".selected.cfg" in [out["path"] for out in manifest["outputs"]]
    assert manifest["extra"]["failed_cells"] == {}

    assert manifest["config"]["inherit"] is None
    assert [(i["path"], i["sha256"]) for i in manifest["inputs"]] == [
        (str(stage1), sha256_file(str(stage1))), (matrix_path, sha256_file(matrix_path))]

    second = str(tmp_path / "ranked2.csv")
    assert main(["search", "--matrix", matrix_path, "--stage", str(stage2),
                 "--inherit", ranked + ".selected.cfg", "--out", second, "--seed", "3"]) == 0
    stage = SearchStage.from_file(str(stage2))
    expected = run_stage(load_matrix(matrix_path),
                         replace(stage, fixed={**stage.fixed, **selected}), seed=3)
    assert open(second).read() == expected.to_csv_text()
    manifest = search_manifest(tmp_path)
    assert manifest["config"]["inherit"] == ranked + ".selected.cfg"
    assert [i["path"] for i in manifest["inputs"]] == [
        ranked + ".selected.cfg", str(stage2), matrix_path]
    assert load_config(second + ".selected.cfg") == {**selected, **expected.selected.hps}


def test_inherit_overrides_the_stage_fixed_values(pipeline_dir, tmp_path):
    """grid > inherited > stage fixed: an inherited optimizer retrains
    preset:stage2, and an inherited value of one of its grid keys does not."""
    from ocon.search import desk_scale, run_stage, stage_presets

    matrix_path = str(pipeline_dir / "matrix.ocm")

    def ranked_csv(name, inherit_text=None):
        out = tmp_path / f"{name}.csv"
        inherit = []
        if inherit_text is not None:
            (tmp_path / f"{name}.cfg").write_text(inherit_text)
            inherit = ["--inherit", str(tmp_path / f"{name}.cfg")]
        assert main(["search", "--matrix", matrix_path, "--stage", "preset:stage2",
                     "--desk-scale", "1000", *inherit, "--out", str(out)]) == 0
        return out.read_text()

    plain = ranked_csv("plain")
    rmsprop = ranked_csv("rmsprop", "optimizer = rmsprop\n")
    assert rmsprop != plain
    stage = desk_scale(stage_presets()[1], 1000)
    overlaid = replace(stage, fixed={**stage.fixed, "optimizer": "rmsprop"})
    assert rmsprop == run_stage(load_matrix(matrix_path), overlaid).to_csv_text()
    assert ranked_csv("grid_key", "dropout_keep_hidden = 0.5\n") == plain


def test_preset_ladder_passes_every_winner_on(pipeline_dir, tmp_path):
    from ocon.configfile import load_config
    from ocon.search import stage_presets

    matrix_path = str(pipeline_dir / "matrix.ocm")
    chosen, inherit = {}, []
    for n, stage in enumerate(stage_presets(), start=1):
        os.makedirs(tmp_path / f"s{n}")
        out = str(tmp_path / f"s{n}" / "ranked.csv")
        assert main(["search", "--matrix", matrix_path, "--stage", f"preset:stage{n}",
                     "--desk-scale", "300", *inherit, "--out", out]) == 0
        selected = load_config(out + ".selected.cfg")
        # earlier winners off this stage's grid pass on unchanged
        assert set(selected) == set(chosen) | set(stage.grid)
        assert {k: selected[k] for k in chosen if k not in stage.grid} == \
            {k: v for k, v in chosen.items() if k not in stage.grid}
        chosen, inherit = selected, ["--inherit", out + ".selected.cfg"]
    assert set(chosen) == {"hidden_nodes", "optimizer", "learning_rate", "dropout_keep_input",
                           "dropout_keep_hidden", "batch_norm", "l2_lambda"}
    # a preset stage is not a file: the last run hashed its --inherit file and the matrix
    manifest = search_manifest(tmp_path / "s4")
    assert [i["path"] for i in manifest["inputs"]] == [
        str(tmp_path / "s3" / "ranked.csv.selected.cfg"), matrix_path]
    # the whole selected setup trains as it is
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs_per_batch_set = 2\nmax_batch_sets = 1\n")
    model_dir = tmp_path / "model"
    assert main(["train", "--matrix", matrix_path, "--mlp-config", out + ".selected.cfg",
                 "--train-config", str(train_cfg), "--out-dir", str(model_dir)]) == 0
    member = load_ensemble(str(model_dir)).members[0].config    # its seed is derived
    assert replace(member, seed=0) == MlpConfig(
        input_dim=12, hidden_layers=(chosen.pop("hidden_nodes"),), **chosen)


def test_search_manifest_names_failed_cells(pipeline_dir, tmp_path, capsys):
    """A diverged combination ranks last, raises no numpy warning, and the
    manifest names its cells; a stage where no combination scored exits 1
    and selects nothing."""
    from ocon.configfile import load_config
    stage = tmp_path / "stage.cfg"
    stage.write_text("k_folds = 2\nepochs = 2\nfixed.batch_size = 16\n"
                     "grid.hidden_nodes = [3]\ngrid.learning_rate = [3e-3, 1e300]\n")
    ranked = str(tmp_path / "ranked.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                     "--stage", str(stage), "--out", ranked]) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    [failed] = search_manifest(tmp_path)["extra"]["failed_cells"].items()
    assert failed[0] == "1" and set(failed[1].values()) == {"diverged"}
    assert load_config(ranked + ".selected.cfg") == {"hidden_nodes": 3, "learning_rate": 3e-3}

    os.makedirs(tmp_path / "none")
    stage.write_text("k_folds = 500\nepochs = 1\ngrid.hidden_nodes = [2, 3]\n")
    ranked = str(tmp_path / "none" / "ranked.csv")
    capsys.readouterr()
    assert main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                 "--stage", str(stage), "--out", ranked]) == 1
    assert capsys.readouterr().err == (
        "ERROR SearchFailed: stage custom: no combination scored (TooFewSamples)\n")
    # the ranked CSV shows which cells failed; nothing is selected, and no
    # JSON with -Infinity is written
    names = load_matrix(str(pipeline_dir / "matrix.ocm")).class_names
    assert open(ranked).read().count("-inf") == 2 * (1 + len(names))
    assert sorted(os.listdir(tmp_path / "none")) == ["ranked.csv", "ranked.csv.times.csv"]


def test_selected_config_trains_and_evaluates_as_the_python_path(pipeline_dir, tmp_path):
    """search -> train --mlp-config <out>.selected.cfg -> eval gives the
    checkpoints, ensemble.json and det.csv of the library calls."""
    from ocon.configfile import build, load_config
    from ocon.ensemble import save_ensemble, train_ensemble
    from ocon.metrics import report_tables

    matrix_path = str(pipeline_dir / "matrix.ocm")
    stage = tmp_path / "stage.cfg"
    stage.write_text("k_folds = 2\nepochs = 3\nfixed.batch_size = 16\n"
                     "grid.hidden_nodes = [3, 5]\ngrid.learning_rate = [3e-3, 1e-3]\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs_per_batch_set = 3\nmax_batch_sets = 1\nseed = 4\n")
    os.makedirs(tmp_path / "search")
    ranked = str(tmp_path / "search" / "ranked.csv")
    assert main(["search", "--matrix", matrix_path, "--stage", str(stage), "--out", ranked]) == 0
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    assert main(["train", "--matrix", matrix_path, "--mlp-config", ranked + ".selected.cfg",
                 "--train-config", str(train_cfg), "--out-dir", str(cli / "model")]) == 0
    assert main(["eval", "--model", str(cli / "model"), "--matrix", matrix_path,
                 "--out-dir", str(cli / "eval")]) == 0

    matrix = load_matrix(matrix_path)
    mlp_cfg = MlpConfig.from_hps(load_config(ranked + ".selected.cfg"), 12, "selected")
    model, _ = train_ensemble(matrix, mlp_cfg, build(TrainConfig, load_config(str(train_cfg)),
                                                     "train"))
    save_ensemble(model, str(lib / "model"))
    report_tables(model, matrix).write_csv(str(lib / "eval"))
    files = [f"model/{name}" for name in sorted(os.listdir(lib / "model"))] + ["eval/det.csv"]
    assert "model/ensemble.json" in files and len(files) == 14
    for name in files:
        assert (cli / name).read_bytes() == (lib / name).read_bytes(), name


def test_train_reruns_byte_identical(pipeline_dir, tmp_path):
    matrix = str(pipeline_dir / "matrix.ocm")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("epochs_per_batch_set = 3\nmax_batch_sets = 1\nseed = 4\n")
    mlp_cfg = tmp_path / "mlp.cfg"
    mlp_cfg.write_text("hidden_layers = [4]\nlearning_rate = 1e-3\nseed = 2\n")
    dirs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
    for d in dirs:
        assert main(["train", "--matrix", matrix, "--mlp-config", str(mlp_cfg),
                     "--train-config", str(train_cfg), "--out-dir", d]) == 0
    for name in os.listdir(dirs[0]):
        if name.endswith(".ocmdl") or name == "ensemble.json":
            a = open(os.path.join(dirs[0], name), "rb").read()
            b = open(os.path.join(dirs[1], name), "rb").read()
            assert a == b, name


def test_manifest_written_and_rerunnable(pipeline_dir):
    manifests = [f for f in os.listdir(pipeline_dir)
                 if f.startswith("manifest-") and f.endswith(".json")]
    assert manifests
    m = json.load(open(pipeline_dir / sorted(manifests)[0]))
    assert m["command"] in ("ingest", "preprocess")
    assert m["inputs"] and m["outputs"]
    assert all(len(entry["sha256"]) == 64 for entry in m["outputs"])


class TestStartup:
    #: every name ``ocon`` re-exported when its init imported each module eagerly
    PACKAGE_NAMES = (
        "ARPABET_CODES", "BalancedSubset", "ClassStats", "ColumnLayout", "ConfusionCounts",
        "DetMetrics", "EarlyStopRule", "FeatureMatrix", "FeatureRecord", "FeatureSetKind",
        "KFoldResult", "MlpConfig", "MlpModel", "OconError", "OconModel",
        "PhonemeLabel", "RocCurve", "ScalingRecord", "SearchStage", "SpeakerGroup",
        "TrainConfig", "TrainReport", "build_balanced_subset", "build_feature_matrix",
        "class_statistics", "decode_filename", "desk_scale", "det_metrics",
        "encode_filename", "evaluate_ensemble", "filter_usable", "fit_minmax", "forward",
        "infer", "init_params", "k_fold_evaluate", "load_dataset", "load_ensemble",
        "load_matrix", "load_model", "loss_and_grads", "normalize_by_f0",
        "optimizer_step", "report_tables", "retrain_member", "roc_auc", "run_stage",
        "save_ensemble", "save_matrix", "save_model", "speaker_view", "split_dataset",
        "stage_presets", "train_ensemble", "train_one_class")

    def run_python(self, code):
        return self.run_interpreter("-c", code).stdout.strip()

    def run_interpreter(self, *argv, env=(), returncode=0):
        import subprocess
        import sys

        import ocon

        src = os.path.dirname(os.path.dirname(os.path.abspath(ocon.__file__)))
        env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == returncode, proc.stderr
        return proc

    def test_ingest_and_report_load_no_numpy(self, tmp_path):
        dat = tmp_path / "synth.dat"
        write_synth_dat(str(dat), seed=3, men=2, women=2, boys=1, girls=1)
        for argv in (["ingest", "--data", str(dat), "--out", str(tmp_path / "r.csv")],
                     ["report", "--dir", str(tmp_path)]):
            # -X importtime lists every module the command imports, on stderr
            proc = self.run_interpreter("-X", "importtime", "-m", "ocon.cli", *argv)
            imported = {line.rsplit("|", 1)[-1].strip()
                        for line in proc.stderr.splitlines() if line.startswith("import time:")}
            assert "numpy" not in imported and "ocon.dataset" in imported, argv
        assert "ingest" in proc.stdout  # report listed the ingest manifest

    def test_train_from_a_selected_config_loads_no_search(self, pipeline_dir, tmp_path):
        (tmp_path / "selected.cfg").write_text("hidden_nodes = 2\nlearning_rate = 1e-3\n")
        (tmp_path / "train.cfg").write_text("epochs_per_batch_set = 1\nmax_batch_sets = 1\n")
        proc = self.run_interpreter(
            "-X", "importtime", "-m", "ocon.cli", "train", "--matrix",
            str(pipeline_dir / "matrix.ocm"), "--mlp-config", str(tmp_path / "selected.cfg"),
            "--train-config", str(tmp_path / "train.cfg"), "--out-dir", str(tmp_path / "m"))
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "ocon.search" not in imported and "ocon.training" in imported
        assert load_ensemble(str(tmp_path / "m")).members[0].config.hidden_layers == (2,)

    def test_cli_import_leaves_metrics_search_and_process_pool_unloaded(self):
        loaded = self.run_python(
            "import sys, ocon.cli\n"
            "print([m for m in ('ocon.metrics', 'ocon.search', 'ocon.training',"
            " 'concurrent.futures.process') if m in sys.modules])")
        assert loaded == "[]"

    def test_serving_loads_no_balancer_and_search_no_process_pool(self):
        loaded = self.run_python(
            "import sys, ocon.ensemble, ocon.metrics\n"
            "print('ocon.balancer' in sys.modules)\n"
            "import ocon.search\n"
            "print('concurrent.futures.process' in sys.modules)")
        assert loaded.split() == ["False", "False"]

    def test_workers_environment_variable_is_not_read(self, tmp_path):
        # --workers defaults to 1; the parser reads no environment default
        proc = self.run_interpreter("-m", "ocon.cli", "report", "--dir", str(tmp_path),
                                    env={"OCON_WORKERS": "x"}, returncode=1)
        assert "ERROR OconError: no manifests given" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_every_package_name_still_imports(self):
        names = ", ".join(self.PACKAGE_NAMES)
        out = self.run_python(f"from ocon import {names}\nimport ocon\n"
                              "print(ocon.metrics.__name__, hasattr(ocon, 'no_such_name'))")
        assert out == "ocon.metrics False"
        import ocon
        assert sorted(ocon.__all__) == sorted(self.PACKAGE_NAMES)
