import json
import os

import numpy as np
import pytest

from ocon.cli import main
from ocon.features import MATRIX_KIND, load_matrix
from ocon.synth import write_synth_dat
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


def train_tiny_model(pipeline_dir, tmp_path):
    """A one-epoch, 2-unit ensemble trained through the CLI; returns its dir."""
    matrix = str(pipeline_dir / "matrix.ocm")
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

    def test_domain_error_named_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("zzzzz 1 2 3\n")
        layout = tmp_path / "layout.cfg"
        from ocon.dataset import ColumnLayout, FEATURE_KEYS
        ColumnLayout(columns={k: i + 1 for i, k in enumerate(FEATURE_KEYS)}).to_file(
            str(layout))
        code = main(["ingest", "--data", str(bad), "--layout", str(layout),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "ERROR MalformedRow" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["preprocess"])  # missing required flags
        assert err.value.code == 2

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
    ], ids=["train_epochs_str", "early_stop_unknown_key", "mlp_lr_str", "mlp_bool_as_int",
            "stage_lr_str", "stage_misspelt_hp", "stage_folds_str", "stage_grid_scalar",
            "stage_misspelt_section", "stage_one_fold", "stage_no_epochs"])
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

    @pytest.mark.parametrize("line, named", [
        ("skip_rows = x", "skip_rows = 'x' is not of type int"),
        ("f0_ss = 0", "layout indices must be integers"),
    ], ids=["skip_rows_str", "index_0"])
    def test_bad_layout_value_names_its_file(self, pipeline_dir, tmp_path, capsys, line, named):
        from ocon.dataset import FEATURE_KEYS
        layout = tmp_path / "layout.cfg"
        layout.write_text("".join(f"{k} = {i + 1}\n" for i, k in enumerate(FEATURE_KEYS))
                          + line + "\n")
        code = main(["ingest", "--data", str(pipeline_dir / "synth.dat"), "--layout", str(layout),
                     "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"ERROR OconError: {layout}: ") and named in err, err

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

    def test_non_utf8_infer_file_names_its_line(self, pipeline_dir, tmp_path, capsys):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"0.5,0.5\n0.5,\xff0.5\n")
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, "--input-file", str(vectors)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ERROR MalformedRow: line 2: not UTF-8 text" in captured.err

    @pytest.mark.parametrize("flags", [["--input", ",".join(["nan"] * 12)],
                                       ["--input", ",".join(["inf"] * 12), "--scaled"]])
    def test_non_finite_infer_input_exit_1(self, pipeline_dir, tmp_path, capsys, flags):
        model_dir = train_tiny_model(pipeline_dir, tmp_path)
        capsys.readouterr()
        assert main(["infer", "--model", model_dir, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ERROR NonFiniteInput" in captured.err

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

    second = str(tmp_path / "ranked2.csv")
    assert main(["search", "--matrix", matrix_path, "--stage", str(stage2),
                 "--inherit", ranked + ".selected.cfg", "--out", second, "--seed", "3"]) == 0
    expected = run_stage(load_matrix(matrix_path), SearchStage.from_file(str(stage2)),
                         inherited=selected, seed=3)
    assert open(second).read() == expected.to_csv_text()


def test_search_manifest_names_failed_cells(pipeline_dir, tmp_path):
    stage = tmp_path / "stage.cfg"
    stage.write_text("k_folds = 500\nepochs = 1\ngrid.hidden_nodes = [2]\n")
    ranked = str(tmp_path / "ranked.csv")
    assert main(["search", "--matrix", str(pipeline_dir / "matrix.ocm"),
                 "--stage", str(stage), "--out", ranked]) == 0
    names = load_matrix(str(pipeline_dir / "matrix.ocm")).class_names
    assert search_manifest(tmp_path)["extra"]["failed_cells"] == {
        "0": {name: "TooFewSamples" for name in names}}
    assert open(ranked).read().count("-inf") == 1 + len(names)


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
        "KFoldResult", "MlpConfig", "MlpModel", "MlpParams", "OconError", "OconModel",
        "PhonemeLabel", "RocCurve", "ScalingRecord", "SearchStage", "SpeakerGroup",
        "TrainConfig", "TrainReport", "build_balanced_subset", "build_feature_matrix",
        "class_statistics", "decode_filename", "desk_scale", "det_metrics",
        "encode_filename", "evaluate_ensemble", "filter_usable", "fit_minmax", "forward",
        "infer", "init_params", "k_fold_evaluate", "load_dataset", "load_ensemble",
        "load_matrix", "load_model", "loss_and_grads", "narrow_grid", "normalize_by_f0",
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
