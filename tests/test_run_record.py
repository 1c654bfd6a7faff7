"""The run record: one manifest per command that writes an output, kept next
to those outputs, with every parsed flag as its config and the hash of every
file the command read."""

import json
import os
from argparse import Namespace
from dataclasses import asdict

import pytest

from ocon.cli import _mlp_config_from, _train_config_from, main
from ocon.configfile import save_config
from ocon.dataset import ColumnLayout
from ocon.synth import write_synth_dat
from ocon.util import sha256_file


def manifests_under(root):
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                  for f in files if f.startswith("manifest-") and f.endswith(".json"))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small pipeline, each command writing into a directory of its own;
    returns the root and each recording command's manifest."""
    root = tmp_path_factory.mktemp("run_record")
    p = {name: str(root / name) for name in ("ingest", "preprocess", "search", "model", "eval")}
    for d in p.values():
        os.makedirs(d)
    dat = str(root / "synth.dat")
    write_synth_dat(dat, seed=5, men=4, women=4, boys=2, girls=2)
    layout = str(root / "layout.cfg")
    default = ColumnLayout.hgcw_bigdata()
    save_config({"skip_rows": default.skip_rows, **default.columns}, layout)
    (root / "stage.cfg").write_text("k_folds = 2\nepochs = 2\nfixed.batch_size = 16\n"
                                    "grid.hidden_nodes = [3]\ngrid.learning_rate = [3e-3]\n")
    (root / "mlp.cfg").write_text("hidden_layers = [2]\nlearning_rate = 1e-3\n")
    (root / "train.cfg").write_text("epochs_per_batch_set = 1\nmax_batch_sets = 1\nseed = 5\n")
    records, matrix = f"{p['ingest']}/records.csv", f"{p['preprocess']}/matrix.ocm"
    argvs = {
        "ingest": ["ingest", "--data", dat, "--layout", layout, "--out", records],
        "preprocess": ["preprocess", "--records", records, "--exclude-children",
                       "--out", matrix],
        "search": ["search", "--matrix", matrix, "--stage", str(root / "stage.cfg"),
                   "--seed", "3", "--out", f"{p['search']}/ranked.csv"],
        "train": ["train", "--matrix", matrix, "--mlp-config", str(root / "mlp.cfg"),
                  "--train-config", str(root / "train.cfg"), "--out-dir", p["model"]],
        "eval": ["eval", "--model", p["model"], "--matrix", matrix, "--out-dir", p["eval"]],
    }
    runs = {}
    for command, argv in argvs.items():
        assert main(argv) == 0
        [path] = manifests_under(p["model" if command == "train" else command])
        runs[command] = json.load(open(path, encoding="utf-8"))
    assert len(manifests_under(root)) == len(argvs)
    return root, runs


def test_each_writing_command_records_every_flag_once(pipeline):
    root, runs = pipeline
    dat, stage = str(root / "synth.dat"), str(root / "stage.cfg")
    records, matrix = str(root / "ingest/records.csv"), str(root / "preprocess/matrix.ocm")
    mlp_cfg, train_cfg = str(root / "mlp.cfg"), str(root / "train.cfg")
    flags = Namespace(mlp_config=mlp_cfg, train_config=train_cfg, seed=None)
    expected = {
        "ingest": ({"data": dat, "layout": str(root / "layout.cfg"), "out": records}, 0),
        "preprocess": ({"records": records, "feature_set": "tt12", "exclude_children": True,
                        "projection": None, "out": matrix}, 0),
        "search": ({"matrix": matrix, "stage": stage, "inherit": None, "workers": 1,
                    "desk_scale": 1, "task": "phoneme", "seed": 3,
                    "out": str(root / "search/ranked.csv")}, 3),
        "train": ({"matrix": matrix, "mlp_config": mlp_cfg, "train_config": train_cfg,
                   "task": "phoneme", "workers": 1, "seed": None,
                   "out_dir": str(root / "model"),
                   "mlp": json.loads(json.dumps(asdict(_mlp_config_from(flags, 12)))),
                   "train": json.loads(json.dumps(asdict(_train_config_from(flags))))}, 5),
        "eval": ({"model": str(root / "model"), "matrix": matrix,
                  "out_dir": str(root / "eval")}, 0),
    }
    for command, (config, seed) in expected.items():
        manifest = runs[command]
        assert (manifest["command"], manifest["config"], manifest["master_seed"]) == \
            (command, config, seed), command
        assert manifest["outputs"] and manifest["finished"] >= manifest["started"]


def test_each_command_hashes_every_file_it_read(pipeline):
    root, runs = pipeline
    matrix = str(root / "preprocess/matrix.ocm")
    expected = {
        "ingest": [str(root / "layout.cfg"), str(root / "synth.dat")],
        "preprocess": [str(root / "ingest/records.csv")],
        "search": [str(root / "stage.cfg"), matrix],
        "train": [str(root / "mlp.cfg"), str(root / "train.cfg"), matrix],
        "eval": [matrix, str(root / "model/ensemble.json")],
    }
    for command, paths in expected.items():
        inputs = runs[command]["inputs"]
        assert [entry["path"] for entry in inputs] == paths, command
        assert [entry["sha256"] for entry in inputs] == [sha256_file(p) for p in paths]


def test_commands_without_an_output_write_no_record(pipeline, tmp_path, capsys, monkeypatch):
    root, _ = pipeline
    monkeypatch.chdir(tmp_path)
    before = manifests_under(root)
    model, matrix = str(root / "model"), str(root / "preprocess/matrix.ocm")
    for argv in (["eval", "--model", model, "--matrix", matrix],
                 ["infer", "--model", model, "--input", ",".join(["4.0"] * 12)],
                 ["report", "--dir", str(root / "model")]):
        assert main(argv) == 0, argv
    assert "train" in capsys.readouterr().out   # report listed the train record
    assert manifests_under(root) == before and os.listdir(tmp_path) == []

