"""The three benchmark workloads: inputs, one untraced pass, one traced run.

Every workload is a closed loop driven by this one process with at most two
workers.  Inputs come only from ``--seed``; the program under test receives
the generated records, matrix and files, never the seed itself.

Library calls go through the module objects (``ens.train_ensemble``, not a
name imported at load time) so the traced run sees the wrapped functions.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import ocon  # noqa: E402  (needs SRC on the path)
from ocon import dataset as ds  # noqa: E402
from ocon import ensemble as ens  # noqa: E402
from ocon import features as feat  # noqa: E402
from ocon import metrics as met  # noqa: E402
from ocon import search as srch  # noqa: E402
from ocon import training as trn  # noqa: E402
from ocon.errors import PartialEnsemble  # noqa: E402
from ocon.mlp import MlpConfig  # noqa: E402
from ocon.synth import synth_records, write_synth_dat  # noqa: E402
from ocon.util import sha256_file  # noqa: E402

TT12 = feat.FeatureSetKind.TT12
ENSEMBLE_TC = trn.TrainConfig(epochs_per_batch_set=100, max_batch_sets=2, early_stop=None)
PIPELINE_TC = trn.TrainConfig(epochs_per_batch_set=20, max_batch_sets=1, early_stop=None)
PIPELINE_TC_TEXT = "epochs_per_batch_set = 20\nmax_batch_sets = 1\nearly_stop = null\n"
SEARCH_STAGE = srch.desk_scale(srch.stage_presets()[0], 20)
SEARCH_WORKERS = 2
SINGLE_CALLS = 2000          # single-vector infer calls per serving pass
BATCH_CALLS = 5              # full-batch infer calls per serving pass
CLI_TIMEOUT_S = 150
# op latencies read from the program's own timers must cover this share of
# the bench-timed work they stand for, so work moved out of the timed
# regions fails the run instead of looking faster
ACCOUNTED_SHARE = 0.9
SEARCH_BUSY_SHARE = 0.5


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)
        return ok


@dataclass
class PassResult:
    """What one untraced pass measured.

    ``train_rows`` rows went through minibatch steps in ``train_s`` seconds;
    ``ops`` are the latencies of the workload's unit operation.
    """

    wall_s: float
    train_rows: int
    train_s: float
    ops: list
    mean_test_accuracy_pct: float
    fingerprint: object
    extra: dict = field(default_factory=dict)


def median(values):
    return float(np.median(values))


def pass_metrics(passes, factors):
    """End-to-end metrics over the passes of a run, except set-up and RSS;
    each pass's times are multiplied by its host-speed factor."""
    return {
        "wall_s": float(np.mean([p.wall_s * f for p, f in zip(passes, factors)])),
        "train_samples_per_s": (sum(p.train_rows for p in passes)
                                / sum(p.train_s * f for p, f in zip(passes, factors))),
        "mean_test_accuracy_pct": median([p.mean_test_accuracy_pct for p in passes]),
        "op_ms": float(np.mean(np.concatenate(
            [np.asarray(p.ops) * f for p, f in zip(passes, factors)]))) * 1e3,
    }


def rows_trained(report):
    """Training rows one cycle pushed through minibatch steps, from its
    ``TrainReport`` or the report's ``to_dict`` form."""
    r = report if isinstance(report, dict) else report.to_dict()
    bounds = list(r["batch_set_boundaries"]) + [r["epochs_run"]]
    return sum(sizes[0] * (bounds[i + 1] - bounds[i]) for i, sizes in enumerate(r["split_sizes"]))


def hash_files(directory, names):
    return {name: sha256_file(os.path.join(directory, name)) for name in names}


def member_files(model_dir):
    return sorted(f for f in os.listdir(model_dir) if f.startswith("member_"))


def artifact_hashes(model, matrix, workdir):
    """sha256 of the member checkpoints, det.csv and confusion.csv."""
    model_dir = os.path.join(workdir, "model")
    eval_dir = os.path.join(workdir, "eval")
    ens.save_ensemble(model, model_dir)
    met.report_tables(model, matrix).write_csv(eval_dir)
    hashes = hash_files(model_dir, member_files(model_dir))
    hashes.update(hash_files(eval_dir, ["det.csv", "confusion.csv"]))
    return hashes


def check_rows(tally, rec, traced_pass):
    """The rows the traced steps saw must equal the rows the pass reported."""
    seen = rec.counters.get("mlp.train_rows", 0)
    tally.op(seen == traced_pass.train_rows,
             f"traced steps saw {seen} rows, the pass reported {traced_pass.train_rows}")


def traced(rec, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the span recorder installed."""
    with spans.recording(rec):
        return fn(*args, **kwargs)


def fresh_dir(parent, name):
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# ensemble_train

class EnsembleTrain:
    """train_ensemble on the tt12 matrix with the tuned MLP, then evaluate."""

    name = "ensemble_train"

    def prepare(self, seed, workdir):
        self.matrix, _ = feat.build_feature_matrix(synth_records(seed=seed), TT12)
        self.workdir = workdir

    def run_pass(self, tally, tag):
        t0 = time.perf_counter()
        try:
            model, reports = ens.train_ensemble(self.matrix, MlpConfig.tuned(TT12.dim),
                                                ENSEMBLE_TC, workers=1)
        except PartialEnsemble as err:
            tally.op(False, f"PartialEnsemble: {err}")
            return None
        tally.op(True)
        t1 = time.perf_counter()
        evaluation = ens.evaluate_ensemble(model, self.matrix)
        t2 = time.perf_counter()
        tally.op(True)
        member_s = sum(r.train_seconds for r in reports)
        tally.op(member_s >= ACCOUNTED_SHARE * (t1 - t0),
                 f"member cycles cover {member_s:.3f} s of a {t1 - t0:.3f} s train_ensemble")
        return PassResult(
            wall_s=t2 - t0, train_rows=sum(rows_trained(r) for r in reports), train_s=t1 - t0,
            ops=[r.train_seconds for r in reports],
            mean_test_accuracy_pct=float(np.mean([r.test_accuracy for r in reports])),
            fingerprint=artifact_hashes(model, self.matrix, fresh_dir(self.workdir, tag)),
            extra={"argmax_accuracy_pct": evaluation.argmax_accuracy})

    def issue_metrics(self, passes):
        return {"argmax_accuracy_pct": (passes[0].extra["argmax_accuracy_pct"], "%")}

    def trace_run(self, tally, rec, speed):
        base, base_f = speed.around(lambda: self.run_pass(tally, "untraced"))
        traced_pass, traced_f = speed.around(
            lambda: traced(rec, self.run_pass, tally, "traced"))
        if base is None or traced_pass is None:
            return {}
        tally.op(traced_pass.fingerprint == base.fingerprint,
                 "traced artifacts differ from untraced ones")
        check_rows(tally, rec, traced_pass)
        return {"trace.overhead_share":
                traced_pass.wall_s * traced_f / (base.wall_s * base_f) - 1.0}


# --------------------------------------------------------------------------
# search_stage1

class SearchStage1:
    """run_stage(preset stage1, desk_scale 20) over the 12 phoneme classes."""

    name = "search_stage1"

    def prepare(self, seed, workdir):
        self.matrix, _ = feat.build_feature_matrix(synth_records(seed=seed), TT12)
        self.workdir = workdir
        self._cell_rows = None

    def cell_rows(self):
        """Training rows one grid cell pushes through minibatch steps, by class.

        Fold and split sizes depend only on class sizes, so one epoch of each
        class's k-fold evaluation, times the stage's epochs, counts them
        exactly through the program's own splitting code.
        """
        if self._cell_rows is None:
            tc = trn.TrainConfig(epochs_per_batch_set=1, max_batch_sets=1, early_stop=None,
                                 k_folds=SEARCH_STAGE.k_folds, reencode_per_batch_set=False)
            cfg = MlpConfig(input_dim=TT12.dim, hidden_layers=(10,))
            self._cell_rows = {}
            for cid, name in enumerate(self.matrix.class_names):
                result = trn.k_fold_evaluate(self.matrix, cid, cfg, tc, k=SEARCH_STAGE.k_folds)
                self._cell_rows[name] = SEARCH_STAGE.epochs * sum(
                    r.split_sizes[0][0] for r in result.reports)
        return self._cell_rows

    def run_pass(self, tally, tag, workers=SEARCH_WORKERS):
        t0 = time.perf_counter()
        result = srch.run_stage(self.matrix, SEARCH_STAGE, workers=workers)
        wall = time.perf_counter() - t0
        rows = self.cell_rows()
        cell_s, train_rows, failed = [], 0, 0
        for row in result.rows:
            for name, (acc, secs) in row.per_class.items():
                failed += not tally.op(math.isfinite(acc), f"cell {row.index}/{name} failed")
                cell_s.append(secs * SEARCH_STAGE.k_folds)
                train_rows += rows[name]
        busy = sum(cell_s) / (workers * wall)
        tally.op(busy >= SEARCH_BUSY_SHARE,
                 f"cell timings cover only {busy:.2f} of {workers} workers x run_stage wall")
        return PassResult(
            wall_s=wall, train_rows=train_rows, train_s=wall, ops=cell_s,
            mean_test_accuracy_pct=result.selected.mean_accuracy,
            fingerprint=result.to_csv_text(), extra={"busy_share": busy, "failed_cells": failed})

    def issue_metrics(self, passes):
        cycles = len(passes[0].ops) * SEARCH_STAGE.k_folds
        return {"search_cells_per_s": (median([cycles / p.wall_s for p in passes]), "1/s"),
                "search_best_accuracy_pct": (passes[0].mean_test_accuracy_pct, "%")}

    def trace_run(self, tally, rec, speed):
        parallel = self.run_pass(tally, "untraced-w2")
        serial, serial_f = speed.around(lambda: self.run_pass(tally, "untraced-w1", workers=1))
        traced_pass, traced_f = speed.around(
            lambda: traced(rec, self.run_pass, tally, "traced-w1", workers=1))
        tally.op(traced_pass.fingerprint == parallel.fingerprint,
                 "traced workers=1 ranked CSV differs from the workers=2 one")
        tally.op(serial.fingerprint == parallel.fingerprint,
                 "workers=1 ranked CSV differs from the workers=2 one")
        check_rows(tally, rec, traced_pass)
        return {"search.failed_cells": parallel.extra["failed_cells"],
                "search.busy_share": parallel.extra["busy_share"],
                "trace.overhead_share":
                traced_pass.wall_s * traced_f / (serial.wall_s * serial_f) - 1.0}


# --------------------------------------------------------------------------
# pipeline_serve

CLI_STEPS = ("ingest", "preprocess", "train", "eval", "infer")


class PipelineServe:
    """The CLI chain on a synthetic .dat file, then in-process serving."""

    name = "pipeline_serve"

    def prepare(self, seed, workdir):
        self.workdir = workdir
        self.dat = os.path.join(workdir, "synth.dat")
        write_synth_dat(self.dat, seed=seed)
        kept, _ = ds.filter_usable(ds.load_dataset(self.dat), TT12)
        self.vectors = np.stack([feat.normalize_by_f0(r, TT12) for r in kept])
        self.vector_file = os.path.join(workdir, "vectors.txt")
        with open(self.vector_file, "w", encoding="utf-8") as fh:
            for v in self.vectors:
                fh.write(",".join(repr(float(x)) for x in v) + "\n")
        self.train_cfg = os.path.join(workdir, "train.cfg")
        with open(self.train_cfg, "w", encoding="utf-8") as fh:
            fh.write(PIPELINE_TC_TEXT)

    def _cli(self, tally, d, step):
        argv = {
            "ingest": ["--data", self.dat, "--out", "records.csv"],
            "preprocess": ["--records", "records.csv", "--feature-set", "tt12",
                           "--out", "matrix.ocm"],
            "train": ["--matrix", "matrix.ocm", "--train-config", self.train_cfg,
                      "--workers", "1", "--out-dir", "model"],
            "eval": ["--model", "model", "--matrix", "matrix.ocm", "--out-dir", "eval"],
            "infer": ["--model", "model", "--input-file", self.vector_file],
        }[step]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ocon.cli", step, *argv], cwd=d,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        ok = tally.op(proc.returncode == 0,
                      f"ocon {step} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return wall, proc.stdout if ok else None

    def serve(self, tally, model):
        """Closed loop of single raw vectors, then full-batch calls."""
        n = len(self.vectors)
        single_s, single_pred = [], []
        for i in range(SINGLE_CALLS):
            vec = self.vectors[i % n]
            t0 = time.perf_counter()
            try:
                _, label = ens.infer(model, vec)
            except (ocon.OconError, ValueError) as err:
                tally.op(False, f"single infer raised {type(err).__name__}")
                continue
            single_s.append(time.perf_counter() - t0)
            single_pred.append(label)
            tally.op(True)
        batch_s, predicted = [], None
        for _ in range(BATCH_CALLS):
            t0 = time.perf_counter()
            try:
                _, predicted = ens.infer(model, self.vectors)
            except (ocon.OconError, ValueError) as err:
                tally.op(False, f"batch infer raised {type(err).__name__}")
                continue
            batch_s.append(time.perf_counter() - t0)
            tally.op(True)
        return single_s, single_pred, batch_s, predicted

    def run_pass(self, tally, tag):
        d = fresh_dir(self.workdir, tag)
        cli_s, infer_out = {}, None
        for step in CLI_STEPS:
            cli_s[step], stdout = self._cli(tally, d, step)
            if stdout is None:
                return None
            infer_out = stdout
        model_dir = os.path.join(d, "model")
        model = ens.load_ensemble(model_dir)
        matrix = feat.load_matrix(os.path.join(d, "matrix.ocm"))
        evaluation = ens.evaluate_ensemble(model, matrix)
        single_s, single_pred, batch_s, predicted = self.serve(tally, model)

        cli_pred = np.array([int(line.rsplit(",", 2)[1])
                             for line in infer_out.splitlines() if line])
        n = len(self.vectors)
        expected = np.argmax(evaluation.scores, axis=1)
        tally.op(predicted is not None and np.array_equal(cli_pred, predicted)
                 and np.array_equal(predicted, expected),
                 "CLI infer, in-process infer and evaluate_ensemble labels differ")
        tally.op(predicted is not None and len(single_pred) == SINGLE_CALLS and all(
            single_pred[i] == predicted[i % n] for i in range(SINGLE_CALLS)),
            "single-vector labels differ from batch labels")

        with open(os.path.join(model_dir, "train_reports.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
        hashes = hash_files(model_dir, member_files(model_dir))
        hashes.update(hash_files(os.path.join(d, "eval"), ["det.csv", "confusion.csv"]))
        return PassResult(
            wall_s=sum(cli_s.values()), train_rows=sum(rows_trained(r) for r in reports),
            train_s=cli_s["train"], ops=single_s,
            mean_test_accuracy_pct=float(np.mean([r["test_accuracy"] for r in reports])),
            fingerprint=hashes,
            extra={"cli_s": cli_s, "argmax_accuracy_pct": evaluation.argmax_accuracy,
                   "batch_rows_per_s": n * len(batch_s) / sum(batch_s) if batch_s else 0.0})

    def issue_metrics(self, passes):
        single = np.concatenate([p.ops for p in passes])
        return {"pipeline_wall_s": (median([p.wall_s for p in passes]), "s"),
                "infer_single_p50_us": (float(np.percentile(single, 50)) * 1e6, "us"),
                "infer_single_p99_us": (float(np.percentile(single, 99)) * 1e6, "us"),
                "infer_single_samples": (len(single), "count"),
                "infer_batch_rows_per_s": (median([p.extra["batch_rows_per_s"] for p in passes]),
                                           "1/s"),
                "argmax_accuracy_pct": (passes[0].extra["argmax_accuracy_pct"], "%")}

    def mirror(self, tally, d):
        """The CLI chain's library calls, in-process; returns (wall, hashes)."""
        t0 = time.perf_counter()
        records = ds.load_dataset(self.dat)
        ds.write_records_csv(records, os.path.join(d, "records.csv"))
        records = ds.read_records_csv(os.path.join(d, "records.csv"))
        matrix, _ = feat.build_feature_matrix(records, TT12)
        feat.save_matrix(matrix, os.path.join(d, "matrix.ocm"))
        matrix = feat.load_matrix(os.path.join(d, "matrix.ocm"))
        model, _ = ens.train_ensemble(matrix, MlpConfig.tuned(TT12.dim), PIPELINE_TC, workers=1)
        model_dir = os.path.join(d, "model")
        ens.save_ensemble(model, model_dir)
        model = ens.load_ensemble(model_dir)
        met.report_tables(model, matrix).write_csv(os.path.join(d, "eval"))
        self.serve(tally, model)
        return time.perf_counter() - t0, hash_files(model_dir, member_files(model_dir))

    def trace_run(self, tally, rec, speed):
        base = self.run_pass(tally, "untraced")
        startup = []
        for _ in range(3):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import ocon.cli"], env=child_env(),
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            startup.append(time.perf_counter() - t0)
            tally.op(proc.returncode == 0, "import ocon.cli failed")
        (plain_s, plain_hashes), plain_f = speed.around(
            lambda: self.mirror(tally, fresh_dir(self.workdir, "mirror")))
        (traced_s, traced_hashes), traced_f = speed.around(
            lambda: traced(rec, self.mirror, tally, fresh_dir(self.workdir, "mirror-traced")))
        out = {"cli.startup_s": median(startup),
               "trace.overhead_share": traced_s * traced_f / (plain_s * plain_f) - 1.0}
        tally.op(traced_hashes == plain_hashes, "traced mirror checkpoints differ")
        if base is not None:
            tally.op(all(plain_hashes[k] == base.fingerprint[k] for k in plain_hashes),
                     "in-process checkpoints differ from the CLI's")
            out.update({f"cli.{step}_s": s for step, s in base.extra["cli_s"].items()})
        return out


WORKLOADS = {w.name: w for w in (EnsembleTrain, SearchStage1, PipelineServe)}
