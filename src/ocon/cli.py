"""Command-line entry point: ocon <command> [flags].

Commands wire the pipeline end to end: ``ingest`` decodes a measurement
file, ``preprocess`` builds a scaled feature matrix, ``search`` runs a
heuristic grid stage and writes the winners so far as ``<out>.selected.cfg``
(for the next ``--inherit``, or ``train --mlp-config``), ``train`` fits the
bank, ``eval`` produces the report tables, ``infer`` scores feature vectors,
and ``report`` summarizes run manifests.  Config files use the plain ``key =
value`` grammar; flags override file values, and the merged effective
config is echoed into the run manifest.

Each command imports what only it needs in its own body, so it pays the
start-up of its own work alone: ``ingest`` and ``report`` load ``dataset``,
``manifest`` and ``configfile`` and no numpy; ``preprocess`` adds numpy and
``features``; ``train`` and ``infer`` add the model modules (``mlp``,
``ensemble``, and ``training`` for ``train``); only ``eval`` loads
``metrics`` and only ``search`` loads ``search``.

Exit codes: 0 success, 1 domain error (the error class name is printed on
stderr as ``ERROR <Name>: ...``), 2 usage error, 3 missing file.
"""

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import __version__
from .configfile import build, load_config
from .dataset import (
    ClassStats,
    ColumnLayout,
    FeatureSetKind,
    class_statistics,
    filter_usable,
    load_dataset,
    read_records_csv,
    write_records_csv,
)
from .errors import MalformedRow, OconError
from .manifest import RunManifest, summarize_manifests
from .util import read_text

_FEATURE_SETS = {kind.value: kind for kind in FeatureSetKind}


def cmd_ingest(args):
    layout = ColumnLayout.from_file(args.layout) if args.layout else ColumnLayout.hgcw_bigdata()
    manifest = RunManifest("ingest", {"data": args.data, "layout": args.layout},
                           master_seed=0)
    manifest.add_input(args.data)
    records = load_dataset(args.data, layout)
    write_records_csv(records, args.out)
    stats = class_statistics(records)
    stats_path = args.out + ".stats.txt"
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write(f"rows: {len(records)}\n\n")
        fh.write(stats.format_table())
    manifest.add_output(args.out)
    manifest.add_output(stats_path)
    manifest.write(os.path.dirname(os.path.abspath(args.out)))
    print(f"ingested {len(records)} rows -> {args.out}")
    return 0


def cmd_preprocess(args):
    from .features import SCALING_MODE, build_feature_matrix, save_matrix

    kind = _FEATURE_SETS[args.feature_set]
    manifest = RunManifest("preprocess", {
        "records": args.records, "feature_set": args.feature_set,
        "exclude_children": args.exclude_children}, master_seed=0)
    manifest.add_input(args.records)
    records = read_records_csv(args.records)
    if args.exclude_children:
        records = [r for r in records if r.group.value in ("m", "w")]
    matrix, dropped = build_feature_matrix(records, kind)
    save_matrix(matrix, args.out)
    kept_stats = ClassStats.tally(zip(matrix.labels.tolist(), matrix.groups.tolist()))
    stats_path = args.out + ".stats.txt"
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write(f"usable rows: {matrix.n_rows}\ndropped rows: {len(dropped)}\n")
        fh.write(f"feature set: {kind.value} (dim {kind.dim})\n")
        fh.write(f"scaling mode: {SCALING_MODE}\n")
        for i, name in enumerate(kind.component_names):
            fh.write(f"  {name}: lo={matrix.scaling.lo[i]!r} hi={matrix.scaling.hi[i]!r}\n")
        fh.write("\n" + kept_stats.format_table())
    outputs = [args.out, stats_path]
    if args.projection:
        outputs += _write_projections(records, args.projection)
    for path in outputs:
        manifest.add_output(path)
    manifest.extra["usable_rows"] = matrix.n_rows
    manifest.extra["dropped_rows"] = len(dropped)
    manifest.write(os.path.dirname(os.path.abspath(args.out)))
    print(f"kept {matrix.n_rows} rows, dropped {len(dropped)} -> {args.out}")
    return 0


def _write_projections(records, prefix):
    """2-D (F1/F0, F2/F0) scatters, one file per scaling variant."""
    from .features import build_feature_matrix, ratio_matrix

    kind = FeatureSetKind.SS3
    raw = ratio_matrix(filter_usable(records, kind)[0], kind)
    matrix, _ = build_feature_matrix(records, kind)
    paths = []
    for tag, points in (("raw", raw[:, :2]), ("scaled", matrix.values[:, :2])):
        path = f"{prefix}_{tag}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,x_f1_ratio,y_f2_ratio\n")
            for label, (x, y) in zip(matrix.labels, points):
                fh.write(f"{label},{x!r},{y!r}\n")
        paths.append(path)
    return paths


def _load_stage(spec_text):
    from .search import SearchStage, stage_presets

    if spec_text.startswith("preset:"):
        name = spec_text.split(":", 1)[1]
        presets = {f"stage{i + 1}": s for i, s in enumerate(stage_presets())}
        if name not in presets:
            raise OconError(f"unknown preset {name!r}; use stage1..stage4")
        return presets[name]
    return SearchStage.from_file(spec_text)


def _task_matrix(args):
    """The matrix file, relabelled by speaker group for ``--task speaker``."""
    from .features import load_matrix, speaker_view

    matrix = load_matrix(args.matrix)
    return speaker_view(matrix) if args.task == "speaker" else matrix


def cmd_search(args):
    from .configfile import save_config
    from .search import desk_scale, run_stage

    stage = desk_scale(_load_stage(args.stage), args.desk_scale)
    manifest = RunManifest("search", {
        "matrix": args.matrix, "stage": args.stage, "inherit": args.inherit,
        "desk_scale": args.desk_scale, "workers": args.workers, "task": args.task},
        master_seed=args.seed)
    inherited = load_config(args.inherit) if args.inherit else {}
    # grid > inherited > stage fixed > defaults
    stage = replace(stage, fixed={**stage.fixed, **inherited})
    if args.inherit:
        stage.configs(1, f"{args.inherit}: hyperparameters")
    stage_file = None if args.stage.startswith("preset:") else args.stage
    for path in filter(None, (args.inherit, stage_file, args.matrix)):
        manifest.add_input(path)
    matrix = _task_matrix(args)
    result = run_stage(matrix, stage, seed=args.seed, workers=args.workers)
    result.write_csv(args.out)
    best = result.selected
    # everything chosen so far, in the config grammar, for the next --inherit
    selected = {**inherited, **best.hps}
    save_config(selected, args.out + ".selected.cfg")
    for suffix in ("", ".times.csv", ".selected.cfg"):
        manifest.add_output(args.out + suffix)
    manifest.extra["selected"] = {k: repr(v) for k, v in selected.items()}
    manifest.extra["failed_cells"] = {str(row.index): row.failures
                                      for row in result.rows if row.failures}
    manifest.extra["selected_accuracy"] = best.mean_accuracy
    manifest.extra["cycles"] = stage.cycle_count(matrix.n_classes)
    manifest.write(os.path.dirname(os.path.abspath(args.out)))
    print(f"stage {stage.name}: {len(result.rows)} combinations -> {args.out}")
    print(f"selected {best.hps} (mean accuracy {best.mean_accuracy:.2f}%)")
    return 0


def _mlp_config_from(args, input_dim):
    from .mlp import MlpConfig

    cfg = (MlpConfig.from_hps(load_config(args.mlp_config), input_dim, args.mlp_config)
           if args.mlp_config else MlpConfig.tuned(input_dim))
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _train_config_from(args):
    from .training import EarlyStopRule, TrainConfig

    if args.train_config:
        raw = load_config(args.train_config)
        if "k_folds" in raw:
            raise OconError(f"{args.train_config}: k_folds is a stage key; train never folds")
        if isinstance(raw.get("early_stop"), dict):
            raw["early_stop"] = build(EarlyStopRule, raw["early_stop"],
                                      f"{args.train_config}: early_stop")
        tc = build(TrainConfig, raw, args.train_config)
    else:
        tc = TrainConfig(early_stop=EarlyStopRule(0.15, 95.0))
    if args.seed is not None:
        tc = replace(tc, seed=args.seed)
    return tc


def cmd_train(args):
    from .ensemble import save_ensemble, train_ensemble

    matrix = _task_matrix(args)
    mlp_cfg = _mlp_config_from(args, matrix.feature_set.dim)
    train_cfg = _train_config_from(args)
    manifest = RunManifest("train", {
        "matrix": args.matrix, "task": args.task,
        "mlp": asdict(mlp_cfg), "train": asdict(train_cfg)},
        master_seed=train_cfg.seed)
    manifest.add_input(args.matrix)
    model, reports = train_ensemble(matrix, mlp_cfg, train_cfg, workers=args.workers)
    save_ensemble(model, args.out_dir)
    report_path = os.path.join(args.out_dir, "train_reports.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
    manifest.add_output(os.path.join(args.out_dir, "ensemble.json"))
    manifest.add_output(report_path)
    mean_acc = sum(r.test_accuracy for r in reports) / len(reports)
    manifest.extra["mean_test_accuracy"] = mean_acc
    manifest.write(args.out_dir)
    for r in reports:
        print(f"{r.class_name:<10} acc {r.test_accuracy:6.2f}%  "
              f"{r.train_seconds:7.2f}s  {r.stop_reason}")
    print(f"mean one-class test accuracy: {mean_acc:.2f}% -> {args.out_dir}")
    return 0


def cmd_eval(args):
    from .ensemble import load_ensemble
    from .features import SPEAKER_CLASS_NAMES, load_matrix, speaker_view
    from .metrics import report_tables

    manifest = RunManifest("eval", {"model": args.model, "matrix": args.matrix},
                           master_seed=0)
    manifest.add_input(args.matrix)
    model = load_ensemble(args.model)
    matrix = load_matrix(args.matrix)
    if model.class_names == SPEAKER_CLASS_NAMES:
        matrix = speaker_view(matrix)
    tables = report_tables(model, matrix)
    print(tables.accuracy_text())
    print(tables.det_text())
    if args.out_dir:
        tables.write_csv(args.out_dir)
        for name in ("accuracy.csv", "det.csv", "confusion.csv"):
            manifest.add_output(os.path.join(args.out_dir, name))
        manifest.write(args.out_dir)
    return 0


def _read_vectors(args):
    """The ``--input`` vector, or one vector per non-blank line of
    ``--input-file``.  A token that is not a number raises MalformedRow
    naming the line (line 1 for ``--input``); in the file, so do bytes that
    are not UTF-8, a non-finite token, or a row whose width differs from the
    first row's, and a file with no vector raises OconError naming it."""
    import numpy as np

    if not args.input_file:
        try:  # nan and inf parse, and infer refuses them as NonFiniteInput
            return np.array([[float(t) for t in args.input.replace(",", " ").split()]])
        except ValueError as err:
            raise MalformedRow(1, str(err)) from None
    rows = []
    lines = io.StringIO(read_text(args.input_file), newline=None)
    for line_no, line in enumerate(lines, start=1):
        tokens = line.replace(",", " ").split()
        if not tokens:
            continue
        try:
            row = [float(t) for t in tokens]
        except ValueError as err:
            raise MalformedRow(line_no, str(err)) from None
        if not all(map(math.isfinite, row)):
            token = next(t for t, v in zip(tokens, row) if not math.isfinite(v))
            raise MalformedRow(line_no, f"non-finite value {token!r}")
        if rows and len(row) != len(rows[0]):
            raise MalformedRow(line_no, f"{len(row)} values where the first row "
                                        f"has {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise OconError(f"{args.input_file} holds no feature vector")
    return np.array(rows, dtype=np.float64)


def cmd_infer(args):
    from .ensemble import infer, load_ensemble

    model = load_ensemble(args.model)
    logits, predicted = infer(model, _read_vectors(args), scaled=args.scaled)
    names = model.class_names
    rows = zip(logits.tolist(), predicted.tolist())
    if args.format == "jsonl":
        lines = [json.dumps({"logits": probs, "predicted": pred, "label": names[pred]})
                 for probs, pred in rows]
    else:
        lines = [",".join(map(repr, probs)) + f",{pred},{names[pred]}" for probs, pred in rows]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def cmd_report(args):
    paths = list(args.manifests)
    if args.dir:
        paths += [os.path.join(args.dir, f) for f in sorted(os.listdir(args.dir))
                  if f.startswith("manifest-") and f.endswith(".json")]
    if not paths:
        raise OconError("no manifests given")
    print(summarize_manifests(paths))
    return 0


def _positive_int(text):
    """argparse type of a count or factor of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocon",
        description="One-class-one-network workbench for formant-based recognition")
    parser.add_argument("--version", action="version", version=f"ocon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a measurement file into records")
    p.add_argument("--data", required=True)
    p.add_argument("--layout", help="column layout config (default: public distribution)")
    p.add_argument("--out", required=True, help="records CSV path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="build a scaled feature matrix")
    p.add_argument("--records", required=True)
    p.add_argument("--feature-set", choices=sorted(_FEATURE_SETS), default="tt12")
    p.add_argument("--exclude-children", action="store_true")
    p.add_argument("--projection", help="prefix for 2-D projection CSVs")
    p.add_argument("--out", required=True, help="matrix file path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("search", help="run one heuristic grid-search stage")
    p.add_argument("--matrix", required=True)
    p.add_argument("--stage", required=True,
                   help="preset:stage1..preset:stage4 or a stage file")
    p.add_argument("--inherit", help="config file with inherited best estimates")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--desk-scale", type=_positive_int, default=1,
                   help="shrink folds/epochs by this factor")
    p.add_argument("--task", choices=("phoneme", "speaker"), default="phoneme")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="ranked CSV path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train the one-class ensemble")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mlp-config", help="MLP config file (default: tuned setup)")
    p.add_argument("--train-config", help="training config file")
    p.add_argument("--task", choices=("phoneme", "speaker"), default="phoneme")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate an ensemble on a matrix")
    p.add_argument("--model", required=True, help="ensemble directory")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-dir", help="where to write CSV tables and ROC points")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="score feature vectors")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="comma/space separated feature vector")
    group.add_argument("--input-file", help="file with one vector per line")
    p.add_argument("--scaled", action="store_true",
                   help="inputs are already min-max scaled")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="summarize run manifests")
    p.add_argument("manifests", nargs="*")
    p.add_argument("--dir", help="scan a directory for manifest files")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"ERROR FileNotFoundError: {err}", file=sys.stderr)
        return 3
    except OconError as err:
        print(f"ERROR {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"ERROR {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
