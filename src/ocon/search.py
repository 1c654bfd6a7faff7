"""Informed iterative grid search over architecture and learning HPs.

Each stage fixes part of the configuration, sweeps a small grid over the
rest, scores every combination on every class with k-fold validation, and
ranks by mean accuracy (ties: lower mean training time, then grid order).
The four preset stages mirror the reference experiment ladder:
topology/optimizer/learning-rate, dropout, batch-norm with a learning-rate
recheck, and L2 weight decay.  ``run_stage`` runs the stage it is given;
``ocon search --inherit`` overlays earlier winners onto its fixed values
(grid > inherited > stage fixed > defaults) and writes them, updated by the
stage's winner, to ``<out>.selected.cfg`` for the next stage.

A search task (``_run_cell``) is one grid combination, or a run of its
classes when combinations are fewer than workers (``training.fan_out``):
its class x fold cycles go through one lockstep engine call
(``training._run_cycle``), which steps cycles of equal training-split size
together.  Each class is planned on its own, so a class the data cannot
support scores -inf without touching the others.  Each (combination, class)
cell derives its own seed from (stage seed, combination, class), so results
are identical for any worker count or scheduling order.
"""

import csv
import io
import itertools
from dataclasses import dataclass, field, replace

from .configfile import build, load_config
from .errors import OconError
from .mlp import MlpConfig
from .training import KFoldResult, TrainConfig, _run_cycle, fan_out, plan_k_fold
from .util import derive_seed


@dataclass(frozen=True)
class SearchStage:
    """One heuristic stage: fixed HP fragment plus a grid to sweep."""

    name: str
    fixed: dict
    grid: dict              # hp name -> list of candidate values, order kept
    k_folds: int
    epochs: int

    def __post_init__(self):
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ValueError("grid must be non-empty")
        if self.k_folds < 2 or self.epochs < 1:
            raise ValueError("a stage needs k_folds >= 2 and epochs >= 1")

    @property
    def n_combinations(self):
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    def cycle_count(self, n_classes):
        return self.n_combinations * n_classes * self.k_folds

    def combinations(self):
        """Grid points in declared-key lexicographic order."""
        keys = list(self.grid)
        for values in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, values))

    @classmethod
    def from_file(cls, path):
        """The stage file (``configfile.build``); each grid point must make an
        ``MlpConfig``."""
        raw = {"name": "custom", "fixed": {}, "grid": {}, "k_folds": 3, "epochs": 1000,
               **load_config(path)}
        if isinstance(raw["grid"], dict):
            raw["grid"] = {k: (v if isinstance(v, list) else [v]) for k, v in raw["grid"].items()}
        try:
            stage = build(cls, raw, "stage")
            for hps in stage.combinations():
                hp_to_mlp_config({**stage.fixed, **hps}, 1)
        except OconError as err:
            raise OconError(f"{path}: {err}") from None
        return stage


def desk_scale(stage, factor):
    """Shrink folds and epochs by ``factor`` for desk-scale runs (CI, demos);
    a factor below 1 raises ValueError."""
    if factor < 1:
        raise ValueError(f"desk-scale factor must be >= 1, got {factor}")
    if factor == 1:
        return stage
    return replace(stage, k_folds=max(2, stage.k_folds // factor),
                   epochs=max(1, stage.epochs // factor))


def stage_presets():
    """The four-stage heuristic ladder with inherited best estimates."""
    stage1 = SearchStage(
        name="stage1_topology_optimizer_lr",
        fixed={"hidden_layers": 1, "batch_size": 32, "batch_norm": False,
               "dropout_keep_input": 1.0, "dropout_keep_hidden": 1.0, "l2_lambda": 0.0},
        grid={"hidden_nodes": [10, 50, 100],
              "optimizer": ["adam", "rmsprop"],
              "learning_rate": [1e-3, 1e-4, 1e-5]},
        k_folds=3, epochs=1000)
    stage2 = SearchStage(
        name="stage2_dropout",
        fixed={"hidden_layers": 1, "hidden_nodes": 100, "optimizer": "adam",
               "learning_rate": 1e-4, "batch_size": 32, "batch_norm": False,
               "l2_lambda": 0.0},
        grid={"dropout_keep_input": [0.8, 0.9],
              "dropout_keep_hidden": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]},
        k_folds=6, epochs=3000)
    stage3 = SearchStage(
        name="stage3_batch_norm_lr",
        fixed={"hidden_layers": 1, "hidden_nodes": 100, "optimizer": "adam",
               "batch_size": 32, "dropout_keep_input": 0.8,
               "dropout_keep_hidden": 0.5, "l2_lambda": 0.0},
        grid={"learning_rate": [1e-3, 1e-4, 1e-5], "batch_norm": [True]},
        k_folds=10, epochs=1000)
    stage4 = SearchStage(
        name="stage4_l2",
        fixed={"hidden_layers": 1, "hidden_nodes": 100, "optimizer": "adam",
               "learning_rate": 1e-4, "batch_size": 32, "batch_norm": True,
               "dropout_keep_input": 0.8, "dropout_keep_hidden": 0.5},
        grid={"l2_lambda": [1e-2, 1e-3, 1e-4]},
        k_folds=10, epochs=1000)
    return (stage1, stage2, stage3, stage4)


def hp_to_mlp_config(hps, input_dim, seed=0):
    """Flat hp dict -> MlpConfig.  ``hidden_nodes``/``hidden_layers`` expand
    into the hidden width tuple; the other keys go to ``configfile.build``,
    so a misspelt one or a value of the wrong type raises OconError."""
    raw = {"hidden_layers": 1, "hidden_nodes": 100, **hps}
    layers, nodes = raw.pop("hidden_layers"), raw.pop("hidden_nodes")
    if {"input_dim", "seed"} & set(raw):
        raise OconError("input_dim and seed are not hyperparameters")
    if type(layers) is not int or type(nodes) is not int:
        raise OconError(f"hidden_layers {layers!r} and hidden_nodes {nodes!r} must be ints")
    if not 0 <= layers <= 64:       # a typo must not expand into a huge width tuple
        raise OconError(f"hidden_layers = {layers} is not in 0..64")
    return build(MlpConfig, {**raw, "input_dim": input_dim, "seed": seed,
                             "hidden_layers": (nodes,) * layers}, "hyperparameters")


@dataclass
class CombinationResult:
    index: int
    hps: dict
    mean_accuracy: float            # -inf when any cell diverged
    mean_time: float
    per_class: dict                 # class name -> (accuracy, time)
    #: class name -> why its cell failed: the OconError class name, or
    #: "diverged"; not part of the ranked CSV
    failures: dict = field(default_factory=dict)

    @property
    def diverged(self):
        return bool(self.failures)


@dataclass
class SearchResult:
    stage_name: str
    rows: list

    @property
    def ranked(self):
        """Rows by descending accuracy; equal accuracies keep grid order.

        Wall-clock time deliberately does not influence this ordering so the
        persisted CSV is byte-identical across reruns and worker counts.
        """
        return sorted(self.rows, key=lambda r: (-r.mean_accuracy, r.index))

    @property
    def selected(self):
        """Winning combination: best accuracy, ties by lower mean training
        time, then grid order."""
        return min(self.rows, key=lambda r: (-r.mean_accuracy, r.mean_time, r.index))

    def to_csv_text(self):
        """Ranked CSV of the deterministic columns (no wall-clock values)."""
        out = io.StringIO()
        hp_names = list(self.rows[0].hps) if self.rows else []
        class_names = sorted(self.rows[0].per_class) if self.rows else []
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rank", "combo_index", *hp_names, "mean_accuracy",
                         "diverged", *(f"acc_{c}" for c in class_names)])
        for rank, row in enumerate(self.ranked, start=1):
            writer.writerow([
                rank, row.index, *(repr(row.hps[k]) for k in hp_names),
                repr(row.mean_accuracy), int(row.diverged),
                *(repr(row.per_class[c][0]) for c in class_names)])
        return out.getvalue()

    def times_csv_text(self):
        """Measured mean training seconds per combination (nondeterministic)."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["combo_index", "mean_time_sec"])
        for row in sorted(self.rows, key=lambda r: r.index):
            writer.writerow([row.index, repr(row.mean_time)])
        return out.getvalue()

    def write_csv(self, path):
        """The ranked CSV at ``path`` and the times CSV at ``<path>.times.csv``."""
        for target, text in ((path, self.to_csv_text()),
                             (path + ".times.csv", self.times_csv_text())):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)


def _run_cell(matrix, stage, mlp_cfg, combo_index, stage_seed, class_ids):
    """One grid combination's ``MlpConfig`` on a run of class ids: every
    class x fold cycle of it, trained by one engine call.  Returns one
    (accuracy, seconds, failure) per class id; ``failure`` is None, the class
    name of the OconError that stopped the class's planning, or "diverged"."""
    plans, outcomes = {}, {}
    for class_id in class_ids:
        cell_seed = derive_seed(stage_seed, "cell", combo_index, class_id)
        train_cfg = TrainConfig(
            epochs_per_batch_set=stage.epochs, max_batch_sets=1, k_folds=stage.k_folds,
            seed=derive_seed(cell_seed, "train"))
        try:
            plans[class_id] = plan_k_fold(
                matrix, class_id, replace(mlp_cfg, seed=derive_seed(cell_seed, "init")),
                train_cfg)
        except OconError as err:
            # a class the data cannot support (too few samples, hopeless
            # balance) must not kill the stage; it ranks last.  Programming
            # errors propagate.
            outcomes[class_id] = (float("-inf"), 0.0, type(err).__name__)
    cycles = [cycle for plan in plans.values() for cycle in plan]
    trained = iter(_run_cycle(matrix, cycles) if cycles else ())
    for class_id, plan in plans.items():
        result = KFoldResult.of([report for _, report in itertools.islice(trained, len(plan))])
        accuracy = float("-inf") if result.diverged else result.mean_accuracy
        outcomes[class_id] = (accuracy, result.mean_seconds,
                              "diverged" if result.diverged else None)
    return [outcomes[class_id] for class_id in class_ids]


def run_stage(matrix, stage, seed=0, workers=1):
    """Sweep a stage's grid over every class of ``matrix.class_names`` and
    rank the combinations.

    Each combination is ``stage.fixed`` updated by its grid point, built
    into an ``MlpConfig`` once (earlier winners arrive in ``fixed``).
    Heuristic cycles run a single batch-set of ``stage.epochs`` epochs with
    no early stopping.  Failed cells score -inf instead of aborting, and each
    row's ``failures`` says why.  Combinations go to ``training.fan_out``
    widest network first (hidden nodes x hidden layers, then grid order), so
    the costliest tasks do not run last and alone; rows are assembled in
    grid order whatever the finishing order.
    """
    points = list(stage.combinations())
    configs = [hp_to_mlp_config({**stage.fixed, **hps}, matrix.feature_set.dim)
               for hps in points]
    order = sorted(range(len(configs)), key=lambda ci: (-sum(configs[ci].hidden_layers), ci))
    units = [(matrix, stage, configs[ci], ci, seed) for ci in order]
    cells = dict(zip(order, fan_out(_run_cell, units, matrix.n_classes, workers)))

    rows = []
    for ci, hps in enumerate(points):
        accs, times, failures = zip(*cells[ci])
        rows.append(CombinationResult(
            index=ci, hps=hps,
            mean_accuracy=float("-inf") if any(failures) else sum(accs) / len(accs),
            mean_time=sum(times) / len(times),
            per_class={name: (acc, t) for name, acc, t in zip(matrix.class_names, accs, times)},
            failures={name: why for name, why in zip(matrix.class_names, failures) if why}))
    return SearchResult(stage_name=stage.name, rows=rows)
