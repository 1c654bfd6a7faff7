"""In-memory span recorder and the wrappers that feed it.

The recorder wraps the public functions of the ``ocon`` modules from the
outside: it replaces every module attribute bound to a target function with
a wrapper that opens a span on entry and closes it on exit.  Nothing in the
package changes; uninstalling puts the original objects back.

Spans are kept in flat arrays (name id, parent index, start, end) so a traced
grid search of a few hundred thousand minibatch steps stays a few MB.  Self
time is a span's duration minus the time its children cover; the recorder
runs in one thread, so children never overlap and their durations add up.
"""

import contextlib
import functools
import os
import re
import time
import warnings
from array import array
from collections import Counter

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack = []

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counters[key] += n

    def table(self):
        """``SpanTable`` of everything recorded so far."""
        return SpanTable(self.names, np.frombuffer(self.name_id, dtype=np.int32),
                         np.frombuffer(self.parent, dtype=np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end))

    def write(self, path):
        """Spans and counters as one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end),
            counter_keys=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]))


class SpanTable:
    """Recorded spans with per-span duration, self time and root span."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id)
        self.parent = np.asarray(parent)
        self.duration = np.asarray(end) - np.asarray(start)
        n = len(self.duration)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - covered[:n]
        root = np.arange(n)
        while n and np.any(self.parent[root] >= 0):
            up = self.parent[root]
            root = np.where(up >= 0, up, root)
        self.root = root

    def mask(self, match):
        """Boolean mask of spans whose name satisfies ``match(name)``."""
        hit = np.array([bool(match(name)) for name in self.names], dtype=bool)
        if not len(hit):
            return np.zeros(len(self.name_id), dtype=bool)
        return hit[self.name_id]

    def named(self, *names):
        wanted = set(names)
        return self.mask(lambda name: name in wanted)

    def prefixed(self, prefix):
        return self.mask(lambda name: name == prefix or name.startswith(prefix + ":"))


def mean_of(values, scale=1.0):
    """Mean times ``scale``; 0.0 for a layer the run never entered."""
    return float(np.mean(values)) * scale if len(values) else 0.0


def median_of(values, scale=1.0):
    return float(np.median(values)) * scale if len(values) else 0.0


class Patches:
    """Replaces functions in every ``ocon`` module that binds them."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        targets = [owner] + [m for m in self.modules
                             if m is not owner and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def undo(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def spanned(rec, name_of):
    """Wrapper factory: one span per call, named by ``name_of(args, kwargs)``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper
    return make


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def install(rec):
    """Wrap the traced ``ocon`` functions; returns the ``Patches`` to undo."""
    import ocon
    from ocon import (balancer, container, dataset, ensemble, features, metrics,
                      mlp, search, training)

    patches = Patches([ocon, balancer, container, dataset, ensemble, features,
                       metrics, mlp, search, training])

    def fixed(name):
        return spanned(rec, lambda args, kwargs: name)

    def by_optimizer(name, config_pos):
        def name_of(args, kwargs):
            return f"{name}:{_arg(args, kwargs, config_pos, 'config').optimizer}"
        return spanned(rec, name_of)

    def forward_name(args, kwargs):
        mode = _arg(args, kwargs, 3, "mode", "infer")
        if mode != "train":
            return "mlp.forward.infer"
        return f"mlp.forward.train:{_arg(args, kwargs, 1, 'config').optimizer}"

    def infer_name(args, kwargs):
        ndim = np.ndim(_arg(args, kwargs, 1, "vector"))
        return "ensemble.infer.single" if ndim == 1 else "ensemble.infer.batch"

    def counted_step(fn):
        wrapped = by_optimizer("mlp.loss_and_grads", 1)(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            if _arg(args, kwargs, 5, "mode", "train") == "train":
                rec.count("mlp.train_rows", len(_arg(args, kwargs, 3, "labels")))
            return out
        return wrapper

    def counted_write(fn):
        wrapped = fixed("container.write_container")(fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = wrapped(path, *args, **kwargs)
            rec.count("container.bytes_written", os.path.getsize(path))
            return out
        return wrapper

    patches.replace(mlp, "forward", spanned(rec, forward_name))
    patches.replace(mlp, "loss_and_grads", counted_step)
    patches.replace(mlp, "optimizer_step", by_optimizer("mlp.optimizer_step", 2))
    patches.replace(mlp, "predict_proba", fixed("mlp.predict_proba"))
    patches.replace(mlp, "binary_accuracy", fixed("mlp.binary_accuracy"))
    patches.replace(training, "_run_cycle", fixed("training.cycle"))
    patches.replace(training, "_stratified_split", fixed("training.split"))
    patches.replace(training, "k_fold_evaluate", fixed("training.k_fold_evaluate"))
    patches.replace(balancer, "build_balanced_subset", fixed("balancer.build_balanced_subset"))
    patches.replace(search, "run_stage", fixed("search.run_stage"))
    patches.replace(search, "_run_cell", fixed("search.cell"))
    patches.replace(ensemble, "train_ensemble", fixed("ensemble.train_ensemble"))
    patches.replace(ensemble, "infer", spanned(rec, infer_name))
    patches.replace(ensemble, "evaluate_ensemble", fixed("ensemble.evaluate_ensemble"))
    patches.replace(ensemble, "save_ensemble", fixed("ensemble.save_ensemble"))
    patches.replace(ensemble, "load_ensemble", fixed("ensemble.load_ensemble"))
    patches.replace(features, "build_feature_matrix", fixed("features.build_feature_matrix"))
    patches.replace(features.ScalingRecord, "apply", fixed("features.scaling_apply"))
    patches.replace(features, "save_matrix", fixed("features.save_matrix"))
    patches.replace(features, "load_matrix", fixed("features.load_matrix"))
    patches.replace(dataset, "load_dataset", fixed("dataset.load_dataset"))
    patches.replace(dataset, "write_records_csv", fixed("dataset.write_records_csv"))
    patches.replace(dataset, "read_records_csv", fixed("dataset.read_records_csv"))
    patches.replace(container, "write_container", counted_write)
    patches.replace(container, "read_container", fixed("container.read_container"))
    patches.replace(metrics, "report_tables", fixed("metrics.report_tables"))
    patches.replace(metrics, "roc_auc", fixed("metrics.roc_auc"))
    return patches


@contextlib.contextmanager
def recording(rec):
    """Wrappers installed and BalanceWarnings counted for the ``with`` body."""
    from ocon.balancer import BalanceWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BalanceWarning)
        patches = install(rec)
        try:
            yield rec
        finally:
            patches.undo()
            rec.count("balancer.balance_warnings",
                      sum(issubclass(w.category, BalanceWarning) for w in caught))


def layer_metrics(table, counters):
    """Per-layer metrics derivable from the spans of one traced run.

    Times are the mean per call (``_us``/``_s``) unless the name says p50;
    a layer the run never entered reports 0.
    """
    out = {}
    dur, own = table.duration, table.self_time
    optimizers = ("adam", "rmsprop")

    def split(metric, span, values, scale):
        out[metric] = mean_of(values[table.prefixed(span)], scale)
        for opt in optimizers:
            out[f"{metric}.{opt}"] = mean_of(values[table.named(f"{span}:{opt}")], scale)

    steps = table.prefixed("mlp.optimizer_step")
    out["mlp.steps"] = int(steps.sum())
    for opt in optimizers:
        out[f"mlp.steps.{opt}"] = int(table.named(f"mlp.optimizer_step:{opt}").sum())
    split("mlp.forward_train_us", "mlp.forward.train", dur, 1e6)
    split("mlp.backward_us", "mlp.loss_and_grads", own, 1e6)
    split("mlp.optimizer_step_us", "mlp.optimizer_step", dur, 1e6)
    out["mlp.forward_infer_us"] = mean_of(dur[table.named("mlp.predict_proba")], 1e6)

    cycle = table.named("training.cycle")
    out["training.cycle_s"] = mean_of(dur[cycle])
    out["training.loop_self_share"] = (float(own[cycle].sum() / dur[cycle].sum())
                                       if cycle.any() else 0.0)
    out["training.split_us"] = mean_of(dur[table.named("training.split")], 1e6)
    in_cycle = np.isin(table.parent, np.flatnonzero(cycle))
    out["training.held_out_checks"] = int(
        (table.named("mlp.binary_accuracy") & in_cycle).sum())
    out["training.kfold_s"] = mean_of(dur[table.named("training.k_fold_evaluate")])

    subset = table.named("balancer.build_balanced_subset")
    out["balancer.subset_calls"] = int(subset.sum())
    out["balancer.subset_us"] = mean_of(dur[subset], 1e6)
    out["balancer.balance_warnings"] = int(counters.get("balancer.balance_warnings", 0))

    cells = table.named("search.cell")
    out["search.cells"] = int(cells.sum())
    out["search.cell_s_p50"] = median_of(dur[cells])

    for metric, span, scale in (
            ("ensemble.train_s", "ensemble.train_ensemble", 1.0),
            ("ensemble.infer_single_us", "ensemble.infer.single", 1e6),
            ("ensemble.infer_batch_us", "ensemble.infer.batch", 1e6),
            ("ensemble.evaluate_s", "ensemble.evaluate_ensemble", 1.0),
            ("ensemble.save_s", "ensemble.save_ensemble", 1.0),
            ("ensemble.load_s", "ensemble.load_ensemble", 1.0),
            ("features.build_feature_matrix_s", "features.build_feature_matrix", 1.0),
            ("features.scaling_apply_us", "features.scaling_apply", 1e6),
            ("dataset.load_dataset_s", "dataset.load_dataset", 1.0),
            ("dataset.write_records_csv_s", "dataset.write_records_csv", 1.0),
            ("dataset.read_records_csv_s", "dataset.read_records_csv", 1.0),
            ("container.write_s", "container.write_container", 1.0),
            ("container.read_s", "container.read_container", 1.0),
            ("metrics.report_tables_s", "metrics.report_tables", 1.0),
            ("metrics.roc_auc_us", "metrics.roc_auc", 1e6)):
        out[metric] = mean_of(dur[table.named(span)], scale)
    out["container.bytes_written"] = int(counters.get("container.bytes_written", 0))

    # share of ensemble training wall time that mlp and training self time
    # explain; the rest is ensemble/balancer bookkeeping and tracing itself
    trains = np.flatnonzero(table.named("ensemble.train_ensemble"))
    if len(trains):
        inside = np.isin(table.root, trains) & (
            table.mask(lambda n: n.startswith(("mlp.", "training."))))
        out["trace.train_accounted_share"] = float(own[inside].sum() / dur[trains].sum())
    else:
        out["trace.train_accounted_share"] = 0.0
    return out
