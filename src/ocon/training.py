"""One-class training cycles: splits, mini-batch loop, early stopping, k-fold.

A cycle loops over batch-sets.  Each batch-set rebuilds the balanced subset
with a fresh derived seed (the re-shuffling that shows up as periodic spikes
in the loss curve), re-splits it 70/15/15, and runs up to
``epochs_per_batch_set`` epochs of mini-batch training.  After every epoch a
2-variable escape condition is checked: the rolling mean of the last 50
individual training-sample losses must fall below the loss threshold while
held-out accuracy meets the accuracy threshold.  The held-out split is dev by
default; ``escape_on_test=True`` reproduces the reference protocol, which
peeks at the test split (documented leakage, off by default).
"""

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .balancer import build_balanced_subset, speaker_balanced_subset
from .errors import NonFiniteLoss, TooFewSamples
from .mlp import (
    MlpModel,
    binary_accuracy,
    config_hash,
    init_params,
    loss_and_grads,
    optimizer_step,
)
from .util import derive_seed, rng_from, sha256_json


@dataclass(frozen=True)
class EarlyStopRule:
    """2-variable escape: rolling training loss below ``loss_threshold`` AND
    held-out accuracy (percent) at or above ``accuracy_threshold``."""

    loss_threshold: float
    accuracy_threshold: float
    loss_window: int = 50

    def __post_init__(self):
        if self.loss_window < 1:
            raise ValueError("loss_window must be >= 1")
        if not math.isfinite(self.loss_threshold) or not math.isfinite(self.accuracy_threshold):
            raise ValueError("thresholds must be finite")


@dataclass(frozen=True)
class TrainConfig:
    """Budget and protocol knobs for one training cycle."""

    fractions: tuple = (0.70, 0.15, 0.15)
    epochs_per_batch_set: int = 1000
    max_batch_sets: int = 30
    early_stop: EarlyStopRule = None
    k_folds: int = 3
    balancing_tolerance: float = 0.01
    seed: int = 0
    reencode_per_batch_set: bool = True
    escape_on_test: bool = False

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if len(self.fractions) != 3 or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must be a 3-tuple summing to 1")
        if any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be non-negative")
        if self.epochs_per_batch_set < 1 or self.max_batch_sets < 1:
            raise ValueError("epoch and batch-set budgets must be >= 1")

    def to_dict(self):
        es = None
        if self.early_stop is not None:
            es = {"loss_threshold": self.early_stop.loss_threshold,
                  "accuracy_threshold": self.early_stop.accuracy_threshold,
                  "loss_window": self.early_stop.loss_window}
        return {"fractions": list(self.fractions),
                "epochs_per_batch_set": self.epochs_per_batch_set,
                "max_batch_sets": self.max_batch_sets, "early_stop": es,
                "k_folds": self.k_folds,
                "balancing_tolerance": self.balancing_tolerance, "seed": self.seed,
                "reencode_per_batch_set": self.reencode_per_batch_set,
                "escape_on_test": self.escape_on_test}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if d.get("early_stop") is not None:
            d["early_stop"] = EarlyStopRule(**d["early_stop"])
        d["fractions"] = tuple(d.get("fractions", (0.70, 0.15, 0.15)))
        return cls(**d)


@dataclass
class TrainReport:
    """Everything needed to audit one training cycle."""

    class_name: str
    loss_curve: list
    batch_set_boundaries: list
    epochs_run: int
    test_accuracy: float
    dev_accuracy: float
    train_seconds: float
    stop_reason: str                      # early_stop | exhausted_budget | diverged
    subset_seeds: list
    subset_sizes: list                    # (positives, negatives) per batch set
    split_sizes: list                     # (train, dev, test) per batch set
    mlp_config_hash: str

    def manifest_hash(self):
        """Hash over the deterministic fields (timing excluded so identical
        seeded runs produce identical hashes and checkpoints)."""
        return sha256_json({
            "class": self.class_name, "config": self.mlp_config_hash,
            "stop": self.stop_reason, "epochs": self.epochs_run,
            "seeds": self.subset_seeds, "sizes": self.subset_sizes,
            "splits": self.split_sizes,
        })

    def to_dict(self):
        return {
            "class_name": self.class_name, "loss_curve": self.loss_curve,
            "batch_set_boundaries": self.batch_set_boundaries,
            "epochs_run": self.epochs_run, "test_accuracy": self.test_accuracy,
            "dev_accuracy": self.dev_accuracy, "train_seconds": self.train_seconds,
            "stop_reason": self.stop_reason, "subset_seeds": self.subset_seeds,
            "subset_sizes": self.subset_sizes, "split_sizes": self.split_sizes,
            "mlp_config_hash": self.mlp_config_hash,
        }


def _largest_remainder(n, fractions):
    """Integer allocation of n items proportional to fractions."""
    exact = [n * f for f in fractions]
    base = [int(math.floor(e)) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def _nonempty_targets(n, fractions):
    targets = _largest_remainder(n, fractions)
    needed = [i for i, f in enumerate(fractions) if f > 0]
    if n < len(needed):
        raise TooFewSamples(f"{n} samples cannot fill {len(needed)} splits")
    for i in needed:
        while targets[i] == 0:
            donor = max(range(len(targets)), key=lambda j: targets[j])
            if targets[donor] < 2:
                raise TooFewSamples(f"cannot keep all splits non-empty with n={n}")
            targets[donor] -= 1
            targets[i] += 1
    return targets


def _stratified_split(positives, negatives, fractions, seed):
    """Shuffle and partition two strata so each part keeps the global
    positive/negative ratio within one sample."""
    n_pos, n_neg = len(positives), len(negatives)
    n = n_pos + n_neg
    targets = _nonempty_targets(n, fractions)
    pos_share = [t * n_pos / n for t in targets]
    pos_alloc = _largest_remainder_from_shares(pos_share, n_pos)
    for i in range(len(targets)):
        while pos_alloc[i] > targets[i]:
            j = max(range(len(targets)), key=lambda s: targets[s] - pos_alloc[s])
            pos_alloc[i] -= 1
            pos_alloc[j] += 1
    neg_alloc = [t - p for t, p in zip(targets, pos_alloc)]

    rng = np.random.default_rng(seed)
    pos = rng.permutation(positives)
    neg = rng.permutation(negatives)
    out, p_at, n_at = [], 0, 0
    for p_count, n_count in zip(pos_alloc, neg_alloc):
        part = np.concatenate([pos[p_at: p_at + p_count], neg[n_at: n_at + n_count]])
        out.append(np.sort(part.astype(np.int64)))
        p_at += p_count
        n_at += n_count
    return out


def _largest_remainder_from_shares(shares, total):
    base = [int(math.floor(s)) for s in shares]
    leftover = total - sum(base)
    order = sorted(range(len(shares)), key=lambda i: (-(shares[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_dataset(subset, fractions, seed):
    """Disjoint, exhaustive, label-stratified (train, dev, test) row indices."""
    return tuple(_stratified_split(subset.positives, subset.negatives, fractions, seed))


@dataclass
class _SplitData:
    x: np.ndarray
    y: np.ndarray


def _gather(matrix, pos_mask, idx):
    return _SplitData(x=matrix.values[idx], y=pos_mask[idx].astype(np.float64))


def _run_cycle(matrix, class_name, provider, mlp_config, train_config):
    """Shared engine behind train_one_class and the k-fold folds.

    ``provider(bs)`` supplies (train, dev, test) _SplitData plus bookkeeping
    for batch-set ``bs``.
    """
    tc = train_config
    params = init_params(mlp_config)
    dropout_rng = rng_from(mlp_config.seed, "dropout")
    window = deque(maxlen=tc.early_stop.loss_window) if tc.early_stop else None

    loss_curve = []
    boundaries = []
    subset_seeds, subset_sizes, split_sizes = [], [], []
    stop_reason = "exhausted_budget"
    dev_accuracy = float("nan")
    splits = None
    stopped = False

    t0 = time.perf_counter()
    for bs in range(tc.max_batch_sets):
        splits, seed_used, sizes = provider(bs)
        subset_seeds.append(seed_used)
        subset_sizes.append(sizes)
        split_sizes.append((len(splits[0].y), len(splits[1].y), len(splits[2].y)))
        boundaries.append(len(loss_curve))
        train, dev, test = splits
        n_train = len(train.y)
        shuffle_rng = rng_from(tc.seed, "shuffle", bs)

        for _ in range(tc.epochs_per_batch_set):
            order = shuffle_rng.permutation(n_train)
            xe, ye = train.x[order], train.y[order]
            epoch_losses = np.empty(n_train)
            try:
                for start in range(0, n_train, mlp_config.batch_size):
                    stop = start + mlp_config.batch_size
                    _, grads, per_sample = loss_and_grads(
                        params, mlp_config, xe[start:stop], ye[start:stop],
                        rng=dropout_rng, mode="train", return_per_sample=True)
                    optimizer_step(params, grads, mlp_config)
                    epoch_losses[start:stop] = per_sample
            except NonFiniteLoss:
                stop_reason = "diverged"
                stopped = True
                break
            # np.add.reduce(...) / n is how .mean() computes it (same bits)
            loss_curve.append(float(np.add.reduce(epoch_losses) / n_train))

            if tc.early_stop is not None:
                # the window holds the last loss_window sample losses, as if
                # it were extended after every step
                window.extend(epoch_losses[-tc.early_stop.loss_window:])
                rolling = float(np.mean(window))
                # the escape is an AND, so the held-out pass only runs once
                # the loss side of the condition already holds
                if rolling < tc.early_stop.loss_threshold:
                    held = test if tc.escape_on_test else dev
                    acc = binary_accuracy(params, mlp_config, held.x, held.y)
                    if acc >= tc.early_stop.accuracy_threshold:
                        stop_reason = "early_stop"
                        dev_accuracy = acc
                        stopped = True
                        break
        if stopped:
            break
    seconds = time.perf_counter() - t0

    if stop_reason == "diverged":
        test_accuracy = 0.0
    else:
        test_accuracy = binary_accuracy(params, mlp_config, splits[2].x, splits[2].y)
    if math.isnan(dev_accuracy) and stop_reason != "diverged":
        dev_accuracy = binary_accuracy(params, mlp_config, splits[1].x, splits[1].y)

    report = TrainReport(
        class_name=class_name, loss_curve=loss_curve,
        batch_set_boundaries=boundaries, epochs_run=len(loss_curve),
        test_accuracy=test_accuracy, dev_accuracy=dev_accuracy,
        train_seconds=seconds, stop_reason=stop_reason,
        subset_seeds=subset_seeds, subset_sizes=subset_sizes,
        split_sizes=split_sizes, mlp_config_hash=config_hash(mlp_config))
    model = MlpModel(config=mlp_config, params=params,
                     scaling_hash=matrix.scaling.content_hash(),
                     manifest_hash=report.manifest_hash())
    return model, report


def _subset_builder(matrix, class_id, task, tolerance):
    if task == "phoneme":
        return lambda seed: build_balanced_subset(matrix, class_id, seed, tolerance)
    if task == "speaker":
        return lambda seed: speaker_balanced_subset(matrix, class_id, seed, tolerance)
    raise ValueError(f"unknown task {task!r}")


def _class_name(matrix, class_id, task):
    from .features import SPEAKER_CLASS_NAMES
    names = SPEAKER_CLASS_NAMES if task == "speaker" else matrix.class_names
    if isinstance(class_id, str):
        return class_id
    return names[class_id]


def train_one_class(matrix, class_id, mlp_config, train_config, task="phoneme"):
    """Full training cycle for one class; returns (MlpModel, TrainReport)."""
    tc = train_config
    build = _subset_builder(matrix, class_id, task, tc.balancing_tolerance)
    pos_mask = np.zeros(matrix.n_rows, dtype=bool)
    state = {}

    def provider(bs):
        if bs == 0 or tc.reencode_per_batch_set:
            seed = derive_seed(tc.seed, "subset", bs)
            subset = build(seed)
            pos_mask[:] = False
            pos_mask[subset.positives] = True
            state["subset"] = subset
            state["seed"] = seed
        subset = state["subset"]
        parts = split_dataset(subset, tc.fractions, derive_seed(tc.seed, "split", bs))
        splits = tuple(_gather(matrix, pos_mask, idx) for idx in parts)
        return splits, state["seed"], (subset.n_positive, subset.n_negative)

    return _run_cycle(matrix, _class_name(matrix, class_id, task), provider,
                      mlp_config, train_config)


@dataclass
class KFoldResult:
    mean_accuracy: float
    mean_seconds: float
    reports: list

    @property
    def diverged(self):
        return any(r.stop_reason == "diverged" for r in self.reports)


def _fold_assignment(n_pos, n_neg, k, rng):
    """Round-robin stratified fold labels; every fold non-empty for k <= N."""
    pos_folds = np.arange(n_pos) % k
    neg_folds = (np.arange(n_neg) + n_pos) % k
    rng.shuffle(pos_folds)
    rng.shuffle(neg_folds)
    return pos_folds, neg_folds


def k_fold_evaluate(matrix, class_id, mlp_config, train_config, k=None, task="phoneme"):
    """Average accuracy and training time over k held-out folds.

    The balanced subset is built once per evaluation (so folds stay fixed);
    within each fold the remainder is re-split into train/dev at each
    batch-set boundary, which preserves the re-shuffling protocol without
    touching the held-out fold.
    """
    tc = train_config
    k = tc.k_folds if k is None else k
    build = _subset_builder(matrix, class_id, task, tc.balancing_tolerance)
    subset = build(derive_seed(tc.seed, "kfold-subset"))
    n = subset.n_positive + subset.n_negative
    if k < 2 or k > n:
        raise TooFewSamples(f"k={k} folds impossible with {n} samples")

    rng = rng_from(tc.seed, "kfold-folds")
    pos_folds, neg_folds = _fold_assignment(subset.n_positive, subset.n_negative, k, rng)
    positives, negatives = subset.positives, subset.negatives
    pos_mask = np.zeros(matrix.n_rows, dtype=bool)
    pos_mask[positives] = True

    frac = tc.fractions
    inner = (frac[0] / (frac[0] + frac[1]), frac[1] / (frac[0] + frac[1]))

    reports = []
    for f in range(k):
        test_idx = np.sort(np.concatenate([positives[pos_folds == f],
                                           negatives[neg_folds == f]]))
        rest_pos = positives[pos_folds != f]
        rest_neg = negatives[neg_folds != f]
        if len(test_idx) == 0 or len(rest_pos) + len(rest_neg) == 0:
            raise TooFewSamples(f"fold {f} leaves an empty part")

        def provider(bs, _tp=test_idx, _rp=rest_pos, _rn=rest_neg, _f=f):
            seed = derive_seed(tc.seed, "fold", _f, "split", bs)
            tr, dv, _ = _stratified_split(_rp, _rn, (*inner, 0.0), seed)
            splits = (_gather(matrix, pos_mask, tr), _gather(matrix, pos_mask, dv),
                      _gather(matrix, pos_mask, _tp))
            return splits, seed, (subset.n_positive, subset.n_negative)

        fold_cfg = replace(mlp_config, seed=derive_seed(mlp_config.seed, "fold", f))
        _, report = _run_cycle(matrix, _class_name(matrix, class_id, task),
                               provider, fold_cfg, tc)
        reports.append(report)

    return KFoldResult(
        mean_accuracy=sum(r.test_accuracy for r in reports) / k,
        mean_seconds=sum(r.train_seconds for r in reports) / k,
        reports=reports)
