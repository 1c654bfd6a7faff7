"""One-class training cycles: splits, mini-batch loop, early stopping, k-fold.

A cycle loops over batch-sets.  Each batch-set rebuilds the balanced subset
with a fresh derived seed (the re-shuffling that shows up as periodic spikes
in the loss curve), re-splits it 70/15/15, and runs up to
``epochs_per_batch_set`` epochs of mini-batch training.  After every epoch a
2-variable escape condition is checked: the rolling mean of the last 50
individual training-sample losses must fall below the loss threshold while
held-out accuracy meets the accuracy threshold.  The held-out split is dev by
default; ``escape_on_test=True`` reproduces the reference protocol, which
peeks at the test split (documented leakage, off by default).  Under
batch-norm a 1-row tail minibatch joins the step before it (``_step_bounds``).

``_run_cycle`` is the only training engine.  It takes a list of ``Cycle``s
that share one configuration but for their seeds -- the members of a bank,
the folds of a k-fold evaluation, or every class x fold cycle of one search
combination -- and trains them in lockstep: cycles whose training splits
have the same number of rows (which depends only on class counts) form a
group, and each minibatch step of a group is one stacked ``loss_and_grads``
and ``optimizer_step`` over all its members (see ``mlp``), at most
``STACK_MAX_VALUES`` values of rows x members x widest layer per group.
Every member keeps its own shuffle, dropout stream, loss curve, early-stop
window and held-out checks, so its bits are those of a solo run.  A group
steps in float32: its stack, batches and labels are float32, and while it
trains a member's params are the K=1 ``select`` of its row of that stack.
One that stops early or whose loss is not finite (before the next optimizer
step) moves behind the members still training, and the live stack shrinks;
a loss that overflows float32 counts as diverged.  When the group ends its
stack is widened, exactly, into one float64 stack, and each member's params
become the ``select`` of its row of that, so models, checkpoints and
serving are float64.  Every accuracy a ``TrainReport`` records -- the
early-stop held-out checks, ``dev_accuracy`` and ``test_accuracy`` -- runs
the float64 infer path on the member's widened parameters.  A
member's ``train_seconds`` is its batch-set 0 fetch plus, for every epoch
it took part in, the epoch's wall time divided by the members then in the
group: the shares of a group add up to the group's wall time.  ``fan_out``
spreads engine calls over processes, for a bank and a grid search alike.
"""

import math
import time
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from .balancer import build_balanced_subset
from .errors import TooFewSamples
from .mlp import (
    STACK_MAX_VALUES,
    MlpConfig,
    MlpModel,
    StackedParams,
    binary_accuracy,
    config_hash,
    init_params,
    loss_and_grads,
    optimizer_step,
)
from .util import check_class_id, derive_seed, sha256_json


def rng_from(*parts):
    """Generator seeded via :func:`ocon.util.derive_seed`."""
    return np.random.default_rng(derive_seed(*parts))


#: The (train, dev, test) shares of every re-split, as in the paper.
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


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

    epochs_per_batch_set: int = 1000
    max_batch_sets: int = 30
    early_stop: EarlyStopRule = None
    k_folds: int = 3
    seed: int = 0
    reencode_per_batch_set: bool = True
    escape_on_test: bool = False

    def __post_init__(self):
        if self.epochs_per_batch_set < 1 or self.max_batch_sets < 1:
            raise ValueError("epoch and batch-set budgets must be >= 1")


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
        return asdict(self)


def _nonempty_targets(n, fractions):
    targets = _largest_remainder([n * f for f in fractions], n)
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
    pos_alloc = _largest_remainder(pos_share, n_pos)
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


def _largest_remainder(shares, total):
    """Integer allocation of ``total`` items: the floors of ``shares``, plus
    one for the largest fractional parts (lowest index on ties)."""
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


def _gather(matrix, class_id, idx):
    """Rows ``idx`` of ``matrix``, labelled 1.0 where they are ``class_id``."""
    return _SplitData(x=matrix.values[idx], y=(matrix.labels[idx] == class_id).astype(np.float64))


@dataclass
class Cycle:
    """One training cycle for ``_run_cycle``.

    ``provider(bs)`` supplies the (train, dev, test) ``_SplitData``, the
    subset seed and the (positives, negatives) sizes of batch-set ``bs``.
    """

    class_name: str
    provider: object
    mlp_config: MlpConfig
    train_config: TrainConfig


def _step_bounds(n, config):
    """(start, stop) rows of each minibatch of an n-row epoch.

    Under batch-norm a 1-row step has zero batch variance: its weight, scale
    and shift gradients are all zero and it shrinks the running variance by
    the momentum.  Such a tail row joins the step before it instead.
    """
    starts = list(range(0, n, config.batch_size))
    if config.batch_norm and len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


class _Member:
    """One cycle inside a lockstep group: its random streams, its
    ``report``, filled in place as it trains, and its ``params``, a view of
    its row of the group's float32 stack, then of the widened float64 one."""

    def __init__(self, cycle, first, seconds):
        self.cycle = cycle
        self.config = cycle.mlp_config
        self.dropout_rng = rng_from(cycle.mlp_config.seed, "dropout")
        rule = cycle.train_config.early_stop
        self.window = deque(maxlen=rule.loss_window) if rule else None
        self.first = first                # the provider's batch-set 0
        self.report = TrainReport(
            class_name=cycle.class_name, loss_curve=[], batch_set_boundaries=[],
            epochs_run=0, test_accuracy=0.0, dev_accuracy=float("nan"),
            train_seconds=seconds, stop_reason="exhausted_budget", subset_seeds=[],
            subset_sizes=[], split_sizes=[], mlp_config_hash=config_hash(self.config))
        self.splits = self.shuffle_rng = self.params = None

    def start_batch_set(self, bs):
        """Fetch batch-set ``bs``; returns its training split."""
        splits, seed_used, sizes = self.first if bs == 0 else self.cycle.provider(bs)
        self.first = None
        self.splits = splits
        self.report.subset_seeds.append(seed_used)
        self.report.subset_sizes.append(sizes)
        self.report.split_sizes.append(tuple(len(part.y) for part in splits))
        self.report.batch_set_boundaries.append(len(self.report.loss_curve))
        self.shuffle_rng = rng_from(self.cycle.train_config.seed, "shuffle", bs)
        return splits[0]

    def end_epoch(self, losses):
        """Record an epoch's per-sample losses; True when the early-stop
        escape holds."""
        tc = self.cycle.train_config
        # np.add.reduce(...) / n is how .mean() computes it (same bits)
        self.report.loss_curve.append(float(np.add.reduce(losses) / len(losses)))
        rule = tc.early_stop
        if rule is None:
            return False
        # the window holds the last loss_window sample losses, as if it were
        # extended after every step
        self.window.extend(losses[-rule.loss_window:])
        # the escape is an AND, so the held-out pass only runs once the loss
        # side of the condition already holds
        if not float(np.mean(self.window)) < rule.loss_threshold:
            return False
        held = self.splits[2] if tc.escape_on_test else self.splits[1]
        acc = binary_accuracy(self.params.astype(np.float64), self.config, held.x, held.y)
        if acc < rule.accuracy_threshold:
            return False
        self.report.stop_reason = "early_stop"
        self.report.dev_accuracy = acc
        return True

    def result(self, scaling_hash):
        r, (_, dev, test) = self.report, self.splits
        r.epochs_run = len(r.loss_curve)
        if r.stop_reason != "diverged":
            r.test_accuracy = binary_accuracy(self.params, self.config, test.x, test.y)
            if math.isnan(r.dev_accuracy):
                r.dev_accuracy = binary_accuracy(self.params, self.config, dev.x, dev.y)
        model = MlpModel(config=self.config, params=self.params, scaling_hash=scaling_hash,
                         manifest_hash=r.manifest_hash())
        return model, r


def _leave(stack, members, done, rows=()):
    """Move the live members at positions ``done`` behind the others, with
    their rows of the stack, its workspace's ``opt`` and ``rows``; gives each
    moved member a view of its new row and returns the stack of those left."""
    n = stack.n_members
    order = [j for j in range(n) if j not in done] + done
    for a in (*stack._state(), *stack.workspace.opt[:3], *rows):   # opt[:3]: grad, m, v
        a[:n] = a[order]
    members[:n] = [members[j] for j in order]
    for j in range(n):
        if order[j] != j:
            members[j].params = stack.select(slice(j, j + 1))
    return stack.select(slice(0, n - len(done)))


def _train_group(members, n_train, config, tc):
    """Train ``members`` in lockstep, one stacked float32 step per minibatch,
    until each has stopped or spent its budget.  They train as the rows of
    one stack, the live ones always its leading rows (``_leave`` reorders
    the list ``members`` to match); then each member's params become its
    row of the float64 widening of that stack."""
    steps = _step_bounds(n_train, config)
    stack = group = StackedParams(config, len(members), np.float32)
    for j, m in enumerate(members):
        m.params = init_params(m.config, stack, j)
    xe = np.empty((len(members), n_train, config.input_dim), np.float32)
    ye = np.empty((len(members), n_train), np.float32)
    losses = np.empty((len(members), n_train))
    clock = time.perf_counter()
    for bs in range(tc.max_batch_sets):
        if not stack.n_members:
            break
        if any([len(m.start_batch_set(bs).y) != n_train for m in members[:stack.n_members]]):
            raise ValueError("a lockstep member's training split changed size")
        for _ in range(tc.epochs_per_batch_set):
            entered = members[:stack.n_members]
            for j, m in enumerate(entered):
                order = m.shuffle_rng.permutation(n_train)
                np.take(m.splits[0].x, order, axis=0, out=xe[j])
                np.take(m.splits[0].y, order, out=ye[j])
            for start, stop in steps:
                k = stack.n_members
                loss, grads, per_sample = loss_and_grads(
                    stack, config, xe[:k, start:stop], ye[:k, start:stop].ravel(),
                    rng=[m.dropout_rng for m in members[:k]])
                if not np.isfinite(loss).all():
                    # a diverged member leaves before the optimizer step; the
                    # others' rows are untouched by its non-finite values
                    diverged = np.flatnonzero(~np.isfinite(loss)).tolist()
                    for j in diverged:
                        members[j].report.stop_reason = "diverged"
                    stack = _leave(stack, members, diverged, (per_sample, xe, ye, losses))
                    k = stack.n_members
                    if not k:
                        break
                optimizer_step(stack, grads[:k], config)
                losses[:k, start:stop] = per_sample[:k]
            stopped = [j for j, m in enumerate(members[:stack.n_members])
                       if m.end_epoch(losses[j])]
            if stopped:
                stack = _leave(stack, members, stopped)
            now = time.perf_counter()
            for m in entered:
                m.report.train_seconds += (now - clock) / len(entered)
            clock = now
            if not stack.n_members:
                break
    wide = group.astype(np.float64)
    for j, m in enumerate(members):
        m.params = wide.select(slice(j, j + 1))


def _run_cycle(matrix, cycles):
    """The training engine: run ``cycles`` (one config but for the seeds)
    in lockstep groups; returns one (MlpModel, TrainReport) per cycle.

    Each cycle's batch-set 0 is fetched first.  Cycles with the same number
    of training rows step together, at most ``STACK_MAX_VALUES`` values of
    rows x members x widest layer per group.  A member's ``train_seconds``
    is its batch-set 0 fetch plus its share of every epoch it took part in:
    the epoch's wall time over the members then in the group.  A diverging
    member is found by its loss, so numpy's overflow warnings are silenced.
    """
    members = []
    for cycle in cycles:
        t0 = time.perf_counter()
        first = cycle.provider(0)
        members.append(_Member(cycle, first, time.perf_counter() - t0))
    groups = {}
    for m in members:
        key = (len(m.first[0][0].y), replace(m.config, seed=0),
               replace(m.cycle.train_config, seed=0))
        groups.setdefault(key, []).append(m)
    for (n_train, config, tc), group in groups.items():
        rows = max(stop - start for start, stop in _step_bounds(n_train, config))
        size = max(1, STACK_MAX_VALUES // (rows * max(config.layer_dims)))
        for at in range(0, len(group), size):
            with np.errstate(over="ignore", invalid="ignore"):
                _train_group(group[at: at + size], n_train, config, tc)
    scaling_hash = matrix.scaling.content_hash()
    return [m.result(scaling_hash) for m in members]


def fan_out(task, units, n_classes, workers):
    """``task(*unit, class_ids)`` over each unit and contiguous run of its
    class ids; returns per unit the items of its runs' lists, in class order.

    A unit is a bank or one grid combination.  Its ids are cut into
    ``ceil(workers / len(units))`` runs, at most one per class.  Tasks run
    inline when there is one or ``workers <= 1``, else in the caller's unit
    order on one pool of ``min(workers, tasks)`` processes.
    """
    runs = max(1, min(n_classes, -(-workers // len(units))))
    cuts = [r * n_classes // runs for r in range(runs + 1)]
    tasks = [(*unit, range(a, b)) for unit in units for a, b in zip(cuts, cuts[1:])]
    if workers <= 1 or len(tasks) == 1:
        done = [task(*args) for args in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            done = list(pool.map(task, *zip(*tasks)))
    return [[item for part in done[u:u + runs] for item in part]
            for u in range(0, len(done), runs)]


def one_class_cycle(matrix, class_id, mlp_config, train_config):
    """The ``Cycle`` of one class's full training run."""
    check_class_id(matrix, class_id)
    tc = train_config
    state = {}

    def provider(bs):
        if bs == 0 or tc.reencode_per_batch_set:
            seed = derive_seed(tc.seed, "subset", bs)
            subset = build_balanced_subset(matrix, class_id, seed)
            state["subset"] = subset
            state["seed"] = seed
        subset = state["subset"]
        parts = split_dataset(subset, SPLIT_FRACTIONS, derive_seed(tc.seed, "split", bs))
        splits = tuple(_gather(matrix, class_id, idx) for idx in parts)
        return splits, state["seed"], (subset.n_positive, subset.n_negative)

    return Cycle(matrix.class_names[class_id], provider, mlp_config, train_config)


def train_one_class(matrix, class_id, mlp_config, train_config):
    """Full training cycle for one class; returns (MlpModel, TrainReport)."""
    return _run_cycle(matrix, [one_class_cycle(matrix, class_id, mlp_config, train_config)])[0]


@dataclass
class KFoldResult:
    mean_accuracy: float
    mean_seconds: float
    reports: list

    @classmethod
    def of(cls, reports):
        k = len(reports)
        return cls(mean_accuracy=sum(r.test_accuracy for r in reports) / k,
                   mean_seconds=sum(r.train_seconds for r in reports) / k,
                   reports=reports)

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


def plan_k_fold(matrix, class_id, mlp_config, train_config):
    """The k fold ``Cycle``s of one k-fold evaluation, for ``_run_cycle``.

    The balanced subset is built once per evaluation (so folds stay fixed);
    within each fold the remainder is re-split into train/dev at each
    batch-set boundary, which preserves the re-shuffling protocol without
    touching the held-out fold.  A class the data cannot support raises its
    ``OconError`` here, before any training.
    """
    tc, k = train_config, train_config.k_folds
    subset = build_balanced_subset(matrix, class_id, derive_seed(tc.seed, "kfold-subset"))
    n = subset.n_positive + subset.n_negative
    if k < 2 or k > n:
        raise TooFewSamples(f"k={k} folds impossible with {n} samples")

    rng = rng_from(tc.seed, "kfold-folds")
    pos_folds, neg_folds = _fold_assignment(subset.n_positive, subset.n_negative, k, rng)
    positives, negatives = subset.positives, subset.negatives

    frac = SPLIT_FRACTIONS
    inner = (frac[0] / (frac[0] + frac[1]), frac[1] / (frac[0] + frac[1]), 0.0)
    name = matrix.class_names[class_id]

    cycles = []
    for f in range(k):
        test_idx = np.sort(np.concatenate([positives[pos_folds == f],
                                           negatives[neg_folds == f]]))
        rest_pos = positives[pos_folds != f]
        rest_neg = negatives[neg_folds != f]
        if len(test_idx) == 0 or len(rest_pos) + len(rest_neg) == 0:
            raise TooFewSamples(f"fold {f} leaves an empty part")
        _nonempty_targets(len(rest_pos) + len(rest_neg), inner)

        def provider(bs, _tp=test_idx, _rp=rest_pos, _rn=rest_neg, _f=f):
            seed = derive_seed(tc.seed, "fold", _f, "split", bs)
            tr, dv, _ = _stratified_split(_rp, _rn, inner, seed)
            splits = tuple(_gather(matrix, class_id, idx) for idx in (tr, dv, _tp))
            return splits, seed, (subset.n_positive, subset.n_negative)

        fold_cfg = replace(mlp_config, seed=derive_seed(mlp_config.seed, "fold", f))
        cycles.append(Cycle(name, provider, fold_cfg, tc))
    return cycles


def k_fold_evaluate(matrix, class_id, mlp_config, train_config, k=None):
    """Average accuracy and training time over k held-out folds, all folds
    trained by one engine call (see ``plan_k_fold``); ``k`` overrides
    ``train_config.k_folds``."""
    tc = train_config if k is None else replace(train_config, k_folds=k)
    cycles = plan_k_fold(matrix, class_id, mlp_config, tc)
    return KFoldResult.of([report for _, report in _run_cycle(matrix, cycles)])
