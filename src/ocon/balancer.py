"""Balanced one-vs-rest subset construction.

For a chosen true class, the subset holds every true-class row plus an evenly
sized random down-sample of each false class.  The shared per-class size is
round(P / (K-1)) with P positives and K classes, rounding half away from
zero, with two refinements:

- When P/(K-1) lands exactly on .5 (possible only with an even false-class
  count), rounding every class up would overshoot; instead half the false
  classes take the ceiling and half the floor, lowest class ids first, so
  the negative total equals P exactly.
- Because the uniform size can otherwise leave the negative total more than
  3 samples away from P, sizes are nudged by at most 1 on as few classes as
  needed to restore |positives - negatives| <= 3, the enforced guarantee.

Per-class sizes therefore never differ pairwise by more than 1 (before
availability capping on toy data).

The relative balancing tolerance (``BALANCE_TOLERANCE``, 0.01) is a
reporting target only: exceeding it sets a flag and emits a BalanceWarning,
it never fails the build.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BalanceToleranceExceeded, EmptyFalseClass, UnknownClass
from .util import check_class_id


#: Relative |positives - negatives| / positives above which a subset is flagged.
BALANCE_TOLERANCE = 0.01


class BalanceWarning(UserWarning):
    """Relative positives/negatives imbalance missed the reporting target."""


def round_half_up(x):
    """round() with halves away from zero on positive values."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BalancedSubset:
    """Row indices for one binary one-vs-rest task."""

    true_class: int
    class_names: tuple
    positives: np.ndarray                 # matrix row indices, true class
    negatives_by_class: dict              # class id -> matrix row indices
    seed: int
    capped: bool                          # some false class ran out of rows
    tolerance_flag: bool                  # relative imbalance target missed

    @property
    def negatives(self):
        parts = [self.negatives_by_class[c] for c in sorted(self.negatives_by_class)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    @property
    def indices(self):
        return np.concatenate([self.positives, self.negatives])

    @property
    def n_positive(self):
        return len(self.positives)

    @property
    def n_negative(self):
        return sum(len(v) for v in self.negatives_by_class.values())


def _shared_targets(n_positive, false_classes):
    """Per-class down-sample targets before capping (see module docstring)."""
    m = len(false_classes)
    if m % 2 == 0 and n_positive % m == m // 2:
        # exact .5 share: ceil for the first half of the ids, floor for the rest
        q = n_positive // m
        return {c: q + 1 if i < m // 2 else q
                for i, c in enumerate(false_classes)}
    target = round_half_up(n_positive / m)
    return {c: target for c in false_classes}


def _balance_sizes(sizes, avail, n_positive):
    """Nudge per-class sizes so the negative total lands within 3 of P.

    Trims the currently largest classes first (bumps the smallest with
    headroom), lowest class id on ties, so the result is deterministic and
    sizes stay within 1 of each other when no capping occurred.
    """
    order = sorted(sizes)
    total = sum(sizes.values())
    while total > n_positive + 3:
        c = max(order, key=lambda c: (sizes[c], -c))
        sizes[c] -= 1
        total -= 1
    while total < n_positive - 3:
        headroom = [c for c in order if sizes[c] < avail[c]]
        if not headroom:
            raise BalanceToleranceExceeded(
                f"negatives reachable: {total}, positives: {n_positive}")
        c = min(headroom, key=lambda c: (sizes[c], c))
        sizes[c] += 1
        total += 1
    return sizes


def build_balanced_subset(matrix, true_class, seed):
    """Balanced binary subset of a labeled matrix for one true class.

    Deterministic given (matrix, true_class, seed); sampling is without
    replacement, uniformly within each false class.
    """
    class_names = matrix.class_names
    k = len(class_names)
    check_class_id(matrix, true_class)
    by_class = {c: np.flatnonzero(matrix.labels == c) for c in range(k)}
    if not len(by_class[true_class]):
        raise UnknownClass(f"class {class_names[true_class]!r} has no samples")
    for c in range(k):
        if c != true_class and len(by_class[c]) == 0:
            raise EmptyFalseClass(class_names[c])

    positives = by_class[true_class]
    n_pos = len(positives)
    false_classes = [c for c in range(k) if c != true_class]
    avail = {c: len(by_class[c]) for c in false_classes}
    targets = _shared_targets(n_pos, false_classes)
    sizes = {c: min(targets[c], avail[c]) for c in false_classes}
    capped = any(avail[c] < targets[c] for c in false_classes)
    sizes = _balance_sizes(sizes, avail, n_pos)

    rng = np.random.default_rng(seed)
    negatives = {}
    for c in sorted(sizes):
        negatives[c] = np.sort(rng.choice(by_class[c], size=sizes[c], replace=False))

    n_neg = sum(sizes.values())
    tolerance_flag = abs(n_pos - n_neg) / n_pos > BALANCE_TOLERANCE
    if tolerance_flag:
        warnings.warn(
            f"subset for {class_names[true_class]} misses the relative balance "
            f"target: {n_pos} positives vs {n_neg} negatives", BalanceWarning,
            stacklevel=2)
    return BalancedSubset(
        true_class=true_class, class_names=tuple(class_names), positives=positives,
        negatives_by_class=negatives, seed=seed, capped=capped,
        tolerance_flag=tolerance_flag)
