"""Binary and ensemble evaluation: confusion counts, DET rates, ROC/AUC.

DET metrics follow the standard definitions: ER = (FP+FN)/N,
FDR = FP/(FP+TP), FOR = FN/(FN+TN), NPV = TN/(TN+FN).  A zero denominator
yields an explicitly undefined field rather than a silent zero, so averages
never absorb sentinel values.  The ROC curve sweeps thresholds over the
distinct scores; its trapezoidal area equals the Mann-Whitney statistic
(probability a random positive outscores a random negative, ties at half).
"""

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluationSet, SingleClassInput
from .ensemble import evaluate_ensemble
from .mlp import decide


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def n(self):
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_scores(cls, scores, labels):
        """Counts of the ``mlp.decide`` answers on ``scores`` against the 0/1
        ``labels``."""
        truth = np.asarray(labels).astype(bool)
        predicted = decide(np.asarray(scores, dtype=np.float64))
        return cls(tp=int(np.sum(predicted & truth)),
                   fp=int(np.sum(predicted & ~truth)),
                   tn=int(np.sum(~predicted & ~truth)),
                   fn=int(np.sum(~predicted & truth)))


@dataclass(frozen=True)
class DetMetrics:
    """Detection-error rates; a None field means its denominator was zero.

    ``for_`` is the false omission rate (FOR is a Python keyword).
    """

    er: float
    fdr: float
    for_: float
    npv: float


def det_metrics(counts):
    """DET rates from confusion counts; undefined fields stay None."""
    if counts.n == 0:
        raise EmptyEvaluationSet("confusion counts are all zero")
    er = (counts.fp + counts.fn) / counts.n
    fdr = counts.fp / (counts.fp + counts.tp) if counts.fp + counts.tp > 0 else None
    neg_pred = counts.fn + counts.tn
    for_ = counts.fn / neg_pred if neg_pred > 0 else None
    npv = counts.tn / neg_pred if neg_pred > 0 else None
    return DetMetrics(er=er, fdr=fdr, for_=for_, npv=npv)


@dataclass(frozen=True)
class RocCurve:
    """Threshold-swept operating points, anchored at (0,0) and (1,1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_auc(scores, labels):
    """ROC curve and trapezoidal AUC over per-sample probabilities.

    Needs at least one positive and one negative; ties share a single
    operating point, which makes the trapezoidal area count them as half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(labels).astype(bool).ravel()
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    cum_tp = np.cumsum(sorted_truth)
    cum_fp = np.cumsum(~sorted_truth)
    # one operating point after each distinct score value
    cut = np.append(np.flatnonzero(np.diff(sorted_scores)), len(sorted_scores) - 1)

    tpr = np.concatenate([[0.0], cum_tp[cut] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[cut] / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[cut]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


@dataclass
class ReportTables:
    """Formatted per-class accuracy and DET tables plus ROC point sets."""

    class_names: tuple
    accuracy_rows: list              # (class, binary accuracy %)
    average_accuracy: float
    argmax_accuracy: float
    det_rows: list                   # (class, DetMetrics, auc)
    confusion: np.ndarray
    curves: dict                     # class -> RocCurve

    def accuracy_text(self):
        out = io.StringIO()
        out.write(f"{'One-Class':<10}{'Accuracy (%)':>14}\n")
        for name, acc in self.accuracy_rows:
            out.write(f"{name:<10}{acc:>14.2f}\n")
        out.write(f"{'AVG':<10}{self.average_accuracy:>14.2f}\n")
        out.write(f"{'OCON':<10}{self.argmax_accuracy:>14.2f}\n")
        return out.getvalue()

    def det_text(self):
        out = io.StringIO()
        out.write(f"{'One-Class':<10}{'ER':>6}{'FDR':>6}{'FOR':>6}{'NPV':>6}{'AUC':>8}\n")

        def fmt(v, places):
            return "  n/a" if v is None else f"{v:.{places}f}"

        for name, det, auc in self.det_rows:
            out.write(f"{name:<10}{fmt(det.er, 2):>6}{fmt(det.fdr, 2):>6}"
                      f"{fmt(det.for_, 2):>6}{fmt(det.npv, 2):>6}{auc:>8.4f}\n")
        return out.getvalue()

    def write_csv(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "accuracy.csv"), "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["class", "binary_accuracy_pct"])
            for name, acc in self.accuracy_rows:
                writer.writerow([name, repr(acc)])
            writer.writerow(["AVG", repr(self.average_accuracy)])
            writer.writerow(["OCON_argmax", repr(self.argmax_accuracy)])
        with open(os.path.join(out_dir, "det.csv"), "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["class", "ER", "FDR", "FOR", "NPV", "AUC"])
            for name, det, auc in self.det_rows:
                row = [det.er, det.fdr, det.for_, det.npv]
                writer.writerow([name] + ["undefined" if v is None else repr(v)
                                          for v in row] + [repr(auc)])
        with open(os.path.join(out_dir, "confusion.csv"), "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["true\\pred", *self.class_names])
            for name, row in zip(self.class_names, self.confusion):
                writer.writerow([name, *row.tolist()])
        for name, curve in self.curves.items():
            # one join over Python floats: a float's repr never needs CSV quoting
            points = zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
            with open(os.path.join(out_dir, f"roc_{name}.csv"), "w", encoding="utf-8") as fh:
                fh.write("threshold,fpr,tpr\n"
                         + "".join(f"{t!r},{f!r},{tp!r}\n" for t, f, tp in points))


def report_tables(model, matrix):
    """Evaluate an ensemble over a matrix and assemble the report tables."""
    if matrix.n_rows == 0:
        raise EmptyEvaluationSet("evaluation matrix has no rows")
    evaluation = evaluate_ensemble(model, matrix)

    accuracy_rows = [(name, evaluation.per_class_accuracy[name])
                     for name in model.class_names]
    det_rows, curves = [], {}
    for c, name in enumerate(model.class_names):
        truth = matrix.labels == c
        counts = ConfusionCounts.from_scores(evaluation.scores[:, c], truth)
        curve = roc_auc(evaluation.scores[:, c], truth)
        det_rows.append((name, det_metrics(counts), curve.auc))
        curves[name] = curve

    return ReportTables(
        class_names=tuple(model.class_names), accuracy_rows=accuracy_rows,
        average_accuracy=evaluation.average_accuracy,
        argmax_accuracy=evaluation.argmax_accuracy,
        det_rows=det_rows, confusion=evaluation.confusion, curves=curves)
