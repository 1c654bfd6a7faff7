import numpy as np
import pytest

from ocon.errors import EmptyEvaluationSet, SingleClassInput
from ocon.metrics import ConfusionCounts, det_metrics, roc_auc


def pairwise_auc(scores, labels):
    """Independent oracle: probability a random positive outscores a random
    negative, ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusionCounts:
    def test_from_scores(self):
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        labels = np.array([1, 1, 0, 0])
        counts = ConfusionCounts.from_scores(scores, labels)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)
        assert counts.n == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestDetMetrics:
    def test_perfect_classifier(self):
        det = det_metrics(ConfusionCounts(tp=50, fp=0, tn=50, fn=0))
        assert det.er == 0.0 and det.fdr == 0.0
        assert det.for_ == 0.0 and det.npv == 1.0
        assert all(v is not None for v in (det.er, det.fdr, det.for_, det.npv))

    def test_worked_example(self):
        # TP=8 FP=2 TN=85 FN=5, N=100
        det = det_metrics(ConfusionCounts(tp=8, fp=2, tn=85, fn=5))
        assert det.er == pytest.approx(0.07)
        assert det.fdr == pytest.approx(0.2)
        assert det.for_ == pytest.approx(5 / 90)
        assert det.npv == pytest.approx(85 / 90)

    def test_npv_complements_for(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tp, fp, tn, fn = rng.integers(0, 50, size=4)
            counts = ConfusionCounts(int(tp), int(fp), int(tn), int(fn))
            if counts.n == 0:
                continue
            det = det_metrics(counts)
            if det.npv is not None:
                assert det.npv + det.for_ == pytest.approx(1.0)
                assert 0.0 <= det.npv <= 1.0 and 0.0 <= det.er <= 1.0

    def test_undefined_denominators_not_zeroed(self):
        det = det_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
        assert det.fdr is None
        assert det.er is not None and det.for_ is not None and det.npv is not None
        det = det_metrics(ConfusionCounts(tp=5, fp=1, tn=0, fn=0))
        assert det.for_ is None and det.npv is None

    def test_all_zero_counts(self):
        with pytest.raises(EmptyEvaluationSet):
            det_metrics(ConfusionCounts(0, 0, 0, 0))


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert curve.auc == 1.0

    def test_reversed_separation(self):
        curve = roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0]))
        assert curve.auc == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        scores = rng.random(4000)
        labels = rng.random(4000) < 0.5
        assert abs(roc_auc(scores, labels).auc - 0.5) < 0.05

    def test_anchored_and_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.random(101)
        labels = rng.random(101) < 0.4
        curve = roc_auc(scores, labels)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_single_class_input(self):
        with pytest.raises(SingleClassInput):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        labels = rng.random(50) < 0.5
        labels[0], labels[1] = True, False
        base = roc_auc(scores, labels).auc
        perm = rng.permutation(50)
        assert roc_auc(scores[perm], labels[perm]).auc == pytest.approx(base, abs=1e-15)

    def test_matches_pairwise_oracle_on_500_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(2, 201))
            # coarse grid scores force plenty of ties
            scores = rng.choice(np.linspace(0, 1, 11), size=n)
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            got = roc_auc(scores, labels).auc
            want = pairwise_auc(scores, labels)
            assert abs(got - want) < 1e-12
