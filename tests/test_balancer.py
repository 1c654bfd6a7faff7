import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon.balancer import BalanceWarning, build_balanced_subset, round_half_up
from ocon.errors import BalanceToleranceExceeded, EmptyFalseClass, UnknownClass
from ocon.features import speaker_view
from tests.conftest import (
    matrix_from_labels,
    reference_group_distribution,
    reference_label_distribution,
)


def test_round_half_up():
    assert round_half_up(12.18) == 12
    assert round_half_up(10.73) == 11
    assert round_half_up(12.5) == 13
    assert round_half_up(11.5) == 12


@pytest.fixture(scope="module")
def reference_matrix():
    labels, groups = reference_group_distribution()
    return matrix_from_labels(labels, groups=groups)


class TestPhonemeSubsets:
    def test_ae_sizes(self, reference_matrix):
        # 134 positives, 11 false classes of round(134/11) = 12 -> 132
        subset = build_balanced_subset(reference_matrix, 0, seed=5)
        assert subset.n_positive == 134
        assert all(len(v) == 12 for v in subset.negatives_by_class.values())
        assert subset.n_negative == 132
        assert abs(subset.n_positive - subset.n_negative) <= 3

    def test_er_sizes(self, reference_matrix):
        # 118 positives, round(118/11) = 11 -> 121 negatives, diff 3
        subset = build_balanced_subset(reference_matrix, 4, seed=5)
        assert subset.n_positive == 118
        assert all(len(v) == 11 for v in subset.negatives_by_class.values())
        assert subset.n_negative == 121

    def test_imbalance_never_exceeds_three(self, reference_matrix):
        for label in range(12):
            subset = build_balanced_subset(reference_matrix, label, seed=9)
            assert abs(subset.n_positive - subset.n_negative) <= 3
            sizes = [len(v) for v in subset.negatives_by_class.values()]
            assert max(sizes) - min(sizes) <= 1

    def test_binary_labels_and_uniqueness(self, reference_matrix):
        subset = build_balanced_subset(reference_matrix, 3, seed=1)
        idx = subset.indices
        assert len(np.unique(idx)) == len(idx)
        assert np.all(reference_matrix.labels[subset.positives] == 3)
        for c, rows in subset.negatives_by_class.items():
            assert np.all(reference_matrix.labels[rows] == c)

    def test_determinism(self, reference_matrix):
        a = build_balanced_subset(reference_matrix, 6, seed=77)
        b = build_balanced_subset(reference_matrix, 6, seed=77)
        assert np.array_equal(a.indices, b.indices)
        c = build_balanced_subset(reference_matrix, 6, seed=78)
        assert not np.array_equal(a.indices, c.indices)

    def test_unknown_class(self, reference_matrix):
        with pytest.raises(UnknownClass):
            build_balanced_subset(reference_matrix, 12, seed=0)

    def test_empty_false_class(self):
        matrix = matrix_from_labels([0, 0, 0, 1, 1], n_classes=3)
        with pytest.raises(EmptyFalseClass):
            build_balanced_subset(matrix, 0, seed=0)


class TestAvailabilityCapping:
    def test_two_class_toy_caps_at_available(self):
        # round(10/1) = 10 requested from B, only 7 exist
        matrix = matrix_from_labels([0] * 10 + [1] * 7)
        subset = build_balanced_subset(matrix, 0, seed=0)
        assert subset.capped
        assert subset.n_negative == 7

    def test_hopeless_imbalance_raises(self):
        matrix = matrix_from_labels([0] * 20 + [1] * 5)
        with pytest.raises(BalanceToleranceExceeded):
            build_balanced_subset(matrix, 0, seed=0)

    def test_capped_class_compensated_by_others(self):
        # target round(20/2) = 10; B has 5, C compensates up to 12
        matrix = matrix_from_labels([0] * 20 + [1] * 5 + [2] * 30)
        subset = build_balanced_subset(matrix, 0, seed=3)
        assert subset.capped
        assert len(subset.negatives_by_class[1]) == 5
        assert len(subset.negatives_by_class[2]) == 12
        assert abs(subset.n_positive - subset.n_negative) <= 3


class TestToleranceFlag:
    def test_within_one_percent_no_warning(self):
        matrix = matrix_from_labels([0] * 100 + [1] * 200, n_classes=2)
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", BalanceWarning)
            subset = build_balanced_subset(matrix, 0, seed=0)
        assert not subset.tolerance_flag

    def test_flag_set_and_warns(self):
        labels = [0] * 134 + sum(([c] * 20 for c in range(1, 12)), [])
        matrix = matrix_from_labels(np.array(labels))
        with pytest.warns(BalanceWarning):
            subset = build_balanced_subset(matrix, 0, seed=0)
        assert subset.tolerance_flag  # |134 - 132| / 134 > 0.01


class TestSpeakerSubsets:
    def test_male_true_class(self, reference_matrix):
        # 527 men over 2 false groups: 264 women + 263 children = 527 exactly
        subset = build_balanced_subset(speaker_view(reference_matrix), 0, seed=2)
        assert subset.n_positive == 527
        assert len(subset.negatives_by_class[1]) == 264   # female
        assert len(subset.negatives_by_class[2]) == 263   # children
        assert subset.n_negative == 527

    def test_children_true_class(self, reference_matrix):
        # 301 boys + 221 girls = 522 children; round(522/2) = 261 each
        subset = build_balanced_subset(speaker_view(reference_matrix), 2, seed=2)
        assert subset.n_positive == 522
        assert all(len(v) == 261 for v in subset.negatives_by_class.values())

    def test_single_group_input(self):
        matrix = matrix_from_labels([0] * 24, groups=[0] * 24)
        with pytest.raises(EmptyFalseClass):
            build_balanced_subset(speaker_view(matrix), 0, seed=0)


class TestSizeInvariantsRandomized:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=14),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.data())
    def test_invariants_without_capping(self, k, seed, data):
        target_min = 40
        counts = [data.draw(st.integers(min_value=target_min, max_value=200))
                  for _ in range(k)]
        labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        matrix = matrix_from_labels(labels, n_classes=k)
        true_class = data.draw(st.integers(min_value=0, max_value=k - 1))
        p = counts[true_class]
        target = round_half_up(p / (k - 1))
        if any(counts[c] < target + 1 for c in range(k) if c != true_class):
            return  # capping scenario, covered elsewhere
        subset = build_balanced_subset(matrix, true_class, seed=seed)
        assert not subset.capped
        sizes = [len(v) for v in subset.negatives_by_class.values()]
        assert all(abs(s - target) <= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        assert abs(subset.n_positive - subset.n_negative) <= 3
        half_share = (k - 1) % 2 == 0 and p % (k - 1) == (k - 1) // 2
        if half_share:
            assert subset.n_negative == p
        elif abs(p - (k - 1) * target) <= 3:
            assert sizes == [target] * (k - 1)

    def test_uniform_selection_frequency(self):
        # chi-square sanity check: every false-class row is picked equally often
        from scipy.stats import chisquare
        matrix = matrix_from_labels([0] * 60 + [1] * 100, n_classes=2)
        hits = np.zeros(100)
        n_runs = 400
        for seed in range(n_runs):
            subset = build_balanced_subset(matrix, 0, seed=seed)
            hits[subset.negatives_by_class[1] - 60] += 1
        # each of 100 rows selected with p = 60/100 per run
        expected = n_runs * 60 / 100
        _, p_value = chisquare(hits, f_exp=np.full(100, expected))
        assert p_value > 1e-4
