import concurrent.futures
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon import training
from ocon.balancer import build_balanced_subset
from ocon.ensemble import load_ensemble, save_ensemble, train_ensemble
from ocon.errors import TooFewSamples, UnknownClass
from ocon.features import FeatureMatrix, FeatureSetKind, ScalingRecord, speaker_view
from ocon.mlp import MlpConfig, StackedParams, binary_accuracy
from ocon.search import run_stage
from ocon.training import (
    Cycle,
    EarlyStopRule,
    KFoldResult,
    TrainConfig,
    _run_cycle,
    _SplitData,
    _step_bounds,
    fan_out,
    k_fold_evaluate,
    one_class_cycle,
    plan_k_fold,
    split_dataset,
    train_one_class,
)
from ocon.util import derive_seed
from tests.conftest import matrix_from_labels


def subset_of(matrix, true_class=0, seed=3):
    return build_balanced_subset(matrix, true_class, seed=seed)


def blob_matrix(n_per_class=120, d=2, separation=6.0, seed=0, n_classes=2):
    """Linearly separable Gaussian blobs wrapped as a FeatureMatrix."""
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for c in range(n_classes):
        center = np.full(d, 0.25 + 0.5 * c / max(1, n_classes - 1))
        values.append(rng.normal(center, 0.5 / separation, size=(n_per_class, d)))
        labels += [c] * n_per_class
    values = np.clip(np.concatenate(values), 0.0, 1.0)
    kind = {2: None, 3: FeatureSetKind.SS3}.get(d)
    # 2-D blobs ride on an SS3 matrix with a padding column
    if d == 2:
        values = np.column_stack([values, np.full(len(values), 0.5)])
        kind = FeatureSetKind.SS3
    scaling = ScalingRecord(lo=np.zeros(3), hi=np.ones(3))
    return FeatureMatrix(values=values, labels=np.array(labels, dtype=np.int64),
                         groups=np.zeros(len(labels), dtype=np.int64),
                         scaling=scaling, feature_set=kind,
                         class_names=tuple(f"c{i}" for i in range(n_classes)))


class TestSplitDataset:
    def test_reference_sizes(self):
        # 134 + 132 = 266-sample subset -> 186/40/40
        labels = [0] * 134 + sum(([c] * 134 for c in range(1, 12)), [])
        matrix = matrix_from_labels(np.array(labels))
        subset = subset_of(matrix)
        assert subset.n_positive + subset.n_negative == 266
        train, dev, test = split_dataset(subset, (0.70, 0.15, 0.15), seed=0)
        assert (len(train), len(dev), len(test)) == (186, 40, 40)

    def test_disjoint_exhaustive(self):
        matrix = matrix_from_labels([0] * 40 + [1] * 50, n_classes=2)
        subset = subset_of(matrix)
        parts = split_dataset(subset, (0.70, 0.15, 0.15), seed=1)
        joined = np.concatenate(parts)
        assert len(joined) == len(np.unique(joined))
        assert set(joined.tolist()) == set(subset.indices.tolist())

    def test_small_input_nonempty_splits(self):
        matrix = matrix_from_labels([0] * 5 + [1] * 5, n_classes=2)
        subset = subset_of(matrix)
        parts = split_dataset(subset, (0.8, 0.1, 0.1), seed=2)
        assert [len(p) for p in parts] == [8, 1, 1]

    def test_too_few_samples(self):
        matrix = matrix_from_labels([0, 1], n_classes=2)
        subset = subset_of(matrix)
        with pytest.raises(TooFewSamples):
            split_dataset(subset, (0.8, 0.1, 0.1), seed=0)

    def test_deterministic_per_seed(self):
        matrix = matrix_from_labels([0] * 30 + [1] * 30, n_classes=2)
        subset = subset_of(matrix)
        a = split_dataset(subset, (0.7, 0.15, 0.15), seed=5)
        b = split_dataset(subset, (0.7, 0.15, 0.15), seed=5)
        c = split_dataset(subset, (0.7, 0.15, 0.15), seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=4, max_value=400),
           st.integers(min_value=4, max_value=400),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_stratification_within_one_sample(self, n_pos, n_neg, seed):
        labels = [0] * n_pos + [1] * n_neg
        matrix = matrix_from_labels(np.array(labels), n_classes=2)
        positives = np.flatnonzero(matrix.labels == 0)
        negatives = np.flatnonzero(matrix.labels == 1)
        from ocon.training import _stratified_split
        parts = _stratified_split(positives, negatives, (0.70, 0.15, 0.15), seed)
        joined = np.concatenate(parts)
        assert len(joined) == n_pos + n_neg
        assert len(np.unique(joined)) == len(joined)
        global_rate = n_pos / (n_pos + n_neg)
        pos_set = set(positives.tolist())
        for part in parts:
            got = sum(1 for i in part if int(i) in pos_set)
            assert abs(got - len(part) * global_rate) <= 1.0 + 1e-9


class TestTrainOneClass:
    def test_separable_blobs_early_stop(self):
        matrix = blob_matrix()
        cfg = MlpConfig(input_dim=3, hidden_layers=(16,), learning_rate=3e-3,
                        seed=2)
        tc = TrainConfig(epochs_per_batch_set=200, max_batch_sets=5,
                         early_stop=EarlyStopRule(0.2, 90.0), seed=0)
        model, report = train_one_class(matrix, 0, cfg, tc)
        assert report.stop_reason == "early_stop"
        assert report.test_accuracy == 100.0

    def test_unreachable_accuracy_exhausts_budget(self):
        matrix = blob_matrix(n_per_class=30)
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=3, max_batch_sets=2,
                         early_stop=EarlyStopRule(0.2, 101.0), seed=0)
        _, report = train_one_class(matrix, 0, cfg, tc)
        assert report.stop_reason == "exhausted_budget"
        assert report.epochs_run == 6

    def test_boundaries_align_with_reencoding(self):
        matrix = blob_matrix(n_per_class=40)
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,), learning_rate=1e-4, seed=0)
        tc = TrainConfig(epochs_per_batch_set=4, max_batch_sets=3,
                         early_stop=None, seed=1)
        _, report = train_one_class(matrix, 0, cfg, tc)
        assert report.batch_set_boundaries == [0, 4, 8]
        assert len(report.subset_seeds) == 3
        # re-encoding draws fresh seeds per batch set
        assert len(set(report.subset_seeds)) == 3

    def test_reencode_off_keeps_subset(self):
        matrix = blob_matrix(n_per_class=40)
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,), learning_rate=1e-4, seed=0)
        tc = TrainConfig(epochs_per_batch_set=2, max_batch_sets=3, early_stop=None,
                         seed=1, reencode_per_batch_set=False)
        _, report = train_one_class(matrix, 0, cfg, tc)
        assert len(set(report.subset_seeds)) == 1

    def test_diverged_run_reports(self):
        matrix = blob_matrix(n_per_class=30)
        matrix.values[3, 1] = np.nan  # corrupt cell -> non-finite loss
        cfg = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=50, max_batch_sets=2,
                         early_stop=None, seed=0)
        _, report = train_one_class(matrix, 0, cfg, tc)
        assert report.stop_reason == "diverged"
        assert report.test_accuracy == 0.0

    def test_determinism_same_seed_same_curve(self):
        matrix = blob_matrix(n_per_class=40)
        cfg = MlpConfig(input_dim=3, hidden_layers=(6,), learning_rate=1e-3,
                        dropout_keep_hidden=0.8, batch_norm=True, seed=5)
        tc = TrainConfig(epochs_per_batch_set=5, max_batch_sets=2,
                         early_stop=None, seed=9)
        _, r1 = train_one_class(matrix, 0, cfg, tc)
        _, r2 = train_one_class(matrix, 0, cfg, tc)
        assert r1.loss_curve == r2.loss_curve

    def test_early_stop_monotone_in_thresholds(self):
        matrix = blob_matrix()
        cfg = MlpConfig(input_dim=3, hidden_layers=(16,), learning_rate=3e-3, seed=2)
        strict = TrainConfig(epochs_per_batch_set=200, max_batch_sets=5,
                             early_stop=EarlyStopRule(0.05, 99.0), seed=0)
        loose = TrainConfig(epochs_per_batch_set=200, max_batch_sets=5,
                            early_stop=EarlyStopRule(0.2, 90.0), seed=0)
        _, strict_report = train_one_class(matrix, 0, cfg, strict)
        _, loose_report = train_one_class(matrix, 0, cfg, loose)
        assert loose_report.epochs_run <= strict_report.epochs_run

    def test_speaker_task(self, synth_matrix):
        cfg = MlpConfig(input_dim=12, hidden_layers=(8,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=3, max_batch_sets=1, early_stop=None,
                         seed=0)
        _, report = train_one_class(speaker_view(synth_matrix), 0, cfg, tc)
        assert report.class_name == "male"
        assert report.subset_sizes[0][0] == int(np.sum(synth_matrix.groups == 0))


class TestClassIdAndEscapeOnTest:
    @pytest.mark.parametrize("class_id", [99, 2, -1])
    def test_unknown_class_id(self, class_id):
        matrix = blob_matrix(n_per_class=20)
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,), seed=0)
        tc = TrainConfig(epochs_per_batch_set=1, max_batch_sets=1, early_stop=None)
        with pytest.raises(UnknownClass, match="outside 0..1"):
            train_one_class(matrix, class_id, cfg, tc)
        with pytest.raises(UnknownClass):
            one_class_cycle(matrix, class_id, cfg, tc)

    def test_escape_on_test_checks_the_test_split(self, monkeypatch):
        # dev (19 rows) and test (18 rows) differ in size, so the row count
        # of every held-out check names the split it read
        matrix = blob_matrix(n_per_class=62, separation=1.5, seed=3)
        cfg = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=40, max_batch_sets=3,
                         early_stop=EarlyStopRule(0.6, 85.0), seed=0)
        checked = []
        original = training.binary_accuracy

        def spy(params, config, x, y):
            checked.append(len(y))
            return original(params, config, x, y)

        monkeypatch.setattr(training, "binary_accuracy", spy)
        _, on_dev = train_one_class(matrix, 0, cfg, tc)
        dev_checks, checked[:] = checked[:], []
        _, on_test = train_one_class(matrix, 0, cfg, replace(tc, escape_on_test=True))
        assert on_dev.split_sizes[0] == on_test.split_sizes[0] == (87, 19, 18)
        # held-out checks, then the final test-accuracy pass
        assert set(dev_checks[:-1]) == {19} and dev_checks[-1] == 18
        assert set(checked) == {18} and len(checked) >= 2
        assert on_dev.stop_reason == on_test.stop_reason == "early_stop"
        assert on_dev.epochs_run != on_test.epochs_run
        # the escape accuracy it records is the test accuracy it reports
        assert on_test.dev_accuracy == on_test.test_accuracy
        assert on_dev.dev_accuracy != on_dev.test_accuracy


class TestKFold:
    def test_three_folds_mean(self):
        matrix = blob_matrix(n_per_class=60)
        cfg = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3, seed=1)
        tc = TrainConfig(epochs_per_batch_set=30, max_batch_sets=1,
                         early_stop=None, seed=4)
        result = k_fold_evaluate(matrix, 0, cfg, tc, k=3)
        assert len(result.reports) == 3
        expected = sum(r.test_accuracy for r in result.reports) / 3
        assert result.mean_accuracy == pytest.approx(expected)

    def test_deterministic(self):
        matrix = blob_matrix(n_per_class=40)
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,), learning_rate=1e-3, seed=1)
        tc = TrainConfig(epochs_per_batch_set=5, max_batch_sets=1,
                         early_stop=None, seed=4)
        a = k_fold_evaluate(matrix, 0, cfg, tc, k=3)
        b = k_fold_evaluate(matrix, 0, cfg, tc, k=3)
        assert a.mean_accuracy == b.mean_accuracy
        assert [r.test_accuracy for r in a.reports] == [r.test_accuracy for r in b.reports]

    def test_leave_one_out_on_tiny_set(self):
        matrix = matrix_from_labels([0] * 6 + [1] * 6, n_classes=2)
        cfg = MlpConfig(input_dim=3, hidden_layers=(2,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1,
                         early_stop=None, seed=0)
        subset = subset_of(matrix)
        n = subset.n_positive + subset.n_negative
        result = k_fold_evaluate(matrix, 0, cfg, tc, k=n)
        assert len(result.reports) == n

    def test_k_too_large(self):
        matrix = matrix_from_labels([0] * 6 + [1] * 6, n_classes=2)
        cfg = MlpConfig(input_dim=3, hidden_layers=(2,), seed=0)
        tc = TrainConfig(early_stop=None, seed=0)
        with pytest.raises(TooFewSamples):
            k_fold_evaluate(matrix, 0, cfg, tc, k=100)

    def test_folds_are_disjoint_and_cover_subset(self):
        from ocon.training import _fold_assignment
        rng = np.random.default_rng(0)
        pos_folds, neg_folds = _fold_assignment(10, 9, 4, rng)
        assert sorted(np.bincount(pos_folds, minlength=4).tolist()) == [2, 2, 3, 3]
        assert len(pos_folds) == 10 and len(neg_folds) == 9
        for f in range(4):
            assert np.sum(pos_folds == f) + np.sum(neg_folds == f) >= 1


# --- lockstep engine: every grouping gives each member its solo bits ---

def digest(model, report):
    """Bytes of everything a cycle produces, timing excluded."""
    params = model.params
    arrays = (params.theta, *params.running_mean, *params.running_var,
              np.asarray(report.loss_curve, dtype=np.float64))
    fields = {k: v for k, v in report.to_dict().items() if k != "train_seconds"}
    return b"".join(a.tobytes() for a in arrays), repr(fields), params.step


def member_cycles(matrix, class_ids, mlp, tc, data=None):
    """One seeded ``Cycle`` per class, as ``train_ensemble`` derives them;
    ``data`` maps a class id to another matrix to draw that member from."""
    data = data or {}
    return [one_class_cycle(data.get(cid, matrix), cid,
                            replace(mlp, seed=derive_seed(mlp.seed, "member", cid)),
                            replace(tc, seed=derive_seed(tc.seed, "member", cid)))
            for cid in class_ids]


def solo(matrix, cycles):
    return [digest(*_run_cycle(matrix, [cycle])[0]) for cycle in cycles]


def together(matrix, cycles):
    return [digest(*out) for out in _run_cycle(matrix, cycles)]


TUNED_TC = TrainConfig(epochs_per_batch_set=2, max_batch_sets=2, early_stop=None, seed=4)


def early_stop_bank():
    """(matrix, mlp, tc) of a 4-member bank whose members stop at different epochs."""
    matrix = blob_matrix(n_per_class=60, n_classes=4, seed=3)
    mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3,
                    batch_norm=True, dropout_keep_hidden=0.8, seed=6)
    tc = TrainConfig(epochs_per_batch_set=15, max_batch_sets=3,
                     early_stop=EarlyStopRule(0.3, 90.0, loss_window=40), seed=2)
    return matrix, mlp, tc


def steps_taken(report, config):
    """The optimizer steps of a cycle: one per minibatch of every epoch run."""
    return report.epochs_run * len(_step_bounds(report.split_sizes[0][0], config))


class TestLockstep:
    def test_bank_as_one_group_as_5_and_7_and_alone(self, synth_matrix):
        mlp = MlpConfig.tuned(12, seed=3)

        def cycles():
            return member_cycles(synth_matrix, range(12), mlp, TUNED_TC)

        reference = solo(synth_matrix, cycles())
        assert together(synth_matrix, cycles()) == reference
        split = cycles()
        assert (together(synth_matrix, split[:5]) + together(synth_matrix, split[5:])
                == reference)

    def test_size_cap_splits_a_group_without_changing_bits(self, synth_matrix, monkeypatch):
        mlp = MlpConfig(input_dim=12, hidden_layers=(16, 8), optimizer="rmsprop",
                        learning_rate=1e-3, seed=1)
        reference = solo(synth_matrix, member_cycles(synth_matrix, range(5), mlp, TUNED_TC))
        seen = []
        monkeypatch.setattr(training, "STACK_MAX_VALUES", 2 * 32 * 16)
        original = training._train_group
        monkeypatch.setattr(training, "_train_group",
                            lambda members, *a: seen.append(len(members)) or original(members, *a))
        assert together(synth_matrix, member_cycles(synth_matrix, range(5), mlp,
                                                    TUNED_TC)) == reference
        assert seen == [2, 2, 1]

    def test_unequal_training_splits(self, synth_matrix):
        mlp = MlpConfig.tuned(12, seed=2)
        tc = replace(TUNED_TC, reencode_per_batch_set=False)

        def cycles():
            return [c for cid in (0, 4) for c in plan_k_fold(synth_matrix, cid, mlp, tc)]

        trained = _run_cycle(synth_matrix, cycles())
        assert len({r.split_sizes[0][0] for _, r in trained}) > 1
        assert [digest(*out) for out in trained] == solo(synth_matrix, cycles())

    def test_members_stopping_early_at_different_epochs(self):
        matrix = blob_matrix(n_per_class=60, n_classes=4, seed=3)
        mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3,
                        batch_norm=True, dropout_keep_hidden=0.8, seed=6)
        tc = TrainConfig(epochs_per_batch_set=15, max_batch_sets=3,
                         early_stop=EarlyStopRule(0.3, 90.0, loss_window=40), seed=2)
        trained = _run_cycle(matrix, member_cycles(matrix, range(4), mlp, tc))
        stops = [(r.stop_reason, r.epochs_run) for _, r in trained]
        assert ("early_stop" in {reason for reason, _ in stops}
                and len({epochs for _, epochs in stops}) > 1), stops
        assert ([digest(*out) for out in trained]
                == solo(matrix, member_cycles(matrix, range(4), mlp, tc)))

    def test_each_member_counts_its_own_steps(self):
        # the count is Adam's t: a member that stops early keeps its own
        matrix, mlp, tc = early_stop_bank()
        trained = _run_cycle(matrix, member_cycles(matrix, range(4), mlp, tc))
        assert len({r.epochs_run for _, r in trained}) > 1
        assert [m.params.step for m, _ in trained] == [steps_taken(r, mlp) for _, r in trained]

    def test_a_group_trains_in_one_stack_its_members_keep(self, monkeypatch):
        matrix = blob_matrix(n_per_class=60, n_classes=4, seed=3)
        mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3,
                        batch_norm=True, dropout_keep_hidden=0.8, seed=6)
        tc = TrainConfig(epochs_per_batch_set=15, max_batch_sets=3,
                         early_stop=EarlyStopRule(0.3, 90.0, loss_window=40), seed=2)
        stacks = []
        real_init = StackedParams.__init__

        def counting_init(self, *args, **kwargs):
            stacks.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(StackedParams, "__init__", counting_init)
        trained = _run_cycle(matrix, member_cycles(matrix, range(4), mlp, tc))
        # one float32 training stack, one float64 result stack, and between
        # them the float64 K=1 widening each held-out check runs on
        train, *checks, result = stacks
        assert (train.n_members, train.theta.dtype) == (4, np.float32)
        assert (result.n_members, result.theta.dtype) == (4, np.float64)
        assert checks and all((s.n_members, s.theta.dtype) == (1, np.float64) for s in checks)
        assert "early_stop" in {r.stop_reason for _, r in trained}
        rows = set()
        for model, _ in trained:
            assert np.shares_memory(model.params.theta, result.theta)
            assert all(a.dtype == np.float64 for a in model.params._state()[:-1])
            rows.add(model.params.theta.__array_interface__["data"][0])
        assert len(rows) == 4

    def test_a_diverging_member_leaves_the_others_unchanged(self, synth_matrix):
        mlp = MlpConfig.tuned(12, seed=8)
        poisoned = replace(synth_matrix, values=synth_matrix.values.copy())
        poisoned.values[synth_matrix.labels == 3] = np.nan
        data = {3: poisoned}

        def cycles():
            return member_cycles(synth_matrix, range(6), mlp, TUNED_TC, data)

        with np.errstate(invalid="ignore"):
            trained = _run_cycle(synth_matrix, cycles())
            reference = solo(synth_matrix, cycles())
        assert [r.stop_reason for _, r in trained] == ["exhausted_budget"] * 3 + [
            "diverged"] + ["exhausted_budget"] * 2
        assert [digest(*out) for out in trained] == reference

    def test_a_member_diverging_mid_epoch_takes_no_ones_losses(self, synth_matrix,
                                                               monkeypatch):
        # this poisoned row first meets a step after the epoch's first, so the
        # rows the members move hold the losses of earlier steps
        mlp = MlpConfig.tuned(12, seed=8)
        poisoned = replace(synth_matrix, values=synth_matrix.values.copy())
        poisoned.values[np.flatnonzero(synth_matrix.labels == 1)[1]] = np.nan

        def cycles():
            return member_cycles(synth_matrix, range(4), mlp, TUNED_TC, {1: poisoned})

        finite, real = [], training.loss_and_grads

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            finite.append(bool(np.isfinite(out[0]).all()))
            return out

        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(training, "loss_and_grads", spy)
            trained = _run_cycle(synth_matrix, cycles())
            monkeypatch.undo()
            reference = solo(synth_matrix, cycles())
        steps = len(_step_bounds(trained[0][1].split_sizes[0][0], mlp))
        assert finite.index(False) % steps > 0
        assert [r.stop_reason for _, r in trained] == ["exhausted_budget", "diverged"] + [
            "exhausted_budget"] * 2
        assert [digest(*out) for out in trained] == reference

    def test_blocks_follow_members_out_by_both_routes(self, monkeypatch):
        # member 1 diverges mid-epoch in batch-set 0 and member 0 stops early
        # in batch-set 2; the training splits are copied into the group's
        # blocks only at batch-set start, so the survivors read the right
        # rows for the rest of batch-set 0 and all of batch-set 2 only if
        # the blocks moved with the members each time
        matrix = blob_matrix(n_per_class=60, n_classes=5, seed=3)
        mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3,
                        batch_norm=True, dropout_keep_hidden=0.8, seed=8)
        tc = TrainConfig(epochs_per_batch_set=15, max_batch_sets=3,
                         early_stop=EarlyStopRule(0.3, 90.0, loss_window=40), seed=2)
        poisoned = replace(matrix, values=matrix.values.copy())
        poisoned.values[np.flatnonzero(matrix.labels == 1)[0]] = np.nan

        def cycles():
            return member_cycles(matrix, range(5), mlp, tc, {1: poisoned})

        finite, real = [], training.loss_and_grads

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            finite.append(bool(np.isfinite(out[0]).all()))
            return out

        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(training, "loss_and_grads", spy)
            trained = _run_cycle(matrix, cycles())
            monkeypatch.undo()
            reference = solo(matrix, cycles())
        reports = [r for _, r in trained]
        assert finite.index(False) % len(_step_bounds(reports[0].split_sizes[0][0], mlp)) > 0
        assert [(r.stop_reason, len(r.batch_set_boundaries)) for r in reports] == [
            ("early_stop", 3), ("diverged", 1)] + [("exhausted_budget", 3)] * 3
        assert [digest(*out) for out in trained] == reference

    def test_reports_score_the_saved_members(self, synth_matrix, tmp_path):
        # a group steps in float32, but every accuracy its reports record --
        # the early-stop check's dev_accuracy, the final dev and test ones --
        # is the float64 score of the member as saved and loaded again
        mlp = MlpConfig.tuned(12, seed=1)
        tc = TrainConfig(epochs_per_batch_set=20, max_batch_sets=2,
                         early_stop=EarlyStopRule(0.6, 80.0), seed=1)
        model, reports = train_ensemble(synth_matrix, mlp, tc)
        assert {"early_stop", "exhausted_budget"} == {r.stop_reason for r in reports}
        save_ensemble(model, str(tmp_path / "bank"))
        loaded = load_ensemble(str(tmp_path / "bank"))
        cycles = member_cycles(synth_matrix, range(12), mlp, tc)
        for member, report, cycle in zip(loaded.members, reports, cycles):
            assert member.params.theta.dtype == np.float64
            _, dev, test = cycle.provider(len(report.split_sizes) - 1)[0]
            assert report.dev_accuracy == binary_accuracy(member.params, member.config,
                                                          dev.x, dev.y)
            assert report.test_accuracy == binary_accuracy(member.params, member.config,
                                                           test.x, test.y)

    def test_shares_of_group_time_add_up(self, synth_matrix):
        mlp = MlpConfig.tuned(12, seed=3)
        t0 = time.perf_counter()
        trained = _run_cycle(synth_matrix, member_cycles(synth_matrix, range(4), mlp, TUNED_TC))
        wall = time.perf_counter() - t0
        seconds = [r.train_seconds for _, r in trained]
        assert all(s > 0 for s in seconds) and sum(seconds) <= wall


class TestBatchNormTail:
    @pytest.mark.parametrize("n, batch_norm, bounds", [
        (33, True, [(0, 33)]),
        (33, False, [(0, 32), (32, 33)]),
        (65, True, [(0, 32), (32, 65)]),
        (64, True, [(0, 32), (32, 64)]),
        (1, True, [(0, 1)]),
        (197, True, [(0, 32), (32, 64), (64, 96), (96, 128), (128, 160), (160, 192),
                     (192, 197)]),
    ])
    def test_step_bounds(self, n, batch_norm, bounds):
        config = MlpConfig(input_dim=3, batch_norm=batch_norm, batch_size=32)
        assert _step_bounds(n, config) == bounds

    @pytest.mark.parametrize("batch_norm, steps", [(True, [33]), (False, [32, 1])])
    def test_no_one_row_step_under_batch_norm(self, monkeypatch, batch_norm, steps):
        matrix = blob_matrix(n_per_class=30, seed=1)
        rows = np.arange(43)
        y = (matrix.labels == 0).astype(np.float64)

        def part(idx):
            return _SplitData(x=matrix.values[idx], y=y[idx])

        def provider(bs):
            return (part(rows[:33]), part(rows[33:38]), part(rows[38:])), 0, (30, 30)

        seen = []
        original = training.loss_and_grads

        def record(params, config, batch, labels, *args, **kwargs):
            seen.append(len(labels))
            return original(params, config, batch, labels, *args, **kwargs)

        monkeypatch.setattr(training, "loss_and_grads", record)
        mlp = MlpConfig(input_dim=3, hidden_layers=(4,), batch_norm=batch_norm, seed=0)
        tc = TrainConfig(epochs_per_batch_set=3, max_batch_sets=1, early_stop=None)
        [(model, report)] = _run_cycle(matrix, [Cycle("c0", provider, mlp, tc)])
        assert seen == steps * 3
        assert model.params.step == len(steps) * 3 and report.epochs_run == 3
        if batch_norm:
            # no zero-variance update: every running variance stays above the
            # 0.9 ** 3 that three degenerate steps would leave behind
            assert (model.params.running_var[0] > 0.9 ** 3).all()


class TestParallelLockstep:
    def test_train_ensemble_workers_1_2_3_equal_solo_members(self):
        matrix = blob_matrix(n_per_class=30, n_classes=5, seed=4)
        mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3,
                        batch_norm=True, dropout_keep_hidden=0.7, seed=1)
        tc = TrainConfig(epochs_per_batch_set=4, max_batch_sets=2, early_stop=None, seed=2)
        reference = solo(matrix, member_cycles(matrix, range(5), mlp, tc))
        for workers in (1, 2, 3):
            model, reports = train_ensemble(matrix, mlp, tc, workers=workers)
            assert [digest(m, r) for m, r in zip(model.members, reports)] == reference

    def test_run_stage_workers_1_2_equal_solo_folds(self):
        from tests.test_search import tiny_stage
        matrix = blob_matrix(n_per_class=30, n_classes=3, seed=2)
        stage = tiny_stage()
        serial = run_stage(matrix, stage, seed=5, workers=1)
        parallel = run_stage(matrix, stage, seed=5, workers=2)
        assert serial.to_csv_text() == parallel.to_csv_text()
        for row in serial.rows:
            for cid, name in enumerate(matrix.class_names):
                cell_seed = derive_seed(5, "cell", row.index, cid)
                mlp = MlpConfig.from_hps({**stage.fixed, **row.hps,
                                          "seed": derive_seed(cell_seed, "init")}, 3, "hps")
                tc = TrainConfig(epochs_per_batch_set=stage.epochs, max_batch_sets=1,
                                 early_stop=None, k_folds=stage.k_folds,
                                 seed=derive_seed(cell_seed, "train"),
                                 reencode_per_batch_set=False)
                folds = [_run_cycle(matrix, [c])[0][1]
                         for c in plan_k_fold(matrix, cid, mlp, tc)]
                assert row.per_class[name][0] == KFoldResult.of(folds).mean_accuracy


def report_run(unit, class_ids):
    """A ``fan_out`` task: for each of its class ids, its unit and run."""
    return [(unit, tuple(class_ids))] * len(class_ids)


class TestFanOut:
    """The one rule that cuts banks and grid combinations into pool tasks."""

    def tasks(self, monkeypatch, n_units, n_classes, workers):
        """The (unit, class run) tasks per unit, and the pool sizes asked
        for, with threads standing in for the worker processes."""
        sizes = []

        class ThreadPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPool)
        per_unit = fan_out(report_run, [(u,) for u in range(n_units)], n_classes, workers)
        assert [[unit for unit, _ in items] for items in per_unit] == \
            [[u] * n_classes for u in range(n_units)]
        return [list(dict.fromkeys(run for _, run in items)) for items in per_unit], sizes

    @pytest.mark.parametrize("workers, n_runs, pool", [(1, 1, []), (2, 2, [2]), (3, 3, [3]),
                                                       (20, 12, [12])])
    def test_one_bank_is_cut_into_contiguous_runs(self, monkeypatch, workers, n_runs, pool):
        [runs], sizes = self.tasks(monkeypatch, 1, 12, workers)
        assert len(runs) == n_runs and sizes == pool
        assert [cid for run in runs for cid in run] == list(range(12))
        assert all(run == tuple(range(run[0], run[-1] + 1)) for run in runs)
        assert max(map(len, runs)) - min(map(len, runs)) <= 1

    def test_units_at_least_workers_keep_one_task_each(self, monkeypatch):
        runs, sizes = self.tasks(monkeypatch, 18, 12, 2)
        assert runs == [[tuple(range(12))]] * 18 and sizes == [2]

    def test_units_fewer_than_workers_share_them_out(self, monkeypatch):
        runs, sizes = self.tasks(monkeypatch, 3, 12, 4)
        assert runs == [[tuple(range(6)), tuple(range(6, 12))]] * 3 and sizes == [4]
