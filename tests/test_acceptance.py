"""Acceptance gate: one test per criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-5 need the
public /hVd/ measurement file (see conftest); they skip with a clear message
when it is absent.  Criteria 6-13 are self-contained and fast.
"""

import functools
import os

import numpy as np
import pytest

import ocon
from ocon.balancer import build_balanced_subset, round_half_up
from ocon.dataset import (
    ARPABET_CODES,
    ColumnLayout,
    SpeakerGroup,
    class_statistics,
    filter_usable,
    load_dataset,
)
from ocon.ensemble import evaluate_ensemble, infer, load_ensemble, save_ensemble, train_ensemble
from ocon.features import FeatureSetKind, build_feature_matrix, load_matrix, save_matrix
from ocon.metrics import det_metrics, roc_auc, ConfusionCounts
from ocon.mlp import MlpConfig, MlpModel, load_model, save_model
from ocon.search import run_stage, stage_presets
from ocon.training import EarlyStopRule, TrainConfig, train_one_class
from tests.conftest import (
    REFERENCE_CLASS_COUNTS,
    REFERENCE_TOTALS,
    matrix_from_labels,
    require_hgcw,
)
from tests.test_metrics import pairwise_auc
from tests.test_mlp import finite_difference_grads, max_relative_error
from tests.test_training import blob_matrix

TRAINING_SEEDS = (101, 102, 103)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as err:
                print(f"SKIP criterion {number}: {title} ({err})")
                raise
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")
        return wrapper
    return decorate


# --- real-data fixtures (criteria 1-5) ---

@pytest.fixture(scope="module")
def real_records():
    return load_dataset(require_hgcw(), ColumnLayout.hgcw_bigdata())


@pytest.fixture(scope="module")
def real_tt_matrix(real_records):
    matrix, _ = build_feature_matrix(real_records, FeatureSetKind.TT12)
    return matrix


def run_experiment(matrix, thresholds, seeds=TRAINING_SEEDS, max_batch_sets=15):
    """The phoneme-recognition protocol: tuned one-class setup, early
    stopping at the given thresholds, averaged over master seeds."""
    loss_t, acc_t = thresholds
    per_seed_avg, per_seed_argmax, ensembles = [], [], []
    for seed in seeds:
        mlp = MlpConfig.tuned(matrix.feature_set.dim, seed=seed)
        tc = TrainConfig(epochs_per_batch_set=1000, max_batch_sets=max_batch_sets,
                         early_stop=EarlyStopRule(loss_t, acc_t), seed=seed)
        model, reports = train_ensemble(matrix, mlp, tc)
        per_seed_avg.append(sum(r.test_accuracy for r in reports) / len(reports))
        per_seed_argmax.append(evaluate_ensemble(model, matrix).argmax_accuracy)
        ensembles.append(model)
    return (sum(per_seed_avg) / len(per_seed_avg),
            sum(per_seed_argmax) / len(per_seed_argmax), ensembles)


@pytest.fixture(scope="module")
def tt_experiment(real_tt_matrix):
    return run_experiment(real_tt_matrix, thresholds=(0.15, 95.0))


@criterion(1, "usable-sample filter keeps exactly 1597 of 1668 records")
def test_c01_usable_filter(real_records):
    assert len(real_records) == 1668
    kept, dropped = filter_usable(real_records, FeatureSetKind.TT12)
    assert len(kept) == 1597
    assert len(dropped) == 71


@criterion(2, "class statistics reproduce the published table exactly")
def test_c02_class_statistics(real_records):
    kept, _ = filter_usable(real_records, FeatureSetKind.TT12)
    stats = class_statistics(kept)
    for label_id, code in enumerate(ARPABET_CODES):
        samples, boys, girls, men, women = REFERENCE_CLASS_COUNTS[code]
        assert stats.phoneme_total(label_id) == samples, code
        assert stats.count(label_id, SpeakerGroup.BOY) == boys, code
        assert stats.count(label_id, SpeakerGroup.GIRL) == girls, code
        assert stats.count(label_id, SpeakerGroup.MAN) == men, code
        assert stats.count(label_id, SpeakerGroup.WOMAN) == women, code
    total, boys, girls, men, women = REFERENCE_TOTALS
    assert stats.total == total
    assert stats.group_total(SpeakerGroup.BOY) == boys
    assert stats.group_total(SpeakerGroup.GIRL) == girls
    assert stats.group_total(SpeakerGroup.MAN) == men
    assert stats.group_total(SpeakerGroup.WOMAN) == women


@criterion(3, "time-tracks experiment: avg accuracy >= 90.7%, joint >= 85%")
def test_c03_time_tracks_experiment(tt_experiment):
    avg_accuracy, argmax_accuracy, _ = tt_experiment
    assert avg_accuracy >= 90.7
    assert argmax_accuracy >= 85.0


@criterion(4, "steady-state experiment: avg accuracy >= 84.8%, joint >= 63%")
def test_c04_steady_state_experiment(real_records):
    # the 71 unusable samples are dropped once, for every experiment, so the
    # steady-state run sees the same 1597 rows as the time-tracks run
    consistent, _ = filter_usable(real_records, FeatureSetKind.TT12)
    matrix, dropped = build_feature_matrix(consistent, FeatureSetKind.SS3)
    assert matrix.n_rows == 1597 and not dropped
    avg_accuracy, argmax_accuracy, _ = run_experiment(matrix, thresholds=(0.2, 90.0))
    assert avg_accuracy >= 84.8
    assert argmax_accuracy >= 63.0


@criterion(5, "time-tracks DET table: every per-class AUC and NPV >= 0.98")
def test_c05_det_auc_table(real_tt_matrix, tt_experiment):
    _, _, ensembles = tt_experiment
    evaluation = evaluate_ensemble(ensembles[0], real_tt_matrix)
    for c, name in enumerate(ensembles[0].class_names):
        truth = real_tt_matrix.labels == c
        auc = roc_auc(evaluation.scores[:, c], truth).auc
        det = det_metrics(ConfusionCounts.from_scores(evaluation.scores[:, c], truth))
        assert auc >= 0.98, f"{name}: AUC {auc:.4f}"
        assert det.npv is not None and det.npv >= 0.98, f"{name}: NPV {det.npv}"


@criterion(6, "stage presets report exactly 648 / 864 / 360 / 360 cycles")
def test_c06_cycle_counts():
    counts = [stage.cycle_count(12) for stage in stage_presets()]
    assert counts == [648, 864, 360, 360]


@criterion(7, "gradients match central finite differences on 20 random configs")
def test_c07_gradient_correctness():
    rng = np.random.default_rng(2024)
    for case in range(20):
        config = MlpConfig(
            input_dim=int(rng.integers(2, 6)),
            hidden_layers=tuple(int(rng.integers(2, 7))
                                for _ in range(int(rng.integers(1, 3)))),
            batch_norm=bool(case % 2),
            l2_lambda=float(rng.choice([0.0, 1e-3])),
            seed=int(rng.integers(0, 2 ** 31)))
        params = ocon.init_params(config)
        for arr in params.trainables():
            arr += rng.normal(0, 0.05, size=arr.shape)
        x = rng.random((int(rng.integers(3, 9)), config.input_dim))
        y = (rng.random(len(x)) < 0.5).astype(np.float64)
        _, grads, _ = ocon.loss_and_grads(params, config, x[None], y)
        numeric = finite_difference_grads(params, config, x, y)
        err = max_relative_error(grads[0], numeric)
        assert err < 1e-4, f"case {case}: relative error {err:.2e}"


@criterion(8, "balancer invariants hold on 1000 random label distributions")
def test_c08_balancer_invariants():
    rng = np.random.default_rng(77)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 5000, "could not generate enough uncapped cases"
        k = int(rng.integers(2, 13))
        counts = rng.integers(40, 200, size=k)
        if k == 2:
            counts[1] = counts[0] + int(rng.integers(0, 20))
        labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        matrix = matrix_from_labels(labels, n_classes=k, seed=int(rng.integers(1e9)))
        true_class = int(rng.integers(0, k))
        try:
            subset = build_balanced_subset(matrix, true_class,
                                           seed=int(rng.integers(1e9)))
        except ocon.errors.BalanceToleranceExceeded:
            continue  # hopeless capped draw; only uncapped cases count
        if subset.capped:
            continue
        checked += 1
        p = int(counts[true_class])
        target = round_half_up(p / (k - 1))
        sizes = [len(v) for v in subset.negatives_by_class.values()]
        assert all(abs(s - target) <= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        assert abs(subset.n_positive - subset.n_negative) <= 3


@criterion(9, "seeded runs are bitwise identical; worker count never matters")
def test_c09_determinism(tmp_path):
    matrix = blob_matrix(n_per_class=50, n_classes=2, seed=3)
    cfg = MlpConfig(input_dim=3, hidden_layers=(10,), learning_rate=1e-3,
                    dropout_keep_hidden=0.8, batch_norm=True, seed=12)
    tc = TrainConfig(epochs_per_batch_set=20, max_batch_sets=2,
                     early_stop=None, seed=21)
    model_a, report_a = train_one_class(matrix, 0, cfg, tc)
    model_b, report_b = train_one_class(matrix, 0, cfg, tc)
    assert report_a.loss_curve == report_b.loss_curve
    path_a, path_b = str(tmp_path / "a.ocmdl"), str(tmp_path / "b.ocmdl")
    save_model(model_a, path_a)
    save_model(model_b, path_b)
    assert open(path_a, "rb").read() == open(path_b, "rb").read()

    from tests.test_search import tiny_stage
    stage = tiny_stage()
    for workers in (1, 2, 3):
        result = run_stage(matrix, stage, seed=8, workers=workers)
        csv_text = result.to_csv_text()
        if workers == 1:
            reference = csv_text
        else:
            assert csv_text == reference


@criterion(10, "trapezoidal AUC equals pairwise AUC within 1e-12, 500 instances")
def test_c10_auc_oracle_equivalence():
    rng = np.random.default_rng(4242)
    for _ in range(500):
        n = int(rng.integers(2, 201))
        scores = rng.choice(np.linspace(0, 1, 13), size=n)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        assert abs(roc_auc(scores, labels).auc - pairwise_auc(scores, labels)) < 1e-12


@criterion(11, "separable 2-D task early-stops at 100% test accuracy, tuned config")
def test_c11_separable_convergence():
    matrix = blob_matrix(n_per_class=120, separation=6.0, seed=6)
    cfg = MlpConfig.tuned(input_dim=3, seed=1)
    tc = TrainConfig(epochs_per_batch_set=1000, max_batch_sets=5,
                     early_stop=EarlyStopRule(0.2, 90.0), seed=2)
    _, report = train_one_class(matrix, 0, cfg, tc)
    assert report.stop_reason == "early_stop"
    assert report.test_accuracy == 100.0


@criterion(12, "first-occurrence argmax, invariant under increasing transforms")
def test_c12_argmax_invariance():
    from tests.test_ensemble import constant_member
    from ocon.features import ScalingRecord
    scaling = ScalingRecord(lo=np.zeros(3), hi=np.ones(3))
    logits = [0.0, np.log(0.9 / 0.1), np.log(0.9 / 0.1)]
    model = ocon.OconModel(
        class_names=("a", "b", "c"),
        members=[constant_member(z, scaling.content_hash()) for z in logits],
        scaling=scaling, feature_set=FeatureSetKind.SS3)
    probs, predicted = infer(model, np.array([0.5, 0.5, 0.5]))
    assert predicted == 1  # first of the tied maxima
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(0.01, 10.0), rng.uniform(-5.0, 5.0)
        transformed = a * probs + b
        assert int(np.argmax(transformed)) == predicted
    zero_model = ocon.OconModel(
        class_names=("a", "b", "c"),
        members=[constant_member(0.0, scaling.content_hash()) for _ in range(3)],
        scaling=scaling, feature_set=FeatureSetKind.SS3)
    _, tied = infer(zero_model, np.zeros(3))
    assert tied == 0


@criterion(13, "matrix, checkpoint, and ensemble files round-trip bitwise")
def test_c13_serialization_roundtrips(tmp_path, synth_matrix):
    # matrix
    matrix_path = str(tmp_path / "matrix.ocm")
    save_matrix(synth_matrix, matrix_path)
    back = load_matrix(matrix_path)
    assert np.array_equal(back.values.view(np.uint64),
                          synth_matrix.values.view(np.uint64))
    save_matrix(back, str(tmp_path / "matrix2.ocm"))
    assert open(matrix_path, "rb").read() == open(str(tmp_path / "matrix2.ocm"), "rb").read()

    # single checkpoint
    cfg = MlpConfig(input_dim=3, hidden_layers=(4,), batch_norm=True, seed=7)
    model = MlpModel(config=cfg, params=ocon.init_params(cfg), scaling_hash="s")
    ckpt = str(tmp_path / "model.ocmdl")
    save_model(model, ckpt)
    again = load_model(ckpt)
    save_model(again, str(tmp_path / "model2.ocmdl"))
    assert open(ckpt, "rb").read() == open(str(tmp_path / "model2.ocmdl"), "rb").read()

    # ensemble directory
    matrix = blob_matrix(n_per_class=30, n_classes=2, seed=2)
    mlp = MlpConfig(input_dim=3, hidden_layers=(6,), learning_rate=3e-3, seed=0)
    tc = TrainConfig(epochs_per_batch_set=10, max_batch_sets=1, early_stop=None, seed=0)
    ensemble, _ = train_ensemble(matrix, mlp, tc)
    dir_a = str(tmp_path / "ens_a")
    save_ensemble(ensemble, dir_a)
    loaded = load_ensemble(dir_a)
    dir_b = str(tmp_path / "ens_b")
    save_ensemble(loaded, dir_b)
    for name in os.listdir(dir_a):
        a = open(os.path.join(dir_a, name), "rb").read()
        b = open(os.path.join(dir_b, name), "rb").read()
        assert a == b, name
