"""Dry run of the data-gated acceptance logic on synthetic corpora.

The real measurement file cannot ship with the repository, so criteria 1-5
skip without it.  This module validates criteria 1-2's code path end to end
on a mock corpus constructed to the published statistics: 1668 raw rows,
exactly 71 spoiled with zero-valued required fields, distributed so the
usable counts match the reference table cell for cell.  Criteria 3-5's
protocol runs on a small corpus at a one-batch-set budget, checking that it
completes and its figures are in range, not the paper's thresholds.
"""

import numpy as np
import pytest

from ocon.dataset import (
    ARPABET_CODES,
    SpeakerGroup,
    class_statistics,
    filter_usable,
    load_dataset,
)
from ocon.ensemble import evaluate_ensemble
from ocon.features import FeatureSetKind, build_feature_matrix
from ocon.metrics import ConfusionCounts, det_metrics, roc_auc
from ocon.synth import records_to_dat, synth_records
from tests.conftest import REFERENCE_CLASS_COUNTS, REFERENCE_TOTALS
from tests.test_acceptance import TRAINING_SEEDS, run_experiment

# raw per-phoneme counts with the full speaker roster (45m, 48w, 27b, 19g)
_RAW_PER_GROUP = {SpeakerGroup.MAN: 45, SpeakerGroup.WOMAN: 48,
                  SpeakerGroup.BOY: 27, SpeakerGroup.GIRL: 19}
_COUNT_INDEX = {SpeakerGroup.BOY: 1, SpeakerGroup.GIRL: 2,
                SpeakerGroup.MAN: 3, SpeakerGroup.WOMAN: 4}


def spoil_to_reference(records, seed=0):
    """Zero one required field on exactly the rows that make the usable
    counts match the reference table."""
    rng = np.random.default_rng(seed)
    spoilable = ("f0_ss", "f2_50", "f3_10", "f3_80", "f2_ss")
    out = list(records)
    by_cell = {}
    for i, rec in enumerate(out):
        by_cell.setdefault((rec.phoneme.arpabet, rec.group), []).append(i)
    for code in ARPABET_CODES:
        for group, raw in _RAW_PER_GROUP.items():
            usable = REFERENCE_CLASS_COUNTS[code][_COUNT_INDEX[group]]
            to_drop = raw - usable
            assert to_drop >= 0
            rows = by_cell[(code, group)]
            assert len(rows) == raw
            for i in rng.choice(rows, size=to_drop, replace=False):
                rec = out[i]
                field = str(rng.choice(spoilable))
                out[i] = type(rec)(**{**{k: getattr(rec, k)
                                         for k in rec.__dataclass_fields__},
                                      field: 0.0})
    return out


@pytest.fixture(scope="module")
def mock_dat(tmp_path_factory):
    records = synth_records(seed=123, men=45, women=48, boys=27, girls=19)
    assert len(records) == 1668
    spoiled = spoil_to_reference(records, seed=9)
    path = tmp_path_factory.mktemp("mock") / "bigdata_mock.dat"
    records_to_dat(spoiled, str(path), seed=5)
    return str(path)


def test_mock_corpus_filters_to_1597_of_1668(mock_dat):
    records = load_dataset(mock_dat)  # default public-distribution layout
    assert len(records) == 1668
    kept, dropped = filter_usable(records, FeatureSetKind.TT12)
    assert len(kept) == 1597
    assert len(dropped) == 71


def test_mock_corpus_reproduces_reference_statistics(mock_dat):
    records = load_dataset(mock_dat)
    kept, _ = filter_usable(records, FeatureSetKind.TT12)
    stats = class_statistics(kept)
    for label_id, code in enumerate(ARPABET_CODES):
        samples, boys, girls, men, women = REFERENCE_CLASS_COUNTS[code]
        assert stats.phoneme_total(label_id) == samples
        assert stats.count(label_id, SpeakerGroup.BOY) == boys
        assert stats.count(label_id, SpeakerGroup.GIRL) == girls
        assert stats.count(label_id, SpeakerGroup.MAN) == men
        assert stats.count(label_id, SpeakerGroup.WOMAN) == women
    total, boys, girls, men, women = REFERENCE_TOTALS
    assert stats.total == total
    assert stats.group_total(SpeakerGroup.BOY) == boys
    assert stats.group_total(SpeakerGroup.GIRL) == girls
    assert stats.group_total(SpeakerGroup.MAN) == men
    assert stats.group_total(SpeakerGroup.WOMAN) == women


def test_mock_corpus_feeds_consistent_experiment_matrices(mock_dat):
    records = load_dataset(mock_dat)
    consistent, _ = filter_usable(records, FeatureSetKind.TT12)
    tt_matrix, tt_dropped = build_feature_matrix(records, FeatureSetKind.TT12)
    assert tt_matrix.n_rows == 1597 and len(tt_dropped) == 71
    ss_matrix, ss_dropped = build_feature_matrix(consistent, FeatureSetKind.SS3)
    assert ss_matrix.n_rows == 1597 and not ss_dropped
    assert np.array_equal(tt_matrix.labels, ss_matrix.labels)


def test_c03_to_c05_protocol_runs_on_a_small_corpus():
    records = synth_records(seed=11, men=8, women=8, boys=4, girls=4)
    assert len(records) == 288
    tt, _ = build_feature_matrix(records, FeatureSetKind.TT12)
    ss, _ = build_feature_matrix(records, FeatureSetKind.SS3)
    seeds = TRAINING_SEEDS[:1]
    *tt_accuracies, [bank] = run_experiment(tt, (0.15, 95.0), seeds, max_batch_sets=1)
    *ss_accuracies, _ = run_experiment(ss, (0.2, 90.0), seeds, max_batch_sets=1)
    assert all(0.0 <= pct <= 100.0 for pct in tt_accuracies + ss_accuracies)
    evaluation = evaluate_ensemble(bank, tt)
    for c, name in enumerate(bank.class_names):
        truth = tt.labels == c
        auc = roc_auc(evaluation.scores[:, c], truth).auc
        det = det_metrics(ConfusionCounts.from_scores(evaluation.scores[:, c], truth))
        assert 0.0 <= auc <= 1.0, f"{name}: AUC {auc}"
        assert det.npv is not None and 0.0 <= det.npv <= 1.0, f"{name}: NPV {det.npv}"
