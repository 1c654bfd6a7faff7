"""The benchmark's trace hooks still find, wrap and restore what they name.

``perfbench/spans.py`` wraps ocon functions by module attribute from the
outside.  A rename, or a caller that binds a hooked function at import time,
would make a ``--trace 1`` run fail or silently lose its per-layer spans.
"""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import ocon
from ocon import (
    balancer,
    container,
    dataset,
    ensemble,
    features,
    metrics,
    mlp,
    search,
    training,
)
from ocon.mlp import STACK_MAX_VALUES, MlpConfig
from ocon.training import TrainConfig
from tests.test_search import tiny_stage
from tests.test_training import blob_matrix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

#: hooked functions the benchmark's per-layer metrics are read from
HOOKED = ((search, "_run_cell"), (search, "run_stage"), (training, "_run_cycle"),
          (training, "k_fold_evaluate"), (ensemble, "train_ensemble"), (mlp, "forward"))

#: every namespace the hooks may patch
NAMESPACES = (ocon, balancer, container, dataset, ensemble, features, metrics, mlp, search,
              training, features.ScalingRecord)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    return spans


def test_install_wraps_the_hooked_functions_and_undo_restores_them(spans):
    before = [(ns, dict(vars(ns))) for ns in NAMESPACES]
    originals = [getattr(owner, attr) for owner, attr in HOOKED]
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(HOOKED, originals))
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
        search.run_stage(matrix, tiny_stage(), seed=1, workers=1)
        mlp_cfg = MlpConfig(input_dim=3, hidden_layers=(4,), seed=1)
        tc = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1, k_folds=2, seed=2)
        ensemble.train_ensemble(matrix, mlp_cfg, tc, workers=1)
        training.k_fold_evaluate(matrix, 0, mlp_cfg, tc)
    finally:
        patches.undo()
    table = rec.table()
    calls = Counter(table.names[i] for i in table.name_id)
    # tiny_stage has 2 combinations: one search task each at workers=1
    assert calls["search.run_stage"] == 1 and calls["search.cell"] == 2
    assert calls["training.cycle"] == 4  # 2 search tasks, the bank, the k-fold
    assert calls["ensemble.train_ensemble"] == calls["training.k_fold_evaluate"] == 1
    assert calls["mlp.forward.train:adam"] > 0
    for ns, attrs in before:
        assert all(vars(ns).get(attr) is value for attr, value in attrs.items()), ns


def test_traced_infer_opens_one_predict_proba_span_per_call(spans):
    """Serving reaches ``mlp.predict_proba`` on either infer path, a single
    vector (one stacked pass) and a batch above ``STACK_MAX_VALUES`` (one
    member at a time), so ``mlp.forward_infer_us`` sees it."""
    matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
    mlp_cfg = MlpConfig(input_dim=3, hidden_layers=(4,), seed=1)
    tc = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1, k_folds=2, seed=2)
    model, _ = ensemble.train_ensemble(matrix, mlp_cfg, tc, workers=1)
    rows = STACK_MAX_VALUES // (model.n_classes * max(mlp_cfg.layer_dims)) + 1
    for batch in (matrix.values[0], np.resize(matrix.values, (rows, 3))):
        rec = spans.Recorder()
        patches = spans.install(rec)
        try:
            ensemble.infer(model, batch, scaled=True)
        finally:
            patches.undo()
        table = rec.table()
        calls = Counter(table.names[i] for i in table.name_id)
        assert calls["mlp.predict_proba"] == 1, (batch.shape, calls)


def test_benchmark_selftest_exits_0(tmp_path):
    """``perfbench/selftest.py`` (span arithmetic, metric names and units,
    BENCHMARK.json against run.py) passes, run as its README runs it."""
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
