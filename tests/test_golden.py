"""Golden bit-identity of seeded training.

Short seeded cycles on the ``synth_records(seed=11)`` corpus must reproduce
pinned sha256 digests of the trained parameters (``trainables()`` order),
the batch-norm running statistics and the loss curve.  Any change to the
per-element arithmetic of forward, backward or the optimizer moves a digest,
so a refactor that claims identical training is held to it.

The digests are float64 results of this numpy and its BLAS; a different BLAS
kernel can round a matmul differently.  Re-pin only after the parent commit
reproduces the new digests on the same build.
"""

import hashlib

import numpy as np
import pytest

from ocon.mlp import MlpConfig
from ocon.training import TrainConfig, train_one_class

TRAIN = TrainConfig(epochs_per_batch_set=4, max_batch_sets=2, early_stop=None, seed=3)

CASES = {
    "tuned_bn_dropout_adam": (
        MlpConfig.tuned(12, seed=5),
        "65cf6f14c4831357b80507434eea8d18a91c4f1f9aa9368b592b8a65dbd812c2"),
    "two_layer_rmsprop": (
        MlpConfig(input_dim=12, hidden_layers=(16, 8), optimizer="rmsprop",
                  learning_rate=1e-3, seed=5),
        "a694b3f1b5d11bbad2378b757e70960d0c4bfcb68b9269b13c7adf8203e8ee67"),
}


def training_digest(model, report):
    h = hashlib.sha256()
    params = model.params
    for arr in (*params.trainables(), *params.running_mean, *params.running_var):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(np.asarray(report.loss_curve, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_training_is_bit_identical(synth_matrix, name):
    config, pinned = CASES[name]
    model, report = train_one_class(synth_matrix, 0, config, TRAIN)
    assert report.epochs_run == 8
    assert training_digest(model, report) == pinned
