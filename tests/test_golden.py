"""Golden bit-identity of seeded training.

Short seeded cycles on the ``synth_records(seed=11)`` corpus must reproduce
pinned sha256 digests of the trained parameters (``trainables()`` order),
the batch-norm running statistics and the loss curve.  Any change to the
per-element arithmetic of forward, backward or the optimizer moves a digest,
so a refactor that claims identical training is held to it.  The early-stop
case keeps a rolling loss window of 500 samples, about 2.5 epochs, so the
stop epoch also pins how the window carries losses across epochs and
batch-sets.

The digests are float64 results of this numpy and its BLAS; a different BLAS
kernel can round a matmul differently.  Re-pin only after the parent commit
reproduces the new digests on the same build.
"""

import hashlib

import numpy as np
import pytest

from ocon.ensemble import save_ensemble, train_ensemble
from ocon.features import speaker_view
from ocon.metrics import report_tables
from ocon.mlp import MlpConfig
from ocon.training import EarlyStopRule, TrainConfig, train_one_class
from ocon.util import sha256_file

TRAIN = TrainConfig(epochs_per_batch_set=4, max_batch_sets=2, early_stop=None, seed=3)
TWO_LAYER_RMSPROP = MlpConfig(input_dim=12, hidden_layers=(16, 8), optimizer="rmsprop",
                              learning_rate=1e-3, seed=5)

# name -> (mlp config, train config, epochs run, digest)
CASES = {
    "tuned_bn_dropout_adam": (
        MlpConfig.tuned(12, seed=5), TRAIN, 8,
        "65cf6f14c4831357b80507434eea8d18a91c4f1f9aa9368b592b8a65dbd812c2"),
    "two_layer_rmsprop": (
        TWO_LAYER_RMSPROP, TRAIN, 8,
        "a694b3f1b5d11bbad2378b757e70960d0c4bfcb68b9269b13c7adf8203e8ee67"),
    "early_stop_multi_epoch_window": (
        TWO_LAYER_RMSPROP,
        TrainConfig(epochs_per_batch_set=3, max_batch_sets=3, seed=3,
                    early_stop=EarlyStopRule(0.66, 0.0, loss_window=500)), 7,
        "e4452103e61cb93a552d4d7e758082161517f04725245dcb2ecc837c90c0817f"),
}

# class or file -> sha256 of the speaker bank trained in
# ``test_speaker_bank_is_bit_identical``
SPEAKER_BANK_DIGESTS = {
    "male": "24d8392d1cd282c9f04f682d7e90643c70cfe92a670ab6d704b0256fb20c1ba6",
    "female": "fe010898ebb440bc088224c416f1bf5aa3ee27d32ab1cba9cb091dd5a25d07e7",
    "children": "bbe3017ebf9c6b51c483e38307bac5bac08ad12108349fd33cae6bbfb0f74066",
    "confusion.csv": "a6f37570459ff4b0b43ab9c077c8c7dd70b1b0c262c7707077fbba87165c8b3b",
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
    config, train, epochs, pinned = CASES[name]
    model, report = train_one_class(synth_matrix, 0, config, train)
    assert report.epochs_run == epochs
    assert training_digest(model, report) == pinned


def test_speaker_bank_is_bit_identical(synth_matrix, tmp_path):
    """A 3-member speaker-group bank: sha256 of each member checkpoint and
    of confusion.csv."""
    config = MlpConfig(input_dim=12, hidden_layers=(8,), learning_rate=1e-3, seed=7)
    matrix = speaker_view(synth_matrix)
    model, _ = train_ensemble(matrix, config, TRAIN)
    save_ensemble(model, str(tmp_path / "bank"))
    report_tables(model, matrix).write_csv(str(tmp_path / "eval"))
    digests = {name: sha256_file(str(tmp_path / "bank" / f"member_{name}.ocmdl"))
               for name in model.class_names}
    digests["confusion.csv"] = sha256_file(str(tmp_path / "eval" / "confusion.csv"))
    assert digests == SPEAKER_BANK_DIGESTS
