"""Golden bit-identity of seeded training.

Short seeded cycles on the ``synth_records(seed=11)`` corpus must reproduce
pinned sha256 digests of the trained parameters (``trainables()`` order),
the batch-norm running statistics and the loss curve.  Any change to the
per-element arithmetic of forward, backward or the optimizer moves a digest,
so a refactor that claims identical training is held to it.  The early-stop
case keeps a rolling loss window of 500 samples, about 2.5 epochs, so the
stop epoch also pins how the window carries losses across epochs and
batch-sets.  The desk-scaled stage-1 ranked search CSV is pinned at one and
two workers, so its bytes hold for any worker count.

Training steps in float32 and its results are widened, exactly, to the
float64 models, checkpoints and files that are hashed here; so the digests
pin float32 training arithmetic of this numpy and its BLAS (the sgemm and
float32 ufunc kernels), and the float64 serving path behind ``confusion.csv``
and the CLI's eval and infer output.  A different BLAS kernel can round a
matmul differently.  Re-pin only after the parent commit reproduces the old
digests on the same build.
"""

import hashlib

import numpy as np
import pytest

from ocon.ensemble import save_ensemble, train_ensemble
from ocon.features import speaker_view
from ocon.metrics import report_tables
from ocon.mlp import MlpConfig
from ocon.search import desk_scale, run_stage, stage_presets
from ocon.training import EarlyStopRule, TrainConfig, train_one_class
from ocon.util import sha256_file

TRAIN = TrainConfig(epochs_per_batch_set=4, max_batch_sets=2, early_stop=None, seed=3)
TWO_LAYER_RMSPROP = MlpConfig(input_dim=12, hidden_layers=(16, 8), optimizer="rmsprop",
                              learning_rate=1e-3, seed=5)

# name -> (mlp config, train config, epochs run, digest)
CASES = {
    "tuned_bn_dropout_adam": (
        MlpConfig.tuned(12, seed=5), TRAIN, 8,
        "bdda36960a5015b4c2d5f529161fae6076db33a0023097f1228b62aefd43e316"),
    "two_layer_rmsprop": (
        TWO_LAYER_RMSPROP, TRAIN, 8,
        "af84e57db2687a1891cde2b4e642bebfb824c54d5835dac7834c59cd40e22cb7"),
    "early_stop_multi_epoch_window": (
        TWO_LAYER_RMSPROP,
        TrainConfig(epochs_per_batch_set=3, max_batch_sets=3, seed=3,
                    early_stop=EarlyStopRule(0.66, 0.0, loss_window=500)), 7,
        "8e6a5cb406eeee3dc7e8e609659c1a5491c5eca11bfa658a24be6cedaa540790"),
}

# class or file -> sha256 of the speaker bank trained in
# ``test_speaker_bank_is_bit_identical``
SPEAKER_BANK_DIGESTS = {
    "male": "1e2ed06c7ea23aa2cb6a9a85dda1675208beecaefe32e5167b2a56272026980e",
    "female": "5d4a4b6d7ce21a2f91fc972c9543b2aad86318727aed4e959f31d2a20b330492",
    "children": "b3d14320e9311cedb0e41cfc1f50e3dbaf314f1ac88425b58d0ebc3d39456d1d",
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


# file or stdout -> sha256 of the CLI chain run in ``test_cli_chain_is_byte_identical``
CLI_CHAIN_DIGESTS = {
    "records.csv": "31e86cfe3941fc1485c03ce0b882a8536885a0ba114bb006893dac7f888ae249",
    "records.csv.stats.txt": "cfd5b118d363fd4262fb425b8b2ed7b96d029dc09499961f06a1f535182dfcea",
    "matrix.ocm": "44fc230893008ca4e89c58ecc4e1a757efa479348f0461bce42f9a38a4cfd768",
    "matrix.ocm.stats.txt": "80d1d9755b4bd3b99ab56cad903030a8291c03210b524ecee97e884ffaafdfb6",
    "model/ensemble.json": "99bdf30eae6114731ffa455199002a3210e2031aab91e35adb3550984ef13f19",
    "model/member_ae.ocmdl": "99d075ea0a25e589fed25be8af9385509895ab021a9b30f9a8beda6d4b0f95bc",
    "eval/det.csv": "f07f9b8435865d8ac1dc288567a8cc4512a1ba3118049d1cbb8f759328789319",
    "eval/roc_ae.csv": "7cba14fe2542f4b973f3b9c2ab5dce00e35e93c5e5c6a7f5ad2d476cf74bd2b2",
    "infer.csv": "694ae9ed0567a855a12348fc80e173e97e645f35f830d1d87d14b573812e5848",
    "infer.jsonl": "457853b98b20e2b6bf3b151dcf2e0d8a8b93b08f2b03335ab16ab350adfa1277",
    "infer_single.csv": "4243baca5d9bcaf534e32c34adc8db6eb35f0d4123afae30ebd6dd64cea560d8",
}

CLI_TRAIN_CONFIG = "epochs_per_batch_set = 3\nmax_batch_sets = 1\nearly_stop = null\nseed = 5\n"


def test_cli_chain_is_byte_identical(tmp_path, capsys):
    """ingest -> preprocess -> train -> eval -> infer on a small corpus with
    the tuned 12-member bank: sha256 of the records and matrix files with
    their stats sidecars, the bank's manifest and one member checkpoint,
    ``det.csv`` and one ROC point file, and the
    ``infer`` csv and jsonl output.  Eval and the file infer score more rows
    than one stacked forward takes (``STACK_MAX_VALUES``), the single-vector
    infer fewer, so both infer paths are pinned."""
    from ocon.cli import main
    from ocon.dataset import read_records_csv
    from ocon.synth import write_synth_dat

    dat, records = str(tmp_path / "synth.dat"), str(tmp_path / "records.csv")
    write_synth_dat(dat, seed=21, zero_rate=0.03, men=10, women=10, boys=6, girls=6)
    matrix, model = str(tmp_path / "matrix.ocm"), str(tmp_path / "model")
    (tmp_path / "train.cfg").write_text(CLI_TRAIN_CONFIG)
    steps = (["ingest", "--data", dat, "--out", records],
             ["preprocess", "--records", records, "--feature-set", "tt12", "--out", matrix],
             ["train", "--matrix", matrix, "--train-config", str(tmp_path / "train.cfg"),
              "--out-dir", model],
             ["eval", "--model", model, "--matrix", matrix, "--out-dir", str(tmp_path / "eval")])
    for argv in steps:
        assert main(argv) == 0
    vectors = tmp_path / "vectors.txt"
    with open(vectors, "w", encoding="utf-8") as fh:
        for rec in read_records_csv(records):
            if rec.f0_ss > 0:
                fh.write(",".join(repr(rec.value(f"f{fmt}_{tp}") / rec.f0_ss)
                                  for fmt in (1, 2, 3) for tp in ("10", "50", "ss", "80"))
                         + "\n")
    capsys.readouterr()
    digests = {}
    for fmt in ("csv", "jsonl"):
        assert main(["infer", "--model", model, "--input-file", str(vectors),
                     "--format", fmt]) == 0
        digests[f"infer.{fmt}"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert main(["infer", "--model", model, "--input", vectors.read_text().split()[0]]) == 0
    digests["infer_single.csv"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for name in ("records.csv", "records.csv.stats.txt", "matrix.ocm", "matrix.ocm.stats.txt",
                 "model/ensemble.json", "model/member_ae.ocmdl", "eval/det.csv",
                 "eval/roc_ae.csv"):
        digests[name] = sha256_file(str(tmp_path / name))
    assert digests == CLI_CHAIN_DIGESTS


#: sha256 of the stage-1 ranked CSV at desk scale 100 on the seed-11 corpus
STAGE1_CSV_DIGEST = "6c172ec4cb88db4dfcf40679b8383c55b8f0b7fb75bc541dd2041133c9410a16"


@pytest.mark.parametrize("workers", [1, 2])
def test_stage1_ranked_csv_is_byte_identical(synth_matrix, workers):
    result = run_stage(synth_matrix, desk_scale(stage_presets()[0], 100), seed=0,
                       workers=workers)
    assert hashlib.sha256(result.to_csv_text().encode()).hexdigest() == STAGE1_CSV_DIGEST
