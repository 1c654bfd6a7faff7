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
        "669a78cb43e043792f79c868b0f9e6dc7453ee0eef04692ed379fc7887b7ee8b"),
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


# file or stdout -> sha256 of the CLI chain run in ``test_cli_chain_is_byte_identical``
CLI_CHAIN_DIGESTS = {
    "records.csv": "31e86cfe3941fc1485c03ce0b882a8536885a0ba114bb006893dac7f888ae249",
    "records.csv.stats.txt": "cfd5b118d363fd4262fb425b8b2ed7b96d029dc09499961f06a1f535182dfcea",
    "matrix.ocm": "44fc230893008ca4e89c58ecc4e1a757efa479348f0461bce42f9a38a4cfd768",
    "matrix.ocm.stats.txt": "80d1d9755b4bd3b99ab56cad903030a8291c03210b524ecee97e884ffaafdfb6",
    "model/ensemble.json": "f77f86dc5d889600c19749518746d5bf0ed49f75cbc77a616d3050ab0d52b4a9",
    "model/member_ae.ocmdl": "2838d1c6ebdab0bdd1e290c0b72766963726177946cc5dbaad0bfdbb70101b5a",
    "eval/det.csv": "3bc4abae666d80e92397970dc489814ce119b5eb753c99d9f92ffbcf957bd9d3",
    "eval/roc_ae.csv": "ddfe22cba8f07a39b97b47dc7c3deb3ec268b7d2d8cfaed920bc15b859fb1945",
    "infer.csv": "c5f2d93849d687950ed5ba8d29326998aa50dba992d95efafc81d653a87c2bf3",
    "infer.jsonl": "0cabde0dac7de06f80d425000f3516a327ef89f908cfa4df95dd32c13b1c58ba",
    "infer_single.csv": "e552764e507e97bc9387af27d41030c5e6303c94a553ec057a0b37a0ea1c2b18",
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
