"""The OCON model: an ordered bank of independently trained one-class MLPs.

All members share one topology (layer widths and batch-norm) and one scaling
record; ``OconModel`` refuses a bank that does not.  The model owns one
(K, P) parameter store and each member is a view of its row.  Joint
inference takes the first occurrence of the maximum of the per-class
probability vector.  Saving writes one checkpoint per member plus a JSON
manifest, so swapping a single member never touches the others' bytes.

Joint inference is one ``mlp.predict_proba`` over the store itself: no
copy, and nothing that can go stale.  ``predict_proba`` picks the path by
batch size, one stacked pass or one member at a time, with bitwise the same
probabilities either way.
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    ManifestMismatch,
    MissingMember,
    NonFiniteInput,
    PartialEnsemble,
)
from .features import FeatureSetKind, ScalingRecord
from .mlp import StackedParams, accuracy_pct, load_model, predict_proba, save_model
from .util import check_class_id, derive_seed, sha256_file

ENSEMBLE_VERSION = 1
MANIFEST_NAME = "ensemble.json"


class OconModel:
    """Ordered member bank plus the shared feature-space provenance.

    The bank owns its members' buffers: ``store`` is one (K, P) training
    ``StackedParams``, and each member of the immutable ``members`` tuple is
    an ``MlpModel`` whose params are the K=1 ``select`` of its row, so an
    edit through a member shows in ``infer`` at once.  Building the model
    copies each member into its row; ``replace_member`` copies a new one in.
    """

    def __init__(self, class_names, members, scaling, feature_set):
        self.class_names = tuple(class_names)
        self.scaling, self.feature_set = scaling, feature_set
        if not members or len(members) != len(self.class_names):
            raise ManifestMismatch("one member required per class, and at least one")
        self.store = StackedParams(members[0].config, len(members))
        bank_hash = scaling.content_hash()
        for name, member in zip(self.class_names, members):
            self._check_member(name, member.config, member.scaling_hash, bank_hash)
        self._members = tuple(self._adopt(k, m) for k, m in enumerate(members))

    def _check_member(self, name, config, scaling_hash="", bank_hash=None):
        """A member must fit the bank: the feature width, the first member's
        layer widths and batch-norm (one stacked forward runs them all with
        its config) and the bank's scaling (hash ``bank_hash`` if known)."""
        bank = self.store.config
        if config.input_dim != self.feature_set.dim:
            raise ManifestMismatch(
                f"member {name!r} input dim {config.input_dim} != {self.feature_set.dim}")
        got, want = (config.layer_dims, config.batch_norm), (bank.layer_dims, bank.batch_norm)
        if got != want:
            raise ManifestMismatch(
                f"member {name!r} has layer dims {got[0]} and batch_norm={got[1]}; "
                f"the bank has {want[0]} and batch_norm={want[1]}")
        if scaling_hash and scaling_hash != (bank_hash or self.scaling.content_hash()):
            raise ManifestMismatch(f"member {name!r} trained with different scaling")

    def _adopt(self, k, member):
        """``member`` copied into row ``k``, as a view of the row."""
        self.store.put(k, member.params)
        return replace(member, params=self.store.select(slice(k, k + 1)))

    @property
    def members(self):
        return self._members

    @property
    def n_classes(self):
        return len(self.class_names)

    def replace_member(self, k, member):
        """Copy ``member`` into row ``k``; the member it replaces keeps its values."""
        check_class_id(self, k)
        self._check_member(self.class_names[k], member.config, member.scaling_hash)
        self._members[k].params = self._members[k].params.copy()
        self._members = self._members[:k] + (self._adopt(k, member),) + self._members[k + 1:]

    def __reduce__(self):
        # members pickle as standalone copies, put into the new model's store
        return OconModel, (self.class_names, self._members, self.scaling, self.feature_set)


def _train_members(matrix, mlp_config, train_config, class_ids):
    """The members of ``class_ids``, trained by one lockstep engine call;
    member seeds derive from (master seed, class id)."""
    from .training import _run_cycle, one_class_cycle

    return _run_cycle(matrix, [one_class_cycle(
        matrix, cid, replace(mlp_config, seed=derive_seed(mlp_config.seed, "member", cid)),
        replace(train_config, seed=derive_seed(train_config.seed, "member", cid)))
        for cid in class_ids])


def train_ensemble(matrix, mlp_config, train_config, workers=1):
    """Train one member per class of ``matrix.class_names``; returns
    (OconModel, reports).

    ``training.fan_out`` cuts the class ids into ``workers`` contiguous runs
    and trains each run as one lockstep group in its own process.  Member
    seeds derive from (master seed, class id), so any level of parallelism
    produces identical results.  If any member diverges the whole bank is
    rejected with PartialEnsemble naming the failures.
    """
    from .training import fan_out

    [outcomes] = fan_out(_train_members, [(matrix, mlp_config, train_config)],
                         matrix.n_classes, workers)
    members = [model for model, _ in outcomes]
    reports = [report for _, report in outcomes]
    failures = [r.class_name for r in reports if r.stop_reason == "diverged"]
    if failures:
        raise PartialEnsemble(failures, reports=reports)
    model = OconModel(class_names=tuple(matrix.class_names), members=members,
                      scaling=matrix.scaling, feature_set=matrix.feature_set)
    return model, reports


def _check_matrix(model, matrix):
    """A matrix must carry the bank's feature set, scaling and label table
    (e.g. ``speaker_view`` for a speaker-group bank)."""
    if matrix.feature_set is not model.feature_set:
        raise ManifestMismatch(f"matrix feature set {matrix.feature_set.value} differs from "
                               f"the ensemble's {model.feature_set.value}")
    if model.scaling.content_hash() != matrix.scaling.content_hash():
        raise ManifestMismatch("matrix scaling differs from the ensemble's")
    if tuple(matrix.class_names) != tuple(model.class_names):
        raise ManifestMismatch(f"matrix classes {matrix.class_names} differ from the "
                               f"ensemble's {model.class_names}")


def retrain_member(model, matrix, class_id, mlp_config, train_config):
    """Retrain a single member in place; other members are untouched.

    A matrix of another feature set, scaling or label table, or a config
    whose topology differs from the bank's, raises ManifestMismatch (an
    unknown class id UnknownClass) before any training, and the model is
    left as it was.
    """
    _check_matrix(model, matrix)
    check_class_id(matrix, class_id)
    model._check_member(model.class_names[class_id], mlp_config)
    [(member, report)] = _train_members(matrix, mlp_config, train_config, [class_id])
    if report.stop_reason == "diverged":
        raise PartialEnsemble([report.class_name], reports=[report])
    model.replace_member(class_id, member)
    return report


def infer(model, vector, scaled=False):
    """Per-class probability vector and the first-max predicted label.

    ``vector`` must be one feature vector or a (B, d) batch, else
    DimensionMismatch names its shape; raw inputs are passed through the
    shared scaling (clamped) unless ``scaled=True``.
    NaN or infinite entries raise NonFiniteInput naming the first such row:
    arg-max over NaN would name class 0 and clamping would turn an infinity
    into a valid value.  This is where serving input is checked, once; the
    scaling and the stacked pass behind it only compute.
    A vector served alone and the same vector inside a batch can differ by a
    few ulps, because BLAS rounds one-row and many-row products differently;
    at a near-tie between two classes their labels can then differ too.
    """
    config = model.store.config
    x, d = np.asarray(vector, dtype=np.float64), config.input_dim
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise DimensionMismatch(f"input shape {x.shape} is neither ({d},) nor (B, {d})")
    # one reduction: a NaN or an infinity makes the sum non-finite, and so
    # does a sum of finite rows that overflows, which the row check passes
    if not math.isfinite(np.add.reduce(x, axis=None)):
        finite = np.isfinite(x).all(axis=-1)
        if not finite.all():
            raise NonFiniteInput(f"input row {int(np.argmin(finite))} holds NaN or inf")
    if not scaled:
        x = model.scaling.apply(x)
    probs = predict_proba(model.store, config, x)
    if x.ndim == 1:
        return probs[:, 0], int(probs[:, 0].argmax())   # first occurrence on ties
    logits = probs.T
    return logits, logits.argmax(axis=1)


@dataclass
class EnsembleEvaluation:
    per_class_accuracy: dict          # class name -> binary accuracy, percent
    argmax_accuracy: float            # percent
    confusion: np.ndarray             # (K, K), rows true, cols predicted
    scores: np.ndarray                # (N, K) member probabilities

    @property
    def average_accuracy(self):
        return sum(self.per_class_accuracy.values()) / len(self.per_class_accuracy)


def evaluate_ensemble(model, matrix):
    """Whole-dataset evaluation: per-member accuracy (``mlp.accuracy_pct``),
    joint first-max accuracy, and the K x K confusion matrix.  A matrix of
    another feature set, scaling or label table raises ManifestMismatch.
    """
    _check_matrix(model, matrix)
    labels = matrix.labels
    scores, predicted = infer(model, matrix.values, scaled=True)
    k = model.n_classes

    per_class = {name: accuracy_pct(scores[:, c], labels == c)
                 for c, name in enumerate(model.class_names)}

    argmax_accuracy = 100.0 * float(np.mean(predicted == labels))
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    return EnsembleEvaluation(per_class_accuracy=per_class,
                              argmax_accuracy=argmax_accuracy,
                              confusion=confusion, scores=scores)


def save_ensemble(model, dirpath):
    """Write member checkpoints plus the manifest into a directory."""
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    for name, member in zip(model.class_names, model.members):
        fname = f"member_{name}.ocmdl"
        save_model(member, os.path.join(dirpath, fname))
        entries.append({"class": name, "file": fname,
                        "sha256": sha256_file(os.path.join(dirpath, fname))})
    manifest = {
        "version": ENSEMBLE_VERSION,
        "class_names": list(model.class_names),
        "feature_set": model.feature_set.value,
        "f0_mode": "raw",  # v1 format key: the SS4 F0 channel is always raw Hz
        "scaling": model.scaling.to_dict(),
        "scaling_hash": model.scaling.content_hash(),
        "members": entries,
    }
    with open(os.path.join(dirpath, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


#: Keys an ``ensemble.json`` must carry, with the JSON type of each.
_MANIFEST_KEYS = {"class_names": list, "feature_set": str, "f0_mode": str,
                  "scaling": dict, "scaling_hash": str, "members": list}
_MEMBER_KEYS = {"class": str, "file": str, "sha256": str}


def _require_keys(record, keys, where):
    if not isinstance(record, dict):
        raise ManifestMismatch(f"{where} is not a JSON object")
    for key, kind in keys.items():
        if not isinstance(record.get(key), kind):
            raise ManifestMismatch(f"{where}: key {key!r} missing or not a {kind.__name__}")


def load_ensemble(dirpath):
    """Load and validate an ensemble directory (hashes, scaling; the
    ``OconModel`` constructor checks the topology).  Each member is read
    by ``mlp.load_model`` and copied into its row of the model's store.

    A manifest that is not JSON, lacks or mistypes a key, or lists a
    member entry at another class's position, raises ManifestMismatch.
    """
    manifest_path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise ManifestMismatch(f"no {MANIFEST_NAME} in {dirpath}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as err:
            raise ManifestMismatch(f"{manifest_path} is not valid JSON ({err})") from err
    _require_keys(manifest, _MANIFEST_KEYS, MANIFEST_NAME)
    version = manifest.get("version", 0)
    if not isinstance(version, int) or version > ENSEMBLE_VERSION:
        raise ManifestMismatch(f"ensemble version {version!r} unsupported")
    if not all(isinstance(name, str) for name in manifest["class_names"]):
        raise ManifestMismatch(f"{MANIFEST_NAME}: class_names must be strings")
    try:
        feature_set = FeatureSetKind(manifest["feature_set"])
        scaling = ScalingRecord.from_dict(manifest["scaling"])
    except (KeyError, TypeError, ValueError) as err:
        raise ManifestMismatch(f"{MANIFEST_NAME}: bad feature set or scaling ({err!r})") from err
    if scaling.content_hash() != manifest["scaling_hash"]:
        raise ManifestMismatch("scaling record does not match its recorded hash")

    for entry in manifest["members"]:
        _require_keys(entry, _MEMBER_KEYS, f"{MANIFEST_NAME} member entry")
    classes = [entry["class"] for entry in manifest["members"]]
    if classes != manifest["class_names"]:
        # a swapped entry would serve one class's member as another's
        raise ManifestMismatch(f"{MANIFEST_NAME}: member classes {classes} differ from "
                               f"class_names {manifest['class_names']}")
    members = []
    for entry in manifest["members"]:
        path = os.path.join(dirpath, entry["file"])
        if not os.path.exists(path):
            raise MissingMember(entry["class"])
        if sha256_file(path) != entry["sha256"]:
            raise ManifestMismatch(f"member file {entry['file']} hash mismatch")
        members.append(load_model(path))
    return OconModel(class_names=tuple(manifest["class_names"]), members=members,
                     scaling=scaling, feature_set=feature_set)
