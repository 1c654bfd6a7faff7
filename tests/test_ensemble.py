import builtins
import copy
import json
import os
import pickle
import re
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ocon.ensemble import (
    OconModel,
    evaluate_ensemble,
    infer,
    load_ensemble,
    retrain_member,
    save_ensemble,
    train_ensemble,
)
from ocon import container
from ocon.errors import (
    CorruptPayload,
    DimensionMismatch,
    ManifestMismatch,
    MissingMember,
    NonFiniteInput,
    PartialEnsemble,
    UnknownClass,
)
from ocon.features import FeatureSetKind, speaker_view
from ocon.metrics import report_tables
from ocon.mlp import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    STACK_MAX_VALUES,
    MlpConfig,
    MlpModel,
    forward,
    init_params,
    load_model,
    save_model,
)
from ocon.training import TrainConfig, train_one_class
from ocon.util import sha256_file, sha256_json
from tests.test_training import blob_matrix, early_stop_bank, steps_taken


def constant_member(logit_bias, scaling_hash=""):
    """Member whose probability is sigmoid(bias) regardless of input."""
    config = MlpConfig(input_dim=3, hidden_layers=(), seed=0)
    params = init_params(config)
    params.weights[0][:] = 0.0
    params.biases[0][:] = logit_bias
    return MlpModel(config=config, params=params, scaling_hash=scaling_hash)


def linear_member(weights, bias, scaling_hash=""):
    config = MlpConfig(input_dim=3, hidden_layers=(), seed=0)
    params = init_params(config)
    params.weights[0][:] = np.asarray(weights, dtype=np.float64)
    params.biases[0][:] = bias
    return MlpModel(config=config, params=params, scaling_hash=scaling_hash)


def two_class_model(matrix):
    h = matrix.scaling.content_hash()
    members = [linear_member([-40.0, 0.0, 0.0], 20.0, h),
               linear_member([40.0, 0.0, 0.0], -20.0, h)]
    return OconModel(class_names=tuple(matrix.class_names), members=members,
                     scaling=matrix.scaling, feature_set=matrix.feature_set)


def quick_configs(seed=0, epochs=40):
    mlp = MlpConfig(input_dim=3, hidden_layers=(8,), learning_rate=3e-3, seed=seed)
    tc = TrainConfig(epochs_per_batch_set=epochs, max_batch_sets=1,
                     early_stop=None, seed=seed)
    return mlp, tc


class TestInfer:
    def test_first_occurrence_of_maximum(self):
        from ocon.features import ScalingRecord
        scaling = ScalingRecord(lo=np.zeros(3), hi=np.ones(3))
        logits = [np.log(0.2 / 0.8), np.log(0.9 / 0.1), np.log(0.9 / 0.1)]
        model = OconModel(class_names=("a", "b", "c"),
                          members=[constant_member(z, scaling.content_hash())
                                   for z in logits],
                          scaling=scaling, feature_set=FeatureSetKind.SS3)
        probs, predicted = infer(model, np.array([0.3, 0.3, 0.3]))
        assert np.allclose(probs, [0.2, 0.9, 0.9])
        assert predicted == 1

    def test_degenerate_tie_picks_index_zero(self):
        from ocon.features import ScalingRecord
        scaling = ScalingRecord(lo=np.zeros(3), hi=np.ones(3))
        model = OconModel(class_names=("a", "b", "c"),
                          members=[constant_member(0.0, scaling.content_hash())
                                   for _ in range(3)],
                          scaling=scaling, feature_set=FeatureSetKind.SS3)
        probs, predicted = infer(model, np.zeros(3))
        assert np.all(probs == 0.5)
        assert predicted == 0

    def test_batch_and_scaling(self):
        matrix = blob_matrix(n_per_class=20, seed=3)
        model = two_class_model(matrix)
        probs, predicted = infer(model, matrix.values, scaled=True)
        assert probs.shape == (40, 2)
        assert np.array_equal(predicted, matrix.labels)

    def test_dimension_mismatch(self):
        matrix = blob_matrix(n_per_class=5)
        model = two_class_model(matrix)
        with pytest.raises(DimensionMismatch):
            infer(model, np.zeros(5))

    @pytest.mark.parametrize("shape", [(), (1, 1, 3), (3, 1), (2, 4)])
    def test_input_of_another_shape_named(self, shape):
        model = two_class_model(blob_matrix(n_per_class=5))
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"input shape {shape} is neither (3,) nor (B, 3)")):
            infer(model, np.full(shape, 0.5))

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad, scaled):
        matrix = blob_matrix(n_per_class=5)
        model = two_class_model(matrix)
        vector = matrix.values[0].copy()
        vector[1] = bad
        with pytest.raises(NonFiniteInput):
            infer(model, vector, scaled=scaled)
        batch = matrix.values.copy()
        batch[4, 0] = bad
        with pytest.raises(NonFiniteInput, match="row 4"):
            infer(model, batch, scaled=scaled)

    def test_pure_function(self):
        matrix = blob_matrix(n_per_class=10, seed=1)
        model = two_class_model(matrix)
        a, _ = infer(model, matrix.values[0], scaled=True)
        b, _ = infer(model, matrix.values[0], scaled=True)
        assert np.array_equal(a, b)

    def test_argmax_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(8)
        matrix = blob_matrix(n_per_class=12, seed=2)
        model = two_class_model(matrix)
        logits, predicted = infer(model, matrix.values, scaled=True)
        for _ in range(20):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-2.0, 2.0)
            assert np.array_equal(np.argmax(a * logits + b, axis=1), predicted)


BIT_IDENTITY_TRAIN = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1,
                                 early_stop=None, seed=2)


@pytest.fixture(scope="module")
def banks(synth_matrix):
    """Two 12-member tt12 banks, tuned (BN, 1x100) and no-BN (16, 8) RMSProp,
    and a 3-member bank of zero-hidden-layer constant members."""
    tuned, _ = train_ensemble(synth_matrix, MlpConfig.tuned(12, seed=4), BIT_IDENTITY_TRAIN)
    two_layer, _ = train_ensemble(
        synth_matrix, MlpConfig(input_dim=12, hidden_layers=(16, 8), optimizer="rmsprop",
                                learning_rate=1e-3, seed=4), BIT_IDENTITY_TRAIN)
    blobs = blob_matrix(n_per_class=200, n_classes=3, seed=6)
    h = blobs.scaling.content_hash()
    constant = OconModel(class_names=blobs.class_names,
                         members=[constant_member(z, h) for z in (-0.3, 1.7, 0.9)],
                         scaling=blobs.scaling, feature_set=blobs.feature_set)
    return {"tuned": (tuned, synth_matrix.values), "two_layer": (two_layer, synth_matrix.values),
            "constant": (constant, blobs.values)}


class TestInferBitIdentity:
    """Joint inference equals one predict_proba per member, bit for bit,
    whichever path (stacked or per-member) the batch size selects."""

    @pytest.mark.parametrize("rows", [1, 2, 27, 33, None])
    @pytest.mark.parametrize("bank", ["tuned", "two_layer", "constant"])
    def test_logits_equal_per_member_reference(self, banks, bank, rows):
        model, values = banks[bank]
        x = values[:rows]
        reference = np.column_stack([m.predict_proba(x) for m in model.members])
        logits, predicted = infer(model, x, scaled=True)
        assert np.array_equal(logits.view(np.uint64), reference.view(np.uint64))
        assert np.array_equal(predicted, np.argmax(reference, axis=1))
        config = model.members[0].config
        stacked, _ = forward(model.store, config, x)
        assert np.array_equal(stacked.T.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("bank", ["tuned", "two_layer", "constant"])
    def test_single_vectors(self, banks, bank):
        """A single vector, scaled or raw, gives bitwise what each member
        gives on it, and the label of its row of the batch call.  Raw vectors
        go through the clamp: entries below ``lo``, above ``hi`` and -0.0
        (which stays -0.0 where ``lo`` is 0, as in ``np.clip``)."""
        model, values = banks[bank]
        scaling = model.scaling
        raw = scaling.lo + values[:40] * scaling.span
        raw[0, 0] = scaling.lo[0] - 1.0
        raw[1, 1] = scaling.hi[1] + 1.0
        raw[2] = scaling.lo - scaling.span
        raw[3] = scaling.hi + scaling.span
        raw[4, :2] = -0.0
        for scaled, vectors in ((True, values[:40]), (False, raw)):
            batch_logits, batch_labels = infer(model, vectors, scaled=scaled)
            batch_inputs = vectors if scaled else scaling.apply(vectors)
            for vector, batch_input, row, batch_label in zip(vectors, batch_inputs,
                                                              batch_logits, batch_labels):
                x = vector if scaled else scaling.apply(vector)
                assert np.array_equal(x.view(np.uint64), batch_input.view(np.uint64))
                reference = np.array([m.predict_proba(x)[0] for m in model.members])
                logits, label = infer(model, vector, scaled=scaled)
                assert np.array_equal(logits.view(np.uint64), reference.view(np.uint64))
                assert label == int(np.argmax(reference)) == batch_label
                # BLAS may round a one-row product apart from a 40-row one
                np.testing.assert_allclose(logits, row, rtol=1e-13, atol=0)
        clamped = scaling.apply(raw[:5])
        assert clamped[0, 0] == 0.0 and clamped[1, 1] == 1.0
        assert not clamped[2].any() and (clamped[3] == 1.0).all()
        assert np.array_equal(np.signbit(clamped[4, :2]), scaling.lo[:2] == 0.0)

    def test_both_paths_covered(self, banks):
        model, values = banks["tuned"]
        width = max(model.members[0].config.layer_dims) * model.n_classes
        assert width <= STACK_MAX_VALUES < len(values) * width

    def test_member_edits_show_at_once(self, banks):
        model, values = banks["constant"]
        member = model.members[1]
        before, _ = infer(model, values[0], scaled=True)
        member.params.biases[0][:] -= 5.0
        try:
            after, _ = infer(model, values[0], scaled=True)
        finally:
            member.params.biases[0][:] += 5.0
        assert after[1] < before[1] and after[0] == before[0]


def assert_members_alias_store(model):
    """Each member's buffers are views of its row of the model's store."""
    store = model.store
    for k, member in enumerate(model.members):
        params = member.params
        assert np.shares_memory(params.theta, store.theta[k])
        assert not any(np.shares_memory(params.theta, store.theta[j])
                       for j in range(model.n_classes) if j != k)
        assert all(np.shares_memory(v, store.theta[k]) for v in params.trainables())
        for mine, stacked in zip(params.running_mean + params.running_var,
                                 store.running_mean + store.running_var):
            assert np.shares_memory(mine, stacked[k])
        assert np.array_equal(store.theta[k], params.theta[0])


def bn_configs(seed=0):
    mlp = MlpConfig(input_dim=3, hidden_layers=(8,), batch_norm=True, learning_rate=3e-3,
                    seed=seed)
    return mlp, TrainConfig(epochs_per_batch_set=5, max_batch_sets=1, early_stop=None,
                            seed=seed)


class TestParameterStore:
    def test_trained_members_alias_the_store(self, banks):
        model, _ = banks["tuned"]
        assert model.store.theta.shape == (12, model.members[0].params.theta.size)
        assert [m.shape for m in model.store.running_var] == [(12, 1, 100)]
        assert_members_alias_store(model)

    def test_loaded_and_retrained_members_alias_the_store(self, tmp_path):
        matrix = blob_matrix(n_per_class=30, n_classes=3, seed=7)
        model, _ = train_ensemble(matrix, *bn_configs())
        save_ensemble(model, str(tmp_path / "bank"))
        back = load_ensemble(str(tmp_path / "bank"))
        assert_members_alias_store(back)
        assert np.array_equal(back.store.theta, model.store.theta)
        old = model.members[1]
        before = old.params.theta.copy()
        retrain_member(model, matrix, 1, *bn_configs(seed=5))
        assert_members_alias_store(model)
        assert model.members[1] is not old
        assert not np.array_equal(model.store.theta[1], before)
        # the replaced member keeps its own values on its own buffers
        assert np.array_equal(old.params.theta, before)
        assert not np.shares_memory(old.params.theta, model.store.theta)

    def test_serving_stacks_hold_no_training_arrays(self, saved_ensemble):
        # a trained member's params are a view of its group's stack without
        # the workspace; one that holds a workspace drops it when pickled, as
        # fan_out's results are
        trained, _ = train_one_class(blob_matrix(n_per_class=30, n_classes=2, seed=7), 0,
                                     *bn_configs())
        stepped = trained.params.copy()
        stepped.buffers(trained.config, 1)
        assert stepped.workspace is not None
        for params in (load_ensemble(saved_ensemble).store,
                       load_model(os.path.join(saved_ensemble, "member_c0.ocmdl")).params,
                       trained.params, pickle.loads(pickle.dumps(stepped))):
            assert params.workspace is None
            assert [name for name, value in vars(params).items()
                    if isinstance(value, np.ndarray) and value.ndim == 2] == ["theta"]
            _, state = params.__getstate__()
            assert len(state) == len(params.running_mean + params.running_var) + 2
            assert all(a is b for a, b in zip(state, [params.theta, *params.running_mean,
                                                      *params.running_var, params.steps]))

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_alias_their_own_store(self, banks, clone):
        model, values = banks["tuned"]
        twin = clone(model)
        assert_members_alias_store(twin)
        assert not np.shares_memory(twin.store.theta, model.store.theta)
        assert [m.params.step for m in twin.members] == [m.params.step for m in model.members]
        a, _ = infer(model, values[:5], scaled=True)
        b, _ = infer(twin, values[:5], scaled=True)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_members_are_immutable(self, banks):
        model, _ = banks["constant"]
        other = constant_member(3.0, model.scaling.content_hash())
        with pytest.raises(TypeError):
            model.members[1] = other
        with pytest.raises(AttributeError):
            model.members = (other,) * 3

    def test_replace_member_copies_into_the_row(self):
        matrix = blob_matrix(n_per_class=10, n_classes=3, seed=6)
        h = matrix.scaling.content_hash()
        model = OconModel(class_names=matrix.class_names,
                          members=[constant_member(z, h) for z in (-0.3, 1.7, 0.9)],
                          scaling=matrix.scaling, feature_set=matrix.feature_set)
        new = constant_member(4.0, h)
        model.replace_member(0, new)
        assert model.members[0].params is not new.params
        assert_members_alias_store(model)
        probs, label = infer(model, matrix.values[0], scaled=True)
        assert label == 0 and probs[0] == new.predict_proba(matrix.values[0])[0]
        new.params.biases[0][:] = -9.0          # the caller's object stays its own
        assert infer(model, matrix.values[0], scaled=True)[1] == 0

    def test_replace_member_refuses_a_misfit(self):
        matrix = blob_matrix(n_per_class=10, n_classes=2, seed=6)
        model = two_class_model(matrix)
        for slot in (2, -1):
            with pytest.raises(UnknownClass):
                model.replace_member(slot, model.members[0])
        cfg = MlpConfig(input_dim=3, hidden_layers=(4,))
        with pytest.raises(ManifestMismatch, match="layer dims"):
            model.replace_member(1, MlpModel(config=cfg, params=init_params(cfg)))
        stranger = linear_member([1.0, 0.0, 0.0], 0.0, scaling_hash="x")
        with pytest.raises(ManifestMismatch, match="scaling"):
            model.replace_member(1, stranger)
        with pytest.raises(ManifestMismatch, match="scaling"):
            OconModel(class_names=matrix.class_names, members=[model.members[0], stranger],
                      scaling=matrix.scaling, feature_set=matrix.feature_set)

    def test_retrain_unknown_class_is_refused(self):
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=7)
        model, _ = train_ensemble(matrix, *quick_configs(epochs=2))
        members = model.members
        with pytest.raises(UnknownClass):
            retrain_member(model, matrix, 2, *quick_configs())
        assert model.members is members


class TestEvaluate:
    def test_perfect_members(self):
        matrix = blob_matrix(n_per_class=25, seed=5)
        model = two_class_model(matrix)
        ev = evaluate_ensemble(model, matrix)
        assert all(acc == 100.0 for acc in ev.per_class_accuracy.values())
        assert ev.argmax_accuracy == 100.0
        assert np.array_equal(ev.confusion, np.diag([25, 25]))

    def test_scaling_mismatch_rejected(self):
        matrix = blob_matrix(n_per_class=10, seed=5)
        other = blob_matrix(n_per_class=10, seed=5)
        object.__setattr__(other.scaling, "lo", other.scaling.lo + 0.1)
        model = two_class_model(matrix)
        with pytest.raises(ManifestMismatch):
            evaluate_ensemble(model, other)


class TestTopology:
    @pytest.mark.parametrize("other", [MlpConfig(input_dim=3, hidden_layers=(4,)),
                                       MlpConfig(input_dim=3, hidden_layers=(8, 8)),
                                       MlpConfig(input_dim=3, hidden_layers=(8,),
                                                 batch_norm=True)])
    def test_constructor_rejects_mixed_topology(self, other):
        matrix = blob_matrix(n_per_class=5)
        members = [MlpModel(config=cfg, params=init_params(cfg))
                   for cfg in (MlpConfig(input_dim=3, hidden_layers=(8,)), other)]
        with pytest.raises(ManifestMismatch, match="layer dims"):
            OconModel(class_names=matrix.class_names, members=members,
                      scaling=matrix.scaling, feature_set=matrix.feature_set)

    def test_retrain_with_other_topology_leaves_model_untouched(self, tmp_path):
        matrix = blob_matrix(n_per_class=30, n_classes=2, seed=7)
        mlp, tc = quick_configs(epochs=5)
        model, _ = train_ensemble(matrix, mlp, tc)
        members = list(model.members)
        save_ensemble(model, str(tmp_path / "before"))
        other = MlpConfig(input_dim=3, hidden_layers=(4,), batch_norm=True, seed=1)
        with pytest.raises(ManifestMismatch):
            retrain_member(model, matrix, 1, other, tc)
        assert all(a is b for a, b in zip(model.members, members))
        save_ensemble(model, str(tmp_path / "after"))
        for name in model.class_names:
            fname = f"member_{name}.ocmdl"
            assert (tmp_path / "before" / fname).read_bytes() == \
                (tmp_path / "after" / fname).read_bytes()
        load_ensemble(str(tmp_path / "after"))

    def test_load_rejects_batch_norm_mix(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        member_path = str(path / "member_c1.ocmdl")
        member = load_model(member_path)
        cfg = replace(member.config, batch_norm=True)
        save_model(MlpModel(config=cfg, params=init_params(cfg),
                            scaling_hash=member.scaling_hash), member_path)
        edit_manifest(path, lambda m: m["members"][1].__setitem__(
            "sha256", sha256_file(member_path)))
        with pytest.raises(ManifestMismatch, match="batch_norm"):
            load_ensemble(path)


class TestTrainEnsemble:
    def test_step_counts_survive_the_bank_its_copies_and_a_swap(self, tmp_path):
        matrix, mlp, tc = early_stop_bank()
        model, reports = train_ensemble(matrix, mlp, tc)
        steps = [steps_taken(r, mlp) for r in reports]
        assert len(set(steps)) > 1
        parallel, _ = train_ensemble(matrix, mlp, tc, workers=2)
        save_ensemble(parallel, str(tmp_path / "bank"))
        loaded = load_ensemble(str(tmp_path / "bank"))
        for bank in (model, parallel, loaded):
            assert [m.params.step for m in bank.members] == steps == bank.store.steps.tolist()
        old = loaded.members[1]
        short = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1, early_stop=None)
        member, report = train_one_class(matrix, 1, mlp, short)
        assert member.params.step == steps_taken(report, mlp) != steps[1]
        loaded.replace_member(1, member)
        assert loaded.store.steps.tolist() == [steps[0], member.params.step, *steps[2:]]
        assert loaded.members[1].params.step == member.params.step
        assert old.params.step == steps[1]

    def test_members_and_reports(self):
        matrix = blob_matrix(n_per_class=60, n_classes=3, seed=9)
        mlp, tc = quick_configs()
        model, reports = train_ensemble(matrix, mlp, tc)
        assert len(model.members) == 3 and len(reports) == 3
        assert [r.class_name for r in reports] == list(matrix.class_names)
        ev = evaluate_ensemble(model, matrix)
        assert ev.argmax_accuracy > 60.0

    def test_parallel_workers_identical_results(self, tmp_path):
        matrix = blob_matrix(n_per_class=30, n_classes=3, seed=4)
        mlp, tc = quick_configs(epochs=10)
        serial, _ = train_ensemble(matrix, mlp, tc, workers=1)
        parallel, _ = train_ensemble(matrix, mlp, tc, workers=3)
        save_ensemble(serial, str(tmp_path / "a"))
        save_ensemble(parallel, str(tmp_path / "b"))
        for name in serial.class_names:
            fa = (tmp_path / "a" / f"member_{name}.ocmdl").read_bytes()
            fb = (tmp_path / "b" / f"member_{name}.ocmdl").read_bytes()
            assert fa == fb

    def test_speaker_task_trains_three_members(self, synth_matrix):
        mlp = MlpConfig(input_dim=12, hidden_layers=(4,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=2, max_batch_sets=1,
                         early_stop=None, seed=0)
        matrix = speaker_view(synth_matrix)
        model, reports = train_ensemble(matrix, mlp, tc)
        assert model.class_names == ("male", "female", "children")
        assert len(model.members) == 3 and len(reports) == 3
        ev = evaluate_ensemble(model, matrix)
        assert ev.confusion.shape == (3, 3)
        assert ev.confusion.sum() == synth_matrix.n_rows

    def test_wrong_label_table_is_manifest_mismatch(self, synth_matrix):
        mlp = MlpConfig(input_dim=12, hidden_layers=(4,), learning_rate=1e-3, seed=0)
        tc = TrainConfig(epochs_per_batch_set=1, max_batch_sets=1, early_stop=None, seed=0)
        speaker_bank, _ = train_ensemble(speaker_view(synth_matrix), mlp, tc)
        with pytest.raises(ManifestMismatch, match="classes"):
            evaluate_ensemble(speaker_bank, synth_matrix)
        with pytest.raises(ManifestMismatch, match="classes"):
            report_tables(speaker_bank, synth_matrix)
        phoneme_bank, _ = train_ensemble(synth_matrix, mlp, tc)
        with pytest.raises(ManifestMismatch, match="classes"):
            evaluate_ensemble(phoneme_bank, speaker_view(synth_matrix))
        before = tuple(speaker_bank.members)
        with pytest.raises(ManifestMismatch, match="classes"):
            retrain_member(speaker_bank, synth_matrix, 0, mlp, tc)
        assert speaker_bank.members == before

    def test_partial_ensemble_on_divergence(self):
        matrix = blob_matrix(n_per_class=20, n_classes=3, seed=4)
        matrix.values[5] = np.nan
        mlp, tc = quick_configs(epochs=5)
        with pytest.raises(PartialEnsemble) as err:
            train_ensemble(matrix, mlp, tc)
        assert err.value.failures

    def test_retrain_member_isolation(self, tmp_path):
        matrix = blob_matrix(n_per_class=40, n_classes=3, seed=1)
        mlp, tc = quick_configs(epochs=15)
        model, _ = train_ensemble(matrix, mlp, tc)
        save_ensemble(model, str(tmp_path / "before"))
        from dataclasses import replace
        retrain_member(model, matrix, 1, mlp, replace(tc, seed=123))
        save_ensemble(model, str(tmp_path / "after"))
        for name in model.class_names:
            before = (tmp_path / "before" / f"member_{name}.ocmdl").read_bytes()
            after = (tmp_path / "after" / f"member_{name}.ocmdl").read_bytes()
            if name == model.class_names[1]:
                assert before != after
            else:
                assert before == after


REQUIRED_MANIFEST_KEYS = ("class_names", "feature_set", "f0_mode", "scaling",
                          "scaling_hash", "members")


def edit_manifest(path, edit):
    manifest_path = os.path.join(path, "ensemble.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


@pytest.fixture(scope="module")
def saved_ensemble(tmp_path_factory):
    matrix = blob_matrix(n_per_class=30, n_classes=2, seed=7)
    mlp, tc = quick_configs(epochs=10)
    model, _ = train_ensemble(matrix, mlp, tc)
    path = str(tmp_path_factory.mktemp("saved") / "ensemble")
    save_ensemble(model, path)
    return path


class TestSaveLoad:
    def make_model(self, tmp_path):
        matrix = blob_matrix(n_per_class=30, n_classes=2, seed=7)
        mlp, tc = quick_configs(epochs=10)
        model, _ = train_ensemble(matrix, mlp, tc)
        path = str(tmp_path / "ensemble")
        save_ensemble(model, path)
        return matrix, model, path

    def test_roundtrip_identical_inference(self, tmp_path):
        matrix, model, path = self.make_model(tmp_path)
        back = load_ensemble(path)
        a, pa = infer(model, matrix.values, scaled=True)
        b, pb = infer(back, matrix.values, scaled=True)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(pa, pb)
        again = tmp_path / "again"
        save_ensemble(back, again)
        names = sorted(os.listdir(path))
        assert names == sorted(os.listdir(again)) and len(names) == 3
        for name in names:
            assert (again / name).read_bytes() == open(os.path.join(path, name), "rb").read()

    def test_missing_member(self, tmp_path):
        _, model, path = self.make_model(tmp_path)
        os.remove(os.path.join(path, f"member_{model.class_names[0]}.ocmdl"))
        with pytest.raises(MissingMember):
            load_ensemble(path)

    def test_tampered_member(self, tmp_path):
        _, model, path = self.make_model(tmp_path)
        target = os.path.join(path, f"member_{model.class_names[1]}.ocmdl")
        blob = bytearray(open(target, "rb").read())
        blob[-10] ^= 0xFF
        open(target, "wb").write(bytes(blob))
        with pytest.raises(ManifestMismatch, match=re.escape(os.path.basename(target))):
            load_ensemble(path)

    def test_load_reads_each_member_file_once(self, saved_ensemble, monkeypatch):
        opened, real_open = Counter(), builtins.open

        def counting_open(file, *args, **kwargs):
            opened[os.path.basename(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        model = load_ensemble(saved_ensemble)
        monkeypatch.undo()
        assert {name: n for name, n in opened.items() if name.startswith("member_")} == {
            f"member_{name}.ocmdl": 1 for name in model.class_names}

    def test_swapped_member_updates_manifest(self, tmp_path):
        matrix, model, path = self.make_model(tmp_path)
        import json
        manifest_before = json.load(open(os.path.join(path, "ensemble.json")))
        mlp, tc = quick_configs(epochs=10)
        from dataclasses import replace
        retrain_member(model, matrix, 0, mlp, replace(tc, seed=55))
        save_ensemble(model, path)
        manifest_after = json.load(open(os.path.join(path, "ensemble.json")))
        assert manifest_before["members"][0]["sha256"] != \
            manifest_after["members"][0]["sha256"]
        assert manifest_before["members"][1]["sha256"] == \
            manifest_after["members"][1]["sha256"]
        load_ensemble(path)  # still consistent

    @pytest.mark.parametrize("key", REQUIRED_MANIFEST_KEYS)
    def test_missing_manifest_key(self, saved_ensemble, tmp_path, key):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m.pop(key))
        with pytest.raises(ManifestMismatch, match=key):
            load_ensemble(path)

    @pytest.mark.parametrize("key, value", [
        ("class_names", "ae"), ("class_names", [1, 2]), ("feature_set", "tt13"),
        ("f0_mode", 3), ("scaling", {"lo": [0.0]}), ("scaling_hash", None),
        ("members", {}), ("members", ["member_ae.ocmdl"]), ("version", "1"),
        ("f0_mode", "normalized"), ("version", True), ("version", False), ("version", -3),
    ])
    def test_mistyped_manifest_value(self, saved_ensemble, tmp_path, key, value):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m.__setitem__(key, value))
        with pytest.raises(ManifestMismatch):
            load_ensemble(path)

    def test_manifest_without_version_loads_as_legacy(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m.pop("version"))
        assert load_ensemble(path).class_names == load_ensemble(saved_ensemble).class_names

    def test_zscore_scaling_is_refused(self, saved_ensemble, tmp_path):
        # the record matches its hash, so only the mode tells the bank apart
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")

        def to_zscore(manifest):
            manifest["scaling"]["mode"] = "zscore"
            manifest["scaling_hash"] = sha256_json(manifest["scaling"])

        edit_manifest(path, to_zscore)
        with pytest.raises(ManifestMismatch, match="zscore"):
            load_ensemble(path)

    def test_extra_member_entry(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m["members"].append(dict(m["members"][0])))
        with pytest.raises(ManifestMismatch, match="member classes"):
            load_ensemble(path)

    def test_member_entry_without_hash(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m["members"][1].pop("sha256"))
        with pytest.raises(ManifestMismatch, match="sha256"):
            load_ensemble(path)

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe", b"[1, 2]"])
    def test_manifest_not_a_json_object(self, saved_ensemble, tmp_path, text):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        (path / "ensemble.json").write_bytes(text)
        with pytest.raises(ManifestMismatch):
            load_ensemble(path)

    def test_empty_bank_is_manifest_mismatch(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        edit_manifest(path, lambda m: m.update(class_names=[], members=[]))
        with pytest.raises(ManifestMismatch, match="at least one"):
            load_ensemble(path)

    def test_load_copies_members_into_the_store(self, saved_ensemble):
        model = load_ensemble(saved_ensemble)
        assert_members_alias_store(model)
        for name, member in zip(model.class_names, model.members):
            alone = load_model(os.path.join(saved_ensemble, f"member_{name}.ocmdl"))
            assert np.array_equal(member.params.theta.view(np.uint64),
                                  alone.params.theta.view(np.uint64))
            assert member.params.step == alone.params.step

    def test_member_with_misshapen_array_is_corrupt(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        member = path / "member_c1.ocmdl"
        _, meta, arrays = container.read_container(str(member), CHECKPOINT_KIND,
                                                   CHECKPOINT_VERSION)
        arrays["w0"] = arrays["w0"].T.copy()
        container.write_container(str(member), CHECKPOINT_KIND, CHECKPOINT_VERSION,
                                  meta, arrays)
        edit_manifest(path, lambda m: m["members"][1].update(sha256=sha256_file(str(member))))
        with pytest.raises(CorruptPayload, match="w0"):
            load_ensemble(path)

    def test_member_with_int64_array_is_corrupt(self, saved_ensemble, tmp_path):
        path = shutil.copytree(saved_ensemble, tmp_path / "ensemble")
        member = path / "member_c1.ocmdl"
        _, meta, arrays = container.read_container(str(member), CHECKPOINT_KIND,
                                                   CHECKPOINT_VERSION)
        arrays["b0"] = arrays["b0"].astype(np.int64)
        container.write_container(str(member), CHECKPOINT_KIND, CHECKPOINT_VERSION,
                                  meta, arrays)
        edit_manifest(path, lambda m: m["members"][1].update(sha256=sha256_file(str(member))))
        with pytest.raises(CorruptPayload, match="b0.*dtype"):
            load_ensemble(path)
