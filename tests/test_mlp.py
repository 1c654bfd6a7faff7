import gc
import math
import pickle
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from ocon import container
from ocon.errors import CorruptPayload, DimensionMismatch, VersionMismatch
from ocon.mlp import (
    _dropout,
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    MlpConfig,
    MlpModel,
    StackedParams,
    bce_per_sample,
    binary_accuracy,
    forward,
    init_params,
    load_model,
    loss_and_grads,
    optimizer_step,
    predict_proba,
    save_model,
    sigmoid,
)


def small_config(**overrides):
    defaults = dict(input_dim=3, hidden_layers=(4,), learning_rate=1e-3, seed=1)
    defaults.update(overrides)
    return MlpConfig(**defaults)


def rand_batch(rng, n, d):
    return rng.random((n, d)), (rng.random(n) < 0.5).astype(np.float64)


# --- independent oracle: central finite differences on the loss ---

def mask_rng(mask_seed):
    """A fresh dropout generator list, so every pass draws the same masks."""
    return None if mask_seed is None else [np.random.default_rng(mask_seed)]


def numerical_loss(params, config, batch, labels, mask_seed=None):
    """Loss recomputed from a plain forward pass (no gradient machinery)."""
    y = np.asarray(labels, dtype=np.float64)
    _, zout = forward(params, config, batch[None], mode="train", rng=mask_rng(mask_seed))
    data = bce_per_sample(zout, y).mean()
    l2 = 0.5 * config.l2_lambda * sum(np.sum(w * w) for w in params.weights)
    return float(data + l2)


def finite_difference_grads(params, config, batch, labels, h=1e-5, mask_seed=None):
    """Central differences over every entry of the (1, P) ``params.theta``,
    with the dropout masks of ``mask_seed`` fixed."""
    theta = params.theta[0]
    grads = np.zeros_like(theta)
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + h
        up = numerical_loss(params, config, batch, labels, mask_seed)
        theta[i] = keep - h
        down = numerical_loss(params, config, batch, labels, mask_seed)
        theta[i] = keep
        grads[i] = (up - down) / (2 * h)
    return grads


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestGradients:
    @pytest.mark.parametrize("case", range(20))
    def test_analytic_matches_finite_differences(self, case):
        # every third case drops inputs and hidden units, through masks that
        # a fresh generator of one seed fixes for every loss evaluation
        rng = np.random.default_rng(1000 + case)
        dropout = case % 3 == 2
        config = MlpConfig(
            input_dim=int(rng.integers(2, 5)),
            hidden_layers=tuple(int(rng.integers(2, 6))
                                for _ in range(int(rng.integers(1, 3)))),
            batch_norm=bool(case % 2),
            l2_lambda=float(rng.choice([0.0, 1e-2])),
            learning_rate=1e-3,
            seed=int(rng.integers(0, 2 ** 31)),
            dropout_keep_input=0.8 if dropout else 1.0,
            dropout_keep_hidden=0.7 if dropout else 1.0,
        )
        params = init_params(config)
        # move off the freshly initialized point so batch-norm state is generic
        for arr in params.trainables():
            arr += rng.normal(0, 0.05, size=arr.shape)
        x, y = rand_batch(rng, int(rng.integers(3, 9)), config.input_dim)
        mask_seed = 50 + case if dropout else None
        _, grads, _ = loss_and_grads(params, config, x[None], y, rng=mask_rng(mask_seed))
        numeric = finite_difference_grads(params, config, x, y, mask_seed=mask_seed)
        assert max_relative_error(grads[0], numeric) < 1e-4

    @pytest.mark.parametrize("config", [
        MlpConfig.tuned(12),
        MlpConfig(input_dim=12, hidden_layers=(100,), learning_rate=1e-3),
    ], ids=["tuned", "no_batch_norm"])
    def test_float32_step_matches_float64_of_its_widened_params(self, config):
        # training steps in float32.  On float32-exact parameters and batch,
        # its losses and gradients must be the float64 ones up to float32
        # rounding: the bound is 1e-3 in the relative error above (float32's
        # epsilon is 1.2e-7; 20 seeds read at most 6.7e-5 tuned, 1.2e-5
        # without batch-norm), and 1e-6 relative on the losses
        for trial in range(3):
            rng = np.random.default_rng(trial)
            narrow = StackedParams(config, 3, np.float32)
            for k in range(3):
                init_params(replace(config, seed=10 * trial + k), narrow, k)
            narrow.theta += rng.normal(0, 0.05, narrow.theta.shape).astype(np.float32)
            wide = narrow.astype(np.float64)
            x = rng.random((3, 32, config.input_dim)).astype(np.float32)
            y = (rng.random(96) < 0.5).astype(np.float32)
            (loss32, grads32), (loss64, grads64) = [
                [a.copy() for a in loss_and_grads(
                    stack, config, x, y, rng=[np.random.default_rng(k) for k in range(3)])[:2]]
                for stack in (narrow, wide)]
            assert grads32.dtype == loss32.dtype == np.float32
            assert grads64.dtype == np.float64
            for k in range(3):
                assert max_relative_error(grads32[k], grads64[k]) < 1e-3
            assert np.all(np.abs(loss32 - loss64) <= 1e-6 * np.abs(loss64))


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(small_config(seed=9))
        b = init_params(small_config(seed=9))
        for x, y in zip(a.trainables(), b.trainables()):
            assert np.array_equal(x, y)

    def test_kaiming_shape_and_std(self):
        config = MlpConfig(input_dim=3, hidden_layers=(100,), seed=0)
        params = init_params(config)
        w = params.weights[0][0]
        assert w.shape == (100, 3)
        target = math.sqrt(2.0 / 3.0)
        # sample std over 300 draws within 3 standard errors of the target
        tol = 3 * target / math.sqrt(2 * w.size)
        assert abs(w.std() - target) < tol

    def test_biases_zero_and_bn_identity(self):
        params = init_params(small_config(batch_norm=True))
        assert all(np.all(b == 0.0) for b in params.biases)
        assert np.all(params.gamma[0] == 1.0)
        assert np.all(params.beta[0] == 0.0)
        assert np.all(params.running_mean[0] == 0.0)
        assert np.all(params.running_var[0] == 1.0)


class TestForward:
    def test_zero_weights_give_half(self):
        config = small_config()
        params = init_params(config)
        for w in params.weights:
            w[:] = 0.0
        probs, _ = forward(params, config, np.random.rand(5, 3))
        assert np.all(probs == 0.5)

    def test_train_equals_infer_without_dropout_bn(self):
        config = small_config()
        params = init_params(config)
        x = np.random.default_rng(0).random((8, 3))
        train_probs, _ = forward(params, config, x[None], mode="train")
        infer_probs, _ = forward(params, config, x, mode="infer")
        assert np.array_equal(train_probs, infer_probs)

    def test_single_linear_unit_closed_form(self):
        config = MlpConfig(input_dim=3, hidden_layers=(), seed=0)
        params = init_params(config)
        params.weights[0][:] = 1.0
        params.biases[0][:] = 0.0
        probs, _ = forward(params, config, np.array([[5.0, 15.0, 25.0]]))
        assert abs(probs[0, 0] - 1.0) < 1e-15  # sigmoid(45)

    def test_dimension_mismatch(self):
        # a vector is one row to predict_proba, but forward takes only (B, d)
        config = small_config()
        for batch in (np.zeros((2, 5)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                forward(init_params(config), config, batch)
        assert predict_proba(init_params(config), config, np.zeros(3)).shape == (1, 1)

    def test_bn_infer_uses_running_stats(self):
        config = small_config(batch_norm=True)
        params = init_params(config)
        rng = np.random.default_rng(3)
        x = rng.random((16, 3)) * 5
        before = [m.copy() for m in params.running_mean]
        forward(params, config, x[None], mode="train", rng=[rng])
        after = params.running_mean
        assert not np.array_equal(before[0], after[0])
        probs1, _ = forward(params, config, x, mode="infer")
        probs2, _ = forward(params, config, x, mode="infer")
        assert np.array_equal(probs1, probs2)  # infer never mutates state

    def test_one_row_batch_norm_step_is_degenerate(self):
        # why the training loop never takes a 1-row step under batch-norm:
        # zero batch variance zeroes every weight, scale and shift gradient
        # and shrinks the running variance by the momentum
        config = small_config(batch_norm=True)
        params = init_params(config)
        x = np.random.default_rng(0).random((1, 3))
        loss_and_grads(params, config, x[None], np.ones(1))
        assert np.array_equal(params.running_var[0][0, 0], np.full(4, 0.9))
        grads = params.buffers(config, 1)
        assert not grads.d_weights[0].any() and not grads.d_gamma[0].any()
        assert not grads.d_beta[0].any()

    def test_dropout_expectation_matches_infer_in_linear_regime(self):
        # positive weights, biases, and inputs keep ReLU in its identity
        # range for every mask, so inverted dropout is unbiased end to end
        config = small_config(dropout_keep_input=0.8, dropout_keep_hidden=0.5)
        params = init_params(config)
        rng = np.random.default_rng(11)
        for w in params.weights:
            w[:] = rng.uniform(0.1, 0.5, size=w.shape)
        for b in params.biases:
            b[:] = 1.0
        x = rng.uniform(0.5, 1.5, size=(1, 3))
        _, infer_zout = forward(params, config, x, mode="infer")
        total = 0.0
        n_masks = 10_000
        for _ in range(n_masks):
            _, zout = forward(params, config, x[None], mode="train", rng=[rng])
            total += zout[0, 0]
        mean = total / n_masks
        ref = infer_zout[0, 0]
        assert abs(mean - ref) < 1e-2 * max(1.0, abs(ref))


def explicit_keeps(seeds, shape, threshold):
    """Keep indicators built by hand: each member's ``random_raw`` words cut
    into 16-bit draws from the low bits up, kept below ``threshold``."""
    size = math.prod(shape)
    out = []
    for seed in seeds:
        words = np.random.default_rng(seed).bit_generator.random_raw(-(-size // 4))
        draws = [(int(w) >> (16 * i)) & 0xFFFF for w in words for i in range(4)][:size]
        out.append(np.array([float(d < threshold) for d in draws]).reshape(shape))
    return np.array(out)


class TestDropoutDraws:
    @pytest.mark.parametrize("keep", [0.5, 0.8, 0.9])
    def test_kept_share_is_keep(self, keep):
        buf = _dropout([np.random.default_rng(5)], keep, np.empty((1, 400, 250)))
        sigma = math.sqrt(keep * (1 - keep) / buf.size)
        assert abs(buf.mean() - keep) < 4 * sigma

    @pytest.mark.parametrize("keep, threshold", [(0.8, 52429), (0.5, 32768), (0.3, 19661)])
    def test_indicators_are_16_bit_draws_low_bits_first(self, keep, threshold):
        # 7 x 5 draws per member leave one word's top draw unused
        buf = _dropout([np.random.default_rng(s) for s in (3, 4)], keep, np.empty((2, 7, 5)))
        assert np.array_equal(buf, explicit_keeps((3, 4), (7, 5), threshold))

    @pytest.mark.parametrize("keep, threshold", [(2.0 ** -18, 1), (1 - 2.0 ** -18, 65535)])
    def test_extreme_keep_is_clamped(self, keep, threshold):
        # a keep below 2^-17 would round to no draw at all; it keeps 2^-16
        buf = _dropout([np.random.default_rng(8)], keep, np.empty((1, 512, 512)))
        assert np.array_equal(buf, explicit_keeps((8,), (512, 512), threshold))
        rate = threshold / 65536
        assert abs(buf.mean() - rate) < 4 * math.sqrt(rate * (1 - rate) / buf.size)


class TestLoss:
    def test_perfect_predictions_loss_to_zero(self):
        config = small_config(hidden_layers=())
        params = init_params(config)
        params.weights[0][:] = 40.0
        x = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        y = np.array([1.0, 0.0])
        [loss], _, _ = loss_and_grads(params, config, x[None], y)
        assert loss < 1e-12

    def test_half_probability_gives_ln2(self):
        config = small_config()
        params = init_params(config)
        for w in params.weights:
            w[:] = 0.0
        x, y = rand_batch(np.random.default_rng(0), 10, 3)
        [loss], _, _ = loss_and_grads(params, config, x[None], y)
        assert abs(loss - math.log(2)) < 1e-12

    def test_l2_increases_loss_unless_weights_zero(self):
        rng = np.random.default_rng(5)
        x, y = rand_batch(rng, 6, 3)
        base, reg = small_config(l2_lambda=0.0), small_config(l2_lambda=1e-2)
        params = init_params(base)
        [plain], _, _ = loss_and_grads(params.copy(), base, x[None], y)
        [penalized], _, _ = loss_and_grads(params.copy(), reg, x[None], y)
        assert penalized > plain
        for w in params.weights:
            w[:] = 0.0
        [plain], _, _ = loss_and_grads(params.copy(), base, x[None], y)
        [penalized], _, _ = loss_and_grads(params.copy(), reg, x[None], y)
        assert penalized == plain

    def test_non_finite_loss_is_returned(self):
        # divergence is the caller's to check: the training engine takes a
        # member whose loss is not finite out before the optimizer step
        config = small_config()
        params = init_params(config)
        params.weights[0][0, 0, 0] = np.nan
        x, y = rand_batch(np.random.default_rng(0), 4, 3)
        with np.errstate(invalid="ignore"):
            loss, _, _ = loss_and_grads(params, config, x[None], y)
        assert loss.shape == (1,) and np.isnan(loss[0])

    def test_per_sample_losses_returned(self):
        config = small_config()
        params = init_params(config)
        x, y = rand_batch(np.random.default_rng(2), 6, 3)
        [loss], _, per_sample = loss_and_grads(params, config, x[None], y)
        assert per_sample.shape == (1, 6)
        assert abs(per_sample.mean() - loss) < 1e-15  # l2 is zero here


class TestOptimizers:
    def zero_grads(self, params):
        """The member's workspace, its (1, P) gradient ``grad`` zeroed;
        ``d_weights`` etc. are views into it."""
        buffers = params.buffers(params.config, 1)
        buffers.grad[:] = 0.0
        return buffers

    @pytest.mark.parametrize("optimizer", ["adam", "rmsprop"])
    def test_zero_gradient_leaves_params(self, optimizer):
        config = small_config(optimizer=optimizer)
        params = init_params(config)
        before = [a.copy() for a in params.trainables()]
        optimizer_step(params, self.zero_grads(params).grad, config)
        for a, b in zip(params.trainables(), before):
            assert np.array_equal(a, b)

    def test_adam_first_step_closed_form(self):
        # with g=1 the bias-corrected first step is -lr/(1 + eps)
        lr = 0.05
        config = MlpConfig(input_dim=1, hidden_layers=(), learning_rate=lr,
                           optimizer="adam", seed=0)
        params = init_params(config)
        start = params.weights[0][0, 0, 0]
        grads = self.zero_grads(params)
        grads.d_weights[0][:] = 1.0
        optimizer_step(params, grads.grad, config)
        delta = params.weights[0][0, 0, 0] - start
        assert np.isclose(delta, -lr, rtol=1e-7)
        assert params.step == 1

    def test_rmsprop_first_step_closed_form(self):
        # v = 0.1, step = -lr * 1 / (sqrt(0.1) + eps)
        lr = 0.05
        config = MlpConfig(input_dim=1, hidden_layers=(), learning_rate=lr,
                           optimizer="rmsprop", seed=0)
        params = init_params(config)
        start = params.weights[0][0, 0, 0]
        grads = self.zero_grads(params)
        grads.d_weights[0][:] = 1.0
        optimizer_step(params, grads.grad, config)
        delta = params.weights[0][0, 0, 0] - start
        assert np.isclose(delta, -lr / (math.sqrt(0.1) + 1e-8), rtol=1e-12)

    def test_zero_learning_rate_freezes_params(self):
        config = small_config(learning_rate=0.0)
        params = init_params(config)
        before = [a.copy() for a in params.trainables()]
        grads = self.zero_grads(params).grad
        grads[:] = 1.0
        optimizer_step(params, grads, config)
        for a, b in zip(params.trainables(), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("optimizer", ["adam", "rmsprop"])
    def test_step_reduces_convex_quadratic(self, optimizer):
        # sanity property on f(w) = w^2 via its gradient 2w
        config = MlpConfig(input_dim=1, hidden_layers=(), learning_rate=1e-3,
                           optimizer=optimizer, seed=0)
        params = init_params(config)
        params.weights[0][:] = 1.0
        grads = self.zero_grads(params)
        grads.d_weights[0][:] = 2.0 * params.weights[0][0, 0, 0]
        optimizer_step(params, grads.grad, config)
        assert 0 < params.weights[0][0, 0, 0] < 1.0


class TestDeterminismAndCheckpoints:
    def run_steps(self, seed=4):
        config = small_config(batch_norm=True, dropout_keep_hidden=0.7, seed=seed)
        params, rngs = init_params(config), [np.random.default_rng(999)]
        data_rng = np.random.default_rng(5)
        losses = []
        for _ in range(5):
            x, y = rand_batch(data_rng, 8, 3)
            [loss], grads, _ = loss_and_grads(params, config, x[None], y, rng=rngs)
            optimizer_step(params, grads, config)
            losses.append(loss)
        return config, params, losses

    def test_bitwise_repeatable(self):
        cfg_a, params_a, losses_a = self.run_steps()
        cfg_b, params_b, losses_b = self.run_steps()
        assert losses_a == losses_b
        for a, b in zip(params_a.trainables(), params_b.trainables()):
            assert np.array_equal(a, b)

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        config, params, _ = self.run_steps()
        model = MlpModel(config=config, params=params, scaling_hash="abc",
                         manifest_hash="def")
        path = str(tmp_path / "model.ocmdl")
        save_model(model, path)
        back = load_model(path)
        assert back.config == config
        assert back.scaling_hash == "abc" and back.manifest_hash == "def"
        assert back.params.step == params.step
        for a, b in zip(back.params.trainables(), params.trainables()):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(back.params.running_mean, params.running_mean):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # byte-identical file when saved again
        path2 = str(tmp_path / "model2.ocmdl")
        save_model(back, path2)
        assert open(path, "rb").read() == open(path2, "rb").read()


    def write_v1_checkpoint(self, path, model):
        """A checkpoint in the version-1 layout, optimizer moments included."""
        p = model.params
        arrays = {f"w{i}": w[0] for i, w in enumerate(p.weights)}
        arrays.update({f"b{i}": b[0, 0] for i, b in enumerate(p.biases)})
        for i in range(len(p.gamma)):
            arrays.update({f"gamma{i}": p.gamma[i][0, 0], f"beta{i}": p.beta[i][0, 0],
                           f"rmean{i}": p.running_mean[i][0, 0],
                           f"rvar{i}": p.running_var[i][0, 0]})
        for i, t in enumerate(p.trainables()):
            arrays.update({f"m{i}": np.full_like(t, 0.25), f"v{i}": np.full_like(t, 0.5)})
        meta = {"config": asdict(model.config), "step": p.step,
                "scaling_hash": model.scaling_hash, "manifest_hash": model.manifest_hash}
        container.write_container(path, CHECKPOINT_KIND, 1, meta, arrays)

    def test_v2_checkpoint_has_no_optimizer_moments(self, tmp_path):
        config, params, _ = self.run_steps()
        path = str(tmp_path / "model.ocmdl")
        save_model(MlpModel(config=config, params=params), path)
        version, _, arrays = container.read_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION)
        assert version == CHECKPOINT_VERSION == 2
        assert sorted(arrays) == ["b0", "b1", "beta0", "gamma0", "rmean0", "rvar0", "w0", "w1"]
        with pytest.raises(VersionMismatch):
            container.read_container(path, CHECKPOINT_KIND, 1)

    def test_v1_checkpoint_loads_without_moments(self, tmp_path):
        config, params, _ = self.run_steps()
        model = MlpModel(config=config, params=params, scaling_hash="s", manifest_hash="m")
        path = str(tmp_path / "v1.ocmdl")
        self.write_v1_checkpoint(path, model)
        back = load_model(path)
        assert back.config == config and back.params.step == params.step
        assert (back.scaling_hash, back.manifest_hash) == ("s", "m")
        assert np.array_equal(back.params.theta.view(np.uint64), params.theta.view(np.uint64))
        for a, b in zip(back.params.running_mean + back.params.running_var,
                        params.running_mean + params.running_var):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert back.params.workspace is None
        x = np.random.default_rng(1).random((5, 3))
        assert np.array_equal(back.predict_proba(x), model.predict_proba(x))

    @pytest.mark.parametrize("damage", ["drop_b1", "drop_rvar0", "reshape_w0", "drop_config",
                                        "mse_loss"])
    def test_incomplete_checkpoint_is_corrupt(self, tmp_path, damage):
        config, params, _ = self.run_steps()
        arrays = {"w0": params.weights[0][0], "w1": params.weights[1][0],
                  "b0": params.biases[0][0, 0], "b1": params.biases[1][0, 0],
                  "gamma0": params.gamma[0][0, 0], "beta0": params.beta[0][0, 0],
                  "rmean0": params.running_mean[0][0, 0], "rvar0": params.running_var[0][0, 0]}
        meta = {"config": asdict(config), "step": params.step,
                "scaling_hash": "", "manifest_hash": ""}
        if damage == "reshape_w0":
            arrays["w0"] = arrays["w0"].T
        elif damage == "drop_config":
            del meta["config"]
        elif damage == "mse_loss":                  # a loss this code no longer trains
            meta["config"]["loss"] = "mse"
        else:
            del arrays[damage[len("drop_"):]]
        path = str(tmp_path / "bad.ocmdl")
        container.write_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION, meta, arrays)
        with pytest.raises(CorruptPayload):
            load_model(path)

    @pytest.mark.parametrize("step, loads", [(2**63 - 1, True), (2**63, False)])
    def test_step_must_fit_an_int64_row(self, tmp_path, step, loads):
        config, params, _ = self.run_steps()
        path = str(tmp_path / "model.ocmdl")
        save_model(MlpModel(config=config, params=params), path)
        _, meta, arrays = container.read_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION)
        container.write_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION,
                                  {**meta, "step": step}, arrays)
        if loads:
            assert load_model(path).params.step == step
        else:
            with pytest.raises(CorruptPayload, match="step"):
                load_model(path)


class TestFlatLayout:
    def test_views_cover_theta_in_trainables_order(self):
        config = small_config(batch_norm=True, hidden_layers=(4, 3))
        params = init_params(config)
        flat = np.concatenate([a.ravel() for a in params.trainables()])
        assert np.array_equal(flat, params.theta[0])
        assert params.n_weights == 3 * 4 + 4 * 3 + 3 * 1
        for view in params.trainables():
            assert np.shares_memory(view, params.theta)
        grads = params.buffers(config, 1)
        grad_views = grads.d_weights + grads.d_biases + grads.d_gamma + grads.d_beta
        assert [g.shape for g in grad_views] == [a.shape for a in params.trainables()]
        grads.d_gamma[1][:] = 7.0
        offset = sum(a.size for a in params.trainables()[:-3])
        assert np.all(grads.grad[0, offset: offset + 3] == 7.0)

    def test_pickle_and_copy_keep_views_on_fresh_buffers(self):
        config, params, _ = TestDeterminismAndCheckpoints().run_steps()
        for twin in (pickle.loads(pickle.dumps(params)), params.copy()):
            assert np.array_equal(twin.theta, params.theta)
            assert twin.step == params.step and twin.workspace is None
            assert np.array_equal(twin.running_var[0], params.running_var[0])
            assert not np.shares_memory(twin.theta, params.theta)
            assert all(np.shares_memory(v, twin.theta) for v in twin.trainables())
            grads = twin.buffers(config, 1)
            assert all(np.shares_memory(v, grads.grad) for v in grads.d_weights)


def stack_of(config, members):
    """A new stack holding a copy of each member in its row."""
    stack = StackedParams(config, len(members))
    for k, params in enumerate(members):
        stack.put(k, params)
    return stack


class TestStackedParams:
    def members(self, n=3):
        config = small_config(batch_norm=True, hidden_layers=(4, 3))
        members = [init_params(small_config(batch_norm=True, hidden_layers=(4, 3), seed=seed))
                   for seed in range(n)]
        for i, params in enumerate(members):
            params.running_mean[1][:] = 0.1 * i
            params.running_var[1][:] = 1.0 + i
        return config, members

    def test_views_carry_a_member_axis(self):
        config, members = self.members()
        stacked = stack_of(config, members)
        assert stacked.theta.shape == (3, members[0].theta.size)
        assert [w.shape for w in stacked.weights] == [(3, 4, 3), (3, 3, 4), (3, 1, 3)]
        assert [b.shape for b in stacked.biases] == [(3, 1, 4), (3, 1, 3), (3, 1, 1)]
        assert [g.shape for g in stacked.gamma] == [(3, 1, 4), (3, 1, 3)]
        for i, params in enumerate(members):
            for mine, theirs in zip(stacked.weights + stacked.beta + stacked.running_var,
                                    params.weights + params.beta + params.running_var):
                assert np.array_equal(mine[i].reshape(theirs.shape), theirs)
        assert all(np.shares_memory(w, stacked.theta) for w in stacked.weights)
        assert not np.shares_memory(stacked.theta, members[0].theta)

    def test_stacked_forward_equals_each_member(self):
        config, members = self.members()
        x = np.random.default_rng(2).random((7, 3))
        probs, _ = forward(stack_of(config, members), config, x)
        reference = np.concatenate([forward(p, config, x)[0] for p in members])
        assert np.array_equal(probs.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("config", [
        MlpConfig.tuned(3, seed=0),
        small_config(hidden_layers=(5, 4), batch_norm=True, dropout_keep_input=0.9,
                     dropout_keep_hidden=0.7, l2_lambda=1e-3, optimizer="rmsprop"),
        small_config(hidden_layers=()),
    ], ids=["tuned", "two_layer_bn_rmsprop", "no_hidden"])
    def test_stacked_train_steps_equal_member_steps(self, config):
        # in float64, and in float32, the dtype lockstep training steps in
        for dtype in (np.float64, np.float32):
            self.check_stacked_train_steps(config, dtype)

    def check_stacked_train_steps(self, config, dtype):
        # full 8-row steps, then a 3-row tail through [:, :rows] workspace
        # views; then the first two members go on alone in a select that
        # shares the 3-member workspace, as a lockstep group that lost a
        # member does, through [:2, :rows] views (a 5-row tail)
        n_members, row_counts, shrunk_row_counts = 3, (8, 8, 3, 8), (8, 5)
        members = [init_params(replace(config, seed=seed), StackedParams(config, 1, dtype))
                   for seed in range(n_members)]
        singles = [p.copy() for p in members]
        stack = stack_of(config, members).astype(dtype)
        bits = f"u{np.dtype(dtype).itemsize}"
        stacked_rngs = [np.random.default_rng(100 + k) for k in range(n_members)]
        single_rngs = [np.random.default_rng(100 + k) for k in range(n_members)]
        data = np.random.default_rng(7)

        def step_both(stack, rows):
            k_members = stack.n_members
            x = data.random((k_members, rows, config.input_dim))
            y = (data.random((k_members, rows)) < 0.5).astype(np.float64)
            losses, grads, per_sample = loss_and_grads(
                stack, config, x, y.ravel(), rng=stacked_rngs[:k_members])
            optimizer_step(stack, grads, config)
            assert losses.shape == (k_members,) and per_sample.shape == (k_members, rows)
            for k, params in enumerate(singles[:k_members]):
                [loss], grad, [samples] = loss_and_grads(params, config, x[k][None],
                                                         y[k], rng=[single_rngs[k]])
                optimizer_step(params, grad, config)
                assert loss == losses[k]
                assert np.array_equal(samples.view(bits), per_sample[k].view(bits))

        for rows in row_counts:
            step_both(stack, rows)
        assert stack.step == len(row_counts)
        shrunk = stack.select(slice(0, 2))
        for rows in shrunk_row_counts:
            step_both(shrunk, rows)
        assert shrunk.workspace is stack.workspace
        assert shrunk.step == len(row_counts) + len(shrunk_row_counts)
        moments = stack.buffers(config, 1)
        for k, params in enumerate(singles):
            out = (shrunk if k < 2 else stack).select(slice(k, k + 1))
            assert params.step == out.step
            solo = params.buffers(config, 1)
            for mine, theirs in zip([out.theta, moments.m[k], moments.v[k], *out.running_mean,
                                     *out.running_var],
                                    [params.theta, solo.m[0], solo.v[0],
                                     *params.running_mean, *params.running_var]):
                assert mine.dtype == theirs.dtype == dtype
                assert np.array_equal(mine.view(bits), theirs.view(bits))

    def test_select_past_row_0_trains_without_the_stack_workspace(self):
        # sharing the workspace, a select from row 2 would step with row 0's
        # moments and write its gradient and temporaries into rows 0 and 1
        config = MlpConfig.tuned(3)
        stack = stack_of(config, [init_params(replace(config, seed=seed)) for seed in range(3)])
        data = np.random.default_rng(5)

        def step(stack):
            k = stack.n_members
            x = data.random((k, 8, 3))
            y = (data.random((k, 8)) < 0.5).astype(np.float64)
            _, grads, _ = loss_and_grads(stack, config, x, y.ravel(),
                                         rng=[np.random.default_rng(j) for j in range(k)])
            optimizer_step(stack, grads, config)

        step(stack)
        workspace, ws = stack.workspace, stack.buffers(config, 8)
        rows = [stack.theta, ws.grad, ws.m, ws.v, ws.zout, ws.e, *ws.z, *ws.act, *ws.mask]
        kept = [a[:2].copy() for a in rows]
        last = stack.select(slice(2, 3))
        before = last.theta.copy()
        step(last)
        assert last.workspace is not workspace and stack.workspace is workspace
        assert not np.array_equal(last.theta, before) and stack.steps.tolist() == [1, 1, 2]
        for mine, theirs in zip(rows, kept):
            assert np.array_equal(mine[:2].view(np.uint64), theirs.view(np.uint64))

    @pytest.mark.parametrize("optimizer", ["adam", "rmsprop"])
    def test_a_workspace_that_grows_keeps_the_moments(self, optimizer):
        # a 3-row step sizes the workspace; the 8-row step after it replaces
        # it, and must step with the moments the first step left
        config = small_config(batch_norm=True, optimizer=optimizer)
        grown, sized = init_params(config), init_params(config)
        sized.buffers(config, 8)
        data = np.random.default_rng(9)
        for rows in (3, 8):
            x, y = rand_batch(data, rows, 3)
            for params in (grown, sized):
                _, grads, _ = loss_and_grads(params, config, x[None], y)
                optimizer_step(params, grads, config)
        assert grown.workspace.rows == sized.workspace.rows == 8
        mine, theirs = grown.buffers(config, 1), sized.buffers(config, 1)
        for a, b in ((grown.theta, sized.theta), (mine.m, theirs.m), (mine.v, theirs.v)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def fresh_twin(self, config, params):
        """A new one-member stack holding the theta and running statistics
        of the K=1 stack ``params``, with no steps taken."""
        twin = stack_of(config, [params])
        twin.steps[:] = 0
        return twin

    def assert_next_steps_equal(self, config, params, twin, data):
        x, y = data.random((1, 8, 3)), (data.random(8) < 0.5).astype(np.float64)
        for stack in (params, twin):
            _, grads, _ = loss_and_grads(stack, config, x, y, rng=[np.random.default_rng(7)])
            optimizer_step(stack, grads, config)
        assert np.array_equal(params.theta.view(np.uint64), twin.theta.view(np.uint64))

    def test_a_select_past_row_0_starts_adam_afresh(self):
        # its moments are fresh, so Adam's bias correction counts one step of
        # them, not the two its row has taken
        config = MlpConfig.tuned(3)
        stack = stack_of(config, [init_params(replace(config, seed=seed)) for seed in range(3)])
        data = np.random.default_rng(5)
        _, grads, _ = loss_and_grads(stack, config, data.random((3, 8, 3)),
                                     (data.random(24) < 0.5).astype(np.float64),
                                     rng=[np.random.default_rng(k) for k in range(3)])
        optimizer_step(stack, grads, config)
        last = stack.select(slice(2, 3))
        self.assert_next_steps_equal(config, last, self.fresh_twin(config, last), data)
        assert stack.steps.tolist() == [1, 1, 2]

    def test_a_loaded_member_starts_adam_afresh(self, tmp_path):
        config = MlpConfig.tuned(3)
        params, data = init_params(config), np.random.default_rng(5)
        for _ in range(3):
            _, grads, _ = loss_and_grads(params, config, data.random((1, 8, 3)),
                                         (data.random(8) < 0.5).astype(np.float64),
                                         rng=[np.random.default_rng(3)])
            optimizer_step(params, grads, config)
        save_model(MlpModel(config=config, params=params), str(tmp_path / "m.ocmdl"))
        loaded = load_model(str(tmp_path / "m.ocmdl")).params
        self.assert_next_steps_equal(config, loaded, self.fresh_twin(config, loaded), data)
        assert loaded.step == 4

    def test_non_finite_member_leaves_the_others_alone(self):
        config = small_config(batch_norm=True, dropout_keep_hidden=0.5)
        members = [init_params(replace(config, seed=seed)) for seed in range(3)]
        x = np.random.default_rng(1).random((3, 6, 3))
        y = np.ones(18)
        clean, _, _ = loss_and_grads(stack_of(config, members), config, x, y,
                                     rng=[np.random.default_rng(k) for k in range(3)])
        x[1, 2, 0] = np.nan
        stack = stack_of(config, members)
        with np.errstate(invalid="ignore"):
            dirty, grads, _ = loss_and_grads(stack, config, x, y,
                                             rng=[np.random.default_rng(k) for k in range(3)])
        assert np.isnan(dirty[1]) and np.isfinite(dirty[[0, 2]]).all()
        assert dirty[0] == clean[0] and dirty[2] == clean[2]
        assert np.isfinite(grads[[0, 2]]).all()

    def test_dropped_stack_frees_its_workspace_without_the_cycle_collector(self):
        config = MlpConfig.tuned(3)
        gc.disable()
        try:
            stack = StackedParams(config, 2)
            views = stack.buffers(config, 8)
            block = weakref.ref(views.z[0].base)
            del stack, views
            assert block() is None
        finally:
            gc.enable()

    def test_stacked_train_batch_needs_a_member_axis(self):
        config, members = self.members()
        with pytest.raises(DimensionMismatch, match="members=3"):
            forward(stack_of(config, members), config, np.zeros((2, 3)),
                    mode="train", rng=[np.random.default_rng(0)] * 3)


class TestAccuracyHelper:
    def test_binary_accuracy(self):
        config = small_config(hidden_layers=())
        params = init_params(config)
        params.weights[0][:] = 40.0
        x = np.array([[1.0, 1, 1], [-1, -1, -1], [1, 1, 1]])
        assert binary_accuracy(params, config, x, np.array([1, 0, 0])) == pytest.approx(
            100.0 * 2 / 3)


def test_sigmoid_stability():
    z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    out = sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5
