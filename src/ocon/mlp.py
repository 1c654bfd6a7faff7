"""From-scratch MLP: forward, backprop, dropout, batch-norm, Adam/RMSProp.

Single sigmoid output node trained with binary cross-entropy (mean squared
error is available behind the ``loss="mse"`` flag for ablation).  Hidden
layers run affine -> batch-norm (optional) -> ReLU -> inverted dropout.
Everything is float64 numpy; a fixed seed gives a bitwise-reproducible run.

Dropout rates are *keep* probabilities (0.8 input / 0.5 hidden in the tuned
setup) and surviving activations are scaled by 1/keep at train time, so
inference needs no rescaling.  Batch-norm normalizes with batch statistics in
train mode while updating running statistics (momentum 0.1, biased variance)
used verbatim in infer mode.

Flat parameter layout: every trainable lives in one contiguous float64
vector ``MlpParams.theta`` -- all weight matrices (row-major, W[l] shaped
(fan_out, fan_in)), then all biases, then the batch-norm scales and shifts.
``weights``/``biases``/``gamma``/``beta`` are reshaped views into it.  The
gradient ``grad`` and the optimizer moments ``opt_m``/``opt_v`` are flat
twins of ``theta``: backprop writes straight into views of ``grad``, and an
Adam or RMSProp update is a fixed handful of ufunc calls on whole vectors.
Because the weights come first, the L2 term touches only the prefix
``theta[:n_weights]``.  Batch-norm running statistics are not trained and
stay per-layer arrays outside ``theta``.

Stacked inference: ``stack_params`` copies K same-topology members' ``theta``
rows into one (K, P) array whose views carry a leading member axis, and
``forward`` in infer mode runs all K members in one pass over it.  Each
member's slice goes through the same matmul and elementwise ops as a
single-member forward, so the probabilities are bitwise the same.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import CorruptPayload, DimensionMismatch, NonFiniteLoss
from .util import sha256_json

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_DECAY = 0.9
OPT_EPS = 1e-8
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_KIND = "mlp_checkpoint"
#: v2 dropped the optimizer moments (``m*``/``v*``); v1 files still load.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class MlpConfig:
    """Architecture plus learning hyperparameters for one binary classifier."""

    input_dim: int
    hidden_layers: tuple = (100,)
    activation: str = "relu"
    dropout_keep_input: float = 1.0
    dropout_keep_hidden: float = 1.0
    batch_norm: bool = False
    l2_lambda: float = 0.0
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 32
    seed: int = 0
    loss: str = "bce"

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1 or any(w < 1 for w in self.hidden_layers):
            raise ValueError("layer widths must be >= 1")
        if not 0 < self.dropout_keep_input <= 1 or not 0 < self.dropout_keep_hidden <= 1:
            raise ValueError("keep probabilities must be in (0, 1]")
        if self.learning_rate < 0:
            raise ValueError("learning rate must not be negative")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.optimizer not in ("adam", "rmsprop"):
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")
        if self.loss not in ("bce", "mse"):
            raise ValueError(f"unsupported loss {self.loss!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @classmethod
    def tuned(cls, input_dim, seed=0):
        """The search-selected one-class setup: 1x100 hidden, Adam at 1e-4,
        keep 0.8/0.5 dropout, batch-norm, L2 1e-4, batches of 32."""
        return cls(input_dim=input_dim, hidden_layers=(100,),
                   dropout_keep_input=0.8, dropout_keep_hidden=0.5,
                   batch_norm=True, l2_lambda=1e-4, optimizer="adam",
                   learning_rate=1e-4, batch_size=32, seed=seed)

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_layers, 1)

    def to_dict(self):
        return {
            "input_dim": self.input_dim, "hidden_layers": list(self.hidden_layers),
            "activation": self.activation,
            "dropout_keep_input": self.dropout_keep_input,
            "dropout_keep_hidden": self.dropout_keep_hidden,
            "batch_norm": self.batch_norm, "l2_lambda": self.l2_lambda,
            "optimizer": self.optimizer, "learning_rate": self.learning_rate,
            "batch_size": self.batch_size, "seed": self.seed, "loss": self.loss,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["hidden_layers"] = tuple(d["hidden_layers"])
        return cls(**d)


class MlpParams:
    """All trainables in one flat ``theta``, with its gradient and moment twins.

    ``weights``/``biases``/``gamma``/``beta`` are views into ``theta`` and
    ``d_weights``/``d_biases``/``d_gamma``/``d_beta`` the same views into
    ``grad``; writing through a view writes the flat buffer.  ``gamma`` and
    ``beta`` are empty when batch-norm is off.
    """

    def __init__(self, config):
        dims = config.layer_dims
        pairs = list(zip(dims[:-1], dims[1:]))
        self.shapes = ([(fan_out, fan_in) for fan_in, fan_out in pairs]
                       + [(fan_out,) for _, fan_out in pairs]
                       + [(w,) for w in config.hidden_layers] * (2 * config.batch_norm))
        self.n_layers = len(pairs)
        size = sum(math.prod(shape) for shape in self.shapes)
        self.theta = np.zeros(size)
        self.grad = np.zeros(size)
        self.opt_m = np.zeros(size)
        self.opt_v = np.zeros(size)
        self.weights, self.biases, self.gamma, self.beta = self._split(self.theta)
        self.d_weights, self.d_biases, self.d_gamma, self.d_beta = self._split(self.grad)
        self.n_weights = sum(w.size for w in self.weights)
        widths = config.hidden_layers if config.batch_norm else ()
        self.running_mean = [np.zeros(w) for w in widths]
        self.running_var = [np.ones(w) for w in widths]
        self.step = 0
        self._config = config

    def _split(self, flat):
        """Views of ``flat`` shaped like the parameters.  A (K, P) ``flat``
        holds one member per row: its weight views are (K, out, in) and its
        vector views (K, 1, width), so they broadcast over (K, rows, width)."""
        lead = flat.shape[:-1]
        views, at = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            if lead and len(shape) == 1:
                shape = (1, *shape)
            views.append(flat[..., at: at + size].reshape(*lead, *shape))
            at += size
        n, n_bn = self.n_layers, (len(views) - 2 * self.n_layers) // 2
        return views[:n], views[n: 2 * n], views[2 * n: 2 * n + n_bn], views[2 * n + n_bn:]

    def trainables(self):
        """Views of the parameter arrays in ``theta`` order."""
        return self.weights + self.biases + self.gamma + self.beta

    # pickling and copying carry only the flat buffers; the views are rebuilt
    # so they keep sharing memory with theta and grad
    def __getstate__(self):
        return self._config, {"theta": self.theta, "opt_m": self.opt_m, "opt_v": self.opt_v,
                              "running": self.running_mean + self.running_var,
                              "step": self.step}

    def __setstate__(self, state):
        config, values = state
        self.__init__(config)
        for key in ("theta", "opt_m", "opt_v"):
            getattr(self, key)[...] = values[key]
        for mine, saved in zip(self.running_mean + self.running_var, values["running"]):
            mine[...] = saved
        self.step = values["step"]

    def copy(self):
        return copy.deepcopy(self)


def init_params(config):
    """Kaiming-He normal weights (std sqrt(2/fan_in)), zero biases, unit
    batch-norm scale; deterministic for a given config seed."""
    rng = np.random.default_rng(config.seed)
    params = MlpParams(config)
    for w in params.weights:
        w[:] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    for g in params.gamma:
        g[:] = 1.0
    return params


@dataclass
class StackedParams:
    """Parameters of K same-topology members with a leading member axis,
    built by ``stack_params``; ``forward`` takes them in infer mode only."""

    theta: np.ndarray             # (K, P), one member's theta per row
    weights: list                 # (K, out, in) views into theta
    biases: list                  # (K, 1, out) views
    gamma: list                   # (K, 1, width) views
    beta: list
    running_mean: list            # (K, 1, width) copies
    running_var: list


def stack_params(params_list):
    """Copy the members' ``theta`` rows and running statistics into stacked
    buffers.  The stack is a snapshot: later edits to a member do not show."""
    first = params_list[0]
    if any(p.shapes != first.shapes for p in params_list):
        raise DimensionMismatch("stacked members must share one topology")
    theta = np.array([p.theta for p in params_list])
    n_bn = len(first.running_mean)
    running = [np.array(stats)[:, None, :] for stats in
               zip(*(p.running_mean + p.running_var for p in params_list))]
    return StackedParams(theta, *first._split(theta), running[:n_bn], running[n_bn:])


def sigmoid(z, e=None):
    """Logistic function without overflow: both branches use ``e = exp(-|z|)``,
    which a caller that already has it may pass in."""
    if e is None:
        e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def bce_per_sample(zout, y, e=None):
    """Numerically stable per-sample binary cross-entropy from pre-sigmoid
    values: softplus(z) - y*z, with ``e = exp(-|z|)`` as in ``sigmoid``."""
    if e is None:
        e = np.exp(-np.abs(zout))
    return np.maximum(zout, 0.0) + np.log1p(e) - y * zout


@dataclass
class ForwardCache:
    """Intermediate values needed by backpropagation."""

    layer_inputs: list            # input to each hidden affine (after dropout)
    zhat: list                    # batch-norm normalized (None entries when off)
    std: list                     # sqrt(var + eps) per batch-norm layer
    relu_in: list                 # what ReLU saw (bn output or z)
    drop_masks: list              # inverted-dropout masks (None when off)
    out_input: np.ndarray         # input to the output affine
    zout: np.ndarray              # pre-sigmoid output, shape (B,) or (K, B)
    exp_neg_abs: np.ndarray       # exp(-|zout|), shared by sigmoid and BCE
    probs: np.ndarray
    mode: str


def forward(params, config, batch, mode="infer", rng=None):
    """Run the network on a (B, d) batch.

    Train mode applies dropout (requires ``rng``) and batch statistics,
    updating the running batch-norm estimates in place; infer mode uses the
    running statistics and no dropout.  Returns (probabilities, cache).
    ``StackedParams`` of K members give (K, B) probabilities, infer mode only.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != config.input_dim:
        raise DimensionMismatch(f"batch width {x.shape[-1]} != input dim {config.input_dim}")
    train = mode == "train"
    if train and isinstance(params, StackedParams):
        raise ValueError("stacked parameters are for infer mode only")
    if train and rng is None and (config.dropout_keep_input < 1 or config.dropout_keep_hidden < 1):
        raise ValueError("train-mode forward with dropout needs an rng")

    if train and config.dropout_keep_input < 1:
        keep = config.dropout_keep_input
        x = x * (rng.random(x.shape) < keep)
        x /= keep

    cache = ForwardCache(layer_inputs=[], zhat=[], std=[], relu_in=[], drop_masks=[],
                         out_input=None, zout=None, exp_neg_abs=None, probs=None,
                         mode=mode)
    a = x
    n = len(x)
    for l in range(len(config.hidden_layers)):
        cache.layer_inputs.append(a)
        z = a @ params.weights[l].mT
        z += params.biases[l]
        if config.batch_norm:
            if train:
                # z.mean(axis=0) and z.var(axis=0) spelled out as numpy computes
                # them (same bits), so the centred batch is reused for zhat
                mu = np.add.reduce(z, axis=0) / n
                z -= mu
                var = np.add.reduce(z * z, axis=0) / n
                params.running_mean[l] *= 1.0 - BN_MOMENTUM
                params.running_mean[l] += BN_MOMENTUM * mu
                params.running_var[l] *= 1.0 - BN_MOMENTUM
                params.running_var[l] += BN_MOMENTUM * var
            else:
                z -= params.running_mean[l]
                var = params.running_var[l]
            std = np.sqrt(var + BN_EPS)
            z /= std
            cache.zhat.append(z)
            cache.std.append(std)
            pre_act = params.gamma[l] * z
            pre_act += params.beta[l]
        else:
            cache.zhat.append(None)
            cache.std.append(None)
            pre_act = z
        cache.relu_in.append(pre_act)
        a = np.maximum(pre_act, 0.0)
        if train and config.dropout_keep_hidden < 1:
            keep = config.dropout_keep_hidden
            mask = (rng.random(a.shape) < keep) / keep
            a *= mask
            cache.drop_masks.append(mask)
        else:
            cache.drop_masks.append(None)

    cache.out_input = a
    zout = a @ params.weights[-1].mT
    zout += params.biases[-1]
    cache.zout = zout[..., 0]
    cache.exp_neg_abs = np.exp(-np.abs(cache.zout))
    cache.probs = sigmoid(cache.zout, cache.exp_neg_abs)
    return cache.probs, cache


def _backward(params, config, cache, y):
    """Gradients of the mean loss, written into ``params.grad``."""
    b = len(y)
    p = cache.probs
    if config.loss == "bce":
        g = (p - y) / b
    else:
        g = 2.0 * (p - y) * p * (1.0 - p) / b
    g = g[:, None]

    np.matmul(g.T, cache.out_input, out=params.d_weights[-1])
    np.add.reduce(g, axis=0, out=params.d_biases[-1])
    n_hidden = len(config.hidden_layers)
    if n_hidden:
        da = g @ params.weights[-1]

    for l in range(n_hidden - 1, -1, -1):
        if cache.drop_masks[l] is not None:
            da *= cache.drop_masks[l]
        da *= cache.relu_in[l] > 0
        if config.batch_norm:
            zhat = cache.zhat[l]
            np.add.reduce(da * zhat, axis=0, out=params.d_gamma[l])
            np.add.reduce(da, axis=0, out=params.d_beta[l])
            da *= params.gamma[l]                     # now d loss / d zhat
            inv_std = 1.0 / cache.std[l]
            sum_d = np.add.reduce(da, axis=0)
            sum_dz = np.add.reduce(da * zhat, axis=0)
            da *= b
            da -= sum_d
            da -= zhat * sum_dz
            da *= inv_std / b                         # now d loss / d z
        np.matmul(da.T, cache.layer_inputs[l], out=params.d_weights[l])
        np.add.reduce(da, axis=0, out=params.d_biases[l])
        if l:
            da = da @ params.weights[l]

    # L2 on weight matrices only: they are the leading n_weights entries
    if config.l2_lambda:
        w = slice(0, params.n_weights)
        params.grad[w] += config.l2_lambda * params.theta[w]
    return params.grad


def _l2_penalty(params, lam):
    if lam == 0:
        return 0.0
    w = params.theta[: params.n_weights]
    return 0.5 * lam * float(w @ w)


def loss_and_grads(params, config, batch, labels, rng=None, mode="train",
                   return_per_sample=False):
    """Mean loss (data term plus L2 weight penalty) and its gradients.

    The gradients are ``params.grad``, the flat twin of ``params.theta``; the
    next call overwrites them.  The L2 term covers weight matrices only,
    never biases or batch-norm scale/shift.  Raises NonFiniteLoss when the
    loss diverges.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    probs, cache = forward(params, config, batch, mode=mode, rng=rng)
    if len(y) != len(probs):
        raise DimensionMismatch("labels length != batch size")
    if config.loss == "bce":
        per_sample = bce_per_sample(cache.zout, y, cache.exp_neg_abs)
    else:
        per_sample = (probs - y) ** 2
    # np.add.reduce(...) / n is how per_sample.mean() computes it (same bits)
    loss = float(np.add.reduce(per_sample) / len(per_sample))
    loss += _l2_penalty(params, config.l2_lambda)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss became {loss}")
    grads = _backward(params, config, cache, y)
    if return_per_sample:
        return loss, grads, per_sample
    return loss, grads


def optimizer_step(params, grads, config):
    """One in-place Adam (bias-corrected) or RMSProp update of ``theta``
    from the flat gradient ``grads``."""
    params.step += 1
    t = params.step
    lr = config.learning_rate
    m, v = params.opt_m, params.opt_v
    if config.optimizer == "adam":
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grads
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grads * grads)
        params.theta -= lr * (m / c1) / (np.sqrt(v / c2) + OPT_EPS)
    else:
        v *= RMSPROP_DECAY
        v += (1.0 - RMSPROP_DECAY) * (grads * grads)
        params.theta -= lr * grads / (np.sqrt(v) + OPT_EPS)
    return params


def predict_proba(params, config, batch):
    probs, _ = forward(params, config, batch, mode="infer")
    return probs


def binary_accuracy(params, config, batch, labels, threshold=0.5):
    """Percent of samples whose thresholded probability matches the label."""
    probs = predict_proba(params, config, batch)
    predicted = probs >= threshold
    return 100.0 * float(np.mean(predicted == (np.asarray(labels) == 1)))


@dataclass
class MlpModel:
    """Trained parameters together with the config that produced them."""

    config: MlpConfig
    params: MlpParams
    scaling_hash: str = ""
    manifest_hash: str = ""

    def predict_proba(self, batch):
        return predict_proba(self.params, self.config, batch)


def _checkpoint_arrays(params):
    """(name, array) pairs of a checkpoint: trainables in ``theta`` order,
    then the running statistics."""
    n, n_bn = params.n_layers, len(params.gamma)
    trainable = ([f"w{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
                 + [f"gamma{i}" for i in range(n_bn)] + [f"beta{i}" for i in range(n_bn)])
    stats = [f"rmean{i}" for i in range(n_bn)] + [f"rvar{i}" for i in range(n_bn)]
    return (list(zip(trainable, params.trainables()))
            + list(zip(stats, params.running_mean + params.running_var)))


def save_model(model, path):
    """Versioned binary checkpoint; round-trips bit-exactly.  Optimizer
    moments are not written: retraining always starts fresh."""
    meta = {
        "config": model.config.to_dict(),
        "step": model.params.step,
        "scaling_hash": model.scaling_hash,
        "manifest_hash": model.manifest_hash,
    }
    container.write_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION,
                              meta, dict(_checkpoint_arrays(model.params)))


def load_model(path):
    """Read a v1 or v2 checkpoint (v1 optimizer moments are ignored).

    Metadata or arrays that do not fit the recorded config raise
    CorruptPayload.
    """
    _, meta, arrays = container.read_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION)
    try:
        config = MlpConfig.from_dict(meta["config"])
        step, scaling_hash, manifest_hash = (
            meta["step"], meta["scaling_hash"], meta["manifest_hash"])
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptPayload(f"{path}: bad checkpoint metadata ({err!r})") from err
    params = MlpParams(config)
    for name, target in _checkpoint_arrays(params):
        stored = arrays.get(name)
        if stored is None or stored.shape != target.shape:
            raise CorruptPayload(f"{path}: array {name!r} missing or of the wrong shape")
        target[...] = stored
    params.step = step
    return MlpModel(config=config, params=params,
                    scaling_hash=scaling_hash, manifest_hash=manifest_hash)


def config_hash(config):
    return sha256_json(config.to_dict())
