"""From-scratch MLP: forward, backprop, dropout, batch-norm, Adam/RMSProp.

Single sigmoid output node trained with binary cross-entropy.  Hidden
layers run affine -> batch-norm (optional) -> ReLU -> inverted dropout.
A fixed seed gives a bitwise-reproducible run.  The dtype is the stack's:
a ``StackedParams`` is float64 unless built otherwise, a train step runs in
its stack's dtype, and infer mode, ``predict_proba`` and checkpoints are
float64.  ``training`` steps its groups in float32 and widens the result,
exactly, to float64.

Dropout rates are *keep* probabilities (0.8 input / 0.5 hidden in the tuned
setup) and surviving activations are scaled by 1/keep at train time, so
inference needs no rescaling; a unit is kept where a 16-bit uniform draw is
below keep, so the kept share is keep rounded to a multiple of 2^-16.
Batch-norm normalizes with batch statistics in train mode, folded into one
``centred * (gamma/std) + beta`` pass, while updating running statistics
(momentum 0.1, biased variance) used verbatim in infer mode.

Flat parameter layout: a ``StackedParams`` holds K same-topology members,
each one row of a (K, P) ``theta`` -- all weight matrices
(row-major, W[l] shaped (fan_out, fan_in)), then all biases, then the
batch-norm scales and shifts -- with their batch-norm running statistics
and step counts: all that serving reads.  The gradient and the optimizer
moments are (K, P) twins of ``theta`` in the stack's train-step workspace
(``_Workspace``), so an Adam or RMSProp update is a fixed handful of ufunc
calls on whole arrays, and the L2 term touches only the weight prefix
``theta[:, :n_weights]``.

``forward``, ``loss_and_grads``, ``optimizer_step``, ``predict_proba`` and
``binary_accuracy`` run all K members of a stack in one set of numpy calls,
with member-axis results: (K, B) probabilities, (K,) losses.  Each member's
slice goes through the same matmul, elementwise and row-axis reductions as a
single-member pass, so its results are bitwise its own.  One member is the
K=1 ``select`` of its row of a stack -- a stack of its own, a lockstep
training group (``training``) or a bank's store (``ensemble.OconModel``) --
so nothing copies members into or out of a stack for a step.  In infer
mode all K members see one (B, d) batch; in train mode each has its own
(rows, d) block and dropout generator, drawn in member order.

Input is converted and checked once, by the entry point it arrives at
(``forward`` or ``predict_proba``, with ``ensemble.infer`` in front for
served queries).  The one pass behind them, ``_forward``, only computes.
Every accuracy and confusion count thresholds probabilities through
``decide``.
"""

import copy
import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .configfile import build
from .errors import CorruptPayload, DimensionMismatch, OconError
from .util import sha256_json

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_DECAY = 0.9
OPT_EPS = 1e-8
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

#: Largest rows x members x widest layer one stacked pass handles, in values,
#: not bytes (about 1 MB per (K, rows, width) float64 temporary, inside a
#: 2 MB L2 cache; a float32 training temporary is half that).  Stacked
#: inference and lockstep training both size stacks by it.
STACK_MAX_VALUES = 1 << 17

CHECKPOINT_KIND = "mlp_checkpoint"
#: v2 dropped the optimizer moments (``m*``/``v*``); v1 files still load.
CHECKPOINT_VERSION = 2

#: Config keys of the checkpoint format and ``config_hash`` that are fixed:
#: every hidden layer is ReLU and every loss binary cross-entropy.
FIXED_CONFIG = {"activation": "relu", "loss": "bce"}


@dataclass(frozen=True)
class MlpConfig:
    """Architecture plus learning hyperparameters for one binary classifier
    (ReLU hidden layers and the BCE loss are fixed, see ``FIXED_CONFIG``)."""

    input_dim: int
    hidden_layers: tuple = (100,)
    dropout_keep_input: float = 1.0
    dropout_keep_hidden: float = 1.0
    batch_norm: bool = False
    l2_lambda: float = 0.0
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
                   for w in self.hidden_layers):
            raise ValueError(f"layer widths must be integers, got {self.hidden_layers!r}")
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1 or any(w < 1 for w in self.hidden_layers):
            raise ValueError("layer widths must be >= 1")
        if not 0 < self.dropout_keep_input <= 1 or not 0 < self.dropout_keep_hidden <= 1:
            raise ValueError("keep probabilities must be in (0, 1]")
        if not self.learning_rate >= 0:             # NaN too
            raise ValueError("learning rate must be >= 0")
        if not self.l2_lambda >= 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.optimizer not in ("adam", "rmsprop"):
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @classmethod
    def from_hps(cls, hps, input_dim, where):
        """The config of a flat key-value dict (an MLP config file, a search
        point): the fields but ``input_dim``, which the matrix fixes, plus
        ``hidden_nodes``.  ``hidden_layers`` is a list of widths, or a count
        0..64 of ``hidden_nodes``-wide layers (default one of 100).  A key or
        value the config does not take raises OconError naming ``where``."""
        raw = {"hidden_layers": 1, **hps}
        layers = raw.pop("hidden_layers")
        if "input_dim" in raw:
            raise OconError(f"{where}: input_dim is not a key; the matrix fixes it")
        if not isinstance(layers, (list, tuple)):
            nodes = raw.pop("hidden_nodes", 100)
            if type(layers) is not int or type(nodes) is not int:
                raise OconError(f"{where}: hidden_layers {layers!r} and hidden_nodes "
                                f"{nodes!r} must be ints")
            if not 0 <= layers <= 64:   # a typo must not expand into a huge width list
                raise OconError(f"{where}: hidden_layers = {layers} is not in 0..64")
            layers = [nodes] * layers
        elif "hidden_nodes" in raw:
            raise OconError(f"{where}: hidden_nodes needs a count of hidden_layers, not widths")
        return build(cls, {**raw, "input_dim": input_dim, "hidden_layers": layers}, where)

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


def _split(shapes, n_layers, flat):
    """Views of ``flat`` shaped like the parameters.  A (K, P) ``flat`` holds
    one member per row: its weight views are (K, out, in) and its vector
    views (K, 1, width), so they broadcast over (K, rows, width)."""
    lead = flat.shape[:-1]
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        if lead and len(shape) == 1:
            shape = (1, *shape)
        views.append(flat[..., at: at + size].reshape(*lead, *shape))
        at += size
    n, n_bn = n_layers, (len(views) - 2 * n_layers) // 2
    return views[:n], views[n: 2 * n], views[2 * n: 2 * n + n_bn], views[2 * n + n_bn:]


class StackedParams:
    """Parameters of K same-topology members with a leading member axis.

    ``theta`` is (K, P), one member's flat parameters per row; weight views
    are (K, out, in), vector views and running statistics (K, 1, width).
    ``theta`` and the running statistics are in ``dtype`` (float64 unless
    given), which a train step, a copy and a pickle keep; ``astype`` makes
    a stack of its own in another dtype.
    ``weights``/``biases``/``gamma``/``beta`` are views into ``theta``;
    ``gamma`` and ``beta`` are empty when batch-norm is off.  The (K,) int64
    ``steps`` counts each member's lifetime optimizer steps (``step`` reads
    row 0: a stack's rows step together).  A new stack holds zeros, unit
    running variances and no ``workspace`` until its first train step.  A
    stack that ``select`` cut from another writes through to it; pickling or
    copying one carries only its values, into buffers of its own.  A copy,
    a ``load_model`` member and a ``select`` past row 0 start Adam afresh.
    """

    def __init__(self, config, n_members=1, dtype=np.float64):
        dims = config.layer_dims
        pairs = list(zip(dims[:-1], dims[1:]))
        self.shapes = ([(fan_out, fan_in) for fan_in, fan_out in pairs]
                       + [(fan_out,) for _, fan_out in pairs]
                       + [(w,) for w in config.hidden_layers] * (2 * config.batch_norm))
        self.config, self.n_layers, self.workspace = config, len(pairs), None
        self.n_weights = sum(math.prod(shape) for shape in self.shapes[:self.n_layers])
        theta = np.zeros((n_members, sum(math.prod(shape) for shape in self.shapes)), dtype)
        widths = config.hidden_layers if config.batch_norm else ()
        running = ([np.zeros((n_members, 1, w), dtype) for w in widths]
                   + [np.ones((n_members, 1, w), dtype) for w in widths])
        self._bind(theta, running, np.zeros(n_members, dtype=np.int64))

    def _bind(self, theta, running, steps):
        self.theta, self.steps = theta, steps
        n_bn = len(running) // 2
        self.running_mean, self.running_var = running[:n_bn], running[n_bn:]
        self.weights, self.biases, self.gamma, self.beta = _split(self.shapes, self.n_layers, theta)

    def _state(self):
        """Parameters, running statistics, then step counts."""
        return [self.theta, *self.running_mean, *self.running_var, self.steps]

    @property
    def n_members(self):
        return len(self.theta)

    @property
    def step(self):
        return int(self.steps[0])

    def buffers(self, config, rows):
        """Workspace views for one train step of ``rows`` rows per member
        (the optimizer's blocks are the same for every ``rows``)."""
        ws = self.workspace
        if ws is None or not (self.n_members <= ws.members and rows <= ws.rows):
            ws = self.workspace = _Workspace(config, self, rows, ws)
        return ws.at(self.n_members, rows)

    def select(self, rows):
        """The members at the slice ``rows``, as views of this stack (step
        counts included); only a slice from row 0 shares its workspace."""
        part = object.__new__(StackedParams)
        part.__dict__.update(self.__dict__, workspace=None if rows.start else self.workspace)
        theta, *running, steps = (a[rows] for a in self._state())
        part._bind(theta, running, steps)
        return part

    def put(self, k, params):
        """Copy the K=1 stack ``params`` into row ``k``."""
        for stacked, mine in zip(self._state(), params._state()):
            stacked[k] = mine[0]

    def trainables(self):
        """Views of the parameter arrays in ``theta`` order."""
        return self.weights + self.biases + self.gamma + self.beta

    def __getstate__(self):
        return self.config, self._state()

    def __setstate__(self, state, dtype=None):
        config, values = state
        self.__init__(config, len(values[0]), dtype or values[0].dtype)
        for mine, saved in zip(self._state(), values):
            mine[...] = saved

    def astype(self, dtype):
        """A stack of its own holding this one's values in ``dtype`` (float32
        to float64 is exact), step counts included, and no workspace."""
        other = object.__new__(StackedParams)
        other.__setstate__(self.__getstate__(), dtype)
        return other

    def copy(self):
        return copy.deepcopy(self)


def init_params(config, stack=None, k=0):
    """Kaiming-He normal weights (std sqrt(2/fan_in)), zero biases, unit
    batch-norm scale; deterministic for a given config seed.  Returns a
    K=1 stack of its own, or the K=1 ``select`` of row ``k`` of ``stack``."""
    rng = np.random.default_rng(config.seed)
    params = StackedParams(config) if stack is None else stack.select(slice(k, k + 1))
    for w in params.weights:
        w[:] = rng.normal(0.0, np.sqrt(2.0 / w.shape[-1]), size=w.shape)
    for g in params.gamma:
        g[:] = 1.0
    return params


class _Buffers:
    """The buffers of one step: per-layer lists and single arrays, or
    ``None`` where the operation should allocate its result."""

    #: roles sized (members, rows, ...); the rest are (members, 1, width)
    #: statistics or (members, P) optimizer blocks and the gradient's views
    ROW_ROLES = ("inp", "z", "act", "mask", "da", "zout", "e")
    GRAD_ROLES = ("d_weights", "d_biases", "d_gamma", "d_beta")
    ROLES = ROW_ROLES + ("scale", "inv_std", "grad", "m", "v", "p1", "p2", "pw") + GRAD_ROLES

    def __init__(self, **roles):
        for role in self.ROLES:
            setattr(self, role, roles.get(role))

    def cut(self, k, rows):
        """Leading ``[:k, :rows]`` views of the row roles, ``[:k]`` of the rest
        (a closure over ``self`` would keep dropped blocks for the cyclic GC)."""
        return _Buffers(**{role: _cut(getattr(self, role), (slice(k), slice(rows))
                                      if role in self.ROW_ROLES else slice(k))
                           for role in self.ROLES})


def _cut(buf, at):
    if isinstance(buf, list):
        return [_cut(b, at) for b in buf]
    return None if buf is None else buf[at]


@functools.cache
def _fresh(n_hidden):
    """Infer-mode buffers: ``None`` everywhere, so every operation allocates."""
    return _Buffers(z=(None,) * n_hidden, act=(None,) * n_hidden)


class _Workspace:
    """Preallocated train-step state of a stack.

    A fresh (K, rows, width) float64 temporary of the tuned bank (12 x 32 x
    100, 300 KB; 150 KB in float32) is above glibc's 128 KiB mmap threshold,
    so glibc would map and unmap it on every operation, at hundreds of page
    faults per step.  So every step writes, in the stack's dtype
    (``theta.dtype``), into one (K, rows, width) block per role and hidden
    layer, (K, 1, width) batch-norm blocks (``scale`` holds the batch mean,
    then gamma/std; ``inv_std`` 1/std), ``opt``, the (K, P) gradient (with
    ``d_*`` views), moments and two temporaries, and ``opt_steps``, the
    moments' step count (Adam's t); a larger workspace that replaces this
    one keeps both, for they are state.  Blocks are reused once their value
    is dead: ReLU runs in place, the squared centred batch goes through the
    batch-norm output block, and the backward pass turns each activation
    block into a work buffer once it has read the ReLU mask from it.
    ``at(k, rows)`` caches the leading ``[:k, :rows]`` views.
    """

    def __init__(self, config, stack, rows, old=None):
        hidden = config.hidden_layers
        bn = config.batch_norm
        n_members, n_params = stack.theta.shape
        dtype = stack.theta.dtype

        def block(width, rows=rows):
            return np.empty((n_members, rows, width), dtype)

        def per_layer(on=True, rows=rows):
            return [block(w, rows) if on else None for w in hidden]

        self.opt = (np.zeros((5, n_members, n_params), dtype) if old is None
                    else old.opt[:, :n_members])
        grad, m, v, p1, p2 = self.opt
        self.members, self.rows, self.opt_steps = n_members, rows, getattr(old, "opt_steps", 0)
        self._full = _Buffers(
            inp=block(config.input_dim) if config.dropout_keep_input < 1 else None,
            z=per_layer(), act=per_layer(bn),
            mask=per_layer(config.dropout_keep_hidden < 1), da=per_layer(),
            scale=per_layer(bn, 1), inv_std=per_layer(bn, 1),
            zout=block(1), e=np.empty((n_members, rows), dtype),
            grad=grad, m=m, v=v, p1=p1, p2=p2, pw=p1[:, :stack.n_weights],
            **dict(zip(_Buffers.GRAD_ROLES, _split(stack.shapes, stack.n_layers, grad))))
        self._views = {}

    def at(self, k, rows):
        views = self._views.get((k, rows))
        if views is None:
            views = self._views[(k, rows)] = self._full.cut(k, rows)
        return views


def sigmoid(z, e=None):
    """Logistic function without overflow: ``1 / (1 + e)`` for ``z >= 0``
    and ``e / (1 + e)`` below, with ``e = exp(-|z|)``, which a caller that
    already has it may pass in.  The numerator is picked before the one
    division, so each entry is still one of those two quotients."""
    if e is None:
        e = np.exp(-np.abs(z))
    probs = np.where(z >= 0, 1.0, e)
    probs /= 1.0 + e
    return probs


def bce_per_sample(zout, y, e=None):
    """Numerically stable per-sample binary cross-entropy from pre-sigmoid
    values: softplus(z) - y*z, with ``e = exp(-|z|)`` as in ``sigmoid``."""
    if e is None:
        e = np.exp(-np.abs(zout))
    return np.maximum(zout, 0.0) + np.log1p(e) - y * zout


def _dropout(rngs, keep, buf):
    """Keep indicators (1.0 where a 16-bit uniform draw is below ``keep``,
    rounded to a multiple of 2^-16 within [2^-16, 1 - 2^-16], else 0.0) in
    ``buf``, one block per member from its own generator, in member order.
    Each 64-bit ``random_raw`` output gives four draws, low bits first."""
    size = buf[0].size
    raw = np.empty((len(buf), -(-size // 4)), "<u8")     # little-endian on any host
    for k, rng in enumerate(rngs):
        raw[k] = rng.bit_generator.random_raw(raw.shape[1])
    threshold = min(max(round(keep * 65536), 1), 65535)
    return np.less(raw.view("<u2")[:, :size].reshape(buf.shape), threshold, out=buf)


def forward(stack, config, batch, mode="infer", rng=None):
    """Run the K members of ``stack``; returns the (K, B) probabilities and
    pre-sigmoid outputs.

    Infer mode: all K see one (B, d) batch, with the running batch-norm
    statistics and no dropout.  Train mode: the batch is (K, rows, d), one
    block per member, ``rng`` holds one dropout generator per member, and
    batch-norm uses batch statistics while updating the running estimates
    in place, all in the stack's dtype; the pre-sigmoid outputs are then a
    view of the stack's workspace, valid until its next step.  Infer mode
    runs on a float64 batch.
    """
    train = mode == "train"
    x = np.asarray(batch, dtype=stack.theta.dtype if train else np.float64)
    if x.shape[-1] != config.input_dim:
        raise DimensionMismatch(f"batch width {x.shape[-1]} != input dim {config.input_dim}")
    if x.ndim != 2 + train or train and len(x) != stack.n_members:
        raise DimensionMismatch(f"a batch is (rows, width), in train mode "
                                f"(members={stack.n_members}, rows, width)")
    buffers = _fresh(len(config.hidden_layers))
    if train:
        if rng is None and (config.dropout_keep_input < 1 or config.dropout_keep_hidden < 1):
            raise ValueError("train-mode forward with dropout needs an rng")
        buffers = stack.buffers(config, x.shape[1])
    return _forward(stack, config, x, train, rng, buffers)


def _forward(stack, config, x, train, rng, buffers):
    """(K, B) probabilities and pre-sigmoid outputs of a stack over a
    validated batch, with its temporaries in ``buffers`` (``None`` entries
    allocate), where a train step's backprop reads them (``_backward``)."""
    if train and config.dropout_keep_input < 1:
        keep = config.dropout_keep_input
        kept = _dropout(rng, keep, buffers.inp)
        kept *= x
        kept /= keep
        x = kept

    a = x
    n = x.shape[-2]
    for l in range(len(config.hidden_layers)):
        z = np.matmul(a, stack.weights[l].mT, out=buffers.z[l])
        z += stack.biases[l]
        if config.batch_norm:
            if train:
                # z.mean(axis) and z.var(axis) spelled out as numpy computes
                # them; the centred batch stays in z for the backward pass
                mu = np.add.reduce(z, axis=-2, keepdims=True, out=buffers.scale[l])
                mu /= n
                z -= mu
                var = np.add.reduce(np.multiply(z, z, out=buffers.act[l]), axis=-2,
                                    keepdims=True, out=buffers.inv_std[l])
                var /= n
                running_mean, running_var = stack.running_mean[l], stack.running_var[l]
                running_mean *= 1.0 - BN_MOMENTUM
                running_mean += np.multiply(mu, BN_MOMENTUM, out=mu)
                running_var *= 1.0 - BN_MOMENTUM
                running_var += np.multiply(var, BN_MOMENTUM, out=mu)
                inv_std = var
                inv_std += BN_EPS
                np.sqrt(inv_std, out=inv_std)
                np.divide(1.0, inv_std, out=inv_std)
                # normalize and scale in one broadcast: centred * (gamma / std)
                scale = np.multiply(stack.gamma[l], inv_std, out=buffers.scale[l])
                pre_act = np.multiply(z, scale, out=buffers.act[l])
            else:
                z -= stack.running_mean[l]
                z /= np.sqrt(stack.running_var[l] + BN_EPS)
                pre_act = np.multiply(stack.gamma[l], z, out=buffers.act[l])
            pre_act += stack.beta[l]
        else:
            pre_act = z
        a = np.maximum(pre_act, 0.0, out=pre_act)
        if train and config.dropout_keep_hidden < 1:
            mask = _dropout(rng, config.dropout_keep_hidden, buffers.mask[l])
            mask *= 1.0 / config.dropout_keep_hidden   # 0 or 1/keep, as / keep gives
            a *= mask

    zout = np.matmul(a, stack.weights[-1].mT, out=buffers.zout)
    zout += stack.biases[-1]
    zout = zout[..., 0]
    e = np.copysign(zout, -1.0, out=buffers.e)       # -|zout|, exactly
    np.exp(e, out=e)
    return sigmoid(zout, e), zout


def _backward(stack, config, x, buffers, probs, y):
    """Gradients of each member's mean loss on the (K, rows, d) batch ``x``
    and (K, rows) labels ``y``, written into ``buffers.grad``.  It reads what
    ``_forward`` left in ``buffers``: each hidden layer's output (``act``
    under batch-norm, else ``z``, as ReLU ran in place), centred batch
    (``z``), ``inv_std`` (1/std), ``scale`` (gamma/std) and dropout ``mask``,
    and the dropped-out input ``inp``."""
    b = y.shape[-1]
    g = ((probs - y) / b)[..., None]
    outputs = buffers.act if config.batch_norm else buffers.z
    inputs = [buffers.inp if config.dropout_keep_input < 1 else x, *outputs]

    np.matmul(g.mT, inputs[-1], out=buffers.d_weights[-1])
    np.add.reduce(g, axis=-2, keepdims=True, out=buffers.d_biases[-1])
    n_hidden = len(config.hidden_layers)
    if n_hidden:
        # the outer product g (x) w_out: one product per entry, as a k=1
        # matmul computes it, without the BLAS call
        da = np.multiply(g, stack.weights[-1], out=buffers.da[-1])

    for l in range(n_hidden - 1, -1, -1):
        if config.dropout_keep_hidden < 1:
            da *= buffers.mask[l]
        # a > 0 exactly where the ReLU input was: dropout scales by 1/keep
        # >= 1 or zeroes entries whose gradient it already zeroed.  The
        # activation is dead after this, so its block becomes scratch.
        scratch = np.greater(outputs[l], 0, out=outputs[l])
        da *= scratch
        if config.batch_norm:
            # d loss / d z = da*s + centred*c1 + c0 with s = gamma/std,
            # c1 = -s/std * d_gamma/b and c0 = -s * d_beta/b: the sums of
            # d loss / d zhat and of its product with zhat are gamma*d_beta
            # and gamma*d_gamma.  c0 borrows d_biases[l], written below.
            centred, inv_std, s = buffers.z[l], buffers.inv_std[l], buffers.scale[l]
            d_gamma = np.add.reduce(np.multiply(da, centred, out=scratch), axis=-2,
                                    keepdims=True, out=buffers.d_gamma[l])
            d_gamma *= inv_std
            d_beta = np.add.reduce(da, axis=-2, keepdims=True, out=buffers.d_beta[l])
            c0 = np.multiply(s, -1.0 / b, out=buffers.d_biases[l])   # -s/b so far
            c1 = np.multiply(inv_std, d_gamma, out=inv_std)
            c1 *= c0
            c0 *= d_beta
            da *= s
            da += np.multiply(centred, c1, out=scratch)
            da += c0
        np.matmul(da.mT, inputs[l], out=buffers.d_weights[l])
        np.add.reduce(da, axis=-2, keepdims=True, out=buffers.d_biases[l])
        if l:
            da = np.matmul(da, stack.weights[l], out=buffers.da[l - 1])

    # L2 on weight matrices only: they are the leading n_weights entries
    if config.l2_lambda:
        w = slice(0, stack.n_weights)
        buffers.grad[:, w] += np.multiply(stack.theta[:, w], config.l2_lambda, out=buffers.pw)
    return buffers.grad


def loss_and_grads(stack, config, batch, labels, rng=None):
    """Train-mode mean losses (data term plus L2 weight penalty) of the K
    members of ``stack`` and their gradients.

    ``batch`` is (K, rows, d), ``labels`` the K x rows labels flat and
    ``rng`` one dropout generator per member.  Returns the (K,) losses, for
    the caller to check, the (K, P) gradients (the stack's workspace block,
    which the next call overwrites) and the (K, rows) per-sample losses, all
    in the stack's dtype, to which the batch and labels are converted.  The
    L2 term covers weight matrices only, never biases or batch-norm
    scale/shift.
    """
    x = np.asarray(batch, dtype=stack.theta.dtype)
    probs, zout = forward(stack, config, x, mode="train", rng=rng)
    y = np.asarray(labels, dtype=stack.theta.dtype).ravel()
    if len(y) != probs.size:
        raise DimensionMismatch("labels length != batch size")
    y = y.reshape(probs.shape)
    buffers = stack.buffers(config, y.shape[1])
    per_sample = bce_per_sample(zout, y, buffers.e)
    # np.add.reduce(...) / n is how per_sample.mean() computes it (same bits)
    loss = np.add.reduce(per_sample, axis=-1) / y.shape[1]
    if config.l2_lambda:
        w = stack.theta[:, :stack.n_weights]
        loss += 0.5 * config.l2_lambda * np.vecdot(w, w)
    return loss, _backward(stack, config, x, buffers, probs, y), per_sample


def optimizer_step(stack, grads, config):
    """One in-place Adam or RMSProp update of the K rows of ``stack.theta`` from
    the (K, P) ``grads`` and the workspace moments; Adam corrects by their step count."""
    stack.steps += 1
    buffers = stack.buffers(config, 1)
    stack.workspace.opt_steps += 1
    t, lr = stack.workspace.opt_steps, config.learning_rate
    m, v, p1, p2 = buffers.m, buffers.v, buffers.p1, buffers.p2
    if config.optimizer == "adam":
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        m *= ADAM_BETA1
        m += np.multiply(grads, 1.0 - ADAM_BETA1, out=p1)
        v *= ADAM_BETA2
        square = np.multiply(grads, grads, out=p1)
        square *= 1.0 - ADAM_BETA2
        v += square
        update = np.divide(m, c1, out=p1)
        update *= lr
        denom = np.divide(v, c2, out=p2)
        np.sqrt(denom, out=denom)
    else:
        v *= RMSPROP_DECAY
        square = np.multiply(grads, grads, out=p1)
        square *= 1.0 - RMSPROP_DECAY
        v += square
        update = np.multiply(grads, lr, out=p1)
        denom = np.sqrt(v, out=p2)
    denom += OPT_EPS
    update /= denom
    stack.theta -= update
    return stack


def predict_proba(stack, config, batch):
    """(K, B) infer-mode probabilities of the K members of ``stack`` on one
    (B, d) batch (a 1-D vector is one row).

    The batch is converted and its shape checked here, once; the pass
    itself (``_forward``) only computes.
    Up to ``STACK_MAX_VALUES`` values of rows x K x widest layer run as one
    stacked pass.  A larger batch, whose (K, B, width) temporaries would
    outgrow the CPU cache, runs one member at a time, bitwise the same, all
    K reusing one set of (1, B, width) buffers: a fresh temporary that size
    is above glibc's mmap threshold, so it would be mapped and faulted in
    anew per operation.  Rows are never split into blocks, because BLAS
    rounds the edge rows of a block whose size is not a multiple of its row
    tile differently.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise DimensionMismatch(f"batch shape {x.shape} != (rows, {config.input_dim})")
    rows, hidden = len(x), config.hidden_layers
    if rows * stack.n_members * max(config.layer_dims) <= STACK_MAX_VALUES:
        return _forward(stack, config, x, False, None, _fresh(len(hidden)))[0]
    buffers = _Buffers(z=[np.empty((1, rows, w)) for w in hidden],
                       act=[np.empty((1, rows, w)) if config.batch_norm else None
                            for w in hidden],
                       zout=np.empty((1, rows, 1)), e=np.empty((1, rows)))
    probs = np.empty((stack.n_members, rows))
    for k in range(stack.n_members):
        probs[k] = _forward(stack.select(slice(k, k + 1)), config, x, False, None,
                            buffers)[0]
    return probs


def decide(probs):
    """A member's yes/no answers: its probabilities at or above the fixed
    0.5 decision threshold.  Every accuracy and confusion count uses it."""
    return probs >= 0.5


def accuracy_pct(probs, labels):
    """Percent of the ``decide`` answers on ``probs`` that match the 0/1
    ``labels`` (broadcast against them)."""
    return 100.0 * float(np.mean(decide(probs) == (np.asarray(labels) == 1)))


def binary_accuracy(stack, config, batch, labels):
    """``accuracy_pct`` of the K members' probabilities on the (B, d)
    ``batch`` against the (B,) labels."""
    return accuracy_pct(predict_proba(stack, config, batch), labels)


@dataclass
class MlpModel:
    """Trained parameters together with the config that produced them."""

    config: MlpConfig
    params: StackedParams         # K=1
    scaling_hash: str = ""
    manifest_hash: str = ""

    def predict_proba(self, batch):
        """(B,) probabilities of this one member, as served on its own."""
        return predict_proba(self.params, self.config, batch)[0]


def _checkpoint_arrays(params):
    """(name, array) pairs of a checkpoint of the K=1 stack ``params``:
    trainables in ``theta`` order, then the running statistics, as views of
    its row shaped as one member's arrays."""
    n, n_bn = params.n_layers, len(params.gamma)
    trainable = ([f"w{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
                 + [f"gamma{i}" for i in range(n_bn)] + [f"beta{i}" for i in range(n_bn)])
    stats = [f"rmean{i}" for i in range(n_bn)] + [f"rvar{i}" for i in range(n_bn)]
    return (list(zip(trainable, sum(_split(params.shapes, n, params.theta[0]), [])))
            + list(zip(stats, [s[0, 0] for s in params.running_mean + params.running_var])))


def save_model(model, path):
    """Versioned binary checkpoint; round-trips bit-exactly.  Optimizer
    moments are not written: retraining always starts fresh."""
    meta = {
        "config": _config_dict(model.config),
        "step": model.params.step,
        "scaling_hash": model.scaling_hash,
        "manifest_hash": model.manifest_hash,
    }
    container.write_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION,
                              meta, dict(_checkpoint_arrays(model.params)))


def load_model(path, blob=None):
    """A v1 or v2 checkpoint (v1 optimizer moments are ignored; ``blob``: its
    bytes, if read) as an ``MlpModel`` with params of its own.  Metadata or
    arrays that do not fit the recorded config, a config ``configfile.build``
    refuses or whose ``FIXED_CONFIG`` keys hold other values, a step that is
    not an int in 0..2**63-1 and hashes that are not strings raise CorruptPayload."""
    _, meta, arrays = container.read_container(path, CHECKPOINT_KIND, CHECKPOINT_VERSION, blob)
    try:
        raw = dict(meta["config"])
        fixed = {key: raw.pop(key, value) for key, value in FIXED_CONFIG.items()}
        if fixed != FIXED_CONFIG:
            raise ValueError(f"config holds {fixed}, not {FIXED_CONFIG}")
        config = build(MlpConfig, raw, "config")
        step, scaling_hash, manifest_hash = (
            meta["step"], meta["scaling_hash"], meta["manifest_hash"])
        if type(step) is not int or not 0 <= step < 2**63:
            raise ValueError(f"step {step!r} is not an int in 0..2**63-1")
        if not (isinstance(scaling_hash, str) and isinstance(manifest_hash, str)):
            raise ValueError(f"scaling_hash {scaling_hash!r} and manifest_hash "
                             f"{manifest_hash!r} must be strings")
    except (KeyError, TypeError, ValueError, OconError) as err:
        raise CorruptPayload(f"{path}: bad checkpoint metadata ({err!r})") from err
    params = StackedParams(config)
    for name, target in _checkpoint_arrays(params):
        stored = arrays.get(name)
        if stored is None or stored.shape != target.shape or stored.dtype != target.dtype:
            raise CorruptPayload(f"{path}: array {name!r} missing or of the wrong shape or dtype")
        target[...] = stored
    params.steps[0] = step
    return MlpModel(config=config, params=params, scaling_hash=scaling_hash,
                    manifest_hash=manifest_hash)


def _config_dict(config):
    return {**asdict(config), **FIXED_CONFIG}


def config_hash(config):
    return sha256_json(_config_dict(config))
