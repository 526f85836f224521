"""Dense float64 network kernel: MLPs, losses, distances, optimizers.

Matrices are plain row-major ``numpy.ndarray`` of float64. Networks are
stacks of dense layers with ReLU on hidden layers and an identity output.
Forward and backward never mutate their inputs (backward may write its
gradients into caller-supplied arrays). Training packs the networks into one
flat parameter buffer with per-layer views (``flatten_mlps``), and
``step_mlps`` updates that buffer in place. All randomness comes from an
explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .files import Reader, write_atomic

Array = np.ndarray

CHECKPOINT_MAGIC = b"EDGCKPT1"
CHECKPOINT_VERSION = 1


class OptimizerError(RuntimeError):
    """Non-finite gradients; the surrounding trial must abort."""


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


@dataclass
class MlpParams:
    """Dense layer stack: ``layers[i] = (weight out×in, bias out)``."""

    layers: tuple[tuple[Array, Array], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MlpParams needs at least one layer")
        prev_out = None
        for li, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {li}: weight {w.shape} / bias {b.shape} mismatch")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(f"layer {li}: in-dim {w.shape[1]} != previous out-dim {prev_out}")
            prev_out = w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.in_dim,) + tuple(w.shape[0] for w, _ in self.layers)

    def arrays(self) -> list[Array]:
        """Flat parameter list [W0, b0, W1, b1, ...] (references, not copies)."""
        out: list[Array] = []
        for w, b in self.layers:
            out.extend((w, b))
        return out

    @staticmethod
    def from_arrays(arrays: list[Array]) -> "MlpParams":
        if len(arrays) % 2 != 0:
            raise ValueError("expected (weight, bias) pairs")
        return MlpParams(tuple((arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2)))


# Grads mirror the parameter structure exactly.
Grads = MlpParams


def init_mlp(dims: tuple[int, ...] | list[int], rng: np.random.Generator) -> MlpParams:
    """Kaiming-uniform weights (suited to ReLU hidden layers), zero biases."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / d_in)
        w = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append((w, np.zeros(d_out)))
    return MlpParams(tuple(layers))


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations saved by ``mlp_forward``."""

    inputs: list[Array]
    pre_acts: list[Array]


def mlp_forward(params: MlpParams, batch: Array) -> tuple[Array, ForwardCache]:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != params.in_dim:
        raise ValueError(f"batch dim {batch.shape[1]} != network in-dim {params.in_dim}")
    n_layers = len(params.layers)
    h = batch
    inputs, pre_acts = [], []
    for li, (w, b) in enumerate(params.layers):
        inputs.append(h)
        z = h @ w.T + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if li < n_layers - 1 else z
    return h, ForwardCache(inputs=inputs, pre_acts=pre_acts)


def mlp_backward(
    params: MlpParams, cache: ForwardCache, out_grad: Array, out: Grads | None = None
) -> Grads:
    """Exact reverse-mode parameter gradients of ``mlp_forward``.

    The grads are written into ``out`` when given (e.g. views of a flat
    gradient buffer), otherwise into fresh arrays. The gradient with respect
    to the input batch is never formed: no caller needs it.
    """
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers:
        raise ValueError("cache does not match network depth")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != cache.pre_acts[-1].shape:
        raise ValueError(f"out_grad shape {g.shape} != output shape {cache.pre_acts[-1].shape}")
    if out is None:
        out = MlpParams(tuple((np.empty_like(w), np.empty_like(b)) for w, b in params.layers))
    for li in reversed(range(n_layers)):
        gw, gb = out.layers[li]
        np.matmul(g.T, cache.inputs[li], out=gw)
        np.add.reduce(g, axis=0, out=gb)
        if li > 0:
            g = g @ params.layers[li][0]
            g *= cache.pre_acts[li - 1] > 0.0
    return out


def mlp_views(buffer: Array, like: list[MlpParams]) -> list[MlpParams]:
    """Networks shaped like ``like`` whose layers are consecutive views of ``buffer``."""
    nets, pos = [], 0
    for net in like:
        arrays = []
        for a in net.arrays():
            arrays.append(buffer[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        nets.append(MlpParams.from_arrays(arrays))
    if pos != buffer.size:
        raise ValueError(f"buffer holds {buffer.size} values, networks need {pos}")
    return nets


def flatten_mlps(nets: list[MlpParams]) -> tuple[Array, list[MlpParams]]:
    """Copy networks into one flat float64 buffer.

    Returns the buffer and copies of the networks whose layers are views into
    it, so an in-place update of the buffer moves every network at once. The
    input networks are left untouched.
    """
    buffer = np.empty(sum(a.size for net in nets for a in net.arrays()))
    views = mlp_views(buffer, nets)
    for net, view in zip(nets, views):
        for src, dst in zip(net.arrays(), view.arrays()):
            dst[...] = src
    return buffer, views


def sq_euclidean(a: Array, b: Array) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(d @ d)


def pairwise_sq_dists(a: Array, b: Array) -> Array:
    """Exact squared Euclidean distances between rows of a (n×d) and b (k×d)."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dim mismatch: {a.shape} vs {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def log_softmax(v: Array) -> Array:
    """Numerically stable log-softmax of a vector (max-subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v)
    return shifted - np.log(np.sum(np.exp(shifted)))


def log_softmax_rows(m: Array) -> Array:
    # The ufunc reductions behind np.max and np.sum, called directly: the
    # same arithmetic with less per-call overhead on training's small batches.
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.maximum.reduce(m, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def softmax_cross_entropy(logits: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the logits."""
    labels = np.asarray(labels)
    n = logits.shape[0]
    rows = np.arange(n)
    logp = log_softmax_rows(logits)
    loss = -float(np.add.reduce(logp[rows, labels]) / n)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


class Optimizer:
    """SGD or Adam over one flat float64 parameter buffer, updated in place.

    Adam keeps its moments in buffers the size of the parameters and works
    through two scratch buffers, so a step allocates nothing the size of the
    network.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, kind: str, lr: float, params: Array):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if params.ndim != 1 or params.dtype != np.float64 or not params.flags.c_contiguous:
            raise ValueError("params must be a flat contiguous float64 buffer")
        self.kind, self.lr, self.params = kind, lr, params
        self.t = 0
        self.scratch = np.empty_like(params)
        if kind == "adam":
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self.scratch2 = np.empty_like(params)


def step_mlps(opt: Optimizer, grad: Array) -> None:
    """One in-place update of ``opt.params`` from the flat gradient buffer.

    Every operation matches the textbook recursion ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``
    in its floating-point order, so results do not depend on the buffering.
    """
    if grad.shape != opt.params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {opt.params.shape}")
    if not np.isfinite(grad).all():
        raise OptimizerError("non-finite gradient")
    p, tmp = opt.params, opt.scratch
    if opt.kind == "sgd":
        np.multiply(grad, opt.lr, out=tmp)
        p -= tmp
        return
    opt.t += 1
    m, v, upd = opt.m, opt.v, opt.scratch2
    m *= opt.beta1
    np.multiply(grad, 1 - opt.beta1, out=tmp)
    m += tmp
    v *= opt.beta2
    np.multiply(grad, 1 - opt.beta2, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, 1 - opt.beta2**opt.t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += opt.eps
    np.divide(m, 1 - opt.beta1**opt.t, out=upd)
    upd *= opt.lr
    upd /= tmp
    p -= upd


def save_checkpoint(path, nets: list[MlpParams]) -> None:
    """Portable binary: magic, version, net count, per-net layer dims, raw LE f64."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(nets))]
    for net in nets:
        chunks.append(struct.pack("<I", len(net.layers)))
        for w, b in net.layers:
            chunks.append(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in net.layers:
            chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
            chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> list[MlpParams]:
    reader = Reader(path, CHECKPOINT_MAGIC, CheckpointError)
    version, n_nets = reader.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    nets = []
    for _ in range(n_nets):
        (n_layers,) = reader.unpack("<I")
        shapes = [reader.unpack("<II") for _ in range(n_layers)]
        layers = []
        for out_d, in_d in shapes:
            w = reader.array("<f8", out_d * in_d).reshape(out_d, in_d)
            layers.append((w, reader.array("<f8", out_d)))
        try:
            nets.append(MlpParams(tuple(layers)))
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
    reader.end()
    return nets
