"""Dense float64 network kernel: MLPs, losses, distances, the Adam step.

Matrices are plain row-major ``numpy.ndarray`` of float64. Networks are
stacks of dense layers with ReLU on hidden layers and an identity output.
A layer may carry leading stack axes: R networks of one shape stacked as
``(R, out, in)`` weights (or ``(R, 2, out, in)``, two networks per run) run
through the same kernels, each slice computing exactly what it would alone,
and a stack axis of length one broadcasts over the batch's. On many rows of
a narrow last axis, sums and broadcasts loop along the rows (``sum_rows``,
``broadcast_rows``) and the losses reduce over the class axis with
elementwise ops on its columns, all with the bits numpy's own loops give.
Forward and backward never mutate their inputs (backward may write its
gradients into caller-supplied arrays). Training stacks the runs' networks
into one ``(R, P)`` parameter buffer with per-layer views (``Lockstep``), and
``step_mlps`` updates that buffer in place. All randomness comes from an
explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .files import Reader, write_atomic

Array = np.ndarray

CHECKPOINT_MAGIC = b"EDGCKPT1"
CHECKPOINT_VERSION = 1


class OptimizerError(RuntimeError):
    """Non-finite gradients; the surrounding trial must abort. ``rows`` lists
    the offending rows of a stacked step."""

    def __init__(self, message: str, rows: tuple[int, ...] = ()):
        super().__init__(message)
        self.rows = rows


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


@dataclass
class MlpParams:
    """Dense layer stack: ``layers[i] = (weight out×in, bias out)``, or a
    stack of R such networks with ``(R, out, in)`` weights and ``(R, out)``
    biases."""

    layers: tuple[tuple[Array, Array], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MlpParams needs at least one layer")
        lead = self.layers[0][0].shape[:-2]
        prev_out = None
        for li, (w, b) in enumerate(self.layers):
            if w.ndim < 2 or w.shape[:-2] != lead or b.shape != w.shape[:-1]:
                raise ValueError(f"layer {li}: weight {w.shape} / bias {b.shape} mismatch")
            if prev_out is not None and w.shape[-1] != prev_out:
                raise ValueError(f"layer {li}: in-dim {w.shape[-1]} != previous out-dim {prev_out}")
            prev_out = w.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[-2]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.in_dim,) + tuple(w.shape[-2] for w, _ in self.layers)

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
    """Rows of ``batch`` (n × in, or R × n × in for R stacked networks)
    through the network. A stack axis of length one in the network serves
    every batch along it (one encoder for both sides of an episode)."""
    batch = np.asarray(batch, dtype=np.float64)
    ndim = params.layers[0][0].ndim
    if batch.ndim != ndim:
        raise ValueError(f"batch must be {ndim}-D, got shape {batch.shape}")
    if batch.shape[-1] != params.in_dim:
        raise ValueError(f"batch dim {batch.shape[-1]} != network in-dim {params.in_dim}")
    n_layers = len(params.layers)
    h = batch
    inputs, pre_acts = [], []
    for li, (w, b) in enumerate(params.layers):
        inputs.append(h)
        z = np.matmul(h, w.swapaxes(-1, -2))
        z += b[..., None, :]
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if li < n_layers - 1 else z
    return h, ForwardCache(inputs=inputs, pre_acts=pre_acts)


def mlp_backward(
    params: MlpParams, cache: ForwardCache, out_grad: Array, out: Grads | None = None
) -> Grads:
    """Exact reverse-mode parameter gradients of ``mlp_forward``.

    The grads are written into ``out`` when given (e.g. views of a flat
    gradient buffer), otherwise into fresh arrays. A network that broadcasts
    over a stack axis of the batch (a stack of one, shared by several
    batches) gets the sum of the gradients it would get from each. The
    gradient with respect to the input batch is never formed: no caller
    needs it.
    """
    n_layers = len(params.layers)
    if len(cache.inputs) != n_layers:
        raise ValueError("cache does not match network depth")
    g = np.asarray(out_grad, dtype=np.float64)
    if g.shape != cache.pre_acts[-1].shape:
        raise ValueError(f"out_grad shape {g.shape} != output shape {cache.pre_acts[-1].shape}")
    if out is None:
        out = MlpParams(tuple((np.empty_like(w), np.empty_like(b)) for w, b in params.layers))
    # Stack axes where the network has one slice for several of the batch's.
    lead = params.layers[0][0].shape[:-2]
    shared = () if lead == g.shape[:-2] else tuple(a for a, (p, q) in enumerate(zip(lead, g.shape[:-2])) if p != q)
    for li in reversed(range(n_layers)):
        gw, gb = out.layers[li]
        if shared:
            np.add.reduce(np.matmul(g.swapaxes(-1, -2), cache.inputs[li]), axis=shared, keepdims=True, out=gw)
            np.add.reduce(sum_rows(g), axis=shared, keepdims=True, out=gb)
        else:
            np.matmul(g.swapaxes(-1, -2), cache.inputs[li], out=gw)
            sum_rows(g, out=gb)
        if li > 0:
            g = np.matmul(g, params.layers[li][0])
            g *= cache.pre_acts[li - 1] > 0.0
    return out


def mlp_views(buffer: Array, like: list[MlpParams]) -> list[MlpParams]:
    """Networks shaped like ``like`` whose layers are consecutive views of the
    last axis of ``buffer``: a flat buffer gives plain networks, an (R, P)
    buffer R stacked ones."""
    lead = buffer.shape[:-1]
    nets, pos = [], 0
    for net in like:
        arrays = []
        for a in net.arrays():
            arrays.append(buffer[..., pos : pos + a.size].reshape(lead + a.shape))
            pos += a.size
        nets.append(MlpParams.from_arrays(arrays))
    if pos != buffer.shape[-1]:
        raise ValueError(f"buffer rows hold {buffer.shape[-1]} values, networks need {pos}")
    return nets


def group_values(runs: list[tuple[dict, int]], keys: tuple[str, ...]) -> list:
    """The values of ``keys`` that the (hparams, seed) runs of one lockstep
    group share, in order; ``ValueError`` when there is no run or two differ.
    A trainer's ``GROUP_KEYS`` fix its network and batch shapes."""
    if not runs:
        raise ValueError("a lockstep group needs at least one run")
    first = runs[0][0]
    if any(hp[key] != first[key] for hp, _ in runs for key in keys):
        raise ValueError(f"runs of one lockstep group must agree on {', '.join(keys)}")
    return [first[key] for key in keys]


class Lockstep:
    """R training runs of one network shape, stepped together.

    Each run's networks are copied into one row of an (R, P) parameter
    buffer, longest run first, and one ``step_mlps`` call updates the rows
    still live. A run keeps its own learning rate and step count: once its
    ``steps`` are done it leaves its row as it is, and a run that fails leaves
    the group with its error while the others go on. Rows never mix, so every
    run ends bit for bit where it would alone. ``train`` is the one step
    loop; a trainer gives it only the gradients of each step.

    ``ids`` names the run of each live row (rows ``0..len(ids)-1``), and
    ``runs`` holds the same as an index array; ``nets`` and ``grads`` are
    stacked views of those rows of the parameter and gradient buffers.
    """

    def __init__(self, runs: list[list[MlpParams]], lrs, steps):
        self.like = runs[0]
        self.steps = list(steps)
        order = sorted(range(len(runs)), key=lambda i: -self.steps[i])
        self.params = np.empty((len(runs), sum(a.size for net in self.like for a in net.arrays())))
        for row, run in enumerate(order):
            for src, dst in zip(runs[run], mlp_views(self.params[row], self.like)):
                for a, b in zip(src.arrays(), dst.arrays()):
                    b[...] = a
        self.grad = np.empty_like(self.params)
        self.opt = Optimizer([lrs[i] for i in order], self.params)
        self.ids = order
        self.outcomes: list = [None] * len(runs)  # the run's final row, or its error
        self._view()

    def _view(self) -> None:
        live = len(self.ids)
        self.runs = np.array(self.ids, dtype=np.intp)
        self.live_grad = self.grad[:live]  # one object per live set: see Optimizer.tiles
        self.nets = mlp_views(self.params[:live], self.like)
        self.grads = mlp_views(self.live_grad, self.like)

    def live(self, step: int) -> bool:
        """Retire the runs whose steps are done before ``step``; False once
        no run is left."""
        retired = False
        while self.ids and self.steps[self.ids[-1]] <= step:
            run = self.ids.pop()
            self.outcomes[run] = len(self.ids)
            retired = True
        if retired:
            self._view()
        return bool(self.ids)

    def drop(self, errors: dict[int, Exception]) -> None:
        """Take the runs at live rows ``errors`` out of the group with their
        errors and close up the rest."""
        keep = [row for row in range(len(self.ids)) if row not in errors]
        for row, exc in errors.items():
            self.outcomes[self.ids[row]] = exc
        self.opt.keep(keep)
        self.grad[: len(keep)] = self.grad[keep]
        self.ids = [self.ids[row] for row in keep]
        self._view()

    def step(self) -> None:
        """One optimizer step of the live rows from their gradient rows. A
        row with a non-finite gradient fails its run alone, with the error it
        raises alone."""
        while self.ids:
            try:
                step_mlps(self.opt, self.live_grad)
                return
            except OptimizerError as exc:
                self.drop({row: OptimizerError(str(exc)) for row in exc.rows})

    def train(self, grads, progress=None) -> list:
        """Step the group until every run is done or failed.

        ``grads(step)`` writes the gradient rows of the live runs and returns
        their losses, in ``ids`` order. ``progress(step, losses)`` is called
        after each step with ``{run: loss}`` for the runs that took it.
        Returns, per run, its trained networks (views of its row) or the
        error that ended it.
        """
        step = 0
        while self.live(step):
            losses = grads(step)
            stepped = list(self.ids)
            self.step()
            if progress is not None and self.ids:
                progress(step, {run: float(loss) for run, loss in zip(stepped, losses) if run in self.ids})
            step += 1
        return [out if isinstance(out, Exception) else mlp_views(self.params[out], self.like) for out in self.outcomes]


# Numpy runs an elementwise op or a reduction over the last two axes with one
# inner-loop call per row of the last axis. From ROWS rows of at most NARROW
# values (the 2-D data's axes) the two kernels below loop along the rows
# instead. Measured at width 2 in one process: the distances' broadcast
# subtract at 576 rows takes 4.7 µs against 8.8, the axis −2 sum 5.2 against
# 6.6; both break even near 192 rows and cost up to 1 µs more below.
NARROW, ROWS = 4, 192


def broadcast_rows(op, a, b, out: Array) -> Array:
    """``op(a, b, out=out)``, looping along the second-to-last axis when
    ``out`` has ``ROWS`` rows or more of at most ``NARROW`` values. An
    elementwise op gives the same bits in any order. ``a`` has at least two
    axes, ``b`` too or none."""
    if out.shape[-1] > NARROW or out.size < ROWS * out.shape[-1]:
        return op(a, b, out=out)
    op(a.swapaxes(-1, -2), b.swapaxes(-1, -2) if isinstance(b, np.ndarray) else b, out=out.swapaxes(-1, -2), order="C")
    return out


def sum_rows(x: Array, out: Array | None = None) -> Array:
    """``np.add.reduce(x, axis=-2)``, bit for bit. Over a last axis wider than
    one numpy adds the rows in order, starting from 0.0; on ``ROWS`` rows or
    more of at most ``NARROW`` values a running sum down each column
    (``np.add.accumulate``) adds them in the same order, and adding 0.0 turns
    its −0.0 sums into the 0.0 numpy gives. Over a last axis of one numpy
    sums pairwise, and over rows that are not C-ordered blocks it may: those
    cases keep the reduction."""
    width = x.shape[-1]
    if not 1 < width <= NARROW or x.size < ROWS * width or x.strides[-2:] != (8 * width, 8):
        return np.add.reduce(x, axis=-2, out=out)
    return np.add(np.add.accumulate(x.swapaxes(-1, -2), axis=-1)[..., -1], 0.0, out=out)


def pairwise_sq_dists(a: Array, b: Array) -> Array:
    """Exact squared Euclidean distances between rows of a (n×d) and b (k×d),
    per stack entry for equal leading axes."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dim mismatch: {a.shape} vs {b.shape}")
    diff = np.empty(a.shape[:-1] + b.shape[-2:])
    broadcast_rows(np.subtract, a[..., :, None, :], b[..., None, :, :], out=diff)
    return np.einsum("...nkd,...nkd->...nk", diff, diff)


def pairwise_sum(terms: list[Array]) -> Array:
    """The elementwise sum of ``terms`` in the order ``np.add.reduce`` sums a
    contiguous axis of that length: numpy's pairwise summation, a chain below
    8 terms, 8 running sums up to 128 and halves beyond. A sum over a short
    class axis becomes len(terms) − 1 adds of whole rows with the same bits
    (numpy starts from 0.0, which only turns a sum of −0.0 terms into 0.0)."""
    n = len(terms)
    if n < 8:
        return reduce(np.add, terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
    run = terms[:8]
    for top in range(8, n - n % 8, 8):
        run = [a + b for a, b in zip(run, terms[top : top + 8])]
    total = ((run[0] + run[1]) + (run[2] + run[3])) + ((run[4] + run[5]) + (run[6] + run[7]))
    return reduce(np.add, terms[n - n % 8 :], total)


def log_softmax_rows(m: Array) -> Array:
    # Numpy's reductions over the class axis; from 32 rows of a narrow one,
    # the values they give from its columns (a running maximum and
    # ``pairwise_sum``), in K - 1 calls instead of one inner-loop call per row.
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-1] > NARROW or m.size < 32 * m.shape[-1]:
        shifted = m - np.maximum.reduce(m, axis=-1, keepdims=True)
        return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    classes = range(m.shape[-1])
    shifted = m - reduce(np.maximum, [m[..., k] for k in classes])[..., None]
    exp = np.exp(shifted)
    return shifted - np.log(pairwise_sum([exp[..., k] for k in classes]))[..., None]


@lru_cache(maxsize=8)
def row_starts(rows: int, width: int) -> Array:
    """The flat index of each row's first entry in a C-ordered block of
    ``rows`` × ``width`` (read-only)."""
    starts = np.arange(0, rows * width, width)
    starts.flags.writeable = False
    return starts


def softmax_cross_entropy(logits: Array, labels: Array) -> tuple[Array, Array]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the logits.

    ``logits`` is n × K with n labels, or R × n × K with R × n labels for R
    stacked batches; the loss has one value per batch."""
    labels = np.asarray(labels)
    n = logits.shape[-2]
    # Each label's logit as a flat index: one gather, one flat scatter.
    picked = row_starts(labels.size, logits.shape[-1]).reshape(labels.shape) + labels
    logp = log_softmax_rows(logits)
    loss = np.add.reduce(logp.take(picked), axis=-1) / -n  # the bits of -(sum / n)
    grad = np.exp(logp)
    grad.reshape(-1)[picked] -= 1.0
    grad /= n
    return loss, grad


# Values of all live rows that one tile of ``step_mlps`` spans: the tile's
# slices of g, p, m, v and the two scratch tiles (6 × 256 KB) stay in L2
# through the whole op sequence instead of streaming from memory per op.
STEP_TILE = 32768


class Optimizer:
    """Adam over an (R, P) float64 parameter buffer, one run per row with its
    own rate, updated in place.

    Adam keeps its moments in buffers the size of the parameters; a step
    works through two scratch tiles of at most ``STEP_TILE`` values, so it
    allocates nothing the size of the network.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr, params: Array):
        if params.ndim != 2 or params.dtype != np.float64 or not params.flags.c_contiguous:
            raise ValueError("params must be a (runs, size) contiguous float64 buffer")
        lr = np.asarray(lr, dtype=np.float64)
        if lr.shape != params.shape[:1]:
            raise ValueError(f"need one lr per parameter row, got shape {lr.shape} for {params.shape}")
        if np.any(lr <= 0):
            raise ValueError("lr must be positive")
        self.lr, self.params = lr[:, None], params
        self.t = 0
        # Room for the widest tile of any number of live rows (see ``step_mlps``).
        tile = min(params.size, max(len(params), STEP_TILE))
        self.scratch = np.empty(tile)
        self.scratch2 = np.empty(tile)
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.state = [self.params, self.lr, self.m, self.v]  # one row per run
        self.stepped: tuple = (None, [])  # the gradient rows last stepped, and their tiles

    def keep(self, rows: list[int]) -> None:
        """Move ``rows`` of the per-run state to the front, in order."""
        for buf in self.state:
            buf[: len(rows)] = buf[rows]

    def tiles(self, grad: Array) -> list[tuple[Array, ...]]:
        """The column tiles of ``grad`` (the first r rows of a gradient
        buffer) with the same tiles of r rows of the parameters, moments and
        rates and the two scratch tiles. They are views, built once for the
        ``grad`` object the last step was given (``Lockstep`` passes one
        object until its live rows change)."""
        if grad is self.stepped[0]:
            return self.stepped[1]
        if grad.ndim != 2 or grad.shape[1] != self.params.shape[1] or len(grad) > len(self.params):
            raise ValueError(f"gradient shape {grad.shape} does not fit parameter rows {self.params.shape}")
        live, width = grad.shape
        cols = max(1, STEP_TILE // max(live, 1))
        tiles = []
        for c in range(0, width, cols):
            t = slice(c, c + cols)
            gt = grad[:, t]
            scratch = [buf[: gt.size].reshape(gt.shape) for buf in (self.scratch, self.scratch2)]
            tiles.append((gt, self.params[:live, t], self.m[:live, t], self.v[:live, t], self.lr[:live], *scratch))
        self.stepped = (grad, tiles)
        return tiles


def step_mlps(opt: Optimizer, grad: Array) -> None:
    """One in-place update of the first r rows of ``opt.params`` from the r
    rows of ``grad``.

    A non-finite gradient fails the call before any update;
    ``OptimizerError.rows`` names the rows that hold one. Every operation
    matches the textbook recursion ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``
    in its floating-point order, so results do not depend on the buffering,
    the tiling or on the other rows. The buffer is walked in column tiles of
    about ``STEP_TILE`` values: one pass checks every tile of the gradient,
    a second runs the whole update on each tile while it is in cache.
    """
    tiles = opt.tiles(grad)
    for tile in tiles:
        if not np.isfinite(tile[0]).all():
            raise OptimizerError("non-finite gradient", tuple(np.flatnonzero(~np.isfinite(grad).all(axis=1)).tolist()))
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    bc1, bc2 = 1 - b1**opt.t, 1 - b2**opt.t
    for g, p, m, v, lr, tmp, upd in tiles:
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += opt.eps
        np.divide(m, bc1, out=upd)
        upd *= lr
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
