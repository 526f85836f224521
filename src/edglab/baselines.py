"""Comparison method: pooled ERM, optionally with domain-index features or a
recent-domains-only window. (The vanilla single-encoder prototypical net is
``dpnet`` with a shared encoder and same-domain episodes.)
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn, seeding
from .data import DomainData
from .nn import MlpParams, OptimizerError

Array = np.ndarray


class IndexMode(str, Enum):
    NONE = "none"
    SCALAR_CONCAT = "scalar"
    ONE_HOT_CONCAT = "onehot"
    OUTER_PRODUCT = "outer"


def _positions(mode: IndexMode, num_sources: int) -> int:
    """Width of the index encoding. One-hot and outer-product span the whole
    environment (sources plus the known target position), so the target's own
    index exists as a basis direction that training never activates."""
    if mode in (IndexMode.ONE_HOT_CONCAT, IndexMode.OUTER_PRODUCT):
        return num_sources + 1
    return num_sources


def augmented_dim(feature_dim: int, mode: IndexMode, num_positions: int) -> int:
    if mode is IndexMode.NONE:
        return feature_dim
    if mode is IndexMode.SCALAR_CONCAT:
        return feature_dim + 1
    if mode is IndexMode.ONE_HOT_CONCAT:
        return feature_dim + num_positions
    return feature_dim * num_positions


def augment_with_index(x: Array, i: int, mode: IndexMode, num_positions: int) -> Array:
    """Attach domain-index information to a batch (or single vector) of features.

    scalar: append i/(P-1) for P index positions; onehot: append e_i; outer:
    flatten e_i ⊗ x, i.e. the features land in block i of a P-block vector.
    """
    single = np.asarray(x).ndim == 1
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if mode is IndexMode.NONE:
        return xb[0] if single else xb
    if not 0 <= i < num_positions:
        raise ValueError(f"domain index {i} out of range [0, {num_positions})")
    out = _augment(xb, float(i) / (num_positions - 1), i, mode, num_positions)
    return out[0] if single else out


def augment_target(x: Array, mode: IndexMode, num_sources: int) -> Array:
    """Index policy for the unseen target: scalar extrapolates one step past
    the sources to m/(m-1); one-hot and outer-product use the target's true
    position m, whose weights no training batch ever touched."""
    single = np.asarray(x).ndim == 1
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scalar = num_sources / (num_sources - 1)
    out = _augment(xb, scalar, num_sources, mode, _positions(mode, num_sources))
    return out[0] if single else out


def _augment(xb: Array, scalar_value: float, hot_index: int, mode: IndexMode, positions: int) -> Array:
    n, d = xb.shape
    if mode is IndexMode.NONE:
        return xb
    if mode is IndexMode.SCALAR_CONCAT:
        return np.hstack([xb, np.full((n, 1), scalar_value)])
    if mode is IndexMode.ONE_HOT_CONCAT:
        hot = np.zeros((n, positions))
        hot[:, hot_index] = 1.0
        return np.hstack([xb, hot])
    out = np.zeros((n, d * positions))
    out[:, hot_index * d : (hot_index + 1) * d] = xb
    return out


@dataclass
class ErmModel:
    """Plain classifier over pooled (optionally index-augmented) source data."""

    net: MlpParams
    index_mode: IndexMode
    num_domains_seen: int  # number of source domains m
    feature_dim: int

    def __post_init__(self):
        want = augmented_dim(self.feature_dim, self.index_mode, _positions(self.index_mode, self.num_domains_seen))
        if self.net.in_dim != want:
            raise ValueError(f"net in-dim {self.net.in_dim} != augmented dim {want}")


@dataclass(frozen=True)
class ErmConfig:
    steps: int = 1000
    batch_size: int = 32
    lr: float = 1e-2
    seed: int = 0
    hidden: tuple[int, ...] = ()  # empty = single linear layer


def train_erm(
    domains: list[DomainData],
    configs: list[ErmConfig],
    index_mode: IndexMode = IndexMode.NONE,
    last_k: int | None = None,
    progress=None,
) -> list[ErmModel | OptimizerError]:
    """Mini-batch cross-entropy over pooled source samples, R runs in
    lockstep (``nn.Lockstep``).

    The configs share ``batch_size`` and ``hidden``. Each run keeps its own
    ``lr``, ``steps`` and seed (its initial weights and its batches), so it
    ends bit for bit where it would alone. Returns, per run, the model or the
    error that ended it. ``progress(step, losses)`` is called after each step
    with ``{run: loss}`` for the runs that took it.

    ``last_k`` restricts training to the final k source domains. The one-hot /
    outer-product width always spans all ``len(domains)`` indices so the model
    stays aware of the full environment length.
    """
    if not domains:
        raise ValueError("need at least one source domain")
    batch_size, hidden = configs[0].batch_size, tuple(configs[0].hidden)
    if any((c.batch_size, tuple(c.hidden)) != (batch_size, hidden) for c in configs):
        raise ValueError("runs of one lockstep group must share batch_size and hidden")
    m = len(domains)
    positions = _positions(index_mode, m)
    used = domains[-last_k:] if last_k else domains
    k_classes = used[0].num_classes
    feature_dim = used[0].dim
    xs = np.vstack([augment_with_index(d.x, d.index, index_mode, positions) for d in used])
    ys = np.concatenate([d.y for d in used])
    rngs = [np.random.default_rng(c.seed) for c in configs]
    dims = (xs.shape[1],) + hidden + (k_classes,)
    nets = [nn.init_mlp(dims, rng) for rng in rngs]
    for net in nets:
        # Zero-start the classifier head: harmless for the convex last layer, and
        # it keeps never-activated index blocks exactly inert at prediction time.
        for head in net.layers[-1]:
            head[...] = 0.0
    lock = nn.Lockstep([[net] for net in nets], [c.lr for c in configs], [c.steps for c in configs])
    # Each run's batches are rng.choice(n, batch, replace=False) per step,
    # decoded a chunk of steps at a time for every live run: T × R × batch.
    streams = [seeding.Words(rng) for rng in rngs]
    n = xs.shape[0]
    batch = min(batch_size, n)
    start, picks, decoded = 0, np.empty((0,)), []

    def grads(step):
        nonlocal start, picks, decoded
        if step == start + len(picks):
            left = max(configs[run].steps for run in lock.ids) - step
            start, decoded = step, list(lock.ids)
            count = seeding.chunk_steps(len(decoded), 2 * batch - 1, left)
            picks = seeding.choice([streams[run] for run in decoded], n, batch, count).swapaxes(0, 1)
        # Once the shortest runs have finished, the live ones are the first
        # decoded: a step's rows stay a slice.
        live = slice(len(lock.ids)) if lock.ids == decoded[: len(lock.ids)] else [decoded.index(r) for r in lock.ids]
        rows = picks[step - start, live]
        [net], [out] = lock.nets, lock.grads
        logits, cache = nn.mlp_forward(net, xs.take(rows, axis=0))
        losses, dlogits = nn.softmax_cross_entropy(logits, ys.take(rows))
        nn.mlp_backward(net, cache, dlogits, out=out)
        return losses

    results = lock.train(grads, progress)
    return [out if isinstance(out, Exception) else ErmModel(out[0], index_mode, m, feature_dim) for out in results]


def predict_erm(model: ErmModel, x: Array, domain_index: int | None = None) -> Array:
    """Argmax of the logits (ties go to the lowest class index).

    ``domain_index=None`` means "the unseen target": the index feature follows
    the target policy. Pass a concrete index to score held-out source data.
    """
    if domain_index is None:
        aug = augment_target(x, model.index_mode, model.num_domains_seen)
    else:
        aug = augment_with_index(
            x, domain_index, model.index_mode, _positions(model.index_mode, model.num_domains_seen)
        )
    logits, _ = nn.mlp_forward(model.net, np.atleast_2d(aug))
    return np.argmax(logits, axis=1)

