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


def with_index(x: Array, position: int, mode: IndexMode, num_sources: int) -> Array:
    """Features ``x`` of the domain at ``position`` with its index attached.
    Of m = ``num_sources`` sources, the unseen target is position m.

    scalar: append position/(m-1), so the target extrapolates to m/(m-1);
    onehot: append e_position over m+1 positions; outer: the features land in
    block ``position`` of m+1 blocks (e_position ⊗ x). One-hot and outer span
    the target too, a direction that training never activates."""
    x = np.asarray(x, dtype=np.float64)
    if mode is IndexMode.NONE:
        return x
    if not 0 <= position <= num_sources:
        raise ValueError(f"domain index {position} out of range [0, {num_sources}]")
    n, d = x.shape
    if mode is IndexMode.SCALAR_CONCAT:
        return np.hstack([x, np.full((n, 1), position / (num_sources - 1))])
    if mode is IndexMode.ONE_HOT_CONCAT:
        hot = np.zeros((n, num_sources + 1))
        hot[:, position] = 1.0
        return np.hstack([x, hot])
    out = np.zeros((n, d * (num_sources + 1)))
    out[:, position * d : (position + 1) * d] = x
    return out


@dataclass
class ErmModel:
    """Plain classifier over pooled (optionally index-augmented) source data."""

    net: MlpParams
    index_mode: IndexMode
    num_domains_seen: int  # number of source domains m
    feature_dim: int

    def __post_init__(self):
        want = with_index(np.zeros((1, self.feature_dim)), 0, self.index_mode, self.num_domains_seen).shape[1]
        if self.net.in_dim != want:
            raise ValueError(f"net in-dim {self.net.in_dim} != augmented dim {want}")


# Runs that differ on one of these train in separate lockstep groups.
GROUP_KEYS = ("batch", "hidden")


def train_erm(
    domains: list[DomainData],
    runs: list[tuple[dict, int]],
    index_mode: IndexMode = IndexMode.NONE,
    last_k: int | None = None,
    progress=None,
) -> list[ErmModel | OptimizerError]:
    """Mini-batch cross-entropy over pooled source samples, R (hparams, seed)
    runs in lockstep (``nn.Lockstep``).

    A run's hparams give its ``lr``, ``steps``, ``batch`` (samples per class:
    a step draws ``batch`` · K pooled samples, at most the pool) and
    ``hidden`` (classifier hidden widths; none is a single linear layer); the
    runs agree on ``GROUP_KEYS``. Its seed draws its initial weights, then its
    batches, so it ends bit for bit where it would alone. Returns, per run,
    the model or the error that ended it. ``progress(step, losses)`` is called
    after each step with ``{run: loss}`` for the runs that took it.

    ``last_k`` restricts training to the final k source domains; the index
    features still span all ``len(domains)`` of them.
    """
    if not domains:
        raise ValueError("need at least one source domain")
    per_class, hidden = nn.group_values(runs, GROUP_KEYS)
    m = len(domains)
    used = domains[-last_k:] if last_k else domains
    k_classes = used[0].num_classes
    feature_dim = used[0].dim
    xs = np.vstack([with_index(d.x, d.index, index_mode, m) for d in used])
    ys = np.concatenate([d.y for d in used])
    rngs = [np.random.default_rng(seed) for _, seed in runs]
    dims = (xs.shape[1],) + tuple(hidden) + (k_classes,)
    nets = [nn.init_mlp(dims, rng) for rng in rngs]
    for net in nets:
        # Zero-start the classifier head: harmless for the convex last layer, and
        # it keeps never-activated index blocks exactly inert at prediction time.
        for head in net.layers[-1]:
            head[...] = 0.0
    steps = [hp["steps"] for hp, _ in runs]
    lock = nn.Lockstep([[net] for net in nets], [hp["lr"] for hp, _ in runs], steps)
    # Each run's batch is rng.choice(n, batch, replace=False) per step: a
    # step of one block, the pool.
    n = xs.shape[0]
    batches = seeding.Steps([[n]], [[0]], min(per_class * k_classes, n), rngs, steps)

    def grads(step):
        rows = batches.draw(step, lock.ids)[0]
        [net], [out] = lock.nets, lock.grads
        logits, cache = nn.mlp_forward(net, xs.take(rows, axis=0))
        losses, dlogits = nn.softmax_cross_entropy(logits, ys.take(rows))
        nn.mlp_backward(net, cache, dlogits, out=out)
        return losses

    results = lock.train(grads, progress)
    return [out if isinstance(out, Exception) else ErmModel(out[0], index_mode, m, feature_dim) for out in results]


def predict_erm(model: ErmModel, x: Array, domain_index: int | None = None) -> Array:
    """Argmax of the logits (ties go to the lowest class index), with the
    index feature of ``domain_index``; ``None`` is the unseen target."""
    m = model.num_domains_seen
    aug = with_index(x, m if domain_index is None else domain_index, model.index_mode, m)
    logits, _ = nn.mlp_forward(model.net, aug)
    return np.argmax(logits, axis=1)
