"""Directional prototypical network.

Training samples episodes from pairs of consecutive domains: class prototypes
are built from domain i through the forward encoder, queries come from domain
i+1 through the base encoder, and the episodic loss is the mean negative
log-probability of the query labels under a softmax over negative squared
embedding distances. At test time the final source domain provides the
prototypes for the unseen target.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import nn, seeding
from .data import DomainData
from .nn import Grads, MlpParams, OptimizerError

Array = np.ndarray


class EpisodeError(ValueError):
    """The source domains cannot serve an episode: some class has too few
    samples."""


@dataclass
class DPNetModel:
    """Two encoders into a shared embedding space.

    ``f_phi`` embeds support instances (it carries the one-step-ahead drift),
    ``f_psi`` embeds queries; a shared encoder (proto) is one object in both
    fields. Both must share architecture, so the embedding dimension is
    ``f_phi.out_dim``. Training steps them as one stack, ``encoders``.
    """

    f_phi: MlpParams
    f_psi: MlpParams
    num_classes: int

    def __post_init__(self):
        if self.f_phi.dims != self.f_psi.dims:
            raise ValueError(f"encoder architectures differ: {self.f_phi.dims} vs {self.f_psi.dims}")

    @property
    def encoders(self) -> MlpParams:
        """A copy of the encoders stacked on a leading side axis: [phi, psi]
        with (2, out, in) weights, or the shared encoder alone, a stack of one
        that serves both sides."""
        nets = [self.f_phi] if self.f_phi is self.f_psi else [self.f_phi, self.f_psi]
        return MlpParams.from_arrays([np.stack(side) for side in zip(*(net.arrays() for net in nets))])


def from_encoders(encoders: MlpParams, num_classes: int) -> DPNetModel:
    """The model whose ``f_phi`` and ``f_psi`` are views [0] and [-1] of an
    encoder stack (one object for a stack of one)."""
    sides = [MlpParams.from_arrays(list(side)) for side in zip(*encoders.arrays())]
    return DPNetModel(sides[0], sides[-1], num_classes)


def init_dpnet(dims: tuple[int, ...], num_classes: int, seed: int, shared: bool = False) -> DPNetModel:
    rng = np.random.default_rng(seed)
    f_phi = nn.init_mlp(dims, rng)
    f_psi = f_phi if shared else nn.init_mlp(dims, rng)
    return DPNetModel(f_phi=f_phi, f_psi=f_psi, num_classes=num_classes)


def compute_prototypes(model: DPNetModel, support: tuple[Array, ...] | list[Array]) -> Array:
    """Per-class mean of support embeddings under the forward encoder (K × Z)."""
    protos = []
    for k, block in enumerate(support):
        if block.shape[0] == 0:
            raise ValueError(f"class {k}: empty support set")
        z, _ = nn.mlp_forward(model.f_phi, block)
        protos.append(z.mean(axis=0))
    return np.vstack(protos)


@lru_cache(maxsize=8)
def _true_class(runs: tuple[int, ...], k_classes: int, n_b: int) -> tuple[Array, Array]:
    """Each query's distance to its own class's prototype, as flat indices
    into the stacked K × (K·n) distances (shaped ``runs + (K·n,)``), and the
    indicator of those entries, shaped like the distances: 1.0 there, −0.0
    elsewhere, so that ``hot - p`` has the bits of ``-p`` plus 1.0 at them."""
    episodes, n_q = int(np.prod(runs, dtype=np.int64)), k_classes * n_b
    # Query q of class q // n is entry (q // n, q) of its episode's block.
    own = np.repeat(np.arange(k_classes), n_b) * n_q + np.arange(n_q)
    true = (nn.row_starts(episodes, k_classes * n_q)[:, None] + own).reshape(*runs, n_q)
    hot = np.full((*runs, k_classes, n_q), -0.0)
    hot.reshape(-1)[true] = 1.0
    true.flags.writeable = hot.flags.writeable = False
    return true, hot


def episode_loss(encoders: MlpParams, episode, grads: Grads | None = None) -> tuple[Array, Array, Grads]:
    """Episodic loss and exact gradients of an encoder stack.

    ``episode`` is 2 × K × n × d: side 0 the support, side 1 the queries,
    each stacked class-major so ``episode[s, k]`` is class k's block.
    ``encoders`` is a stack on the side axis, (2, out, in) weights: side 0
    (phi) embeds the support and side 1 (psi) the queries; a stack of one is
    a shared encoder that serves both. Loss = mean over queries of
    d(z_q, c_y) + log sum_k exp(-d(z_q, c_k)), i.e. the mean negative
    log-probability of the true class. Gradients flow into the query side
    directly and into the support side through the prototype means; a shared
    encoder gets their sum.

    Returns (loss, d2, grads) with d2 the K × (K·n) squared prototype-to-
    query distances, class-major. ``grads`` receives the gradients in place
    (see ``nn.mlp_backward``). R episodes stacked on a leading run axis
    (R × 2 × K × n × d) with encoders stacked as (R, 2, out, in) give R
    losses and R × K × (K·n) distances, each run's exactly as it would be
    alone.
    """
    try:
        episode = np.asarray(episode, dtype=np.float64)
        *runs, sides, k_classes, n_b, dim = episode.shape
    except ValueError:  # blocks of different sizes do not stack, or too few axes
        sides = 0
    if sides != 2 or not k_classes * n_b:
        raise ValueError("an episode must hold one equal-sized, non-empty block per class on each of its two sides")
    n_q = k_classes * n_b
    z, cache = nn.mlp_forward(encoders, episode.reshape(*runs, 2, n_q, dim))
    zs, zq = z[..., 0, :, :], z[..., 1, :, :]
    protos = nn.sum_rows(zs.reshape(*runs, k_classes, n_b, -1)) / n_b

    # Class-major, each reduction over the K classes is K - 1 elementwise
    # ops on rows of K·n queries (see nn.pairwise_sum).
    d2 = nn.pairwise_sq_dists(protos, zq)  # K × (K·n)
    rows = range(k_classes)
    true, hot = _true_class(tuple(runs), k_classes, n_b)
    # log sum_k exp(-d2) with max-subtraction, per query. The largest -d2 is
    # minus the nearest distance, so near - d2 is exactly -d2 - max(-d2).
    near = reduce(np.minimum, [d2[..., k, :] for k in rows])
    p = np.exp(near[..., None, :] - d2)
    total = nn.pairwise_sum([p[..., k, :] for k in rows])
    lse = np.log(total) - near
    loss = np.add.reduce(d2.take(true) + lse, axis=-1) / n_q

    p /= total[..., None, :]
    # dJ/d d2[k,q] = (1[k=y_q] - p[k,q]) / n_q
    gd2 = hot - p
    gd2 /= n_q
    # Chain through d2 = |zq - c_k|^2 exactly (no zero-row-sum shortcut). The
    # products and the sum over queries keep their query-major operand, whose
    # layout sets their summation order.
    gq = gd2.swapaxes(-1, -2).copy()
    gz = np.empty_like(z)  # support side, then query side
    scale = nn.pairwise_sum([gd2[..., k, :] for k in rows])[..., None]
    inner = nn.broadcast_rows(np.multiply, zq, scale, np.empty(zq.shape)) - gq @ protos
    np.multiply(inner, 2.0, out=gz[..., 1, :, :])
    gproto = -2.0 * (gq.swapaxes(-1, -2) @ zq - nn.sum_rows(gq)[..., None] * protos)
    gz.reshape(*runs, 2, k_classes, n_b, -1)[..., 0, :, :, :] = (gproto / n_b)[..., None, :]
    return loss, d2, nn.mlp_backward(encoders, cache, gz, out=grads)


class Episodes(seeding.Steps):
    """Where the episodes of R runs come from, and each run's draws.

    Holds the source rows grouped by (domain, class); the draws are
    ``seeding.Steps`` over the domain pairs. Per step ``rng.integers(0,
    pairs)`` picks the domain i, then per class ``rng.choice(rows, n,
    replace=False)`` picks n rows of domain i, then n of domain i+1
    (``same_domain``: 2n of domain i, the first n the support). Every pair
    must serve every class: else ``EpisodeError`` names the first pair and
    class that cannot, before any draw.
    """

    def __init__(self, domains: list[DomainData], n_per_class: int, rngs, steps=1, same_domain: bool = False):
        if len(domains) < (1 if same_domain else 2):
            raise ValueError(
                "need at least one source domain" if same_domain
                else "need at least two source domains for consecutive episodes"
            )
        if n_per_class < 1:
            raise ValueError(f"n_per_class must be at least 1, got {n_per_class}")
        k, size = domains[0].num_classes, 2 * n_per_class if same_domain else n_per_class
        counts = np.array([[len(idx) for idx in d.class_index] for d in domains])
        firsts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
        # Each (domain, class) block of rows in turn, so a pick offsets its block.
        self.x = np.empty((int(counts.sum()), domains[0].x.shape[1]), dtype=domains[0].x.dtype)
        for d, tops in zip(domains, firsts.tolist()):
            for idx, top in zip(d.class_index, tops):
                self.x[top : top + len(idx)] = d.x[idx]
        # Per domain pair i: the domain of each (class, side), class-major as drawn.
        pairs = len(domains) - (0 if same_domain else 1)
        side = np.arange(pairs)[:, None, None] + np.arange(1 if same_domain else 2)
        classes = np.arange(k)[:, None]
        pops = counts[side, classes]  # P × K × sides
        short = np.argwhere(pops.min(axis=2) < size)
        if short.size:
            i, c = short[0].tolist()
            raise EpisodeError(
                f"domain {i} class {c}: need {size} samples, have {counts[i, c]}" if same_domain
                else f"episode ({i},{i + 1}) class {c}: insufficient per-class samples"
            )
        super().__init__(pops.reshape(pairs, -1), firsts[side, classes].reshape(pairs, -1), size, rngs, steps)
        self.n = n_per_class


def sample_episode(episodes: Episodes, step: int, runs: list[int]) -> tuple[Array, Array]:
    """The episode of each run of ``runs`` at ``step``, stacked in its order
    (R × 2 × K × n × d: support, then queries), and the domain pair i each
    run drew. Steps are asked for in order; a run's first step is 0.
    """
    rows, pairs = episodes.draw(step, runs)
    # A run's rows are K × (2 × n) class-major, support then query.
    return episodes.x.take(rows.reshape(len(runs), -1, 2, episodes.n).swapaxes(1, 2), axis=0), pairs


# Runs that differ on one of these train in separate lockstep groups.
GROUP_KEYS = ("batch", "embed")


def train(
    source_domains: list[DomainData],
    runs: list[tuple[dict, int]],
    shared: bool = False,
    progress=None,
) -> list[tuple[DPNetModel, Array, Array] | OptimizerError | EpisodeError]:
    """Episodic training of R (hparams, seed) runs in lockstep (``nn.Lockstep``).

    A run's hparams give its ``lr``, ``steps``, ``batch`` (samples per class
    on each side of an episode) and ``embed`` (encoder widths after the
    input); the runs agree on ``GROUP_KEYS``. Its encoders are
    ``init_dpnet((dim,) + embed, K, seed, shared)``, trained as one stack
    (``DPNetModel.encoders``: the group steps (R, 2, out, in) weights, or
    (R, 1, out, in) for a shared encoder), and it draws its episodes from a
    second generator of the same seed, so it ends bit for bit where it would
    alone. A shared encoder (proto) draws its support and queries from one
    domain, two encoders (dpnets) from consecutive domains. Returns, per run,
    the trained model (``f_phi`` and ``f_psi`` views of its stack) with its
    per-step losses and query accuracies, or the error that ended it. Sources
    that cannot serve the group's episodes fail every run with one
    ``EpisodeError``, before any step. ``progress(step, losses)`` is called
    after each step with ``{run: loss}`` for the runs that took it.
    """
    n_per_class, embed = nn.group_values(runs, GROUP_KEYS)
    dims, k_classes = (source_domains[0].dim,) + tuple(embed), source_domains[0].num_classes
    steps = [hp["steps"] for hp, _ in runs]
    rngs = [np.random.default_rng(seed) for _, seed in runs]
    try:
        episodes = Episodes(source_domains, n_per_class, rngs, steps, shared)
    except EpisodeError as exc:
        return [exc] * len(runs)
    encoders = [[init_dpnet(dims, k_classes, seed, shared).encoders] for _, seed in runs]
    lock = nn.Lockstep(encoders, [hp["lr"] for hp, _ in runs], steps)
    labels = np.repeat(np.arange(k_classes), n_per_class)
    logs = np.empty((2, len(runs), max(steps)))  # loss, query accuracy

    def grads(step):
        episode, _ = sample_episode(episodes, step, lock.ids)
        losses, d2, _ = episode_loss(lock.nets[0], episode, lock.grads[0])
        # The logged accuracy scores the pre-step encoders, as predict_with_prototypes
        # would: argmin sends ties to the lowest class index.
        hits = np.add.reduce(d2.argmin(axis=-2) == labels, axis=-1)
        logs[0, lock.runs, step] = losses
        logs[1, lock.runs, step] = hits / labels.size
        return losses

    results = []
    for run, nets in enumerate(lock.train(grads, progress)):
        if isinstance(nets, Exception):
            results.append(nets)
        else:
            results.append((from_encoders(nets[0], k_classes), logs[0, run, : steps[run]], logs[1, run, : steps[run]]))
    return results


def predict_with_prototypes(model: DPNetModel, prototypes: Array, queries: Array) -> Array:
    z, _ = nn.mlp_forward(model.f_psi, queries)
    d2 = nn.pairwise_sq_dists(z, prototypes)
    return np.argmin(d2, axis=1)  # ties resolve to the lowest class index


def predict_target(model: DPNetModel, last_source: DomainData, queries: Array) -> Array:
    """Labels for target queries, using the final source domain as support."""
    support = tuple(last_source.x[idx] for idx in last_source.class_index)
    protos = compute_prototypes(model, support)
    return predict_with_prototypes(model, protos, queries)
