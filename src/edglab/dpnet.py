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
from functools import lru_cache

import numpy as np

from . import nn, seeding
from .data import DomainData
from .nn import Grads, MlpParams, OptimizerError

Array = np.ndarray


class EpisodeError(ValueError):
    """An episode cannot be drawn: some class has too few samples. ``rows``
    maps the position of each failed run of a stacked draw to its error."""

    def __init__(self, message: str, rows: dict | None = None):
        super().__init__(message)
        self.rows = rows or {}


@dataclass
class DPNetModel:
    """Two encoders into a shared embedding space.

    ``f_phi`` embeds support instances (it carries the one-step-ahead drift),
    ``f_psi`` embeds queries; a shared encoder (proto) is one object in both
    fields. Both must share architecture, so the embedding dimension is
    ``f_phi.out_dim``.
    """

    f_phi: MlpParams
    f_psi: MlpParams
    num_classes: int

    def __post_init__(self):
        if self.f_phi.dims != self.f_psi.dims:
            raise ValueError(f"encoder architectures differ: {self.f_phi.dims} vs {self.f_psi.dims}")


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
def _true_class(runs: tuple[int, ...], k_classes: int, n_b: int) -> Array:
    """Each query's distance to its own class's prototype, as flat indices
    into the stacked (K·n) × K distances: shaped ``runs + (K·n,)``."""
    episodes = int(np.prod(runs, dtype=np.int64))
    labels = np.tile(np.repeat(np.arange(k_classes), n_b), episodes)
    true = (nn.row_starts(labels.size, k_classes) + labels).reshape(*runs, -1)
    true.flags.writeable = False
    return true


def episode_loss(
    f_phi: MlpParams, f_psi: MlpParams, support, query, grads: tuple[Grads, Grads] | None = None
) -> tuple[float, Array, Grads, Grads]:
    """Episodic loss and exact gradients for both encoders.

    ``support`` goes through ``f_phi`` and ``query`` through ``f_psi``. Each
    is stacked class-major, K × n × d, so ``support[k]`` is class k's block;
    a sequence of equal-sized per-class blocks is stacked on entry. Loss = mean over queries of d(z_q, c_y) + log sum_k exp(-d(z_q, c_k)),
    i.e. the mean negative log-probability of the true class. Gradients flow
    into the query encoder directly and into the support encoder through the
    prototype means.

    Returns (loss, d2, grads_phi, grads_psi) with d2 the (K·n) × K squared
    query-to-prototype distances. ``grads``, a (phi, psi) pair, receives the
    gradients in place (see ``nn.mlp_backward``). R episodes stacked on a
    leading run axis (R × K × n × d) with stacked encoders give R losses and
    R × (K·n) × K distances, each run's exactly as it would be alone.
    """
    support, query = np.asarray(support, dtype=np.float64), np.asarray(query, dtype=np.float64)
    if support.ndim < 3 or 0 in support.shape[-3:-1] or query.shape != support.shape:
        raise ValueError("support and query must hold one equal-sized, non-empty block per class")
    *runs, k_classes, n_b, dim = support.shape
    zs, cache_s = nn.mlp_forward(f_phi, support.reshape(*runs, k_classes * n_b, dim))
    zq, cache_q = nn.mlp_forward(f_psi, query.reshape(*runs, k_classes * n_b, dim))
    # Means and sums go straight to the ufunc reductions np.mean and
    # ndarray.sum wrap: the same arithmetic with fewer Python calls.
    protos = np.add.reduce(zs.reshape(*runs, k_classes, n_b, -1), axis=-2) / n_b

    d2 = nn.pairwise_sq_dists(zq, protos)  # (K*n_b) × K
    n_q = k_classes * n_b
    true = _true_class(tuple(runs), k_classes, n_b)
    # log sum_k exp(-d2) with max-subtraction, per query row.
    neg = -d2
    m = np.maximum.reduce(neg, axis=-1, keepdims=True)
    p = np.exp(neg - m)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    lse = (m + np.log(total))[..., 0]
    loss = np.add.reduce(d2.take(true) + lse, axis=-1) / n_q

    p /= total
    # dJ/d d2[q,k] = (1[k=y_q] - p[q,k]) / n_q
    gd2 = -p
    gd2.reshape(-1)[true] += 1.0
    gd2 /= n_q
    # Chain through d2 = |zq - c_k|^2 exactly (no zero-row-sum shortcut).
    gzq = 2.0 * (zq * np.add.reduce(gd2, axis=-1, keepdims=True) - gd2 @ protos)
    gproto = -2.0 * (gd2.swapaxes(-1, -2) @ zq - np.add.reduce(gd2, axis=-2)[..., None] * protos)
    gzs = np.repeat(gproto / n_b, n_b, axis=-2)

    out_phi, out_psi = grads if grads is not None else (None, None)
    grads_psi = nn.mlp_backward(f_psi, cache_q, gzq, out=out_psi)
    grads_phi = nn.mlp_backward(f_phi, cache_s, gzs, out=out_phi)
    return loss, d2, grads_phi, grads_psi


class Episodes(seeding.Steps):
    """Where the episodes of R runs come from, and each run's draws.

    Holds the source rows grouped by (domain, class); the draws are
    ``seeding.Steps`` over the domain pairs. Per step ``rng.integers(0,
    pairs)`` picks the domain i, then per class ``rng.choice(rows, n,
    replace=False)`` picks n rows of domain i, then n of domain i+1
    (``same_domain``: 2n of domain i, the first n the support). A pair that
    cannot serve some class ends a run that draws it, with ``errors[i]``.
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
        self.errors: list[str | None] = []
        for i in range(pairs):
            short = np.flatnonzero(pops[i].min(axis=1) < size)
            if not short.size:
                self.errors.append(None)
            elif same_domain:
                self.errors.append(f"domain {i} class {short[0]}: need {size} samples, have {counts[i, short[0]]}")
            else:
                self.errors.append(f"episode ({i},{i + 1}) class {short[0]}: insufficient per-class samples")
        ok = [e is None for e in self.errors]
        super().__init__(pops.reshape(pairs, -1), firsts[side, classes].reshape(pairs, -1), size, rngs, steps, ok)
        self.n = n_per_class


def sample_episode(episodes: Episodes, step: int, runs: list[int]) -> tuple[Array, Array, Array]:
    """The episode of each run of ``runs`` at ``step``, stacked in its order:
    support and query (R × K × n × d) and the domain pair i each run drew.
    Steps are asked for in order; a run's first step is 0.

    Raises ``EpisodeError`` when the domain pair a run drew cannot serve
    some class, with the message the run gives alone; ``rows`` maps the
    position of each such run in ``runs`` to its own error.
    """
    rows, pairs, ended = episodes.draw(step, runs)
    if ended:
        errors = {e: EpisodeError(episodes.errors[pairs[e]]) for e in ended}
        raise EpisodeError(str(errors[ended[0]]), rows=errors)
    # A run's rows are K × (2 × n) class-major, support then query.
    support, query = episodes.x.take(rows.reshape(len(runs), -1, 2, episodes.n).transpose(2, 0, 1, 3), axis=0)
    return support, query, pairs


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
    ``init_dpnet((dim,) + embed, K, seed, shared)``, and it draws its episodes
    from a second generator of the same seed, so it ends bit for bit where it
    would alone. A shared encoder (proto) draws its support and queries from
    one domain, two encoders (dpnets) from consecutive domains. Returns, per
    run, the trained model with its per-step losses and query accuracies, or
    the error that ended it. ``progress(step, losses)`` is called after each
    step with ``{run: loss}`` for the runs that took it.
    """
    n_per_class, embed = nn.group_values(runs, GROUP_KEYS)
    dims, k_classes = (source_domains[0].dim,) + tuple(embed), source_domains[0].num_classes
    models = [init_dpnet(dims, k_classes, seed, shared) for _, seed in runs]
    steps = [hp["steps"] for hp, _ in runs]
    # Gradients of both encoders, phi then psi; a shared encoder steps on their sum.
    lock = nn.Lockstep(
        [[m.f_phi] if shared else [m.f_phi, m.f_psi] for m in models],
        [hp["lr"] for hp, _ in runs],
        steps,
        grad_like=[models[0].f_phi, models[0].f_psi],
    )
    width = lock.params.shape[1]
    rngs = [np.random.default_rng(seed) for _, seed in runs]
    episodes = Episodes(source_domains, n_per_class, rngs, steps, shared)
    labels = np.repeat(np.arange(k_classes), n_per_class)
    logs = np.empty((2, len(runs), max(steps)))  # loss, query accuracy

    def grads(step):
        try:
            support, query, _ = sample_episode(episodes, step, lock.ids)
        except EpisodeError as exc:
            lock.drop(exc.rows)
            if not lock.ids:
                return ()
            support, query, _ = sample_episode(episodes, step, lock.ids)
        losses, d2, _, _ = episode_loss(lock.nets[0], lock.nets[-1], support, query, lock.grads)
        if shared:
            lock.grad[: len(lock.ids), :width] += lock.grad[: len(lock.ids), width:]
        # The logged accuracy scores the pre-step encoders, as predict_with_prototypes
        # would: argmin sends ties to the lowest class index.
        acc = np.add.reduce(np.argmin(d2, axis=-1) == labels, axis=-1) / labels.size
        logs[:, lock.ids, step] = losses, acc
        return losses

    results = []
    for run, nets in enumerate(lock.train(grads, progress)):
        if isinstance(nets, Exception):
            results.append(nets)
        else:
            model = DPNetModel(nets[0], nets[-1], k_classes)
            results.append((model, logs[0, run, : steps[run]], logs[1, run, : steps[run]]))
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
