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

import numpy as np

from . import nn
from .data import DomainData
from .nn import Grads, MlpParams

Array = np.ndarray


class EpisodeError(ValueError):
    """An episode cannot be drawn: some class has too few samples."""


@dataclass
class DPNetModel:
    """Two encoders into a shared embedding space.

    ``f_phi`` embeds support instances (it carries the one-step-ahead drift),
    ``f_psi`` embeds queries. Both must share architecture and output dim.
    """

    f_phi: MlpParams
    f_psi: MlpParams
    embed_dim: int
    num_classes: int

    def __post_init__(self):
        if self.f_phi.dims != self.f_psi.dims:
            raise ValueError(f"encoder architectures differ: {self.f_phi.dims} vs {self.f_psi.dims}")
        if self.f_phi.out_dim != self.embed_dim:
            raise ValueError(f"encoder out-dim {self.f_phi.out_dim} != embed_dim {self.embed_dim}")

    @property
    def shared_encoder(self) -> bool:
        return self.f_phi is self.f_psi


def init_dpnet(dims: tuple[int, ...], num_classes: int, seed: int, shared: bool = False) -> DPNetModel:
    rng = np.random.default_rng(seed)
    f_phi = nn.init_mlp(dims, rng)
    f_psi = f_phi if shared else nn.init_mlp(dims, rng)
    return DPNetModel(f_phi=f_phi, f_psi=f_psi, embed_dim=dims[-1], num_classes=num_classes)


@dataclass(frozen=True)
class EpisodeBatch:
    """Support (domain i) and query (domain i+1) features, stacked class-major.

    Each side is one K × n_per_class × d array, so ``support[k]`` is class k's
    block; a sequence of equal-sized per-class blocks is stacked on entry.
    """

    support: Array
    query: Array
    source_index: int

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        query = np.asarray(self.query, dtype=np.float64)
        if support.ndim != 3 or 0 in support.shape[:2] or query.shape != support.shape:
            raise ValueError("support and query must hold one equal-sized, non-empty block per class")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "query", query)

    @property
    def num_classes(self) -> int:
        return self.support.shape[0]

    @property
    def n_per_class(self) -> int:
        return self.support.shape[1]


def compute_prototypes(model: DPNetModel, support: tuple[Array, ...] | list[Array]) -> Array:
    """Per-class mean of support embeddings under the forward encoder (K × Z)."""
    protos = []
    for k, block in enumerate(support):
        if block.shape[0] == 0:
            raise ValueError(f"class {k}: empty support set")
        z, _ = nn.mlp_forward(model.f_phi, block)
        protos.append(z.mean(axis=0))
    return np.vstack(protos)


def predictive_distribution(model: DPNetModel, prototypes: Array, x: Array) -> Array:
    """Probability over classes: softmax of negative squared distances."""
    z, _ = nn.mlp_forward(model.f_psi, np.atleast_2d(x))
    d2 = nn.pairwise_sq_dists(z, prototypes)
    probs = np.exp(nn.log_softmax_rows(-d2))
    return probs[0] if np.asarray(x).ndim == 1 else probs


def episode_loss(
    model: DPNetModel, batch: EpisodeBatch, grads: tuple[Grads, Grads] | None = None
) -> tuple[float, Array, Grads, Grads]:
    """Episodic loss and exact gradients for both encoders.

    Loss = mean over queries of d(z_q, c_y) + log sum_k exp(-d(z_q, c_k)),
    i.e. the mean negative log-probability of the true class. Gradients flow
    into the query encoder directly and into the support encoder through the
    prototype means.

    Returns (loss, d2, grads_phi, grads_psi) with d2 the (K·n) × K squared
    query-to-prototype distances. ``grads``, a (phi, psi) pair, receives the
    gradients in place (see ``nn.mlp_backward``).
    """
    k_classes, n_b, dim = batch.support.shape
    zs, cache_s = nn.mlp_forward(model.f_phi, batch.support.reshape(k_classes * n_b, dim))
    zq, cache_q = nn.mlp_forward(model.f_psi, batch.query.reshape(k_classes * n_b, dim))
    # Means and sums go straight to the ufunc reductions np.mean and
    # ndarray.sum wrap: the same arithmetic with fewer Python calls.
    protos = np.add.reduce(zs.reshape(k_classes, n_b, -1), axis=1) / n_b

    d2 = nn.pairwise_sq_dists(zq, protos)  # (K*n_b) × K
    labels = np.repeat(np.arange(k_classes), n_b)
    n_q = k_classes * n_b
    rows = np.arange(n_q)
    # log sum_k exp(-d2) with max-subtraction, per query row.
    neg = -d2
    m = np.maximum.reduce(neg, axis=1, keepdims=True)
    p = np.exp(neg - m)
    lse = (m + np.log(np.add.reduce(p, axis=1, keepdims=True))).ravel()
    loss = float(np.add.reduce(d2[rows, labels] + lse) / n_q)

    p /= np.add.reduce(p, axis=1, keepdims=True)
    # dJ/d d2[q,k] = (1[k=y_q] - p[q,k]) / n_q
    gd2 = -p
    gd2[rows, labels] += 1.0
    gd2 /= n_q
    # Chain through d2 = |zq - c_k|^2 exactly (no zero-row-sum shortcut).
    gzq = 2.0 * (zq * np.add.reduce(gd2, axis=1, keepdims=True) - gd2 @ protos)
    gproto = -2.0 * (gd2.T @ zq - np.add.reduce(gd2, axis=0)[:, None] * protos)
    gzs = np.repeat(gproto / n_b, n_b, axis=0)

    out_phi, out_psi = grads if grads is not None else (None, None)
    grads_psi = nn.mlp_backward(model.f_psi, cache_q, gzq, out=out_psi)
    grads_phi = nn.mlp_backward(model.f_phi, cache_s, gzs, out=out_phi)
    return loss, d2, grads_phi, grads_psi


def sample_episode(
    domains: list[DomainData],
    n_per_class: int,
    rng: np.random.Generator,
    same_domain: bool = False,
) -> EpisodeBatch:
    """Draw one episode. Default: support from domain i, query from domain i+1.

    ``same_domain=True`` (vanilla prototypical behaviour) draws disjoint
    support and query sets from one uniformly chosen domain.
    """
    if same_domain:
        if len(domains) < 1:
            raise ValueError("need at least one source domain")
        i = int(rng.integers(0, len(domains)))
        sup_dom = qry_dom = domains[i]
    else:
        if len(domains) < 2:
            raise ValueError("need at least two source domains for consecutive episodes")
        i = int(rng.integers(0, len(domains) - 1))
        sup_dom, qry_dom = domains[i], domains[i + 1]
    # Row indices per class, gathered with one fancy index per side below.
    s_rows = np.empty((sup_dom.num_classes, n_per_class), dtype=np.int64)
    q_rows = np.empty_like(s_rows)
    s_table, q_table = sup_dom.class_index, qry_dom.class_index
    for k in range(sup_dom.num_classes):
        if same_domain:
            idx = s_table[k]
            if len(idx) < 2 * n_per_class:
                raise EpisodeError(f"domain {i} class {k}: need {2 * n_per_class} samples, have {len(idx)}")
            pick = rng.choice(idx, size=2 * n_per_class, replace=False)
            s_rows[k] = pick[:n_per_class]
            q_rows[k] = pick[n_per_class:]
        else:
            s_idx, q_idx = s_table[k], q_table[k]
            if len(s_idx) < n_per_class or len(q_idx) < n_per_class:
                raise EpisodeError(f"episode ({i},{i + 1}) class {k}: insufficient per-class samples")
            s_rows[k] = rng.choice(s_idx, size=n_per_class, replace=False)
            q_rows[k] = rng.choice(q_idx, size=n_per_class, replace=False)
    return EpisodeBatch(support=sup_dom.x[s_rows], query=qry_dom.x[q_rows], source_index=i)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    n_per_class: int = 16
    lr: float = 1e-2
    optimizer: str = "adam"
    seed: int = 0


@dataclass
class TraceEntry:
    step: int
    loss: float
    query_accuracy: float


def train(
    model: DPNetModel,
    source_domains: list[DomainData],
    config: TrainConfig,
    same_domain_episodes: bool = False,
    progress=None,
) -> tuple[DPNetModel, list[TraceEntry]]:
    """Episodic training loop; deterministic given the config seed.

    Returns the trained model and a per-step trace (loss, query accuracy).
    ``progress(step, loss)`` is called after each step when provided.
    """
    rng = np.random.default_rng(config.seed)
    shared = model.shared_encoder
    params, nets = nn.flatten_mlps([model.f_phi] if shared else [model.f_phi, model.f_psi])
    cur = DPNetModel(nets[0], nets[0] if shared else nets[1], model.embed_dim, model.num_classes)
    # Gradients of both encoders, phi then psi; a shared encoder steps on their sum.
    grad = np.empty(2 * params.size if shared else params.size)
    grads = tuple(nn.mlp_views(grad, [model.f_phi, model.f_psi]))
    step_grad = grad[: params.size]
    opt = nn.Optimizer(config.optimizer, config.lr, params)
    labels = np.repeat(np.arange(model.num_classes), config.n_per_class)
    trace: list[TraceEntry] = []
    for step in range(config.steps):
        batch = sample_episode(source_domains, config.n_per_class, rng, same_domain=same_domain_episodes)
        loss, d2, _, _ = episode_loss(cur, batch, grads)
        if shared:
            step_grad += grad[params.size :]
        nn.step_mlps(opt, step_grad)
        # The logged accuracy scores the pre-step encoders, as predict_with_prototypes
        # would: argmin sends ties to the lowest class index.
        acc = np.count_nonzero(np.argmin(d2, axis=1) == labels) / labels.size
        trace.append(TraceEntry(step=step, loss=loss, query_accuracy=acc))
        if progress is not None:
            progress(step, loss)
    return cur, trace


def predict_with_prototypes(model: DPNetModel, prototypes: Array, queries: Array) -> Array:
    z, _ = nn.mlp_forward(model.f_psi, queries)
    d2 = nn.pairwise_sq_dists(z, prototypes)
    return np.argmin(d2, axis=1)  # ties resolve to the lowest class index


def predict_target(model: DPNetModel, last_source: DomainData, queries: Array) -> Array:
    """Labels for target queries, using the final source domain as support."""
    support = tuple(last_source.x[idx] for idx in last_source.class_index)
    protos = compute_prototypes(model, support)
    return predict_with_prototypes(model, protos, queries)
