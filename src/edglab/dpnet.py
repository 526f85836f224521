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
from .nn import Grads, MlpParams, OptimizerError

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
    R episodes stacked on a leading run axis (R × K × n_per_class × d, one
    source index per run) form one batch for R stacked encoders.
    """

    support: Array
    query: Array
    source_index: int | tuple[int, ...]

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        query = np.asarray(self.query, dtype=np.float64)
        if support.ndim < 3 or 0 in support.shape[-3:-1] or query.shape != support.shape:
            raise ValueError("support and query must hold one equal-sized, non-empty block per class")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "query", query)

    @property
    def num_classes(self) -> int:
        return self.support.shape[-3]

    @property
    def n_per_class(self) -> int:
        return self.support.shape[-2]


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
    gradients in place (see ``nn.mlp_backward``). A stacked batch with
    stacked encoders (leading run axis R) gives R losses and R × (K·n) × K
    distances, each run's exactly as it would be alone.
    """
    *runs, k_classes, n_b, dim = batch.support.shape
    zs, cache_s = nn.mlp_forward(model.f_phi, batch.support.reshape(*runs, k_classes * n_b, dim))
    zq, cache_q = nn.mlp_forward(model.f_psi, batch.query.reshape(*runs, k_classes * n_b, dim))
    # Means and sums go straight to the ufunc reductions np.mean and
    # ndarray.sum wrap: the same arithmetic with fewer Python calls.
    protos = np.add.reduce(zs.reshape(*runs, k_classes, n_b, -1), axis=-2) / n_b

    d2 = nn.pairwise_sq_dists(zq, protos)  # (K*n_b) × K
    labels = np.repeat(np.arange(k_classes), n_b)
    n_q = k_classes * n_b
    rows = np.arange(n_q)
    # log sum_k exp(-d2) with max-subtraction, per query row.
    neg = -d2
    m = np.maximum.reduce(neg, axis=-1, keepdims=True)
    p = np.exp(neg - m)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    lse = (m + np.log(total))[..., 0]
    loss = np.add.reduce(d2[..., rows, labels] + lse, axis=-1) / n_q

    p /= total
    # dJ/d d2[q,k] = (1[k=y_q] - p[q,k]) / n_q
    gd2 = -p
    gd2[..., rows, labels] += 1.0
    gd2 /= n_q
    # Chain through d2 = |zq - c_k|^2 exactly (no zero-row-sum shortcut).
    gzq = 2.0 * (zq * np.add.reduce(gd2, axis=-1, keepdims=True) - gd2 @ protos)
    gproto = -2.0 * (gd2.swapaxes(-1, -2) @ zq - np.add.reduce(gd2, axis=-2)[..., None] * protos)
    gzs = np.repeat(gproto / n_b, n_b, axis=-2)

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


def train_group(
    models: list[DPNetModel],
    source_domains: list[DomainData],
    configs: list[TrainConfig],
    same_domain_episodes: bool = False,
    progress=None,
) -> list[tuple[DPNetModel, Array, Array] | OptimizerError | EpisodeError]:
    """Episodic training of R runs in lockstep (``nn.Lockstep``).

    The models share their architecture and encoder sharing, the configs
    ``n_per_class`` and ``optimizer``. Each run keeps its own ``lr``,
    ``steps`` and seed, and draws its episodes from its own generator, so it
    ends bit for bit where it would alone. Returns, per run, the trained
    model with its per-step losses and query accuracies (arrays, not
    ``TraceEntry`` lists: a search keeps every run of a group at once), or
    the error that ended it. ``progress(step, losses)`` is called after each
    step with ``{run: loss}`` for the runs that took it.
    """
    first, n_per_class, optimizer = models[0], configs[0].n_per_class, configs[0].optimizer
    shared = first.shared_encoder
    if any(m.shared_encoder != shared for m in models) or any(
        (c.n_per_class, c.optimizer) != (n_per_class, optimizer) for c in configs
    ):
        raise ValueError("runs of one lockstep group must share encoder sharing, n_per_class and optimizer")
    # Gradients of both encoders, phi then psi; a shared encoder steps on their sum.
    lock = nn.Lockstep(
        [[m.f_phi] if shared else [m.f_phi, m.f_psi] for m in models],
        optimizer,
        [c.lr for c in configs],
        [c.steps for c in configs],
        grad_like=[first.f_phi, first.f_psi],
    )
    width = lock.params.shape[1]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    labels = np.repeat(np.arange(first.num_classes), n_per_class)
    logs = np.empty((2, len(models), max(c.steps for c in configs)))  # loss, query accuracy
    step = 0
    while lock.live(step):
        batches, failed = [], {}
        for row, run in enumerate(lock.ids):
            try:
                batches.append(sample_episode(source_domains, n_per_class, rngs[run], same_domain_episodes))
            except EpisodeError as exc:
                failed[row] = exc
        if failed:
            lock.drop(failed)  # the episodes drawn line up with the rows kept
            if not lock.ids:
                break
        phi = lock.nets[0]
        cur = DPNetModel(phi, phi if shared else lock.nets[1], first.embed_dim, first.num_classes)
        # np.array stacks equal-shaped arrays as np.stack does, with less per-call overhead.
        batch = EpisodeBatch(
            np.array([b.support for b in batches]),
            np.array([b.query for b in batches]),
            tuple(b.source_index for b in batches),
        )
        losses, d2, _, _ = episode_loss(cur, batch, lock.grads)
        if shared:
            lock.grad[: len(lock.ids), :width] += lock.grad[: len(lock.ids), width:]
        # The logged accuracy scores the pre-step encoders, as predict_with_prototypes
        # would: argmin sends ties to the lowest class index.
        acc = np.count_nonzero(np.argmin(d2, axis=-1) == labels, axis=-1) / labels.size
        stepped = list(lock.ids)
        logs[:, stepped, step] = losses, acc
        lock.step()
        if progress is not None and lock.ids:
            progress(step, {run: float(loss) for run, loss in zip(stepped, losses) if run in lock.ids})
        step += 1
    results = []
    for run, config in enumerate(configs):
        nets = lock.result(run)
        if isinstance(nets, Exception):
            results.append(nets)
        else:
            model = DPNetModel(nets[0], nets[-1], first.embed_dim, first.num_classes)
            results.append((model, logs[0, run, : config.steps], logs[1, run, : config.steps]))
    return results


def train(
    model: DPNetModel,
    source_domains: list[DomainData],
    config: TrainConfig,
    same_domain_episodes: bool = False,
    progress=None,
) -> tuple[DPNetModel, list[TraceEntry]]:
    """One run: ``train_group`` of one, its error raised.

    Returns the trained model and a per-step trace (loss, query accuracy).
    ``progress(step, loss)`` is called after each step when provided.
    """
    report = None if progress is None else lambda step, losses: progress(step, losses[0])
    [result] = train_group([model], source_domains, [config], same_domain_episodes, report)
    if isinstance(result, Exception):
        raise result
    trained, losses, accs = result
    return trained, [TraceEntry(s, v, a) for s, (v, a) in enumerate(zip(losses.tolist(), accs.tolist()))]


def predict_with_prototypes(model: DPNetModel, prototypes: Array, queries: Array) -> Array:
    z, _ = nn.mlp_forward(model.f_psi, queries)
    d2 = nn.pairwise_sq_dists(z, prototypes)
    return np.argmin(d2, axis=1)  # ties resolve to the lowest class index


def predict_target(model: DPNetModel, last_source: DomainData, queries: Array) -> Array:
    """Labels for target queries, using the final source domain as support."""
    support = tuple(last_source.x[idx] for idx in last_source.class_index)
    protos = compute_prototypes(model, support)
    return predict_with_prototypes(model, protos, queries)
