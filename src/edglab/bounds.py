"""Exact finite-distribution laboratory for divergence-based risk bounds.

Everything here works on exact discrete joint distributions over a finite
feature set X and label set Y, so every divergence, risk and bound can be
evaluated to float precision and each inequality certified by its slack
(bound minus the quantity it dominates; non-negative up to rounding).

Divergences are in nats. Conventions: 0·log 0 = 0; conditionals of zero-mass
labels are excluded from expectations.

The divergence kernels work on stacks: the last axis is the distribution and
any leading axes index independent pairs, so a whole family of pairs costs a
handful of numpy calls. Padding a distribution with zero cells leaves its
divergences unchanged (0·log 0 = 0), which lets pairs of different support
sizes share one stack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import child_rng

Array = np.ndarray

SLACK_TOL = 1e-9

# Largest support drawn by the randomized certification (feature values x
# labels); decomposition pairs are zero-padded to this shape and scored
# PAIR_BLOCK at a time, so memory stays flat however many pairs are drawn.
MAX_NX, MAX_NY = 6, 3
PAIR_BLOCK = 256


class AbsoluteContinuityError(ValueError):
    """KL(P||Q) requested where Q puts zero mass on part of P's support."""


def _as_dists(p, q) -> tuple[Array, Array]:
    """Both arguments as float64 stacks of one shape whose last axis is a
    distribution (a DiscreteJoint is one flattened distribution); every row
    must be non-negative and sum to 1 within 1e-9."""
    pa, qa = (np.asarray(a.p.ravel() if isinstance(a, DiscreteJoint) else a, dtype=np.float64) for a in (p, q))
    if pa.shape != qa.shape:
        raise ValueError(f"support size mismatch: {pa.shape} vs {qa.shape}")
    for arr in (pa, qa):
        if (arr < 0.0).any():
            raise ValueError("negative probability mass")
        sums = arr.sum(axis=-1)
        off = np.abs(sums - 1.0) > 1e-9
        if off.any():
            raise ValueError(f"distribution sums to {float(sums[off][0])!r}, not 1")
    return pa, qa


def _kl_rows(pa: Array, qa: Array) -> Array:
    """KL over the last axis of already validated (broadcastable) stacks."""
    mask = pa > 0.0
    if (mask & (qa == 0.0)).any():
        raise AbsoluteContinuityError("Q is zero on part of P's support")
    ratio = np.ones(mask.shape)
    np.divide(pa, qa, out=ratio, where=mask)
    np.log(ratio, out=ratio)
    ratio *= pa
    return ratio.sum(axis=-1)


def _scalar(values: Array):
    """A Python float for a single pair, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def kl(p, q):
    """Kullback-Leibler divergence (nats) along the last axis of same-shape
    stacks: a float for one pair of distributions, an array for a stack."""
    return _scalar(_kl_rows(*_as_dists(p, q)))


def js(p, q):
    """Jensen-Shannon divergence: 0.5 KL(P||M) + 0.5 KL(Q||M), M the mixture.

    Same stacking as ``kl``. Always finite; 0 iff P = Q; at most ln 2
    (attained on disjoint supports).
    """
    pa, qa = _as_dists(p, q)
    mix = pa + qa  # in place, and no stacked copy of P and Q: certification passes large stacks
    mix *= 0.5
    return _scalar(0.5 * _kl_rows(pa, mix) + 0.5 * _kl_rows(qa, mix))


def _check_joints(p: Array) -> None:
    """Each (nx, ny) joint of a stack is finite, non-negative and sums to 1 ± 1e-12."""
    if not np.isfinite(p).all():
        raise ValueError("non-finite probability mass")
    if (p < 0.0).any():
        raise ValueError("negative probability mass")
    sums = p.reshape(p.shape[:-2] + (-1,)).sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"mass sums to {float(sums[off][0])!r}, not 1")


def _check_losses(classifier: Array, loss: Array) -> None:
    """Stacks of classifier tables (..., nx) and loss matrices (..., ny, ny)."""
    if not np.isfinite(loss).all():
        raise ValueError("loss values must be finite")
    if classifier.min() < 0 or classifier.max() >= loss.shape[-1]:
        raise ValueError("classifier outputs outside the label set")


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact joint distribution p[x, y] over nx feature values and ny labels."""

    p: Array

    def __post_init__(self):
        arr = np.ascontiguousarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", arr)
        if arr.ndim != 2:
            raise ValueError("joint must be an nx × ny matrix")
        _check_joints(arr)

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class MappingFn:
    """Deterministic feature map X -> X as a lookup table."""

    table: Array

    def __post_init__(self):
        t = np.ascontiguousarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", t)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("map table must be a non-empty vector")
        if t.min() < 0 or t.max() >= t.size:
            raise ValueError("map table must be total on X")


def _pushforward(tables: Array, joints: Array) -> Array:
    """Every joint through every map, per environment: (G, k, nx) tables and
    (G, m, nx, ny) joints give (G, k, m, nx, ny). Mass reaches each cell in ascending x."""
    g, k, _ = tables.shape
    out = np.zeros((g, k) + joints.shape[1:])
    env, cand, src = (a[..., None] for a in np.ogrid[:g, :k, : joints.shape[1]])
    np.add.at(out, (env, cand, src, tables[:, :, None]), joints[:, None])
    return out


def apply_map(d: DiscreteJoint, g: MappingFn) -> DiscreteJoint:
    """Pushforward on features, labels untouched: p'[x', y] = sum_{g(x)=x'} p[x, y]."""
    if g.table.size != d.nx:
        raise ValueError(f"map over {g.table.size} points, joint has nx={d.nx}")
    return DiscreteJoint(_pushforward(g.table[None, None], d.p[None, None])[0, 0, 0])


@dataclass(frozen=True)
class DiscreteEnv:
    """Ordered domains (m sources then one target) plus candidate feature maps."""

    domains: tuple[DiscreteJoint, ...]
    candidate_maps: tuple[MappingFn, ...]

    def __post_init__(self):
        if len(self.domains) < 3:
            raise ValueError("need at least two sources and a target")
        nx, ny = self.domains[0].nx, self.domains[0].ny
        for d in self.domains:
            if (d.nx, d.ny) != (nx, ny):
                raise ValueError("all domains must share nx and ny")
        for g in self.candidate_maps:
            if g.table.size != nx:
                raise ValueError(f"candidate map over {g.table.size} points, domains have nx={nx}")

    @property
    def sources(self) -> tuple[DiscreteJoint, ...]:
        return self.domains[:-1]

    @property
    def target(self) -> DiscreteJoint:
        return self.domains[-1]


@dataclass(frozen=True)
class LossSpec:
    """Deterministic classifier table plus a bounded loss matrix loss[pred, true]."""

    classifier: Array  # X -> Y
    loss: Array  # ny × ny

    def __post_init__(self):
        c = np.ascontiguousarray(self.classifier, dtype=np.int64)
        l = np.ascontiguousarray(self.loss, dtype=np.float64)
        object.__setattr__(self, "classifier", c)
        object.__setattr__(self, "loss", l)
        if l.ndim != 2 or l.shape[0] != l.shape[1]:
            raise ValueError("loss must be a square ny × ny matrix")
        _check_losses(c, l)

    @property
    def g_range(self) -> float:
        return float(self.loss.max() - self.loss.min())


def _risks(classifier: Array, loss: Array, joints: Array) -> Array:
    """Stacked risks: classifiers (..., nx), losses (..., ny, ny), joints (..., nx, ny)."""
    return (joints * np.take_along_axis(loss, classifier[..., None], axis=-2)).sum(axis=(-2, -1))


def risk(h_spec: LossSpec, d: DiscreteJoint) -> float:
    """Expected loss of the classifier under the joint: sum p[x,y] loss[h(x), y]."""
    if h_spec.classifier.size != d.nx:
        raise ValueError("classifier not total on X")
    return float(_risks(h_spec.classifier, h_spec.loss, d.p))


# ---------------------------------------------------------------------------
# Consistency of a drift map over an environment
# ---------------------------------------------------------------------------


def consistency_gap(divergences: Array) -> float:
    """Largest pairwise gap between per-pair divergences."""
    d = np.asarray(divergences, dtype=np.float64)
    return float(d.max() - d.min()) if d.size else 0.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Minimax drift map with its per-pair source divergences and their gap,
    every source pushed through it and d_JS(g(D_m) || D_t)."""

    map: MappingFn
    divergences: tuple[float, ...]
    gap: float  # max pairwise spread over source pairs (the observable gap)
    pushed: Array  # (m, nx, ny): g(D_1), ..., g(D_m)
    target_divergence: float

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError("gap must be non-negative")

    @property
    def synthetic(self) -> DiscreteJoint:
        """The synthetic target g(D_m)."""
        return DiscreteJoint(self.pushed[-1])

    @property
    def gap_full(self) -> float:
        """Pairwise-divergence gap including the (unobservable) target pair."""
        return consistency_gap(np.append(np.asarray(self.divergences), self.target_divergence))


def _minimax(tables: Array, doms: Array) -> tuple[Array, Array, Array]:
    """Tables (G, k, nx) and domains (G, m + 1, nx, ny) give every source through every map (G, k, m, nx, ny),
    divs d_JS(g_k(D_j) || D_{j+1}) (G, k, m), the last column against the target, and the map minimizing
    the worst source pair, the first of any tied."""
    pushed = _pushforward(tables, doms[:, :-1])
    flat = pushed.reshape(pushed.shape[:3] + (-1,))
    divs = js(flat, np.broadcast_to(doms[:, None, 1:].reshape(flat.shape[:1] + (1,) + flat.shape[2:]), flat.shape))
    return pushed, divs, np.argmin(divs[..., :-1].max(axis=-1), axis=-1)


def find_minimax_map(env: DiscreteEnv) -> ConsistencyReport:
    """Candidate map minimizing the worst consecutive-pair source divergence.

    Ties break toward the earliest candidate. The report also carries the
    chosen map's image of every source and the divergence of the synthetic
    target from the real one; the selection and the reported gap cover
    source pairs only.
    """
    if not env.candidate_maps:
        raise ValueError("candidate map family is empty")
    tables, doms = np.stack([g.table for g in env.candidate_maps]), np.stack([d.p for d in env.domains])
    pushed, divs, best = _minimax(tables[None], doms[None])
    best = int(best[0])
    src_divs = divs[0, best, :-1]
    return ConsistencyReport(
        map=env.candidate_maps[best],
        divergences=tuple(float(v) for v in src_divs),
        gap=consistency_gap(src_divs),
        pushed=pushed[0, best],
        target_divergence=float(divs[0, best, -1]),
    )


# ---------------------------------------------------------------------------
# Bound verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlackReport:
    name: str
    bound: float
    target_risk: float
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.bound - self.target_risk

    def to_dict(self) -> dict:
        out = {"name": self.name, "bound": self.bound, "target_risk": self.target_risk, "slack": self.slack}
        return {**out, **self.details}


def transfer_penalty(g_range, divergence):
    """Worst extra risk a G-range loss can pick up across a JS gap: sqrt(2)·G·sqrt(d).

    The change-of-measure route (sub-Gaussian parameter G/2, optimized
    tilting) gives exactly this constant, and no smaller one works: disjoint
    supports with a 0-1 loss realize a risk gap of G at d = ln 2.
    """
    return _scalar(np.sqrt(2.0) * g_range * np.sqrt(np.maximum(divergence, 0.0)))


def _sequential_bound(synthetic_risk, g_range, divs: Array, decomposed=None):
    """divs (..., m): source-pair divergences, then the target pair's. As d_t <= mean(d_i) + gap and
    sqrt(a+b) <= sqrt(a)+sqrt(b), the penalty gives sqrt(2/(m-1))·G·(sqrt(sum d_i) + sqrt((m-1)·gap));
    the relaxation splits sqrt(sum d_i) over the three ``decomposed`` term sums."""
    m = divs.shape[-1]
    gap_term = np.sqrt((m - 1) * (divs.max(axis=-1) - divs.min(axis=-1)))
    if decomposed is None:
        terms = np.sqrt(divs[..., :-1].sum(axis=-1)) + gap_term
    else:
        t1, t2, t3 = (np.sqrt(t.sum(axis=-1)) for t in decomposed)
        terms = t1 + gap_term + t2 + t3
    return synthetic_risk + g_range * np.sqrt(2.0 / (m - 1)) * terms


def verify_synthetic_transfer_bound(env: DiscreteEnv, g: MappingFn, h_spec: LossSpec) -> SlackReport:
    """Single-pair bound: risk on the real target is at most the risk on the
    synthetic target g(D_m) plus the JS transfer penalty of their gap."""
    synthetic = apply_map(env.sources[-1], g)
    div = js(synthetic, env.target)
    bound = risk(h_spec, synthetic) + transfer_penalty(h_spec.g_range, div)
    return SlackReport("synthetic_transfer", float(bound), risk(h_spec, env.target), {"target_pair_js": float(div)})


def sequential_bound_value(env: DiscreteEnv, report: ConsistencyReport, h_spec: LossSpec) -> float:
    """Multi-domain bound value: synthetic-target risk plus the averaged
    source-divergence term and the consistency-gap term."""
    divs = np.append(report.divergences, report.target_divergence)
    return float(_sequential_bound(risk(h_spec, report.synthetic), h_spec.g_range, divs))


def verify_sequential_transfer_bound(env: DiscreteEnv, report: ConsistencyReport, h_spec: LossSpec) -> SlackReport:
    """Bound the target risk using only consecutive-pair source divergences
    plus the pairwise gap. Uses the gap including the target pair, so its
    premise holds by construction and the slack must be non-negative."""
    bound = sequential_bound_value(env, report, h_spec)
    details = {"gap_source": report.gap, "gap_full": report.gap_full}
    return SlackReport("sequential_transfer", bound, risk(h_spec, env.target), details)


def js_decomposition_gap(p, q):
    """RHS minus LHS of the joint-JS decomposition into a label-marginal term
    plus both label-weighted conditional expectations. Non-negative.

    Takes two joints, or two same-shape stacks of joint matrices (..., nx, ny)
    (zero padding is exact), and returns a float or an array of gaps.
    """
    pa, qa = (np.asarray(a.p if isinstance(a, DiscreteJoint) else a, dtype=np.float64) for a in (p, q))
    if pa.shape != qa.shape:
        raise ValueError("joints must share support")
    t1, t2, t3 = _decomposed_rows(pa, qa)
    flat = pa.shape[:-2] + (-1,)
    return _scalar(t1 + t2 + t3 - js(pa.reshape(flat), qa.reshape(flat)))


def _decomposed_rows(p: Array, q: Array) -> tuple[Array, Array, Array]:
    """The three decomposition terms for stacks of joint matrices (..., nx, ny).

    The x|y conditional JS of a label with zero mass on either side counts as
    0: the matching chain-rule term is exactly 0 there, so the decomposition
    inequality survives the exclusion. Such labels get one point mass on both
    sides, whose JS is exactly 0, so all conditionals go through one ``js``.
    """
    py, qy = p.sum(axis=-2), q.sum(axis=-2)
    live = ((py > 0.0) & (qy > 0.0))[..., None]
    point = np.eye(p.shape[-2])[0]
    pc, qc = (
        np.where(live, np.swapaxes(a, -1, -2) / np.where(live, ay[..., None], 1.0), point)
        for a, ay in ((p, py), (q, qy))
    )
    cond = js(pc, qc)
    t2 = np.where(py > 0.0, py * cond, 0.0).sum(axis=-1)
    t3 = np.where(qy > 0.0, qy * cond, 0.0).sum(axis=-1)
    return js(py, qy), t2, t3


def verify_decomposed_transfer_bound(env: DiscreteEnv, report: ConsistencyReport, h_spec: LossSpec) -> SlackReport:
    """Relaxation of the sequential bound: each pair divergence is replaced by
    its label-marginal + conditional decomposition. Checks both that the bound
    dominates the target risk and that it dominates the tighter bound."""
    src = np.stack([d.p for d in env.sources])
    t1s, t2s, t3s = _decomposed_rows(report.pushed[:-1], src[1:])
    divs = np.append(report.divergences, report.target_divergence)
    bound = float(_sequential_bound(risk(h_spec, report.synthetic), h_spec.g_range, divs, (t1s, t2s, t3s)))
    tighter = sequential_bound_value(env, report, h_spec)
    details = {"label_terms": [float(v) for v in t1s], "tighter_bound": tighter, "relaxation_margin": bound - tighter}
    return SlackReport("decomposed_transfer", bound, risk(h_spec, env.target), details)


def verify_change_of_measure(p, q, f, lam):
    """Slack of the change-of-measure inequality
    lam (E_Q f - E_P f) <= KL(Q||P) + log E_P exp(lam (f - E_P f)).

    Returns the right side minus the left side (non-negative). The slack is
    invariant to adding constants to f; it vanishes at f = (1/lam) log(q/p)
    when P and Q are mutually absolutely continuous. Stacks (..., s) take lam (...).
    """
    pa, qa = _as_dists(p, q)
    fa, lam = np.asarray(f, dtype=np.float64), np.asarray(lam, dtype=np.float64)
    if pa.ndim == 0 or fa.shape != pa.shape or lam.shape != pa.shape[:-1]:
        raise ValueError("P, Q and f must share one support")
    div = kl(qa, pa)  # raises if Q is not absolutely continuous w.r.t. P
    ep_f = (pa[..., None, :] @ fa[..., :, None])[..., 0, 0]
    centered = np.where(pa > 0, lam[..., None] * (fa - ep_f[..., None]), -np.inf)
    shift = centered.max(axis=-1)
    log_mgf = shift + np.log((pa * np.exp(centered - shift[..., None])).sum(axis=-1))
    lhs = lam * ((qa[..., None, :] @ fa[..., :, None])[..., 0, 0] - ep_f)
    return _scalar(div + log_mgf - lhs)


def attainment_function(p, q, lam) -> Array:
    """The f that makes the change-of-measure inequality tight (up to an
    additive constant): (1/lam) log(q/p). Needs mutual absolute continuity."""
    pa, qa = _as_dists(p, q)
    if np.any(pa == 0.0) or np.any(qa == 0.0):
        raise AbsoluteContinuityError("attainment case needs strictly positive P and Q")
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam == 0.0):
        raise ValueError("lam must be nonzero")
    return np.log(qa / pa) / lam[..., None]


# ---------------------------------------------------------------------------
# Environment (de)serialization
# ---------------------------------------------------------------------------


def env_from_dict(payload: dict) -> DiscreteEnv:
    if type(payload["domains"]) is not list or type(payload["candidate_maps"]) is not list:
        raise ValueError("domains and candidate_maps must be lists")
    domains = tuple(DiscreteJoint(np.asarray(p, dtype=np.float64)) for p in payload["domains"])
    for t in payload["candidate_maps"]:  # 0.9 or true would be cast to a feature value
        if type(t) is not list or any(type(v) is not int or not 0 <= v < len(t) for v in t):
            raise ValueError(f"map table {t!r} must be a list of integers in [0, nx)")
    maps = tuple(MappingFn(np.asarray(t, dtype=np.int64)) for t in payload["candidate_maps"])
    if not maps:
        raise ValueError("candidate map family is empty")
    env = DiscreteEnv(domains=domains, candidate_maps=maps)
    if (env.domains[0].nx, env.domains[0].ny) != (payload["nx"], payload["ny"]):
        raise ValueError("declared nx/ny do not match the domain matrices")
    return env


def certify_env(env: DiscreteEnv) -> list[SlackReport]:
    """All three transfer-bound slacks for one concrete environment, probed
    with the target-optimal classifier under 0-1 loss."""
    h_spec = LossSpec(classifier=np.argmax(env.target.p, axis=1), loss=1.0 - np.eye(env.target.ny))
    report = find_minimax_map(env)
    return [
        verify_synthetic_transfer_bound(env, report.map, h_spec),
        verify_sequential_transfer_bound(env, report, h_spec),
        verify_decomposed_transfer_bound(env, report, h_spec),
    ]


# ---------------------------------------------------------------------------
# Randomized certification
# ---------------------------------------------------------------------------


@dataclass
class CertificationResult:
    name: str
    instances: int
    min_slack: float
    max_abs_attainment: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok = self.min_slack >= -SLACK_TOL
        if self.max_abs_attainment is not None:
            ok = ok and self.max_abs_attainment <= SLACK_TOL
        return ok

    def to_dict(self) -> dict:
        out = {"name": self.name, "instances": self.instances, "min_slack": self.min_slack, "passed": self.passed}
        out.update(self.extras)
        if self.max_abs_attainment is not None:
            out["max_abs_attainment"] = self.max_abs_attainment
        return out


def _joints(cells: Array, mask: Array) -> Array:
    """Joints from uniform cells (..., nx, ny), zeroed where the mask draw is
    below 0.15; a joint left all zero becomes a point mass on (0, 0)."""
    cells = np.where(mask < 0.15, 0.0, cells)
    flat = cells.reshape(cells.shape[:-2] + (-1,))
    flat[flat.sum(axis=-1) == 0.0, 0] = 1.0
    joints = cells / flat.sum(axis=-1)[..., None, None]
    _check_joints(joints)
    return joints


def _score_envs(raw: Array, tables: tuple[Array, ...], classifier: Array, loss: Array) -> dict[str, Array]:
    """Chosen map and transfer-bound slacks of G environments of one shape from domain draws
    (G, m + 1, 2, nx, ny), map families, classifiers and losses; the single-pair bound uses map 0."""
    joints = _joints(raw[:, :, 0], raw[:, :, 1])
    # Families padded by repeating their first map, which cannot win: argmin gives ties to the first.
    counts = np.array([len(t) for t in tables])
    first = (np.cumsum(counts) - counts)[:, None]
    k = np.arange(counts.max())
    tables = np.concatenate(tables)[np.where(k < counts[:, None], first + k, first)]
    if tables.min() < 0 or tables.max() >= joints.shape[-2]:
        raise ValueError("map table must be total on X")
    _check_losses(classifier, loss)
    pushed, divs, best = _minimax(tables, joints)
    chosen, chosen_divs = (a[np.arange(len(best)), best] for a in (pushed, divs))
    # Risks on the first and on the chosen map's g(D_m), and on the target.
    on = np.stack((pushed[:, 0, -1], chosen[:, -1], joints[:, -1]), axis=1)
    first_risk, synthetic_risk, target_risk = _risks(classifier[:, None], loss[:, None], on).T
    g_range = loss.max(axis=(1, 2)) - loss.min(axis=(1, 2))
    tighter = _sequential_bound(synthetic_risk, g_range, chosen_divs)
    bound = _sequential_bound(synthetic_risk, g_range, chosen_divs, _decomposed_rows(chosen[:, :-1], joints[:, 1:-1]))
    single = first_risk + transfer_penalty(g_range, divs[:, 0, -1])
    return {"map": best, "synthetic_transfer": single - target_risk, "sequential_transfer": tighter - target_risk,
            "decomposed_transfer": bound - target_risk, "relaxation_margin": bound - tighter}


def _instance_rows(seed: int, indices: range):
    """Each instance draws from its own stream an environment, a loss spec and a change-of-measure
    case on s points; environments of one (nx, ny, m), and cases of one s, are scored as one
    stack. Yields each group's instance indices and per-instance quantities."""
    envs, cases = {}, {}
    for i in indices:
        rng = child_rng(seed, "cert", i)
        nx, ny = int(rng.integers(2, MAX_NX + 1)), int(rng.integers(2, MAX_NY + 1))
        m, n_maps = int(rng.integers(2, 5)), int(rng.integers(1, 17))
        # Each domain's cells, then its mask; the maps; the classifier; the loss.
        envs.setdefault((nx, ny, m), []).append((
            i, rng.random((m + 1, 2, nx, ny)), rng.integers(0, nx, size=(n_maps, nx)), rng.integers(0, ny, size=nx),
            1.0 - np.eye(ny) if rng.random() < 0.5 else rng.random((ny, ny)) * float(rng.uniform(0.5, 3.0)),
        ))
        size = int(rng.integers(2, 9))
        cases.setdefault(size, []).append((
            i, rng.random((2, size)) + 0.05, rng.normal(size=size) * 2.0,
            float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0),
        ))
    for group in envs.values():
        index, raw, tables, classifier, loss = zip(*group)
        yield np.array(index), _score_envs(np.array(raw), tables, np.array(classifier), np.array(loss))
    for group in cases.values():
        index, pq, f, lam = zip(*group)
        pq = np.stack(pq, axis=1)  # P then Q, each (G, s)
        pq /= pq.sum(axis=-1, keepdims=True)
        (p, q), f, lam = pq, np.array(f), np.array(lam)
        attained = verify_change_of_measure(p, q, attainment_function(p, q, lam), lam)
        slacks = verify_change_of_measure(p, q, f, lam)
        yield np.array(index), {"change_of_measure": slacks, "attainment_abs": np.abs(attained)}


def _pair_block(seed: int, indices: range) -> Array:
    """The random joint pairs ``indices`` of the decomposition check as one zero-padded
    (2, len(indices), MAX_NX, MAX_NY) stack; the pairs of one shape are normalized together."""
    rows, draws = {}, {}
    for row, i in enumerate(indices):
        rng = child_rng(seed, "jsdec", i)
        shape = int(rng.integers(2, MAX_NX + 1)), int(rng.integers(2, MAX_NY + 1))
        rows.setdefault(shape, []).append(row)
        draws.setdefault(shape, []).append(rng.random((2, 2) + shape))  # each joint's cells, then its mask
    out = np.zeros((2, len(indices), MAX_NX, MAX_NY))
    for (nx, ny), raw in draws.items():
        raw = np.array(raw)
        out[:, rows[nx, ny], :nx, :ny] = np.swapaxes(_joints(raw[:, :, 0], raw[:, :, 1]), 0, 1)
    return out


def run_certification(
    instances: int = 1000, decomposition_pairs: int = 10000, seed: int = 0, workers: int = 1
) -> list[CertificationResult]:
    """Randomized certification of every inequality, deterministic per seed.

    Instances and decomposition pairs are drawn and scored PAIR_BLOCK at a
    time. ``workers`` must be 1; it is kept for ``perfbench/workloads.py``
    and goes when the benchmark drops it.
    """
    if workers != 1:
        raise ValueError(f"certification runs serially; workers must be 1, got {workers!r}")
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if decomposition_pairs < 1:
        raise ValueError(f"decomposition_pairs must be at least 1, got {decomposition_pairs}")
    names = "synthetic_transfer", "sequential_transfer", "decomposed_transfer", "relaxation_margin", "change_of_measure"
    low, attainment = dict.fromkeys(names, np.inf), 0.0
    for lo in range(0, instances, PAIR_BLOCK):
        for _, values in _instance_rows(seed, range(lo, min(lo + PAIR_BLOCK, instances))):
            for key in values.keys() & low.keys():
                low[key] = min(low[key], float(values[key].min()))
            if "attainment_abs" in values:
                attainment = max(attainment, float(values["attainment_abs"].max()))
    min_gap = min(
        float(js_decomposition_gap(*_pair_block(seed, range(lo, min(lo + PAIR_BLOCK, decomposition_pairs)))).min())
        for lo in range(0, decomposition_pairs, PAIR_BLOCK)
    )
    return [
        CertificationResult("synthetic_transfer", instances, low["synthetic_transfer"]),
        CertificationResult("sequential_transfer", instances, low["sequential_transfer"]),
        CertificationResult(
            "decomposed_transfer", instances, low["decomposed_transfer"],
            extras={"min_relaxation_margin": low["relaxation_margin"]},
        ),
        CertificationResult("change_of_measure", instances, low["change_of_measure"], max_abs_attainment=attainment),
        CertificationResult("js_decomposition", decomposition_pairs, min_gap),
    ]
