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
    return (pa * np.log(ratio)).sum(axis=-1)


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
    both = _kl_rows(np.stack((pa, qa)), 0.5 * (pa + qa))
    return _scalar(0.5 * both[0] + 0.5 * both[1])


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact joint distribution p[x, y] over nx feature values and ny labels."""

    p: Array

    def __post_init__(self):
        arr = np.ascontiguousarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", arr)
        if arr.ndim != 2:
            raise ValueError("joint must be an nx × ny matrix")
        if (arr < 0.0).any():
            raise ValueError("negative probability mass")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {arr.sum()!r}, not 1")

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
    """Every joint pushed through every map: (k, nx) tables and (m, nx, ny)
    joints give (k, m, nx, ny). Mass reaches each cell in ascending x."""
    k, m, nx = len(tables), len(joints), joints.shape[1]
    out = np.zeros((k,) + joints.shape)
    index = (np.arange(k).reshape(k, 1, 1), np.arange(m).reshape(1, m, 1), tables.reshape(k, 1, nx))
    np.add.at(out, index, joints)
    return out


def apply_map(d: DiscreteJoint, g: MappingFn) -> DiscreteJoint:
    """Pushforward on features, labels untouched: p'[x', y] = sum_{g(x)=x'} p[x, y]."""
    if g.table.size != d.nx:
        raise ValueError(f"map over {g.table.size} points, joint has nx={d.nx}")
    return DiscreteJoint(_pushforward(g.table[None], d.p[None])[0, 0])


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
    def num_sources(self) -> int:
        return len(self.domains) - 1

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
        if not np.all(np.isfinite(l)):
            raise ValueError("loss values must be finite")
        if c.min() < 0 or c.max() >= l.shape[0]:
            raise ValueError("classifier outputs outside the label set")

    @property
    def g_range(self) -> float:
        return float(self.loss.max() - self.loss.min())


def risk(h_spec: LossSpec, d: DiscreteJoint) -> float:
    """Expected loss of the classifier under the joint: sum p[x,y] loss[h(x), y]."""
    if h_spec.classifier.size != d.nx:
        raise ValueError("classifier not total on X")
    return float(np.sum(d.p * h_spec.loss[h_spec.classifier, :]))


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


def find_minimax_map(env: DiscreteEnv) -> ConsistencyReport:
    """Candidate map minimizing the worst consecutive-pair source divergence.

    Ties break toward the earliest candidate. Every source, the last one
    too, goes through every map in one pass, so the report also carries the
    chosen map's image of every source and the divergence of the synthetic
    target from the real one; the selection and the reported gap cover
    source pairs only.
    """
    if not env.candidate_maps:
        raise ValueError("candidate map family is empty")
    doms = np.stack([d.p for d in env.domains])
    pushed = _pushforward(np.stack([g.table for g in env.candidate_maps]), doms[:-1])
    # divs[k, j] = d_JS(g_k(D_j) || D_{j+1}) for every map and consecutive
    # pair; the last column pairs g_k(D_m) with the target.
    flat = pushed.reshape(pushed.shape[:2] + (-1,))
    divs = js(flat, np.broadcast_to(doms[1:].reshape(len(doms) - 1, -1), flat.shape))
    best = int(np.argmin(divs[:, :-1].max(axis=1)))  # the first of any tied maps
    src_divs = divs[best, :-1]
    return ConsistencyReport(
        map=env.candidate_maps[best],
        divergences=tuple(float(v) for v in src_divs),
        gap=consistency_gap(src_divs),
        pushed=pushed[best],
        target_divergence=float(divs[best, -1]),
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


def transfer_penalty(g_range: float, divergence: float) -> float:
    """Worst extra risk a G-range loss can pick up across a JS gap: sqrt(2)·G·sqrt(d).

    The change-of-measure route (sub-Gaussian parameter G/2, optimized
    tilting) gives exactly this constant, and no smaller one works: disjoint
    supports with a 0-1 loss realize a risk gap of G at d = ln 2.
    """
    return float(np.sqrt(2.0) * g_range * np.sqrt(max(divergence, 0.0)))


def verify_synthetic_transfer_bound(env: DiscreteEnv, g: MappingFn, h_spec: LossSpec) -> SlackReport:
    """Single-pair bound: risk on the real target is at most the risk on the
    synthetic target g(D_m) plus the JS transfer penalty of their gap."""
    synthetic = apply_map(env.sources[-1], g)
    div = js(synthetic, env.target)
    bound = risk(h_spec, synthetic) + transfer_penalty(h_spec.g_range, div)
    return SlackReport("synthetic_transfer", float(bound), risk(h_spec, env.target), {"target_pair_js": float(div)})


def sequential_bound_value(env: DiscreteEnv, report: ConsistencyReport, h_spec: LossSpec) -> float:
    """Multi-domain bound value: synthetic-target risk plus the averaged
    source-divergence term and the consistency-gap term.

    The target-pair divergence is at most mean(source divergences) + gap, and
    sqrt(a+b) <= sqrt(a)+sqrt(b), so with the transfer penalty this yields the
    coefficient sqrt(2/(m-1))·G on (sqrt(sum d_i) + sqrt((m-1)·gap)).
    """
    m = env.num_sources
    divs = np.asarray(report.divergences)
    coeff = h_spec.g_range * np.sqrt(2.0 / (m - 1))
    return float(risk(h_spec, report.synthetic) + coeff * (np.sqrt(divs.sum()) + np.sqrt((m - 1) * report.gap_full)))


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
    m = env.num_sources
    src = np.stack([d.p for d in env.sources])
    t1s, t2s, t3s = _decomposed_rows(report.pushed[:-1], src[1:])
    coeff = h_spec.g_range * np.sqrt(2.0 / (m - 1))
    terms = np.sqrt(np.sum(t1s)) + np.sqrt((m - 1) * report.gap_full) + np.sqrt(np.sum(t2s)) + np.sqrt(np.sum(t3s))
    bound = float(risk(h_spec, report.synthetic) + coeff * terms)
    tighter = sequential_bound_value(env, report, h_spec)
    details = {"label_terms": [float(v) for v in t1s], "tighter_bound": tighter, "relaxation_margin": bound - tighter}
    return SlackReport("decomposed_transfer", bound, risk(h_spec, env.target), details)


def verify_change_of_measure(p, q, f: Array, lam: float) -> float:
    """Slack of the change-of-measure inequality
    lam (E_Q f - E_P f) <= KL(Q||P) + log E_P exp(lam (f - E_P f)).

    Returns the right side minus the left side (non-negative). The slack is
    invariant to adding constants to f; it vanishes at f = (1/lam) log(q/p)
    when P and Q are mutually absolutely continuous.
    """
    pa, qa = _as_dists(p, q)
    fa = np.asarray(f, dtype=np.float64).ravel()
    if pa.ndim != 1 or fa.shape != pa.shape:
        raise ValueError("P, Q and f must share one support")
    div = kl(qa, pa)  # raises if Q is not absolutely continuous w.r.t. P
    ep_f = float(pa @ fa)
    centered = lam * (fa - ep_f)
    support = pa > 0
    shift = centered[support].max()
    log_mgf = shift + np.log(np.sum(pa[support] * np.exp(centered[support] - shift)))
    lhs = lam * (float(qa @ fa) - ep_f)
    return float(div + log_mgf - lhs)


def attainment_function(p, q, lam: float) -> Array:
    """The f that makes the change-of-measure inequality tight (up to an
    additive constant): (1/lam) log(q/p). Needs mutual absolute continuity."""
    pa, qa = _as_dists(p, q)
    if np.any(pa == 0.0) or np.any(qa == 0.0):
        raise AbsoluteContinuityError("attainment case needs strictly positive P and Q")
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    return np.log(qa / pa) / lam


# ---------------------------------------------------------------------------
# Environment (de)serialization
# ---------------------------------------------------------------------------


def env_from_dict(payload: dict) -> DiscreteEnv:
    domains = tuple(DiscreteJoint(np.asarray(p, dtype=np.float64)) for p in payload["domains"])
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


def random_joint(rng: np.random.Generator, nx: int, ny: int, strictly_positive: bool = False) -> DiscreteJoint:
    raw = rng.random((nx, ny))
    if strictly_positive:
        raw += 0.05
    else:
        raw[rng.random((nx, ny)) < 0.15] = 0.0
        if raw.sum() == 0.0:
            raw[0, 0] = 1.0
    return DiscreteJoint(raw / raw.sum())


def random_map(rng: np.random.Generator, nx: int) -> MappingFn:
    return MappingFn(rng.integers(0, nx, size=nx))


def random_loss_spec(rng: np.random.Generator, nx: int, ny: int) -> LossSpec:
    classifier = rng.integers(0, ny, size=nx)
    if rng.random() < 0.5:
        loss = 1.0 - np.eye(ny)
    else:
        loss = rng.random((ny, ny)) * float(rng.uniform(0.5, 3.0))
    return LossSpec(classifier=classifier, loss=loss)


def random_env(rng: np.random.Generator, nx: int, ny: int, m_sources: int, n_maps: int) -> DiscreteEnv:
    domains = tuple(random_joint(rng, nx, ny) for _ in range(m_sources + 1))
    maps = tuple(random_map(rng, nx) for _ in range(n_maps))
    return DiscreteEnv(domains=domains, candidate_maps=maps)


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


def _instance_slacks(seed: int, index: int) -> dict:
    """All per-instance certification quantities for one random draw."""
    rng = child_rng(seed, "cert", index)
    nx = int(rng.integers(2, MAX_NX + 1))
    ny = int(rng.integers(2, MAX_NY + 1))
    m_sources = int(rng.integers(2, 5))
    env = random_env(rng, nx, ny, m_sources, n_maps=int(rng.integers(1, 17)))
    h_spec = random_loss_spec(rng, nx, ny)
    g = env.candidate_maps[0]
    report = find_minimax_map(env)
    single = verify_synthetic_transfer_bound(env, g, h_spec)
    seq = verify_sequential_transfer_bound(env, report, h_spec)
    dec = verify_decomposed_transfer_bound(env, report, h_spec)

    # Change of measure over strictly positive distributions on a flat support.
    size = int(rng.integers(2, 9))
    pv = rng.random(size) + 0.05
    pv /= pv.sum()
    qv = rng.random(size) + 0.05
    qv /= qv.sum()
    fv = rng.normal(size=size) * 2.0
    lam = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    com = verify_change_of_measure(pv, qv, fv, lam)
    attain = verify_change_of_measure(pv, qv, attainment_function(pv, qv, lam), lam)
    return {
        "synthetic_transfer": single.slack,
        "sequential_transfer": seq.slack,
        "decomposed_transfer": dec.slack,
        "relaxation_margin": dec.details["relaxation_margin"],
        "change_of_measure": com,
        "attainment_abs": abs(attain),
    }


def _random_pairs(seed: int, indices: range) -> Array:
    """The random joint pairs ``indices`` of the decomposition check as one
    (2, len(indices), MAX_NX, MAX_NY) stack, zero-padded."""
    joints = np.zeros((2, len(indices), MAX_NX, MAX_NY))
    for row, i in enumerate(indices):
        rng = child_rng(seed, "jsdec", i)
        nx = int(rng.integers(2, MAX_NX + 1))
        ny = int(rng.integers(2, MAX_NY + 1))
        joints[0, row, :nx, :ny] = random_joint(rng, nx, ny).p
        joints[1, row, :nx, :ny] = random_joint(rng, nx, ny).p
    return joints


def run_certification(
    instances: int = 1000, decomposition_pairs: int = 10000, seed: int = 0, workers: int = 1
) -> list[CertificationResult]:
    """Randomized certification of every inequality, deterministic per seed.

    Each instance is scored with a few stacked divergence calls; decomposition
    pairs are scored PAIR_BLOCK at a time. ``workers`` must be 1; it is kept
    for ``perfbench/workloads.py`` and goes when the benchmark drops it.
    """
    if workers != 1:
        raise ValueError(f"certification runs serially; workers must be 1, got {workers!r}")
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if decomposition_pairs < 1:
        raise ValueError(f"decomposition_pairs must be at least 1, got {decomposition_pairs}")
    rows = [_instance_slacks(seed, i) for i in range(instances)]

    def collect(key: str) -> float:
        return float(min(row[key] for row in rows))

    min_gap = min(
        float(js_decomposition_gap(*_random_pairs(seed, range(lo, min(lo + PAIR_BLOCK, decomposition_pairs)))).min())
        for lo in range(0, decomposition_pairs, PAIR_BLOCK)
    )
    return [
        CertificationResult("synthetic_transfer", instances, collect("synthetic_transfer")),
        CertificationResult("sequential_transfer", instances, collect("sequential_transfer")),
        CertificationResult(
            "decomposed_transfer", instances, collect("decomposed_transfer"),
            extras={"min_relaxation_margin": collect("relaxation_margin")},
        ),
        CertificationResult(
            "change_of_measure", instances, collect("change_of_measure"),
            max_abs_attainment=float(max(row["attainment_abs"] for row in rows)),
        ),
        CertificationResult("js_decomposition", decomposition_pairs, min_gap),
    ]
