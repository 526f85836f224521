"""The stacked divergence kernels of ``edglab.bounds`` against a frozen copy of
the scalar code they replaced, plus their stacking properties and a memory
guard on the blocked certification.

The oracle below is the earlier per-pair path: every ``kl``/``js`` call
validates one flattened distribution, the minimax map is found by pushing the
sources through one candidate at a time, and the decomposition computes one
conditional JS per label. The stacked kernels sum the same terms with zero
padding in between, so results may differ from the oracle in the last bits
only; the comparisons use 1e-12.
"""
import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import bounds
from edglab.bounds import DiscreteJoint, LossSpec
from edglab.seeding import child_rng

# Criterion 7's master seed (also the benchmark's), and verify-bounds' default.
SEEDS = (2024, 0)
TOL = 1e-12

# ---------------------------------------------------------------------------
# Frozen oracle: the scalar laboratory, kept only here
# ---------------------------------------------------------------------------


def _as_dist(p):
    arr = np.asarray(p.p if isinstance(p, DiscreteJoint) else p, dtype=np.float64).ravel()
    if np.any(arr < 0.0):
        raise ValueError("negative probability mass")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {arr.sum()!r}, not 1")
    return arr


def kl(p, q):
    pa, qa = _as_dist(p), _as_dist(q)
    if pa.shape != qa.shape:
        raise ValueError(f"support size mismatch: {pa.shape} vs {qa.shape}")
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        raise bounds.AbsoluteContinuityError("Q is zero on part of P's support")
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def js(p, q):
    pa, qa = _as_dist(p), _as_dist(q)
    if pa.shape != qa.shape:
        raise ValueError(f"support size mismatch: {pa.shape} vs {qa.shape}")
    m = 0.5 * (pa + qa)
    return 0.5 * kl(pa, m) + 0.5 * kl(qa, m)


def apply_map(d, g):
    out = np.zeros_like(d.p)
    np.add.at(out, g.table, d.p)
    return DiscreteJoint(out)


def find_minimax_map(env):
    """(index of the chosen candidate, its source-pair divergences)."""
    src = env.sources
    best = None
    for k, g in enumerate(env.candidate_maps):
        divs = np.array([js(apply_map(src[j - 1], g), src[j]) for j in range(1, len(src))])
        if best is None or divs.max() < best[0]:
            best = (divs.max(), k, divs)
    return best[1], best[2]


def gap_with_target(env, g, divs):
    all_divs = np.append(divs, js(apply_map(env.sources[-1], g), env.target))
    return float(all_divs.max() - all_divs.min())


def sequential_bound_value(env, g, divs, h_spec, gap_full):
    m = env.num_sources
    synthetic = apply_map(env.sources[-1], g)
    coeff = h_spec.g_range * np.sqrt(2.0 / (m - 1))
    return float(bounds.risk(h_spec, synthetic) + coeff * (np.sqrt(divs.sum()) + np.sqrt((m - 1) * gap_full)))


def _conditional_js(p, q, y):
    pmass, qmass = p.p[:, y].sum(), q.p[:, y].sum()
    if pmass <= 0.0 or qmass <= 0.0:
        return 0.0
    return js(p.p[:, y] / pmass, q.p[:, y] / qmass)


def decomposed_terms(p, q):
    py, qy = p.p.sum(axis=0), q.p.sum(axis=0)
    cond = [_conditional_js(p, q, y) for y in range(p.ny)]
    t2 = sum(py[y] * cond[y] for y in range(p.ny) if py[y] > 0)
    t3 = sum(qy[y] * cond[y] for y in range(p.ny) if qy[y] > 0)
    return float(js(py, qy)), float(t2), float(t3)


def env_to_dict(env):
    """The ``--env-json`` form ``bounds.env_from_dict`` reads: support sizes,
    per-domain probability matrices and map tables."""
    return {
        "nx": env.domains[0].nx,
        "ny": env.domains[0].ny,
        "domains": [d.p.tolist() for d in env.domains],
        "candidate_maps": [g.table.tolist() for g in env.candidate_maps],
    }


def js_decomposition_gap(p, q):
    return float(sum(decomposed_terms(p, q)) - js(p, q))


def verify_all(env, h_spec, g0=None):
    """(chosen map index, {quantity: value}) for the three transfer bounds,
    the single-pair one taken under ``g0`` (default: the chosen map)."""
    k, divs = find_minimax_map(env)
    g = env.candidate_maps[k]
    g0 = g if g0 is None else g0
    target_risk = bounds.risk(h_spec, env.target)
    synthetic0 = apply_map(env.sources[-1], g0)
    single = (
        bounds.risk(h_spec, synthetic0)
        + bounds.transfer_penalty(h_spec.g_range, js(synthetic0, env.target))
        - target_risk
    )
    gap_full = gap_with_target(env, g, divs)
    tighter = sequential_bound_value(env, g, divs, h_spec, gap_full)
    src, m = env.sources, env.num_sources
    terms = [decomposed_terms(apply_map(src[j - 1], g), src[j]) for j in range(1, len(src))]
    t1s, t2s, t3s = zip(*terms)
    coeff = h_spec.g_range * np.sqrt(2.0 / (m - 1))
    bound = float(
        bounds.risk(h_spec, apply_map(src[-1], g))
        + coeff * (np.sqrt(np.sum(t1s)) + np.sqrt((m - 1) * gap_full) + np.sqrt(np.sum(t2s)) + np.sqrt(np.sum(t3s)))
    )
    return k, {
        "synthetic_transfer": single,
        "sequential_transfer": tighter - target_risk,
        "decomposed_transfer": bound - target_risk,
        "relaxation_margin": bound - tighter,
        "gap_full": gap_full,
        "label_terms": list(t1s),
    }


def verify_change_of_measure(p, q, f, lam):
    pa, qa = _as_dist(p), _as_dist(q)
    fa = np.asarray(f, dtype=np.float64).ravel()
    div = kl(qa, pa)
    ep_f = float(pa @ fa)
    centered = lam * (fa - ep_f)
    support = pa > 0
    shift = centered[support].max()
    log_mgf = shift + np.log(np.sum(pa[support] * np.exp(centered[support] - shift)))
    return float(div + log_mgf - lam * (float(qa @ fa) - ep_f))


def instance(seed, index):
    """The environment of one certification instance, the oracle's map index
    and every per-instance quantity, from the same draws as the package."""
    rng = child_rng(seed, "cert", index)
    nx, ny, m_sources = int(rng.integers(2, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    env = bounds.random_env(rng, nx, ny, m_sources, n_maps=int(rng.integers(1, 17)))
    h_spec = bounds.random_loss_spec(rng, nx, ny)
    k, values = verify_all(env, h_spec, env.candidate_maps[0])
    size = int(rng.integers(2, 9))
    pv = rng.random(size) + 0.05
    pv /= pv.sum()
    qv = rng.random(size) + 0.05
    qv /= qv.sum()
    fv = rng.normal(size=size) * 2.0
    lam = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    values["change_of_measure"] = verify_change_of_measure(pv, qv, fv, lam)
    attain = verify_change_of_measure(pv, qv, np.log(qv / pv) / lam, lam)
    values["attainment_abs"] = abs(attain)
    return env, k, values


def pair_gap(seed, index):
    rng = child_rng(seed, "jsdec", index)
    nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
    return js_decomposition_gap(bounds.random_joint(rng, nx, ny), bounds.random_joint(rng, nx, ny))


# ---------------------------------------------------------------------------
# Differential tests against the oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def oracle_instances(seed, n=200):
    return [instance(seed, i) for i in range(n)]


@functools.lru_cache(maxsize=None)
def oracle_gaps(seed, n=2000):
    return np.array([pair_gap(seed, i) for i in range(n)])


@pytest.mark.parametrize("seed", SEEDS)
def test_instances_match_the_scalar_oracle(seed):
    for index, (env, k, want) in enumerate(oracle_instances(seed)):
        report = bounds.find_minimax_map(env)
        assert report.map is env.candidate_maps[k]
        synthetic = apply_map(env.sources[-1], report.map)
        assert np.array_equal(report.synthetic.p, synthetic.p), index
        for source, row in zip(env.sources, report.pushed, strict=True):
            assert (row == apply_map(source, report.map).p).all(), index
        # Bit for bit what the single-pair kernel gives, so the certified
        # minima cannot move; the oracle's masked sums agree to TOL.
        assert report.target_divergence == bounds.js(synthetic, env.target), index
        assert abs(report.target_divergence - js(synthetic, env.target)) <= TOL, index
        got = bounds._instance_slacks(seed, index)
        for key, value in got.items():
            assert abs(value - want[key]) <= TOL, (index, key)


def test_one_pushforward_and_target_pair_per_instance(monkeypatch):
    calls = collections.Counter()

    def counted(name):
        fn = getattr(bounds, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("apply_map", "js"):
        monkeypatch.setattr(bounds, name, counted(name))
    n = 50
    for index in range(n):
        bounds._instance_slacks(SEEDS[0], index)
    # apply_map: the single-pair bound under the first candidate only.
    # js: the minimax scoring (target pair included), that bound, and the
    # decomposition's marginals and conditionals.
    assert calls == {"apply_map": n, "js": 4 * n}


def test_two_pushforwards_per_instance(monkeypatch):
    # One stacked pass in find_minimax_map and one apply_map for the
    # single-pair bound; the decomposition reads the report's rows.
    calls = collections.Counter()
    push = bounds._pushforward

    def counted(*args):
        calls["_pushforward"] += 1
        return push(*args)

    monkeypatch.setattr(bounds, "_pushforward", counted)
    n = 50
    for index in range(n):
        bounds._instance_slacks(SEEDS[0], index)
    assert calls["_pushforward"] == 2 * n


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_gaps_match_the_scalar_oracle(seed):
    want = oracle_gaps(seed)
    n, block = len(want), bounds.PAIR_BLOCK
    blocks = [bounds._random_pairs(seed, range(lo, min(lo + block, n))) for lo in range(0, n, block)]
    got = np.concatenate([bounds.js_decomposition_gap(p, q) for p, q in blocks])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_run_certification_matches_the_oracle_minima(seed):
    rows = [values for _, _, values in oracle_instances(seed)]
    gaps = oracle_gaps(seed)
    results = bounds.run_certification(instances=len(rows), decomposition_pairs=len(gaps), seed=seed)
    results = {r.name: r for r in results}
    for name in ("synthetic_transfer", "sequential_transfer", "decomposed_transfer", "change_of_measure"):
        assert abs(results[name].min_slack - min(row[name] for row in rows)) <= TOL
    margin = results["decomposed_transfer"].extras["min_relaxation_margin"]
    assert abs(margin - min(row["relaxation_margin"] for row in rows)) <= TOL
    attain = results["change_of_measure"].max_abs_attainment
    assert abs(attain - max(row["attainment_abs"] for row in rows)) <= TOL
    assert abs(results["js_decomposition"].min_slack - gaps.min()) <= TOL


def test_certify_env_matches_the_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        nx, ny = int(rng.integers(2, 8)), int(rng.integers(2, 5))
        env = bounds.random_env(rng, nx, ny, int(rng.integers(2, 6)), n_maps=int(rng.integers(1, 12)))
        if trial % 3 == 0:  # repeated candidates: ties must go to the first
            env = bounds.DiscreteEnv(env.domains, env.candidate_maps + env.candidate_maps)
        env = bounds.env_from_dict(env_to_dict(env))
        h_spec = LossSpec(np.argmax(env.target.p, axis=1), 1.0 - np.eye(ny))
        k, want = verify_all(env, h_spec)
        single, seq, dec = bounds.certify_env(env)
        assert bounds.find_minimax_map(env).map is env.candidate_maps[k]
        assert abs(single.slack - want["synthetic_transfer"]) <= TOL
        assert abs(seq.slack - want["sequential_transfer"]) <= TOL
        assert abs(seq.details["gap_full"] - want["gap_full"]) <= TOL
        assert abs(dec.slack - want["decomposed_transfer"]) <= TOL
        assert abs(dec.details["relaxation_margin"] - want["relaxation_margin"]) <= TOL
        assert np.max(np.abs(np.subtract(dec.details["label_terms"], want["label_terms"]))) <= TOL


# ---------------------------------------------------------------------------
# Stacking properties of the kernels
# ---------------------------------------------------------------------------


def random_stack(seed, shape, zeros=0.3):
    """Rows of distributions along the last axis; about ``zeros`` of the cells
    of each row are exactly 0 (never all of them)."""
    rng = np.random.default_rng(seed)
    raw = rng.random(shape) + 1e-3
    raw[rng.random(shape) < zeros] = 0.0
    raw[..., 0] += 0.1
    return raw / raw.sum(axis=-1, keepdims=True)


stacks = st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    st.integers(1, 20),
)


@given(stacks)
def test_stacked_calls_equal_row_wise_calls(case):
    seed, lead, size = case
    p = random_stack(seed, lead + (size,))
    q = random_stack(seed + 1, lead + (size,))
    q_full = random_stack(seed + 2, lead + (size,), zeros=0.0)  # KL needs Q > 0 where P > 0
    got_js, got_kl = bounds.js(p, q), bounds.kl(p, q_full)
    assert got_js.shape == got_kl.shape == lead
    for row in np.ndindex(lead):
        assert abs(got_js[row] - bounds.js(p[row], q[row])) <= 1e-15
        assert abs(got_kl[row] - bounds.kl(p[row], q_full[row])) <= 1e-15
        assert abs(got_js[row] - js(p[row], q[row])) <= 1e-15
        assert abs(got_kl[row] - kl(p[row], q_full[row])) <= 1e-15


@given(stacks, st.integers(1, 12))
def test_zero_padding_leaves_divergences_unchanged(case, pad):
    seed, lead, size = case
    p = random_stack(seed, lead + (size,))
    q = random_stack(seed + 1, lead + (size,), zeros=0.0)
    widen = [(0, 0)] * len(lead) + [(0, pad)]
    for fn in (bounds.js, bounds.kl):
        plain, padded = fn(p, q), fn(np.pad(p, widen), np.pad(q, widen))
        assert np.max(np.abs(plain - padded) / np.maximum(1.0, np.abs(plain))) <= 1e-15


def _corrupt(kind, p, q, row):
    p, q = p.copy(), q.copy()
    if kind == "negative":
        p[row + (0,)] -= 2.0
        p[row + (1,)] += 2.0
    elif kind == "sum":
        q[row] *= 1.01
    elif kind == "support":
        q = np.concatenate([q, np.zeros(q.shape[:-1] + (1,))], axis=-1)
    else:  # Q zero where P has mass, each row still summing to 1
        q[row] = 0.0
        q[row + (-1,)] = 1.0
    return p, q


@given(stacks, st.sampled_from(["negative", "sum", "support", "continuity"]), st.integers(0, 10**6))
def test_one_bad_row_raises_like_the_scalar_call(case, kind, pick):
    seed, lead, size = case
    size = max(size, 2)
    p = random_stack(seed, lead + (size,), zeros=0.0)
    q = random_stack(seed + 1, lead + (size,), zeros=0.0)
    row = np.unravel_index(pick % int(np.prod(lead)), lead)
    p, q = _corrupt(kind, p, q, row)
    # JS never needs absolute continuity: its mixture covers both supports.
    pairs = [(bounds.kl, kl)] if kind == "continuity" else [(bounds.kl, kl), (bounds.js, js)]
    for stacked, scalar in pairs:
        with pytest.raises(ValueError) as want:
            scalar(p[row], q[row])
        with pytest.raises(ValueError) as got:
            stacked(p, q)
        assert type(got.value) is type(want.value)
        with pytest.raises(ValueError) as one_row:
            stacked(p[row], q[row])
        assert type(one_row.value) is type(want.value)


def test_single_pairs_return_python_floats(rng):
    p, q = random_stack(1, (5,)), random_stack(2, (5,), zeros=0.0)
    joints = bounds.random_joint(rng, 3, 2), bounds.random_joint(rng, 3, 2, strictly_positive=True)
    for fn in (bounds.js, bounds.kl):
        assert type(fn(p, q)) is float
        assert type(fn(list(p), list(q))) is float
        assert type(fn(*joints)) is float
        assert fn(p[None], q[None]).shape == (1,)
    assert type(bounds.js_decomposition_gap(*joints)) is float


# ---------------------------------------------------------------------------
# Memory: pairs are scored in fixed blocks
# ---------------------------------------------------------------------------


def _peak_bytes(pairs):
    tracemalloc.start()
    try:
        bounds.run_certification(instances=1, decomposition_pairs=pairs, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certification_memory_does_not_grow_with_the_pair_count():
    assert _peak_bytes(20000) - _peak_bytes(2000) < 1 << 20


def test_environment_rejects_maps_over_another_support(rng):
    # The stacked pushforward needs every candidate table to cover X exactly.
    domains = tuple(bounds.random_joint(rng, 3, 2) for _ in range(3))
    for table in ([0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="candidate map over"):
            bounds.DiscreteEnv(domains, (bounds.MappingFn(np.arange(3)), bounds.MappingFn(np.array(table))))
    with pytest.raises(ValueError, match="empty"):
        bounds.env_from_dict({"nx": 3, "ny": 2, "domains": [d.p.tolist() for d in domains], "candidate_maps": []})
