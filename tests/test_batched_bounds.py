"""The stacked divergence kernels of ``edglab.bounds`` against frozen copies of
the code they replaced, plus their stacking properties and a memory guard on
the blocked certification.

The scalar oracle below is the earlier per-pair path: every ``kl``/``js`` call
validates one flattened distribution, the minimax map is found by pushing the
sources through one candidate at a time, and the decomposition computes one
conditional JS per label. An environment is a pair of arrays, the (k, nx) map
tables and the (m + 1, nx, ny) joints with the target last, as
``bounds.env_from_dict`` returns it; a loss spec is a classifier table (nx,)
and a loss matrix (ny, ny). The stacked kernels sum the same terms with zero
padding in between, so results may differ from it in the last bits only; those
comparisons use 1e-12.

The frozen certification after it scores one random instance at a time with
the single-environment kernels the shape-stacked certification replaced. The
two must agree bit for bit, so those comparisons use ``==``.
"""
import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import bounds
from edglab.seeding import child_rng

# Criterion 7's master seed (also the benchmark's), and verify-bounds' default.
SEEDS = (2024, 0)
TOL = 1e-12
# The per-instance quantities of the certification.
SLACKS = (
    "synthetic_transfer", "sequential_transfer", "decomposed_transfer", "relaxation_margin",
    "change_of_measure", "attainment_abs",
)

# ---------------------------------------------------------------------------
# Frozen oracle: the scalar laboratory, kept only here
# ---------------------------------------------------------------------------


def _as_dist(p):
    arr = np.asarray(p, dtype=np.float64).ravel()
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
    out = np.zeros_like(d)
    np.add.at(out, g, d)
    return out


def find_minimax_map(tables, joints):
    """(index of the chosen candidate, its source-pair divergences)."""
    src = joints[:-1]
    best = None
    for k, g in enumerate(tables):
        divs = np.array([js(apply_map(src[j - 1], g), src[j]) for j in range(1, len(src))])
        if best is None or divs.max() < best[0]:
            best = (divs.max(), k, divs)
    return best[1], best[2]


def gap_with_target(joints, g, divs):
    all_divs = np.append(divs, js(apply_map(joints[-2], g), joints[-1]))
    return float(all_divs.max() - all_divs.min())


def sequential_bound_value(joints, g, divs, spec, gap_full):
    (classifier, loss), m = spec, len(joints) - 1
    synthetic = apply_map(joints[-2], g)
    coeff = (loss.max() - loss.min()) * np.sqrt(2.0 / (m - 1))
    return float(_risk(classifier, loss, synthetic) + coeff * (np.sqrt(divs.sum()) + np.sqrt((m - 1) * gap_full)))


def _conditional_js(p, q, y):
    pmass, qmass = p[:, y].sum(), q[:, y].sum()
    if pmass <= 0.0 or qmass <= 0.0:
        return 0.0
    return js(p[:, y] / pmass, q[:, y] / qmass)


def decomposed_terms(p, q):
    py, qy, ny = p.sum(axis=0), q.sum(axis=0), p.shape[1]
    cond = [_conditional_js(p, q, y) for y in range(ny)]
    t2 = sum(py[y] * cond[y] for y in range(ny) if py[y] > 0)
    t3 = sum(qy[y] * cond[y] for y in range(ny) if qy[y] > 0)
    return float(js(py, qy)), float(t2), float(t3)


def env_to_dict(tables, joints):
    """The ``--env-json`` form ``bounds.env_from_dict`` reads: support sizes,
    per-domain probability matrices and map tables."""
    return {"nx": joints.shape[1], "ny": joints.shape[2], "domains": joints.tolist(), "candidate_maps": tables.tolist()}


def js_decomposition_gap(p, q):
    return float(sum(decomposed_terms(p, q)) - js(p, q))


def verify_all(env, spec, g0=None):
    """(chosen map index, {quantity: value}) for the three transfer bounds,
    the single-pair one taken under ``g0`` (default: the chosen map)."""
    (tables, joints), (classifier, loss) = env, spec
    k, divs = find_minimax_map(tables, joints)
    g = tables[k]
    g0 = g if g0 is None else g0
    g_range = loss.max() - loss.min()
    target_risk = _risk(classifier, loss, joints[-1])
    synthetic0 = apply_map(joints[-2], g0)
    single = (
        _risk(classifier, loss, synthetic0)
        + bounds.transfer_penalty(g_range, js(synthetic0, joints[-1]))
        - target_risk
    )
    gap_full = gap_with_target(joints, g, divs)
    tighter = sequential_bound_value(joints, g, divs, spec, gap_full)
    src, m = joints[:-1], len(joints) - 1
    terms = [decomposed_terms(apply_map(src[j - 1], g), src[j]) for j in range(1, len(src))]
    t1s, t2s, t3s = zip(*terms)
    coeff = g_range * np.sqrt(2.0 / (m - 1))
    bound = float(
        _risk(classifier, loss, apply_map(src[-1], g))
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
    env = random_env(rng, nx, ny, m_sources, n_maps=int(rng.integers(1, 17)))
    k, values = verify_all(env, random_loss_spec(rng, nx, ny), env[0][0])
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
    return js_decomposition_gap(random_joint(rng, nx, ny), random_joint(rng, nx, ny))


# ---------------------------------------------------------------------------
# Frozen certification: one instance at a time, as before shape stacking
# ---------------------------------------------------------------------------


def random_joint(rng, nx, ny, strictly_positive=False):
    raw = rng.random((nx, ny))
    if strictly_positive:
        raw += 0.05
    else:
        raw[rng.random((nx, ny)) < 0.15] = 0.0
        if raw.sum() == 0.0:
            raw[0, 0] = 1.0
    return raw / raw.sum()


def random_map(rng, nx):
    return rng.integers(0, nx, size=nx)


def random_loss_spec(rng, nx, ny):
    classifier = rng.integers(0, ny, size=nx)
    if rng.random() < 0.5:
        loss = 1.0 - np.eye(ny)
    else:
        loss = rng.random((ny, ny)) * float(rng.uniform(0.5, 3.0))
    return classifier, loss


def random_env(rng, nx, ny, m_sources, n_maps):
    """(tables, joints): the domains are drawn before the maps."""
    joints = np.stack([random_joint(rng, nx, ny) for _ in range(m_sources + 1)])
    return np.stack([random_map(rng, nx) for _ in range(n_maps)]), joints


def _kl_rows(pa, qa):
    mask = pa > 0.0
    ratio = np.ones(mask.shape)
    np.divide(pa, qa, out=ratio, where=mask)
    return (pa * np.log(ratio)).sum(axis=-1)


def _js_rows(pa, qa):
    both = _kl_rows(np.stack((pa, qa)), 0.5 * (pa + qa))
    return 0.5 * both[0] + 0.5 * both[1]


def _pushforward(tables, joints):
    k, m, nx = len(tables), len(joints), joints.shape[1]
    out = np.zeros((k,) + joints.shape)
    np.add.at(out, (np.arange(k).reshape(k, 1, 1), np.arange(m).reshape(1, m, 1), tables.reshape(k, 1, nx)), joints)
    return out


def _risk(classifier, loss, joint):
    return float(np.sum(joint * loss[classifier, :]))


def _decomposed_rows(p, q):
    py, qy = p.sum(axis=-2), q.sum(axis=-2)
    live = ((py > 0.0) & (qy > 0.0))[..., None]
    point = np.eye(p.shape[-2])[0]
    pc, qc = (
        np.where(live, np.swapaxes(a, -1, -2) / np.where(live, ay[..., None], 1.0), point)
        for a, ay in ((p, py), (q, qy))
    )
    cond = _js_rows(pc, qc)
    t2 = np.where(py > 0.0, py * cond, 0.0).sum(axis=-1)
    t3 = np.where(qy > 0.0, qy * cond, 0.0).sum(axis=-1)
    return _js_rows(py, qy), t2, t3


def _change_of_measure(pa, qa, fa, lam):
    ep_f = float(pa @ fa)
    centered = lam * (fa - ep_f)
    shift = centered.max()
    log_mgf = shift + np.log(np.sum(pa * np.exp(centered - shift)))
    return float(float(_kl_rows(qa, pa)) + log_mgf - lam * (float(qa @ fa) - ep_f))


def _instance_slacks(seed, index):
    """Every per-instance certification quantity and the chosen map's index."""
    rng = child_rng(seed, "cert", index)
    nx, ny, m = int(rng.integers(2, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    tables, doms = random_env(rng, nx, ny, m, n_maps=int(rng.integers(1, 17)))
    classifier, loss = random_loss_spec(rng, nx, ny)
    g_range = float(loss.max() - loss.min())
    pushed = _pushforward(tables, doms[:-1])
    flat = pushed.reshape(pushed.shape[:2] + (-1,))
    divs = _js_rows(flat, np.broadcast_to(doms[1:].reshape(m, -1), flat.shape))
    best = int(np.argmin(divs[:, :-1].max(axis=1)))
    target_risk = _risk(classifier, loss, doms[-1])
    synthetic0 = _pushforward(tables[0][None], doms[-2][None])[0, 0]
    div0 = float(_js_rows(synthetic0.ravel(), doms[-1].ravel()))
    single = float(_risk(classifier, loss, synthetic0) + float(np.sqrt(2.0) * g_range * np.sqrt(max(div0, 0.0))))
    src_divs = np.asarray(tuple(float(v) for v in divs[best, :-1]))
    full = np.append(src_divs, float(divs[best, -1]))
    gap_full = float(full.max() - full.min())
    coeff = g_range * np.sqrt(2.0 / (m - 1))
    synthetic_risk = _risk(classifier, loss, pushed[best, -1])
    tighter = float(synthetic_risk + coeff * (np.sqrt(src_divs.sum()) + np.sqrt((m - 1) * gap_full)))
    t1s, t2s, t3s = _decomposed_rows(pushed[best, :-1], doms[1:-1])
    terms = np.sqrt(np.sum(t1s)) + np.sqrt((m - 1) * gap_full) + np.sqrt(np.sum(t2s)) + np.sqrt(np.sum(t3s))
    bound = float(synthetic_risk + coeff * terms)

    size = int(rng.integers(2, 9))
    pv = rng.random(size) + 0.05
    pv /= pv.sum()
    qv = rng.random(size) + 0.05
    qv /= qv.sum()
    fv = rng.normal(size=size) * 2.0
    lam = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    return {
        "map": best,
        "synthetic_transfer": single - target_risk,
        "sequential_transfer": tighter - target_risk,
        "decomposed_transfer": bound - target_risk,
        "relaxation_margin": bound - tighter,
        "change_of_measure": _change_of_measure(pv, qv, fv, lam),
        "attainment_abs": abs(_change_of_measure(pv, qv, np.log(qv / pv) / lam, lam)),
    }


def _random_pairs(seed, indices):
    joints = np.zeros((2, len(indices), bounds.MAX_NX, bounds.MAX_NY))
    for row, i in enumerate(indices):
        rng = child_rng(seed, "jsdec", i)
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        joints[0, row, :nx, :ny] = random_joint(rng, nx, ny)
        joints[1, row, :nx, :ny] = random_joint(rng, nx, ny)
    return joints


def _frozen_gaps(seed, n):
    """The decomposition gaps of pairs 0..n-1, in the blocks the package uses."""
    out = []
    for lo in range(0, n, bounds.PAIR_BLOCK):
        p, q = _random_pairs(seed, range(lo, min(lo + bounds.PAIR_BLOCK, n)))
        t1, t2, t3 = _decomposed_rows(p, q)
        flat = p.shape[:-2] + (-1,)
        out.append(t1 + t2 + t3 - _js_rows(p.reshape(flat), q.reshape(flat)))
    return np.concatenate(out)


def batched_instances(seed, n):
    """{quantity: per-instance array} from the shape-stacked path, drawn in
    the instance blocks ``run_certification`` uses."""
    out = {}
    for lo in range(0, n, bounds.PAIR_BLOCK):
        for index, values in bounds._instance_rows(seed, range(lo, min(lo + bounds.PAIR_BLOCK, n))):
            for key, v in values.items():
                out.setdefault(key, np.full(n, np.nan))[index] = v
    return out


# ---------------------------------------------------------------------------
# Differential tests against the oracles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def oracle_instances(seed, n=200):
    return [instance(seed, i) for i in range(n)]


@functools.lru_cache(maxsize=None)
def oracle_gaps(seed, n=2000):
    return np.array([pair_gap(seed, i) for i in range(n)])


@pytest.mark.parametrize("seed", SEEDS)
def test_instances_match_the_scalar_oracle(seed):
    batched = batched_instances(seed, len(oracle_instances(seed)))
    for index, ((tables, joints), k, want) in enumerate(oracle_instances(seed)):
        pushed, divs, best = bounds.find_minimax_map(tables[None], joints[None])
        assert best.tolist() == [k], index
        synthetic = apply_map(joints[-2], tables[k])
        assert np.array_equal(pushed[0, k, -1], synthetic), index
        for source, row in zip(joints[:-1], pushed[0, k], strict=True):
            assert (row == apply_map(source, tables[k])).all(), index
        # Bit for bit what the single-pair kernel gives, so the certified
        # minima cannot move; the oracle's masked sums agree to TOL.
        assert divs[0, k, -1] == bounds.js(synthetic.ravel(), joints[-1].ravel()), index
        assert abs(divs[0, k, -1] - js(synthetic, joints[-1])) <= TOL, index
        assert batched["map"][index] == k, index
        for key in SLACKS:
            assert abs(batched[key][index] - want[key]) <= TOL, (index, key)


@pytest.mark.parametrize("seed", SEEDS)
def test_instances_equal_the_frozen_certification(seed):
    n = 600
    got = batched_instances(seed, n)
    assert sorted(got) == sorted(_instance_slacks(seed, 0))
    for index in range(n):
        for key, value in _instance_slacks(seed, index).items():
            assert got[key][index] == value, (index, key)


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_blocks_equal_the_frozen_draws(seed):
    for lo, hi in ((0, 256), (256, 512), (700, 1900), (5, 6)):
        assert np.array_equal(bounds._pair_block(seed, range(lo, hi)), _random_pairs(seed, range(lo, hi)))


def test_run_certification_equals_the_frozen_certification():
    seed, n, pairs = SEEDS[0], 1000, 10000
    rows = [_instance_slacks(seed, i) for i in range(n)]
    low = {key: min(row[key] for row in rows) for key in SLACKS}
    want = [
        {"name": "synthetic_transfer", "instances": n, "min_slack": low["synthetic_transfer"]},
        {"name": "sequential_transfer", "instances": n, "min_slack": low["sequential_transfer"]},
        {
            "name": "decomposed_transfer", "instances": n, "min_slack": low["decomposed_transfer"],
            "min_relaxation_margin": low["relaxation_margin"],
        },
        {
            "name": "change_of_measure", "instances": n, "min_slack": low["change_of_measure"],
            "max_abs_attainment": max(row["attainment_abs"] for row in rows),
        },
        {"name": "js_decomposition", "instances": pairs, "min_slack": float(_frozen_gaps(seed, pairs).min())},
    ]
    results = bounds.run_certification(instances=n, decomposition_pairs=pairs, seed=seed)
    assert [r.to_dict() for r in results] == [{**w, "passed": True} for w in want]


def _counted(monkeypatch, names):
    calls = collections.Counter()
    for name in names:
        fn = getattr(bounds, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(bounds, name, wrapper)
    return calls


def _groups(n):
    """The environment groups and the change-of-measure groups of instances
    0..n-1 drawn as one block; each instance is in one of each."""
    groups = list(bounds._instance_rows(SEEDS[0], range(n)))
    envs = [index for index, values in groups if "map" in values]
    cases = [index for index, values in groups if "map" not in values]
    for kind in (envs, cases):
        assert sorted(np.concatenate(kind)) == list(range(n))
    # At most one group per (nx, ny, m) and one per support size.
    assert len(envs) <= 5 * 2 * 3 and len(cases) <= 7
    return len(envs), len(cases)


@pytest.mark.parametrize("n", [50, 256])
def test_one_pushforward_per_shape_group(monkeypatch, n):
    # All maps of all environments of one (nx, ny, m) in one pass; the
    # single-pair bound and the decomposition read its rows.
    calls = _counted(monkeypatch, ("apply_map",))
    envs, _ = _groups(n)
    assert calls == {"apply_map": envs}


@pytest.mark.parametrize("n", [50, 256])
def test_divergence_calls_per_shape_group(monkeypatch, n):
    calls = _counted(monkeypatch, ("js", "kl", "apply_map"))
    envs, cases = _groups(n)
    # js per environment group: the minimax scoring (the target pair and the
    # first map's single-pair bound included), then the decomposition's
    # conditionals and label marginals. kl per support size: the cases and
    # their attainment functions. No joint is pushed one at a time.
    assert calls == {"js": 3 * envs, "kl": 2 * cases, "apply_map": envs}


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_gaps_match_the_scalar_oracle(seed):
    want = oracle_gaps(seed)
    n, block = len(want), bounds.PAIR_BLOCK
    blocks = [bounds._pair_block(seed, range(lo, min(lo + block, n))) for lo in range(0, n, block)]
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
        tables, joints = random_env(rng, nx, ny, int(rng.integers(2, 6)), n_maps=int(rng.integers(1, 12)))
        if trial % 3 == 0:  # repeated candidates: ties must go to the first
            tables = np.concatenate([tables, tables])
        tables, joints = bounds.env_from_dict(env_to_dict(tables, joints))
        k, want = verify_all((tables, joints), (np.argmax(joints[-1], axis=1), 1.0 - np.eye(ny)))
        single, seq, dec = bounds.certify_env(tables, joints)
        assert bounds.find_minimax_map(tables[None], joints[None])[2].tolist() == [k]
        assert abs(single["slack"] - want["synthetic_transfer"]) <= TOL
        assert abs(seq["slack"] - want["sequential_transfer"]) <= TOL
        assert abs(seq["gap_full"] - want["gap_full"]) <= TOL
        assert abs(dec["slack"] - want["decomposed_transfer"]) <= TOL
        assert abs(dec["relaxation_margin"] - want["relaxation_margin"]) <= TOL
        assert np.max(np.abs(np.subtract(dec["label_terms"], want["label_terms"]))) <= TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stack_scores_each_environment_as_a_stack_of_one(seed):
    # G environments of one shape, every third with its family repeated so
    # the minimax map ties; each output must equal its stack-of-one output.
    rng = np.random.default_rng(seed)
    g, nx, ny, m, k = 9, int(rng.integers(2, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 5)), 6
    envs = [random_env(rng, nx, ny, m, n_maps=k // 2) for _ in range(g)]
    tables = np.stack([np.concatenate([t, t]) for t, _ in envs])
    fresh = np.arange(g) % 3 != 0
    tables[fresh, k // 2 :] = rng.integers(0, nx, size=(fresh.sum(), k // 2, nx))
    joints = np.stack([j for _, j in envs])
    classifier, loss = (np.stack(a) for a in zip(*[random_loss_spec(rng, nx, ny) for _ in range(g)]))
    stacked = bounds.transfer_bounds(tables, joints, classifier, loss)
    assert stacked["single"].shape == (g, k) and stacked["divergences"].shape == (g, m)
    for i in range(g):
        alone = bounds.transfer_bounds(tables[i : i + 1], joints[i : i + 1], classifier[i : i + 1], loss[i : i + 1])
        for key, value in alone.items():
            assert np.array_equal(stacked[key][i], value[0]), (i, key)
    assert (stacked["map"][0::3] < k // 2).all()  # a repeated map never beats its first copy


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
    joints = random_joint(rng, 3, 2), random_joint(rng, 3, 2, strictly_positive=True)
    for fn in (bounds.js, bounds.kl):
        assert type(fn(p, q)) is float
        assert type(fn(list(p), list(q))) is float
        assert type(fn(*(j.ravel() for j in joints))) is float
        assert fn(p[None], q[None]).shape == (1,)
    assert type(bounds.js_decomposition_gap(*joints)) is float


# ---------------------------------------------------------------------------
# Memory: instances and pairs are scored in fixed blocks
# ---------------------------------------------------------------------------


def _peak_bytes(pairs, instances=1):
    tracemalloc.start()
    try:
        bounds.run_certification(instances=instances, decomposition_pairs=pairs, seed=5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certification_memory_does_not_grow_with_the_pair_count():
    assert _peak_bytes(20000) - _peak_bytes(2000) < 1 << 20


def test_certification_memory_does_not_grow_with_the_instance_count():
    # Instances are drawn and scored in blocks, keeping only running extremes.
    assert _peak_bytes(1, instances=2000) - _peak_bytes(1, instances=250) < 1 << 19


def test_environment_rejects_maps_over_another_support(rng):
    # The stacked pushforward needs every candidate table to cover X exactly.
    payload = env_to_dict(np.arange(3)[None], np.stack([random_joint(rng, 3, 2) for _ in range(3)]))
    for table in ([0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="candidate map over"):
            bounds.env_from_dict({**payload, "candidate_maps": payload["candidate_maps"] + [table]})
    with pytest.raises(ValueError, match="empty"):
        bounds.env_from_dict({**payload, "candidate_maps": []})
