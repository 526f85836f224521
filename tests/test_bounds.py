import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import bounds
from test_batched_bounds import decomposed_terms, env_to_dict, random_env, random_joint, random_loss_spec, random_map

prob_vectors = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6).map(
    lambda vals: np.array(vals) / np.sum(vals)
)


def uniform_joint(nx, ny):
    return np.full((nx, ny), 1.0 / (nx * ny))


def push(joint, table):
    """``bounds.apply_map`` on one joint and one map table."""
    return bounds.apply_map(table[None, None], joint[None, None])[0, 0, 0]


def minimax(tables, joints):
    """``bounds.find_minimax_map`` on one environment: the chosen map's index, its
    source-pair divergences and the target pair's."""
    _, divs, best = bounds.find_minimax_map(tables[None], joints[None])
    k = int(best[0])
    return k, divs[0, k, :-1], divs[0, k, -1]


def transfer(env, spec):
    """``bounds.transfer_bounds`` on one environment (tables, joints) and loss spec
    (classifier, loss): every output of its stack of one, with the single-pair bound
    taken at the minimax map."""
    stack = bounds.transfer_bounds(*(a[None] for a in env + spec))
    out = {key: value[0] for key, value in stack.items()}
    out["single"] = out["single"][out["map"]]
    return out


class TestKl:
    def test_self_divergence_zero(self, rng):
        p = random_joint(rng, 3, 2).ravel()
        assert bounds.kl(p, p) == 0.0

    def test_two_point_frozen_value(self):
        # Independent evaluation of the two-term sum.
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert abs(bounds.kl([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-15
        assert abs(expected - 0.14384103622589045) < 1e-15

    def test_disjoint_support_raises(self):
        with pytest.raises(bounds.AbsoluteContinuityError):
            bounds.kl([1.0, 0.0], [0.0, 1.0])

    def test_zero_mass_terms_ignored(self):
        assert bounds.kl([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)


class TestJs:
    def test_self_divergence_zero(self, rng):
        p = random_joint(rng, 4, 3).ravel()
        assert bounds.js(p, p) == 0.0

    def test_disjoint_supports_reach_ln2(self):
        assert abs(bounds.js([1.0, 0.0], [0.0, 1.0]) - math.log(2.0)) <= 1e-12

    @given(prob_vectors, prob_vectors)
    def test_symmetric_and_bounded(self, p, q):
        if p.shape != q.shape:
            return
        a, b = bounds.js(p, q), bounds.js(q, p)
        assert abs(a - b) <= 1e-12
        assert -1e-15 <= a <= math.log(2.0) + 1e-12

    def test_positive_when_different(self):
        assert bounds.js([0.9, 0.1], [0.1, 0.9]) > 1e-12

    def test_support_mismatch_raises(self):
        with pytest.raises(ValueError):
            bounds.js([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            bounds.js([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            bounds.kl([1.5, -0.5], [0.5, 0.5])


class TestApplyMap:
    def test_identity_map(self, rng):
        d = random_joint(rng, 4, 2)
        out = push(d, np.arange(4))
        assert np.array_equal(out, d)

    def test_constant_map_concentrates_mass(self, rng):
        d = random_joint(rng, 4, 3)
        out = push(d, np.zeros(4, dtype=int))
        assert np.all(out[1:] == 0.0)
        assert np.max(np.abs(out.sum(axis=0) - d.sum(axis=0))) < 1e-15

    @given(st.integers(0, 10**9))
    def test_pushforward_preserves_label_marginal(self, seed):
        rng = np.random.default_rng(seed)
        d = random_joint(rng, 5, 3)
        g = random_map(rng, 5)
        out = push(d, g)
        assert np.max(np.abs(out.sum(axis=0) - d.sum(axis=0))) < 1e-15

    def test_map_validation(self, rng):
        payload = env_to_dict(*random_env(rng, 2, 2, 2, n_maps=1))
        with pytest.raises(ValueError):
            bounds.env_from_dict({**payload, "candidate_maps": [[0, 5]]})


class TestMinimaxMap:
    def test_identical_domains_pick_identity_with_zero_gap(self):
        d = np.array([[0.3, 0.1], [0.2, 0.4]])
        tables = np.array([[0, 1], [1, 0]])
        k, divs, _ = minimax(tables, np.stack([d, d, d]))
        assert np.array_equal(tables[k], np.array([0, 1]))
        assert bounds.consistency_gap(divs) == 0.0
        assert all(v == 0.0 for v in divs)

    def test_single_candidate_selected(self, rng):
        env = random_env(rng, 3, 2, 3, n_maps=1)
        assert minimax(*env)[0] == 0

    def test_cyclic_shift_environment_has_zero_gap(self):
        # Two-state feature alternation: the swap map reproduces each next
        # domain exactly, so every consecutive-pair divergence vanishes.
        a = np.array([[0.6, 0.1], [0.2, 0.1]])
        b = a[::-1].copy()
        tables = np.array([[0, 1], [1, 0]])
        k, divs, target_divergence = minimax(tables, np.stack([a, b, a, b]))
        assert np.array_equal(tables[k], np.array([1, 0]))
        assert divs.tolist() == [0.0, 0.0]
        assert bounds.consistency_gap(divs) == 0.0
        assert target_divergence == 0.0

    def test_empty_family_rejected(self, rng):
        joints = np.stack([random_joint(rng, 2, 2) for _ in range(3)])
        with pytest.raises(ValueError, match="empty"):
            bounds.env_from_dict(env_to_dict(np.zeros((0, 2), dtype=np.int64), joints))


class TestRisk:
    def test_perfect_classifier_zero_risk(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert bounds._risks(np.array([0, 1]), 1.0 - np.eye(2), joint) == 0.0

    def test_uniform_labels_give_half(self, rng):
        joint = uniform_joint(3, 2)
        for _ in range(5):
            assert abs(bounds._risks(rng.integers(0, 2, size=3), 1.0 - np.eye(2), joint) - 0.5) < 1e-15

    def test_matches_monte_carlo(self, rng):
        joint = random_joint(rng, 4, 3, strictly_positive=True)
        classifier, loss = random_loss_spec(rng, 4, 3)
        exact = bounds._risks(classifier, loss, joint)
        n = 10**6
        flat = joint.ravel()
        draws = rng.choice(flat.size, size=n, p=flat)
        xs, ys = np.unravel_index(draws, joint.shape)
        samples = loss[classifier[xs], ys]
        mc = samples.mean()
        sigma = samples.std(ddof=1) / math.sqrt(n)
        assert abs(mc - exact) < 3.0 * sigma + 1e-12


class TestSyntheticTransferBound:
    def test_exact_map_gives_zero_slack(self, rng):
        src = random_joint(rng, 3, 2)
        g = random_map(rng, 3)
        target = push(src, g)
        env = g[None], np.stack([src, src, target])
        spec = random_loss_spec(rng, 3, 2)
        out = transfer(env, spec)
        assert abs(out["single"] - out["target_risk"]) < 1e-12
        assert out["divergences"][-1] < 1e-15

    def test_identity_on_iid_environment(self, rng):
        d = random_joint(rng, 3, 2)
        env = np.arange(3)[None], np.stack([d, d, d])
        spec = random_loss_spec(rng, 3, 2)
        out = transfer(env, spec)
        assert abs(out["single"] - out["target_risk"]) < 1e-12

    def test_randomized_instances_nonnegative(self, rng):
        worst = math.inf
        for _ in range(300):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=1)
            spec = random_loss_spec(rng, nx, ny)
            out = transfer(env, spec)
            worst = min(worst, out["single"] - out["target_risk"])
        assert worst >= -1e-9

    def test_disjoint_support_case_shows_constant_is_minimal(self):
        # Risk gap G at JS = ln 2: any penalty below sqrt(2)·G·sqrt(ln 2) fails.
        src = np.array([[1.0, 0.0], [0.0, 0.0]])
        target = np.array([[0.0, 0.0], [0.0, 1.0]])
        env = np.array([[0, 1]]), np.stack([src, src, target])
        spec = np.array([0, 0]), 1.0 - np.eye(2)
        out = transfer(env, spec)
        assert out["target_risk"] == 1.0
        assert abs(out["single"] - math.sqrt(2.0 * math.log(2.0))) < 1e-12
        assert out["single"] - out["target_risk"] >= 0.0


class TestSequentialTransferBound:
    def test_zero_divergence_environment(self, rng):
        d = random_joint(rng, 3, 2)
        env = np.arange(3)[None], np.stack([d, d, d, d])
        spec = random_loss_spec(rng, 3, 2)
        out = transfer(env, spec)
        assert bounds.consistency_gap(out["divergences"]) == 0.0
        assert abs(out["sequential"] - out["target_risk"]) < 1e-12

    def test_two_source_reduction_matches_single_pair_formula(self, rng):
        for _ in range(50):
            env = random_env(rng, 3, 2, 2, n_maps=4)
            k, divs, target_divergence = minimax(*env)
            spec = random_loss_spec(rng, 3, 2)
            out = transfer(env, spec)
            # m=2: coefficient is sqrt(2)·G, one source-pair term plus the gap term.
            d2 = divs[0]
            gap = bounds.consistency_gap(np.append(divs, target_divergence))
            (tables, joints), (classifier, loss) = env, spec
            synthetic = push(joints[-2], tables[k])
            expected = bounds._risks(classifier, loss, synthetic) + math.sqrt(2.0) * (loss.max() - loss.min()) * (
                math.sqrt(d2) + math.sqrt(gap)
            )
            assert abs(out["sequential"] - expected) < 1e-12

    def test_randomized_instances_nonnegative(self, rng):
        worst = math.inf
        for _ in range(300):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=8)
            spec = random_loss_spec(rng, nx, ny)
            out = transfer(env, spec)
            worst = min(worst, out["sequential"] - out["target_risk"])
        assert worst >= -1e-9

    def test_bound_non_increasing_in_source_count(self, rng):
        # Alternating A,B,... chains keep every consecutive divergence equal
        # and the full gap at zero, isolating the m-dependence of the bound.
        a = random_joint(rng, 3, 2, strictly_positive=True)
        b = random_joint(rng, 3, 2, strictly_positive=True)
        spec = random_loss_spec(rng, 3, 2)
        values = []
        for m in (2, 3, 5, 9):
            chain = np.stack([a if i % 2 == 0 else b for i in range(m + 1)])
            values.append(transfer((np.arange(3)[None], chain), spec)["sequential"])
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12


class TestJsDecomposition:
    def test_identical_joints_zero_gap(self, rng):
        p = random_joint(rng, 4, 3)
        assert abs(bounds.js_decomposition_gap(p, p)) < 1e-15

    def test_equal_label_marginals_simplified_form(self, rng):
        # With matching label marginals the marginal term vanishes and the
        # joint divergence is dominated by the two conditional expectations.
        for _ in range(100):
            marg = rng.random(3) + 0.1
            marg /= marg.sum()
            def joint():
                cols = rng.random((4, 3)) + 0.05
                cols /= cols.sum(axis=0, keepdims=True)
                return cols * marg
            p, q = joint(), joint()
            t1, t2, t3 = decomposed_terms(p, q)
            assert abs(t1) < 1e-14
            assert bounds.js(p.ravel(), q.ravel()) <= t2 + t3 + 1e-12

    def test_randomized_gap_nonnegative(self, rng):
        worst = math.inf
        for _ in range(2000):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            worst = min(
                worst,
                bounds.js_decomposition_gap(random_joint(rng, nx, ny), random_joint(rng, nx, ny)),
            )
        assert worst >= -1e-9


class TestDecomposedTransferBound:
    def test_zero_divergence_environment_has_zero_terms(self, rng):
        d = random_joint(rng, 3, 2)
        env = np.arange(3)[None], np.stack([d, d, d, d])
        spec = random_loss_spec(rng, 3, 2)
        out = transfer(env, spec)
        assert all(v == 0.0 for v in out["label_terms"])
        assert abs(out["decomposed"] - out["target_risk"]) < 1e-12

    def test_shared_label_marginal_zeroes_term_one(self, rng):
        # The pushforward preserves each domain's label marginal, so when all
        # domains share one marginal the label term vanishes identically.
        marg = np.array([0.3, 0.7])
        def joint():
            cols = rng.random((3, 2)) + 0.05
            cols /= cols.sum(axis=0, keepdims=True)
            return cols * marg
        joints = np.stack([joint() for _ in range(4)])
        env = np.stack([random_map(rng, 3) for _ in range(4)]), joints
        out = transfer(env, random_loss_spec(rng, 3, 2))
        assert all(abs(v) < 1e-14 for v in out["label_terms"])

    def test_relaxation_dominates_tighter_bound(self, rng):
        for _ in range(200):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=8)
            spec = random_loss_spec(rng, nx, ny)
            out = transfer(env, spec)
            assert out["decomposed"] - out["target_risk"] >= -1e-9
            assert out["decomposed"] - out["sequential"] >= -1e-12


class TestChangeOfMeasure:
    def test_lambda_zero_reduces_to_kl(self, rng):
        p = rng.random(5) + 0.1
        p /= p.sum()
        q = rng.random(5) + 0.1
        q /= q.sum()
        f = rng.normal(size=5)
        assert abs(bounds.verify_change_of_measure(p, q, f, 0.0) - bounds.kl(q, p)) < 1e-12

    def test_equal_distributions_leave_log_mgf(self, rng):
        p = rng.random(4) + 0.1
        p /= p.sum()
        f = rng.normal(size=4)
        lam = 0.7
        slack = bounds.verify_change_of_measure(p, p, f, lam)
        centered = lam * (f - p @ f)
        expected = math.log(float(p @ np.exp(centered)))
        assert abs(slack - expected) < 1e-12
        assert slack >= -1e-12  # Jensen

    def test_attainment_function_reaches_equality(self, rng):
        for _ in range(200):
            size = int(rng.integers(2, 8))
            p = rng.random(size) + 0.05
            p /= p.sum()
            q = rng.random(size) + 0.05
            q /= q.sum()
            lam = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            f = bounds.attainment_function(p, q, lam)
            assert abs(bounds.verify_change_of_measure(p, q, f, lam)) <= 1e-9

    def test_absolute_continuity_enforced(self):
        with pytest.raises(bounds.AbsoluteContinuityError):
            bounds.verify_change_of_measure([1.0, 0.0], [0.5, 0.5], np.zeros(2), 1.0)
        with pytest.raises(bounds.AbsoluteContinuityError):
            bounds.attainment_function([0.5, 0.5, 0.0], [0.2, 0.3, 0.5], 1.0)


class TestEnvSerialization:
    def test_round_trip(self, rng):
        tables, joints = random_env(rng, 4, 3, 3, n_maps=5)
        back_tables, back_joints = bounds.env_from_dict(env_to_dict(tables, joints))
        assert back_tables.dtype == np.int64 and back_joints.dtype == np.float64
        assert np.array_equal(back_joints, joints)
        assert np.array_equal(back_tables, tables)

    def test_declared_sizes_checked(self, rng):
        payload = env_to_dict(*random_env(rng, 3, 2, 2, n_maps=1))
        payload["nx"] = 7
        with pytest.raises(ValueError, match="nx/ny"):
            bounds.env_from_dict(payload)

    def test_certify_env_produces_three_nonnegative_slacks(self, rng):
        slacks = bounds.certify_env(*random_env(rng, 4, 2, 3, n_maps=6))
        assert [s["name"] for s in slacks] == [
            "synthetic_transfer", "sequential_transfer", "decomposed_transfer",
        ]
        assert all(s["slack"] >= -1e-9 for s in slacks)


class TestCertificationDriver:
    def test_small_run_all_pass_and_deterministic_across_reruns(self):
        a = bounds.run_certification(instances=40, decomposition_pairs=60, seed=3)
        b = bounds.run_certification(instances=40, decomposition_pairs=60, seed=3)
        assert all(r.passed for r in a)
        for ra, rb in zip(a, b):
            assert ra.to_dict() == rb.to_dict()


def test_joint_validation():
    with pytest.raises(ValueError, match="sums"):
        bounds._check_joints(np.array([[0.5, 0.1], [0.1, 0.1]]))
    with pytest.raises(ValueError, match="negative"):
        bounds._check_joints(np.array([[1.1, -0.1], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):  # a NaN cell slips past the sum check on its own
        with pytest.raises(ValueError, match="non-finite"):
            bounds._check_joints(np.array([[bad, 0.5], [0.25, 0.25]]))
