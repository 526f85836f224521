import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import bounds
from edglab.bounds import DiscreteEnv, DiscreteJoint, LossSpec, MappingFn
from test_batched_bounds import decomposed_terms, env_to_dict, random_env, random_joint, random_loss_spec, random_map

prob_vectors = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6).map(
    lambda vals: np.array(vals) / np.sum(vals)
)


def uniform_joint(nx, ny):
    return DiscreteJoint(np.full((nx, ny), 1.0 / (nx * ny)))


class TestKl:
    def test_self_divergence_zero(self, rng):
        p = random_joint(rng, 3, 2)
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
        p = random_joint(rng, 4, 3)
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
        out = bounds.apply_map(d, MappingFn(np.arange(4)))
        assert np.array_equal(out.p, d.p)

    def test_constant_map_concentrates_mass(self, rng):
        d = random_joint(rng, 4, 3)
        out = bounds.apply_map(d, MappingFn(np.zeros(4, dtype=int)))
        assert np.all(out.p[1:] == 0.0)
        assert np.max(np.abs(out.p.sum(axis=0) - d.p.sum(axis=0))) < 1e-15

    @given(st.integers(0, 10**9))
    def test_pushforward_preserves_label_marginal(self, seed):
        rng = np.random.default_rng(seed)
        d = random_joint(rng, 5, 3)
        g = random_map(rng, 5)
        out = bounds.apply_map(d, g)
        assert np.max(np.abs(out.p.sum(axis=0) - d.p.sum(axis=0))) < 1e-15

    def test_map_validation(self):
        with pytest.raises(ValueError):
            MappingFn(np.array([0, 5]))


class TestMinimaxMap:
    def test_identical_domains_pick_identity_with_zero_gap(self):
        d = DiscreteJoint(np.array([[0.3, 0.1], [0.2, 0.4]]))
        env = DiscreteEnv(
            domains=(d, d, d),
            candidate_maps=(MappingFn(np.array([0, 1])), MappingFn(np.array([1, 0]))),
        )
        report = bounds.find_minimax_map(env)
        assert np.array_equal(report.map.table, np.array([0, 1]))
        assert report.gap == 0.0
        assert all(v == 0.0 for v in report.divergences)

    def test_single_candidate_selected(self, rng):
        env = random_env(rng, 3, 2, 3, n_maps=1)
        assert bounds.find_minimax_map(env).map is env.candidate_maps[0]

    def test_cyclic_shift_environment_has_zero_gap(self):
        # Two-state feature alternation: the swap map reproduces each next
        # domain exactly, so every consecutive-pair divergence vanishes.
        a = DiscreteJoint(np.array([[0.6, 0.1], [0.2, 0.1]]))
        b = DiscreteJoint(a.p[::-1].copy())
        swap = MappingFn(np.array([1, 0]))
        env = DiscreteEnv(domains=(a, b, a, b), candidate_maps=(MappingFn(np.array([0, 1])), swap))
        report = bounds.find_minimax_map(env)
        assert np.array_equal(report.map.table, swap.table)
        assert report.divergences == (0.0, 0.0)
        assert report.gap == 0.0
        assert report.target_divergence == 0.0

    def test_empty_family_rejected(self, rng):
        env = DiscreteEnv(
            domains=tuple(random_joint(rng, 2, 2) for _ in range(3)), candidate_maps=()
        )
        with pytest.raises(ValueError, match="empty"):
            bounds.find_minimax_map(env)


class TestRisk:
    def test_perfect_classifier_zero_risk(self):
        joint = DiscreteJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
        spec = LossSpec(classifier=np.array([0, 1]), loss=1.0 - np.eye(2))
        assert bounds.risk(spec, joint) == 0.0

    def test_uniform_labels_give_half(self, rng):
        joint = uniform_joint(3, 2)
        for _ in range(5):
            spec = LossSpec(classifier=rng.integers(0, 2, size=3), loss=1.0 - np.eye(2))
            assert abs(bounds.risk(spec, joint) - 0.5) < 1e-15

    def test_matches_monte_carlo(self, rng):
        joint = random_joint(rng, 4, 3, strictly_positive=True)
        spec = random_loss_spec(rng, 4, 3)
        exact = bounds.risk(spec, joint)
        n = 10**6
        flat = joint.p.ravel()
        draws = rng.choice(flat.size, size=n, p=flat)
        xs, ys = np.unravel_index(draws, joint.p.shape)
        samples = spec.loss[spec.classifier[xs], ys]
        mc = samples.mean()
        sigma = samples.std(ddof=1) / math.sqrt(n)
        assert abs(mc - exact) < 3.0 * sigma + 1e-12


class TestSyntheticTransferBound:
    def test_exact_map_gives_zero_slack(self, rng):
        src = random_joint(rng, 3, 2)
        g = random_map(rng, 3)
        target = bounds.apply_map(src, g)
        env = DiscreteEnv(domains=(src, src, target), candidate_maps=(g,))
        spec = random_loss_spec(rng, 3, 2)
        report = bounds.verify_synthetic_transfer_bound(env, g, spec)
        assert abs(report.slack) < 1e-12
        assert report.details["target_pair_js"] < 1e-15

    def test_identity_on_iid_environment(self, rng):
        d = random_joint(rng, 3, 2)
        env = DiscreteEnv(domains=(d, d, d), candidate_maps=(MappingFn(np.arange(3)),))
        spec = random_loss_spec(rng, 3, 2)
        assert abs(bounds.verify_synthetic_transfer_bound(env, env.candidate_maps[0], spec).slack) < 1e-12

    def test_randomized_instances_nonnegative(self, rng):
        worst = math.inf
        for _ in range(300):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=1)
            spec = random_loss_spec(rng, nx, ny)
            worst = min(worst, bounds.verify_synthetic_transfer_bound(env, env.candidate_maps[0], spec).slack)
        assert worst >= -1e-9

    def test_disjoint_support_case_shows_constant_is_minimal(self):
        # Risk gap G at JS = ln 2: any penalty below sqrt(2)·G·sqrt(ln 2) fails.
        src = DiscreteJoint(np.array([[1.0, 0.0], [0.0, 0.0]]))
        target = DiscreteJoint(np.array([[0.0, 0.0], [0.0, 1.0]]))
        env = DiscreteEnv(domains=(src, src, target), candidate_maps=(MappingFn(np.array([0, 1])),))
        spec = LossSpec(classifier=np.array([0, 0]), loss=1.0 - np.eye(2))
        report = bounds.verify_synthetic_transfer_bound(env, env.candidate_maps[0], spec)
        assert report.target_risk == 1.0
        assert abs(report.bound - math.sqrt(2.0 * math.log(2.0))) < 1e-12
        assert report.slack >= 0.0


class TestSequentialTransferBound:
    def test_zero_divergence_environment(self, rng):
        d = random_joint(rng, 3, 2)
        env = DiscreteEnv(domains=(d, d, d, d), candidate_maps=(MappingFn(np.arange(3)),))
        report = bounds.find_minimax_map(env)
        spec = random_loss_spec(rng, 3, 2)
        out = bounds.verify_sequential_transfer_bound(env, report, spec)
        assert out.details["gap_full"] == 0.0
        assert abs(out.slack) < 1e-12

    def test_two_source_reduction_matches_single_pair_formula(self, rng):
        for _ in range(50):
            env = random_env(rng, 3, 2, 2, n_maps=4)
            report = bounds.find_minimax_map(env)
            spec = random_loss_spec(rng, 3, 2)
            out = bounds.verify_sequential_transfer_bound(env, report, spec)
            # m=2: coefficient is sqrt(2)·G, one source-pair term plus the gap term.
            d2 = report.divergences[0]
            gap = report.gap_full
            synthetic = bounds.apply_map(env.sources[-1], report.map)
            expected = bounds.risk(spec, synthetic) + math.sqrt(2.0) * spec.g_range * (
                math.sqrt(d2) + math.sqrt(gap)
            )
            assert abs(out.bound - expected) < 1e-12

    def test_randomized_instances_nonnegative(self, rng):
        worst = math.inf
        for _ in range(300):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=8)
            report = bounds.find_minimax_map(env)
            spec = random_loss_spec(rng, nx, ny)
            worst = min(worst, bounds.verify_sequential_transfer_bound(env, report, spec).slack)
        assert worst >= -1e-9

    def test_bound_non_increasing_in_source_count(self, rng):
        # Alternating A,B,... chains keep every consecutive divergence equal
        # and the full gap at zero, isolating the m-dependence of the bound.
        a = random_joint(rng, 3, 2, strictly_positive=True)
        b = random_joint(rng, 3, 2, strictly_positive=True)
        spec = random_loss_spec(rng, 3, 2)
        ident = MappingFn(np.arange(3))
        values = []
        for m in (2, 3, 5, 9):
            chain = tuple(a if i % 2 == 0 else b for i in range(m + 1))
            env = DiscreteEnv(domains=chain, candidate_maps=(ident,))
            report = bounds.find_minimax_map(env)
            values.append(bounds.sequential_bound_value(env, report, spec))
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
                return DiscreteJoint(cols * marg)
            p, q = joint(), joint()
            t1, t2, t3 = decomposed_terms(p, q)
            assert abs(t1) < 1e-14
            assert bounds.js(p, q) <= t2 + t3 + 1e-12

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
        env = DiscreteEnv(domains=(d, d, d, d), candidate_maps=(MappingFn(np.arange(3)),))
        report = bounds.find_minimax_map(env)
        spec = random_loss_spec(rng, 3, 2)
        out = bounds.verify_decomposed_transfer_bound(env, report, spec)
        assert all(v == 0.0 for v in out.details["label_terms"])
        assert abs(out.slack) < 1e-12

    def test_shared_label_marginal_zeroes_term_one(self, rng):
        # The pushforward preserves each domain's label marginal, so when all
        # domains share one marginal the label term vanishes identically.
        marg = np.array([0.3, 0.7])
        def joint():
            cols = rng.random((3, 2)) + 0.05
            cols /= cols.sum(axis=0, keepdims=True)
            return DiscreteJoint(cols * marg)
        env = DiscreteEnv(
            domains=tuple(joint() for _ in range(4)),
            candidate_maps=tuple(random_map(rng, 3) for _ in range(4)),
        )
        report = bounds.find_minimax_map(env)
        out = bounds.verify_decomposed_transfer_bound(env, report, random_loss_spec(rng, 3, 2))
        assert all(abs(v) < 1e-14 for v in out.details["label_terms"])

    def test_relaxation_dominates_tighter_bound(self, rng):
        for _ in range(200):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            env = random_env(rng, nx, ny, int(rng.integers(2, 5)), n_maps=8)
            report = bounds.find_minimax_map(env)
            spec = random_loss_spec(rng, nx, ny)
            out = bounds.verify_decomposed_transfer_bound(env, report, spec)
            assert out.slack >= -1e-9
            assert out.details["relaxation_margin"] >= -1e-12


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
        env = random_env(rng, 4, 3, 3, n_maps=5)
        back = bounds.env_from_dict(env_to_dict(env))
        assert len(back.domains) == len(env.domains)
        for a, b in zip(env.domains, back.domains):
            assert np.array_equal(a.p, b.p)
        for a, b in zip(env.candidate_maps, back.candidate_maps):
            assert np.array_equal(a.table, b.table)

    def test_declared_sizes_checked(self, rng):
        payload = env_to_dict(random_env(rng, 3, 2, 2, n_maps=1))
        payload["nx"] = 7
        with pytest.raises(ValueError, match="nx/ny"):
            bounds.env_from_dict(payload)

    def test_certify_env_produces_three_nonnegative_slacks(self, rng):
        env = random_env(rng, 4, 2, 3, n_maps=6)
        slacks = bounds.certify_env(env)
        assert [s.name for s in slacks] == [
            "synthetic_transfer", "sequential_transfer", "decomposed_transfer",
        ]
        assert all(s.slack >= -1e-9 for s in slacks)


class TestCertificationDriver:
    def test_small_run_all_pass_and_deterministic_across_reruns(self):
        a = bounds.run_certification(instances=40, decomposition_pairs=60, seed=3)
        b = bounds.run_certification(instances=40, decomposition_pairs=60, seed=3)
        assert all(r.passed for r in a)
        for ra, rb in zip(a, b):
            assert ra.to_dict() == rb.to_dict()


def test_joint_validation():
    with pytest.raises(ValueError, match="sums"):
        DiscreteJoint(np.array([[0.5, 0.1], [0.1, 0.1]]))
    with pytest.raises(ValueError, match="negative"):
        DiscreteJoint(np.array([[1.1, -0.1], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):  # a NaN cell slips past the sum check on its own
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteJoint(np.array([[bad, 0.5], [0.25, 0.25]]))
