import numpy as np
import pytest

from edglab import bounds, data, dpnet, harness
from edglab.harness import HParamSpace, SelectionStrategy
from edglab.seeding import child_seed

FAST_SPACE = HParamSpace(
    lr_range=(0.01, 0.05), steps_choices=(60, 120), batch_choices=(4, 8), embed_choices=((2,),)
)


@pytest.fixture(scope="module")
def small_env():
    spec = data.EnvironmentSpec(kind="rotatedcloud", num_domains=5, samples_per_domain=60, domain_distance=20.0, seed=3)
    return data.generate(spec)


class TestEvaluateAccuracy:
    def test_perfect_predictor(self, small_env):
        d = small_env[0]
        assert harness.evaluate_accuracy(lambda x: d.y, d) == 1.0

    def test_constant_predictor_on_balanced_classes(self, small_env):
        d = small_env[0]
        assert harness.evaluate_accuracy(lambda x: np.zeros(len(x), dtype=int), d) == 0.5

    def test_matches_hand_loop(self, small_env, rng):
        d = small_env[0]
        preds = rng.integers(0, 2, size=d.n)
        correct = sum(1 for i in range(min(50, d.n)) if preds[i] == d.y[i])
        got = harness.evaluate_accuracy(lambda x: preds[: len(x)], data.DomainData(0, d.x[:50], d.y[:50], 2))
        assert got == correct / 50


class TestChildSeed:
    def test_stable_frozen_value(self):
        # sha256-derived: platform-independent, must never drift.
        assert child_seed(0, "run", 0, 0) == child_seed(0, "run", 0, 0)
        assert child_seed(0, "run", 0, 0) != child_seed(0, "run", 0, 1)
        assert child_seed(1, "a") != child_seed(1, "b")

    def test_in_range(self):
        for s in range(20):
            val = child_seed(s, "x", s)
            assert 0 <= val < 2**63


class TestRandomSearch:
    def test_single_trial_single_seed_is_best(self, small_env):
        res = harness.random_search(FAST_SPACE, "erm", small_env, n_trials=1, n_seeds=1, master_seed=5)
        assert res.best_index == 0
        assert len(res.trials) == 1
        assert res.std == 0.0
        assert res.mean == res.best.target_accs[0]

    def test_oracle_selection_is_argmax_of_mean_target(self, small_env):
        res = harness.random_search(FAST_SPACE, "erm", small_env, n_trials=4, n_seeds=2, master_seed=7)
        best = res.best
        for trial in res.trials:
            if trial.error is None:
                assert best.mean_target >= trial.mean_target

    def test_std_matches_independent_recomputation(self, small_env):
        res = harness.random_search(FAST_SPACE, "dpnets", small_env, n_trials=2, n_seeds=3, master_seed=9)
        accs = res.best.target_accs
        mean = sum(accs) / len(accs)
        var = sum((a - mean) ** 2 for a in accs) / (len(accs) - 1)
        assert abs(res.std - var**0.5) < 1e-15
        assert abs(res.mean - mean) < 1e-15

    def test_deterministic_across_reruns(self, small_env):
        a = harness.random_search(FAST_SPACE, "dpnets", small_env, n_trials=2, n_seeds=2, master_seed=4)
        b = harness.random_search(FAST_SPACE, "dpnets", small_env, n_trials=2, n_seeds=2, master_seed=4)
        assert a.mean == b.mean and a.std == b.std
        for ta, tb in zip(a.trials, b.trials):
            assert ta.target_accs == tb.target_accs
            assert ta.hparams == tb.hparams

    def test_validation_strategy_populates_val_accuracy(self, small_env):
        res = harness.random_search(
            FAST_SPACE,
            "dpnets",
            small_env,
            n_trials=2,
            n_seeds=2,
            strategy=SelectionStrategy.TRAINING_DOMAIN_VALIDATION,
            master_seed=2,
        )
        for trial in res.trials:
            if trial.error is None:
                assert all(v is not None and 0.0 <= v <= 1.0 for v in trial.val_accs)
        best = res.best
        for trial in res.trials:
            if trial.error is None:
                assert best.mean_val >= trial.mean_val

    def test_more_than_one_worker_rejected(self, small_env):
        with pytest.raises(ValueError, match="workers must be 1"):
            harness.random_search(FAST_SPACE, "erm", small_env, workers=2)
        with pytest.raises(ValueError, match="workers must be 1"):
            bounds.run_certification(instances=1, decomposition_pairs=1, workers=2)

    def test_unknown_algorithm_rejected(self, small_env):
        with pytest.raises(ValueError, match="unknown algorithm"):
            harness.random_search(FAST_SPACE, "mystery", small_env)

    @pytest.mark.parametrize("n_trials,n_seeds", [(0, 1), (1, 0)])
    def test_empty_search_rejected(self, small_env, n_trials, n_seeds):
        with pytest.raises(ValueError, match="at least 1"):
            harness.random_search(FAST_SPACE, "erm", small_env, n_trials=n_trials, n_seeds=n_seeds)

    def test_infeasible_trials_recorded_and_excluded(self, small_env):
        # Per-class batches of 500 cannot be drawn from 30-per-class domains;
        # such trials carry an error and never win selection.
        space = HParamSpace(lr_range=(0.01, 0.05), steps_choices=(40,), batch_choices=(4, 500))
        res = harness.random_search(space, "dpnets", small_env, n_trials=6, n_seeds=1, master_seed=1)
        failed = [t for t in res.trials if t.error is not None]
        assert failed, "expected at least one infeasible draw"
        assert all("insufficient" in t.error for t in failed)
        assert res.best.error is None

    def test_all_trials_failing_raises(self, small_env):
        space = HParamSpace(lr_range=(0.01, 0.05), steps_choices=(40,), batch_choices=(500,))
        with pytest.raises(RuntimeError, match="every trial failed"):
            harness.random_search(space, "dpnets", small_env, n_trials=2, n_seeds=1, master_seed=1)


class TestSweep:
    def test_cell_equals_bare_search(self, small_env):
        spec = data.EnvironmentSpec(kind="rotatedcloud", num_domains=5, samples_per_domain=60, domain_distance=20.0, seed=3)
        sweep = harness.SweepConfig(
            axis="domain_distance", values=(10.0, 20.0), base_spec=spec, algorithms=("erm",)
        )
        cells = harness.run_sweep(sweep, space=FAST_SPACE, n_trials=2, n_seeds=2, master_seed=6)
        cell = next(c for c in cells if c.row == "domain_distance=20.0")
        domains = data.generate(sweep.spec_for(20.0))
        bare = harness.random_search(
            FAST_SPACE,
            "erm",
            domains,
            n_trials=2,
            n_seeds=2,
            master_seed=child_seed(6, "domain_distance", 20.0, "erm"),
        )
        assert (cell.mean, cell.std, cell.per_seed) == (bare.mean, bare.std, tuple(bare.best.target_accs))
        assert (cell.hparams, cell.seeds, cell.failed_runs) == (bare.best.hparams, bare.best.seeds, bare.failed_runs)

    def test_a_bug_is_not_a_failed_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NotImplementedError("a bug, not a failed run")

        monkeypatch.setattr(dpnet, "train_group", broken)
        spec = data.EnvironmentSpec(kind="rotatedcloud", num_domains=5, samples_per_domain=60, domain_distance=20.0, seed=3)
        sweep = harness.SweepConfig(axis="domain_distance", values=(10.0, 20.0), base_spec=spec, algorithms=("dpnets",))
        with pytest.raises(NotImplementedError, match="a bug"):
            harness.run_sweep(sweep, space=FAST_SPACE, n_trials=1, n_seeds=1)

    def test_reproducible_cells(self, small_env):
        spec = data.EnvironmentSpec(kind="rotatedcloud", num_domains=5, samples_per_domain=60, domain_distance=15.0, seed=3)
        sweep = harness.SweepConfig(
            axis="domain_count", values=(4, 5), base_spec=spec, algorithms=("erm",)
        )
        a = harness.run_sweep(sweep, space=FAST_SPACE, n_trials=1, n_seeds=2, master_seed=1)
        b = harness.run_sweep(sweep, space=FAST_SPACE, n_trials=1, n_seeds=2, master_seed=1)
        assert harness.render_csv(a) == harness.render_csv(b)

    def test_config_validation(self):
        spec = data.default_spec("rotatedcloud")
        with pytest.raises(ValueError, match="axis"):
            harness.SweepConfig(axis="wrong", values=(1, 2), base_spec=spec, algorithms=("erm",))
        with pytest.raises(ValueError, match="two axis values"):
            harness.SweepConfig(axis="domain_count", values=(3,), base_spec=spec, algorithms=("erm",))


class TestInterpolationStudy:
    def test_middle_index_rule(self):
        assert harness.middle_index(9) == 4
        assert harness.middle_index(8) == 3  # even count: lower median

    def test_three_settings_per_count(self):
        spec = data.EnvironmentSpec(kind="rotatedcloud", num_domains=5, samples_per_domain=60, domain_distance=15.0, seed=3)
        cells = harness.run_interpolation_study(spec, (5, 7), space=FAST_SPACE, n_trials=1, n_seeds=1, master_seed=2)
        labels = {(c.row, c.algorithm) for c in cells}
        for count in (5, 7):
            for setting in ("dpnets-extrapolation", "erm-extrapolation", "erm-interpolation"):
                assert (f"domains={count}", setting) in labels


class TestReports:
    def make_cells(self):
        def cell(row, algo, per_seed, **kw):
            mean = float(np.mean(per_seed)) if per_seed else None
            std = float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else (0.0 if per_seed else None)
            return harness.CellResult(row, algo, mean, std, tuple(per_seed), "oracle_max_query", **kw)

        return [
            cell("evolcircle", "dpnets", (0.951, 0.933, 0.942)),
            cell("evolcircle", "erm", (0.716, 0.738, 0.727)),
            cell("rplate", "dpnets", (0.945, 0.95, 0.955)),
            cell("rplate", "erm", (), error="boom"),
        ]

    def test_mean_std_formatting_matches_table_style(self):
        assert harness.format_mean_std(0.942, 0.009) == "94.2 ± 0.9"

    def test_markdown_bolds_best_per_column(self):
        md = harness.render_markdown(self.make_cells())
        assert "**94.2 ± 0.9**" in md
        assert "72.7 ± 1.1" in md
        assert "failed" in md

    def test_csv_round_trips_exactly(self):
        cells = self.make_cells()
        parsed = harness.parse_csv(harness.render_csv(cells))
        by_key = {(r["row"], r["algorithm"]): r for r in parsed}
        for c in cells:
            row = by_key[(c.row, c.algorithm)]
            assert row["mean"] == c.mean and row["std"] == c.std

    def test_emit_report_files_and_raw_consistency(self, tmp_path):
        paths = harness.emit_report(self.make_cells(), tmp_path)
        import json

        for raw in paths["raw"]:
            payload = json.loads(open(raw).read())
            if payload["per_seed"]:
                mean = float(np.mean(payload["per_seed"]))
                std = float(np.std(payload["per_seed"], ddof=1))
                assert abs(mean - payload["mean"]) < 1e-12
                assert abs(std - payload["std"]) < 1e-9
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.md").exists()

    def test_unwritable_directory_surfaces_path(self):
        with pytest.raises(RuntimeError, match="cannot write report"):
            harness.emit_report(self.make_cells(), "/proc/definitely/not/writable")
