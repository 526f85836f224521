"""Lockstep training: R runs stepped together in one stacked buffer must each
end exactly where they end alone.

The reference for a run is the same run trained in a group of one
(``dpnet.train``, ``baselines.train_erm``), which ``tests/test_lean_step.py`` pins to
the frozen functional trainer. Parameters and per-step (loss, query accuracy)
traces are compared with ``np.array_equal``.
"""
from collections import Counter

import numpy as np
import pytest

from edglab import baselines, data, dpnet, harness, nn
from edglab.baselines import IndexMode
from test_lean_step import oracle_train_dpnet

# (lr, steps) per run: mixed rates and lengths, two runs of equal length.
RUNS = [(0.02, 40), (0.005, 70), (0.05, 25), (0.01, 70)]


@pytest.fixture(scope="module")
def evolcircle():
    return data.generate(data.default_spec("evolcircle", seed=7, num_domains=8, samples_per_domain=80))[:-1]


def _dpnet_runs(embed, runs=RUNS, n=6):
    return [({"steps": steps, "batch": n, "lr": lr, "embed": embed}, 20 + i) for i, (lr, steps) in enumerate(runs)]


def _arrays(model):
    nets = [model.f_phi] if model.f_phi is model.f_psi else [model.f_phi, model.f_psi]
    return [a for net in nets for a in net.arrays()]


def _solo(domains, run, shared=False):
    """``dpnet.train`` of one run: its model, losses and query accuracies."""
    [(trained, losses, accs)] = dpnet.train(domains, [run], shared)
    assert len(losses) == len(accs) == run[0]["steps"]
    return trained, losses, accs


def _same_dpnet(got, want):
    (model, losses, accs), (want_model, want_losses, want_accs) = got, want
    assert (model.f_phi is model.f_psi) == (want_model.f_phi is want_model.f_psi)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(model), _arrays(want_model)))
    assert np.array_equal(losses, want_losses) and np.array_equal(accs, want_accs)


def _erm_runs(hidden, runs=RUNS):
    return [({"steps": steps, "batch": 8, "lr": lr, "hidden": hidden}, 30 + i) for i, (lr, steps) in enumerate(runs)]


def _same_net(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


# ---------------------------------------------------------------------------
# (a) a group equals its runs trained alone
# ---------------------------------------------------------------------------


# Adam is the only optimizer; the parameter keeps the cases' names.
@pytest.mark.parametrize("optimizer", ["adam"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 8, 3)])
@pytest.mark.parametrize("algo", ["dpnets", "proto"])
def test_episodic_group_equals_solo_runs(evolcircle, algo, dims, optimizer):
    shared = algo == "proto"
    runs = _dpnet_runs(dims[1:])
    group = dpnet.train(evolcircle, runs, shared)
    for run, got in zip(runs, group):
        assert (got[0].f_phi is got[0].f_psi) == shared and len(got[1]) == len(got[2]) == run[0]["steps"]
        _same_dpnet(got, _solo(evolcircle, run, shared))


@pytest.mark.parametrize("optimizer", ["adam"])
@pytest.mark.parametrize("hidden", [(), (6,)])
def test_erm_group_equals_solo_runs(evolcircle, hidden, optimizer):
    runs = _erm_runs(hidden)
    group = baselines.train_erm(evolcircle, runs, index_mode=IndexMode.ONE_HOT_CONCAT)
    for run, got in zip(runs, group):
        [want] = baselines.train_erm(evolcircle, [run], index_mode=IndexMode.ONE_HOT_CONCAT)
        assert _same_net(got.net, want.net)


def test_group_member_equals_the_frozen_oracle(evolcircle):
    runs = _dpnet_runs((4, 2))
    group = dpnet.train(evolcircle, runs)
    for (hparams, seed), (trained, losses, accs) in zip(runs, group):
        phi, psi, want = oracle_train_dpnet(evolcircle, hparams, seed)
        for net, layers in ((trained.f_phi, phi), (trained.f_psi, psi)):
            assert all(np.array_equal(a, b) for a, b in zip(net.arrays(), [a for pair in layers for a in pair]))
        assert np.array_equal(np.column_stack([losses, accs]), np.array(want))


# ---------------------------------------------------------------------------
# (b) a run does not depend on its groupmates or their order
# ---------------------------------------------------------------------------


def test_run_ignores_groupmates_and_order(evolcircle):
    runs = _dpnet_runs((2,))
    full = dpnet.train(evolcircle, runs)
    for order in ([3, 2, 1, 0], [2, 0], [1]):
        part = dpnet.train(evolcircle, [runs[i] for i in order])
        for i, got in zip(order, part):
            _same_dpnet(got, full[i])
    erm = _erm_runs((4,))
    full = baselines.train_erm(evolcircle, erm)
    part = baselines.train_erm(evolcircle, [erm[2], erm[0]])
    assert _same_net(part[0].net, full[2].net) and _same_net(part[1].net, full[0].net)


def test_inputs_left_untouched(evolcircle):
    before = [(d.x.copy(), d.y.copy()) for d in evolcircle]
    for shared in (False, True):
        dpnet.train(evolcircle, _dpnet_runs((4, 2)), shared)
    baselines.train_erm(evolcircle, _erm_runs((4,)), index_mode=IndexMode.OUTER_PRODUCT)
    for d, (x, y) in zip(evolcircle, before):
        assert np.array_equal(d.x, x) and np.array_equal(d.y, y)


# ---------------------------------------------------------------------------
# (c) a diverging run fails alone; (d) infeasible episodes fail every run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimizer", ["adam"])
def test_diverging_run_fails_alone(evolcircle, optimizer):
    # The longest run takes the first row, so its failure moves the rows after it.
    runs = [(0.02, 40), (1e200, 70), (0.01, 60)]
    dp = _dpnet_runs((2,), runs)
    erm = _erm_runs((4,), runs)
    with np.errstate(over="ignore", invalid="ignore"):
        group = dpnet.train(evolcircle, dp)
        [solo] = dpnet.train(evolcircle, [dp[1]])
        erm_group = baselines.train_erm(evolcircle, erm)
        [erm_solo] = baselines.train_erm(evolcircle, [erm[1]])
    assert isinstance(solo, nn.OptimizerError) and isinstance(group[1], nn.OptimizerError)
    assert str(group[1]) == str(solo) == "non-finite gradient"
    assert isinstance(erm_group[1], nn.OptimizerError) and str(erm_group[1]) == str(erm_solo)
    for i in (0, 2):
        _same_dpnet(group[i], _solo(evolcircle, dp[i]))
        assert _same_net(erm_group[i].net, baselines.train_erm(evolcircle, [erm[i]])[0].net)


def test_progress_reports_the_runs_that_stepped(evolcircle):
    runs = [(0.02, 5), (1e200, 9), (0.01, 8)]
    dp = _dpnet_runs((2,), runs)
    seen, solo_steps = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        group = dpnet.train(evolcircle, dp, progress=lambda *call: seen.append(call))
        # Alone, the run reports each step it takes before failing.
        [solo] = dpnet.train(evolcircle, [dp[1]], progress=lambda step, _: solo_steps.append(step))
    failed_at = len(solo_steps)
    assert isinstance(solo, nn.OptimizerError)
    assert isinstance(group[1], nn.OptimizerError) and 0 < failed_at < 8
    assert [step for step, _ in seen] == list(range(8))
    for step, losses in seen:
        want = [run for run, (_, steps) in enumerate(runs) if step < steps and (run != 1 or step < failed_at)]
        assert sorted(losses) == want
        for run in want:
            if run != 1:
                assert losses[run] == group[run][1][step]


@pytest.mark.parametrize("shared", [False, True])
def test_infeasible_batch_fails_each_run_with_its_solo_message(evolcircle, shared):
    # 40 samples per class: dpnets fits 40 per class, proto 20.
    n = 30 if shared else 50
    runs = _dpnet_runs((2,), RUNS[:3], n=n)
    group = dpnet.train(evolcircle, runs, shared)
    for run, got in zip(runs, group):
        [solo] = dpnet.train(evolcircle, [run], shared)
        assert isinstance(solo, dpnet.EpisodeError) and isinstance(got, dpnet.EpisodeError)
        assert str(got) == str(solo)


def test_group_settings_must_agree(evolcircle):
    # Each trainer rejects a group whose runs differ on one of its
    # GROUP_KEYS, and trains one whose runs differ on anything else.
    base = {"steps": 3, "batch": 4, "lr": 0.01, "embed": (2,), "hidden": ()}
    other = {"batch": 5, "embed": (3,), "hidden": (4,)}
    for train, keys in ((dpnet.train, dpnet.GROUP_KEYS), (baselines.train_erm, baselines.GROUP_KEYS)):
        for key in keys:
            with pytest.raises(ValueError, match=f"must agree on {', '.join(keys)}"):
                train(evolcircle, [(base, 0), ({**base, key: other[key]}, 1)])
        free = {key: value for key, value in other.items() if key not in keys}
        assert len(train(evolcircle, [(base, 0), ({**base, **free, "lr": 0.02, "steps": 5}, 1)])) == 2
        with pytest.raises(ValueError, match="at least one run"):
            train(evolcircle, [])


# ---------------------------------------------------------------------------
# The search trains groups and scores each run as run_single would
# ---------------------------------------------------------------------------


def _scored_as_single_runs(res, algo, domains):
    for t, trial in enumerate(res.trials):
        outcomes = [
            harness.run_single(algo, domains[:-1], None, domains[-1], trial.hparams, seed) for seed in trial.seeds
        ]
        assert trial.target_accs == tuple(o.target_acc for o in outcomes if o.error is None)
        errors = [o.error for o in outcomes if o.error]
        assert trial.error == ("; ".join(errors) if errors else None)
        assert [(f[1], f[2]) for f in res.failed_runs if f[0] == t] == [
            (seed, o.error) for seed, o in zip(trial.seeds, outcomes) if o.error
        ]


def test_search_trains_one_group_per_shape_and_scores_as_single_runs(evolcircle, monkeypatch):
    space = harness.HParamSpace(lr_range=(0.005, 0.05), steps_choices=(20, 40), batch_choices=(4, 8, 50))
    domains = evolcircle + [evolcircle[-1]]  # the last domain stands in as the target
    sizes, train = [], dpnet.train

    def counted(sources, runs, *args, **kwargs):
        sizes.append(len(runs))
        return train(sources, runs, *args, **kwargs)

    monkeypatch.setattr(dpnet, "train", counted)
    res = harness.random_search(
        space, "dpnets", domains, n_trials=6, n_seeds=2,
        strategy=harness.SelectionStrategy.ORACLE_MAX_QUERY, master_seed=3,
    )
    monkeypatch.undo()
    # Runs differ only in lr, steps and seed within a group: one group per batch size drawn.
    per_batch = Counter(t.hparams["batch"] for t in res.trials)
    assert sorted(sizes) == sorted(2 * count for count in per_batch.values()) and max(sizes) > 2
    assert res.failed_runs, "expected a batch of 50, more than a class holds"
    _scored_as_single_runs(res, "dpnets", domains)


@pytest.mark.parametrize("algo", ["dpnets", "erm"])
def test_search_groups_runs_by_the_trainer_keys(evolcircle, monkeypatch, algo):
    # Two embed and two hidden choices: each method's groups split on its
    # own GROUP_KEYS only, so a group mixes the widths its trainer never reads.
    module, name, ignored = {"dpnets": (dpnet, "train", "hidden"), "erm": (baselines, "train_erm", "embed")}[algo]
    space = harness.HParamSpace(
        lr_range=(0.005, 0.05), steps_choices=(10, 20), batch_choices=(4, 50),
        embed_choices=((2,), (3,)), hidden_choices=((), (4,)),
    )
    domains = evolcircle + [evolcircle[-1]]
    keys, train, groups = module.GROUP_KEYS, getattr(module, name), []
    assert harness.METHODS[algo].group_keys == keys

    def counted(sources, runs, *args, **kwargs):
        groups.append([hp for hp, _ in runs])
        return train(sources, runs, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    res = harness.random_search(
        space, algo, domains, n_trials=8, n_seeds=2,
        strategy=harness.SelectionStrategy.ORACLE_MAX_QUERY, master_seed=5,
    )
    monkeypatch.undo()
    shapes = [{tuple(hp[k] for k in keys) for hp in group} for group in groups]
    assert all(len(shape) == 1 for shape in shapes)
    assert len(groups) == len({tuple(t.hparams[k] for k in keys) for t in res.trials})
    assert any(len({hp[ignored] for hp in group}) > 1 for group in groups)
    _scored_as_single_runs(res, algo, domains)
