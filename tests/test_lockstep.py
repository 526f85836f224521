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


def _dpnet_runs(dims, shared, runs=RUNS, n=6):
    models = [dpnet.init_dpnet(dims, 2, seed=10 + i, shared=shared) for i in range(len(runs))]
    configs = [
        dpnet.TrainConfig(steps=steps, n_per_class=n, lr=lr, seed=20 + i)
        for i, (lr, steps) in enumerate(runs)
    ]
    return models, configs


def _arrays(model):
    nets = [model.f_phi] if model.shared_encoder else [model.f_phi, model.f_psi]
    return [a for net in nets for a in net.arrays()]


def _solo(model, domains, config):
    """``dpnet.train`` of one run: its model, losses and query accuracies."""
    [(trained, losses, accs)] = dpnet.train([model], domains, [config])
    assert len(losses) == len(accs) == config.steps
    return trained, losses, accs


def _same_dpnet(got, want):
    (model, losses, accs), (want_model, want_losses, want_accs) = got, want
    assert model.shared_encoder == want_model.shared_encoder
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(model), _arrays(want_model)))
    assert np.array_equal(losses, want_losses) and np.array_equal(accs, want_accs)


def _erm_configs(hidden, runs=RUNS):
    return [
        baselines.ErmConfig(steps=steps, batch_size=16, lr=lr, seed=30 + i, hidden=hidden)
        for i, (lr, steps) in enumerate(runs)
    ]


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
    models, configs = _dpnet_runs(dims, shared)
    group = dpnet.train(models, evolcircle, configs)
    for model, config, got in zip(models, configs, group):
        assert len(got[1]) == len(got[2]) == config.steps
        _same_dpnet(got, _solo(model, evolcircle, config))


@pytest.mark.parametrize("optimizer", ["adam"])
@pytest.mark.parametrize("hidden", [(), (6,)])
def test_erm_group_equals_solo_runs(evolcircle, hidden, optimizer):
    configs = _erm_configs(hidden)
    group = baselines.train_erm(evolcircle, configs, index_mode=IndexMode.ONE_HOT_CONCAT)
    for config, got in zip(configs, group):
        [want] = baselines.train_erm(evolcircle, [config], index_mode=IndexMode.ONE_HOT_CONCAT)
        assert _same_net(got.net, want.net)


def test_group_member_equals_the_frozen_oracle(evolcircle):
    models, configs = _dpnet_runs((2, 4, 2), False)
    group = dpnet.train(models, evolcircle, configs)
    for model, config, (trained, losses, accs) in zip(models, configs, group):
        phi, psi, want = oracle_train_dpnet(model, evolcircle, config)
        for net, layers in ((trained.f_phi, phi), (trained.f_psi, psi)):
            assert all(np.array_equal(a, b) for a, b in zip(net.arrays(), [a for pair in layers for a in pair]))
        assert np.array_equal(np.column_stack([losses, accs]), np.array(want))


# ---------------------------------------------------------------------------
# (b) a run does not depend on its groupmates or their order
# ---------------------------------------------------------------------------


def test_run_ignores_groupmates_and_order(evolcircle):
    models, configs = _dpnet_runs((2, 2), False)
    full = dpnet.train(models, evolcircle, configs)
    for order in ([3, 2, 1, 0], [2, 0], [1]):
        part = dpnet.train([models[i] for i in order], evolcircle, [configs[i] for i in order])
        for i, got in zip(order, part):
            _same_dpnet(got, full[i])
    erm = _erm_configs((4,))
    full = baselines.train_erm(evolcircle, erm)
    part = baselines.train_erm(evolcircle, [erm[2], erm[0]])
    assert _same_net(part[0].net, full[2].net) and _same_net(part[1].net, full[0].net)


def test_inputs_left_untouched(evolcircle):
    models, configs = _dpnet_runs((2, 4, 2), False)
    before = [[a.copy() for a in _arrays(m)] for m in models]
    dpnet.train(models, evolcircle, configs)
    for model, saved in zip(models, before):
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(model), saved))


# ---------------------------------------------------------------------------
# (c) a diverging run fails alone; (d) infeasible episodes fail every run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimizer", ["adam"])
def test_diverging_run_fails_alone(evolcircle, optimizer):
    # The longest run takes the first row, so its failure moves the rows after it.
    runs = [(0.02, 40), (1e200, 70), (0.01, 60)]
    models, configs = _dpnet_runs((2, 2), False, runs)
    erm = _erm_configs((4,), runs)
    with np.errstate(over="ignore", invalid="ignore"):
        group = dpnet.train(models, evolcircle, configs)
        [solo] = dpnet.train([models[1]], evolcircle, [configs[1]])
        erm_group = baselines.train_erm(evolcircle, erm)
        [erm_solo] = baselines.train_erm(evolcircle, [erm[1]])
    assert isinstance(solo, nn.OptimizerError) and isinstance(group[1], nn.OptimizerError)
    assert str(group[1]) == str(solo) == "non-finite gradient"
    assert isinstance(erm_group[1], nn.OptimizerError) and str(erm_group[1]) == str(erm_solo)
    for i in (0, 2):
        _same_dpnet(group[i], _solo(models[i], evolcircle, configs[i]))
        assert _same_net(erm_group[i].net, baselines.train_erm(evolcircle, [erm[i]])[0].net)


def test_progress_reports_the_runs_that_stepped(evolcircle):
    runs = [(0.02, 5), (1e200, 9), (0.01, 8)]
    models, configs = _dpnet_runs((2, 2), False, runs)
    seen, solo_steps = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        group = dpnet.train(models, evolcircle, configs, progress=lambda *call: seen.append(call))
        # Alone, the run reports each step it takes before failing.
        [solo] = dpnet.train([models[1]], evolcircle, [configs[1]], progress=lambda step, _: solo_steps.append(step))
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
    models, configs = _dpnet_runs((2, 2), shared, RUNS[:3], n=n)
    group = dpnet.train(models, evolcircle, configs)
    for model, config, got in zip(models, configs, group):
        [solo] = dpnet.train([model], evolcircle, [config])
        assert isinstance(solo, dpnet.EpisodeError) and isinstance(got, dpnet.EpisodeError)
        assert str(got) == str(solo)


def test_group_settings_must_agree(evolcircle):
    models, configs = _dpnet_runs((2, 2), False, RUNS[:2])
    with pytest.raises(ValueError, match="n_per_class"):
        dpnet.train(models, evolcircle, [configs[0], dpnet.TrainConfig(n_per_class=5)])
    with pytest.raises(ValueError, match="shapes"):
        dpnet.train([models[0], dpnet.init_dpnet((2, 3), 2, seed=0)], evolcircle, configs)
    with pytest.raises(ValueError, match="batch_size"):
        baselines.train_erm(evolcircle, [baselines.ErmConfig(batch_size=8), baselines.ErmConfig(batch_size=9)])


# ---------------------------------------------------------------------------
# The search trains groups and scores each run as run_single would
# ---------------------------------------------------------------------------


def test_search_trains_one_group_per_shape_and_scores_as_single_runs(evolcircle, monkeypatch):
    space = harness.HParamSpace(lr_range=(0.005, 0.05), steps_choices=(20, 40), batch_choices=(4, 8, 50))
    domains = evolcircle + [evolcircle[-1]]  # the last domain stands in as the target
    sizes, train = [], dpnet.train

    def counted(models, *args, **kwargs):
        sizes.append(len(models))
        return train(models, *args, **kwargs)

    monkeypatch.setattr(dpnet, "train", counted)
    res = harness.random_search(space, "dpnets", domains, n_trials=6, n_seeds=2, master_seed=3)
    monkeypatch.undo()
    # Runs differ only in lr, steps and seed within a group: one group per batch size drawn.
    per_batch = Counter(t.hparams["batch"] for t in res.trials)
    assert sorted(sizes) == sorted(2 * count for count in per_batch.values()) and max(sizes) > 2
    assert res.failed_runs, "expected a batch of 50, more than a class holds"
    for t, trial in enumerate(res.trials):
        outcomes = [
            harness.run_single("dpnets", domains[:-1], None, domains[-1], trial.hparams, seed) for seed in trial.seeds
        ]
        assert trial.target_accs == tuple(o.target_acc for o in outcomes if o.error is None)
        errors = [o.error for o in outcomes if o.error]
        assert trial.error == ("; ".join(errors) if errors else None)
        assert [(f[1], f[2]) for f in res.failed_runs if f[0] == t] == [
            (seed, o.error) for seed, o in zip(trial.seeds, outcomes) if o.error
        ]
