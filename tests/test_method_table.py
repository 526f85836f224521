"""The method table: every algorithm is built, scored, saved and loaded
through ``harness.METHODS``, so the search, ``edg-lab train`` and
``edg-lab eval`` agree; plus the failure boundary of ``run_single``, the
rmnist cache key and the folded JS decomposition.
"""
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from edglab import baselines, bounds, cli, data, dpnet, harness
import test_batched_bounds as oracle
from test_data import write_idx

DATASET = ["--dataset", "evolcircle", "--seed", "7", "--num-domains", "6", "--samples", "40"]
HPARAMS = {"steps": 30, "lr": 0.02, "batch": 4, "embed": (2,), "hidden": ()}

SIDECAR_KEYS = {"algo", "dataset", "seed", "num_classes", "feature_dim", "num_domains_seen", "spec"}
FAMILY_KEYS = {"episodic": {"embed_dim", "dims"}, "erm": {"index_mode", "hidden"}}
SPEC_KEYS = {"kind", "num_domains", "samples_per_domain", "domain_distance", "seed"}

# Written by `edg-lab train` (commit f7565ff, before dispatch moved into the
# table) with DATASET, `--steps 60 --batch 8`, `--embed 3,2` for dpnets and
# `--hidden 3` for erm-outer; the values are the target accuracies it reported.
SAVED = Path(__file__).parent / "fixtures" / "saved_checkpoints"
SAVED_ACCURACY = {"dpnets": 0.6, "proto": 0.625, "erm-2": 0.8, "erm-outer": 0.7}
SAVED_FLAGS = {"dpnets": ["--embed", "3,2"], "erm-outer": ["--hidden", "3"]}


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, {e["event"]: e for e in map(json.loads, out.splitlines())}


def family(algo):
    return "episodic" if isinstance(harness.METHODS[algo], harness.Episodic) else "erm"


def test_table_lists_every_algorithm_in_order():
    assert harness.ALGORITHMS == (
        "dpnets", "proto", "erm", "erm-1", "erm-2", "erm-3", "erm-scalar", "erm-onehot", "erm-outer",
    )


@pytest.mark.parametrize("algo", harness.ALGORITHMS)
def test_train_eval_and_search_build_the_same_model(capsys, tmp_path, algo):
    argv = ["train", "--algo", algo, *DATASET, "--steps", "30", "--lr", "0.02", "--batch", "4"]
    code, events = run_cli(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 0
    trained = events["train"]["target_accuracy"]

    code, events = run_cli(capsys, ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(tmp_path)])
    assert code == 0
    assert events["eval"]["target_accuracy"] == trained

    domains = data.generate(data.default_spec("evolcircle", seed=7, num_domains=6, samples_per_domain=40))
    outcome = harness.run_single(algo, domains[:-1], None, domains[-1], HPARAMS, seed=7)
    assert outcome.error is None
    assert outcome.target_acc == trained

    sidecar = json.loads((tmp_path / "model.json").read_text())
    assert set(sidecar) == SIDECAR_KEYS | FAMILY_KEYS[family(algo)]
    assert set(sidecar["spec"]) == SPEC_KEYS


@pytest.mark.parametrize("algo", sorted(SAVED_ACCURACY))
def test_saved_checkpoints_still_evaluate(capsys, tmp_path, algo):
    shutil.copytree(SAVED / algo, tmp_path / "saved")
    ckpt = tmp_path / "saved" / "model.ckpt"
    code, events = run_cli(capsys, ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert code == 0
    assert events["eval"]["target_accuracy"] == SAVED_ACCURACY[algo]
    # Training again with the same flags writes the same sidecar.
    argv = ["train", "--algo", algo, *DATASET, "--steps", "60", "--batch", "8", *SAVED_FLAGS.get(algo, [])]
    assert run_cli(capsys, [*argv, "--out", str(tmp_path / "new")])[0] == 0
    assert json.loads((tmp_path / "new" / "model.json").read_text()) == json.loads(ckpt.with_suffix(".json").read_text())


@pytest.mark.parametrize("algo", ["dpnets", "proto", "erm-scalar"])
def test_validation_scores_each_family_its_own_way(algo):
    # At 40 degrees per domain, scoring with the wrong support domain moves
    # both episodic validation accuracies.
    spec = data.default_spec("rotatedcloud", seed=2, num_domains=6, samples_per_domain=60, domain_distance=40.0)
    domains = data.generate(spec)
    pairs = [data.split_train_val(d, 0.8, seed=5) for d in domains[:-1]]
    train, val = [t for t, _ in pairs], [v for _, v in pairs]
    outcome = harness.run_single(algo, train, val, domains[-1], HPARAMS, seed=3)
    [model] = harness.METHODS[algo].fit(train, [(HPARAMS, 3)])
    if algo == "erm-scalar":  # every held-out source, with its own domain index
        predict = [lambda x, i=i: baselines.predict_erm(model, x, val[i].index) for i in range(len(val))]
    elif algo == "dpnets":  # each held-out source but the first, its predecessor as support
        predict = [None] + [lambda x, i=i: dpnet.predict_target(model, train[i - 1], x) for i in range(1, len(val))]
    else:  # each held-out source with its own training half as support
        predict = [lambda x, i=i: dpnet.predict_target(model, train[i], x) for i in range(len(val))]
    accs = [harness.evaluate_accuracy(f, v) for f, v in zip(predict, val) if f is not None]
    assert outcome.val_acc == float(np.mean(accs))


class TestRunSingleFailures:
    @pytest.fixture(scope="class")
    def domains(self):
        return data.generate(data.default_spec("evolcircle", seed=7, num_domains=6, samples_per_domain=40))

    def test_infeasible_episode_is_a_failed_run(self, domains):
        outcome = harness.run_single("dpnets", domains[:-1], None, domains[-1], {**HPARAMS, "batch": 500}, seed=1)
        assert outcome.target_acc is None and "insufficient" in outcome.error

    def test_other_value_errors_raise(self, domains):
        # One source domain cannot form a consecutive pair: a caller's bug,
        # not an unlucky draw, so it must not be recorded as a failed trial.
        with pytest.raises(ValueError, match="two source domains") as info:
            harness.run_single("dpnets", domains[:1], None, domains[-1], HPARAMS, seed=1)
        assert not isinstance(info.value, dpnet.EpisodeError)

    @pytest.mark.parametrize("same_domain", [False, True])
    def test_episodes_raise_episode_error(self, domains, same_domain):
        with pytest.raises(dpnet.EpisodeError):
            dpnet.Episodes(domains, 500, [np.random.default_rng(0)], same_domain=same_domain)


def idx_flags(directory, seed, n=80):
    """``--images/--labels`` for a fresh pair of procedural IDX files."""
    rng = np.random.default_rng(seed)
    directory.mkdir()
    img, lbl = write_idx(directory, rng.integers(0, 256, size=(n, 28, 28)), np.tile(np.arange(10), n // 10))
    return ["--images", str(img), "--labels", str(lbl)]


class TestRmnistCacheKey:
    SPEC = ["--dataset", "rmnist", "--num-domains", "3", "--samples", "20", "--seed", "1"]

    def test_different_idx_files_do_not_share_a_cache(self, capsys, tmp_path):
        first, second = idx_flags(tmp_path / "a", seed=0), idx_flags(tmp_path / "b", seed=1)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        gen = ["gen-data", *self.SPEC, *cache]
        _, events = run_cli(capsys, [*gen, *first, "--out", str(tmp_path / "o1")])
        assert "dataset-cached" in events
        _, events = run_cli(capsys, [*gen, *second, "--out", str(tmp_path / "o2")])
        assert "dataset-cached" in events and "dataset-cache-hit" not in events
        _, events = run_cli(capsys, [*gen, *first, "--out", str(tmp_path / "o3")])
        assert "dataset-cache-hit" in events
        a, b = (data.load_domains(tmp_path / o / "rmnist.bin") for o in ("o1", "o2"))
        assert not np.array_equal(a[0].x, b[0].x)
        assert len(list((tmp_path / "cache").glob("*.bin"))) == 2

    def test_eval_finds_the_training_cache_from_the_sidecar(self, capsys, tmp_path):
        idx = idx_flags(tmp_path / "idx", seed=0)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        train = ["train", "--algo", "erm", *self.SPEC, *idx, *cache, "--steps", "5", "--batch", "1"]
        code, events = run_cli(capsys, [*train, "--out", str(tmp_path / "m")])
        assert code == 0
        sidecar = json.loads((tmp_path / "m" / "model.json").read_text())
        assert len(sidecar["spec"]["source_sha256"]) == 16
        ckpt = ["eval", "--checkpoint", str(tmp_path / "m" / "model.ckpt"), "--out", str(tmp_path)]
        code, evals = run_cli(capsys, [*ckpt, *cache])
        assert code == 0 and "dataset-cache-hit" in evals
        assert evals["eval"]["target_accuracy"] == events["train"]["target_accuracy"]
        # Without the cache the IDX files are needed again.
        code, evals = run_cli(capsys, ckpt)
        assert code == 2 and "--images" in evals["config-error"]["message"]

    def test_digest_is_not_a_setting(self, capsys, tmp_path):
        idx = idx_flags(tmp_path / "idx", seed=0)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        run_cli(capsys, ["gen-data", *self.SPEC, *idx, *cache, "--out", str(tmp_path / "o")])
        digest = next((tmp_path / "cache").glob("*.bin")).stem.rsplit("-x", 1)[1]
        for command in ("gen-data", "train"):
            code, events = run_cli(
                capsys, [command, *self.SPEC, *cache, "--set", f"source-sha256={digest}", "--out", str(tmp_path / "p")]
            )
            assert code == 2 and "--images" in events["config-error"]["message"]


def test_js_decomposition_gap_folds_the_terms(monkeypatch):
    rng = np.random.default_rng(3)
    shapes = []
    js = bounds.js
    monkeypatch.setattr(bounds, "js", lambda p, q: shapes.append(np.shape(p)) or js(p, q))
    for _ in range(200):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        p, q = oracle.random_joint(rng, nx, ny), oracle.random_joint(rng, nx, ny)
        shapes.clear()
        gap = bounds.js_decomposition_gap(p, q)
        # Every label's conditional JS in one stacked call, then the label marginals and the joint.
        assert shapes == [(ny, nx), (ny,), (nx * ny,)]
        # The pre-fold formula on the scalar oracle: each weighted conditional term added in turn.
        rhs = oracle.js(p.sum(axis=0), q.sum(axis=0))
        for weights in (p.sum(axis=0), q.sum(axis=0)):
            rhs += sum(weights[y] * oracle._conditional_js(p, q, y) for y in range(ny) if weights[y] > 0)
        assert abs(gap - (rhs - oracle.js(p, q))) <= 1e-15
        assert gap >= -1e-12
