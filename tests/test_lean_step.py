"""The in-place training step against a frozen copy of the functional trainer
it replaced, plus the CLI's exit-2 paths, atomic saves and the benchmark's
traced names.

The oracle below is the earlier trainer: it builds every parameter, moment and
gradient array afresh on each step, scans the labels for each class on every
episode, stacks per-class blocks inside the loss and recomputes the logged
query accuracy with a second forward pass through both encoders. The package
must reproduce it bit for bit, so parameters and per-step (loss, query
accuracy) traces are compared with ``np.array_equal``.
"""
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from edglab import baselines, bounds, cli, data, dpnet, nn
from edglab.baselines import IndexMode

# ---------------------------------------------------------------------------
# Frozen oracle: the functional trainer, kept only here
# ---------------------------------------------------------------------------


def _forward(layers, batch):
    h = batch
    inputs, pre_acts = [], []
    for li, (w, b) in enumerate(layers):
        inputs.append(h)
        z = h @ w.T + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if li < len(layers) - 1 else z
    return h, (inputs, pre_acts)


def _backward(layers, cache, g):
    inputs, pre_acts = cache
    grads = [None] * len(layers)
    for li in reversed(range(len(layers))):
        w, _ = layers[li]
        grads[li] = (g.T @ inputs[li], g.sum(axis=0))
        g = g @ w
        if li > 0:
            g = g * (pre_acts[li - 1] > 0.0)
    return grads


def _pairwise_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _softmax_cross_entropy(logits, labels):
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = -float(np.mean(logp[np.arange(n), labels]))
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _flat(layers):
    return [a for pair in layers for a in pair]


def _pairs(arrays):
    return [(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2)]


class _OracleOptimizer:
    """Functional Adam: every step returns fresh arrays."""

    def __init__(self, lr):
        self.lr = lr
        self.m = self.v = ()
        self.t = 0

    def step(self, arrays, grads):
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise nn.OptimizerError("non-finite gradient")
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = self.m if self.m else tuple(np.zeros_like(p) for p in arrays)
        v = self.v if self.v else tuple(np.zeros_like(p) for p in arrays)
        self.t += 1
        self.m = tuple(beta1 * mi + (1 - beta1) * g for mi, g in zip(m, grads))
        self.v = tuple(beta2 * vi + (1 - beta2) * g * g for vi, g in zip(v, grads))
        bc1 = 1 - beta1**self.t
        bc2 = 1 - beta2**self.t
        return [
            p - self.lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
            for p, mi, vi in zip(arrays, self.m, self.v)
        ]


def _oracle_episode(domains, n, rng, same_domain):
    if same_domain:
        i = int(rng.integers(0, len(domains)))
        sup_dom = qry_dom = domains[i]
    else:
        i = int(rng.integers(0, len(domains) - 1))
        sup_dom, qry_dom = domains[i], domains[i + 1]
    support, query = [], []
    for k in range(sup_dom.num_classes):
        if same_domain:
            pick = rng.choice(np.flatnonzero(sup_dom.y == k), size=2 * n, replace=False)
            support.append(sup_dom.x[pick[:n]])
            query.append(qry_dom.x[pick[n:]])
        else:
            support.append(sup_dom.x[rng.choice(np.flatnonzero(sup_dom.y == k), size=n, replace=False)])
            query.append(qry_dom.x[rng.choice(np.flatnonzero(qry_dom.y == k), size=n, replace=False)])
    return support, query


def _oracle_episode_loss(phi, psi, support, query):
    k_classes, n_b = len(support), support[0].shape[0]
    zs, cache_s = _forward(phi, np.vstack(support))
    zq, cache_q = _forward(psi, np.vstack(query))
    protos = zs.reshape(k_classes, n_b, -1).mean(axis=1)
    d2 = _pairwise_sq_dists(zq, protos)
    labels = np.repeat(np.arange(k_classes), n_b)
    n_q = k_classes * n_b
    rows = np.arange(n_q)
    neg = -d2
    m = neg.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(neg - m).sum(axis=1, keepdims=True))).ravel()
    loss = float(np.mean(d2[rows, labels] + lse))
    p = np.exp(neg - m)
    p /= p.sum(axis=1, keepdims=True)
    gd2 = -p
    gd2[rows, labels] += 1.0
    gd2 /= n_q
    gzq = 2.0 * (zq * gd2.sum(axis=1, keepdims=True) - gd2 @ protos)
    gproto = -2.0 * (gd2.T @ zq - gd2.sum(axis=0)[:, None] * protos)
    gzs = np.repeat(gproto / n_b, n_b, axis=0)
    return loss, _backward(phi, cache_s, gzs), _backward(psi, cache_q, gzq)


def _oracle_query_accuracy(phi, psi, support, query):
    protos = np.vstack([_forward(phi, block)[0].mean(axis=0) for block in support])
    zq, _ = _forward(psi, np.vstack(query))
    preds = np.argmin(_pairwise_sq_dists(zq, protos), axis=1)
    labels = np.repeat(np.arange(len(support)), support[0].shape[0])
    return float(np.mean(preds == labels))


def oracle_train_dpnet(domains, hparams, seed, shared=False):
    """One (hparams, seed) run: encoders from ``init_dpnet`` of the seed,
    episodes from a second generator of it (same-domain when shared)."""
    dims = (domains[0].dim,) + tuple(hparams["embed"])
    model = dpnet.init_dpnet(dims, domains[0].num_classes, seed, shared)
    rng = np.random.default_rng(seed)
    opt = _OracleOptimizer(hparams["lr"])
    phi, psi = list(model.f_phi.layers), list(model.f_psi.layers)
    trace = []
    for _ in range(hparams["steps"]):
        support, query = _oracle_episode(domains, hparams["batch"], rng, shared)
        loss, g_phi, g_psi = _oracle_episode_loss(phi, psi, support, query)
        old_phi, old_psi = phi, psi
        if shared:
            grads = [a + b for a, b in zip(_flat(g_phi), _flat(g_psi))]
            phi = psi = _pairs(opt.step(_flat(phi), grads))
        else:
            new = _pairs(opt.step(_flat(phi) + _flat(psi), _flat(g_phi) + _flat(g_psi)))
            phi, psi = new[: len(phi)], new[len(phi) :]
        trace.append((loss, _oracle_query_accuracy(old_phi, old_psi, support, query)))
    return phi, psi, trace


def _oracle_index_features(x, i, mode, m):
    """Domain i's features with its index attached, for m sources: scalar
    i/(m-1), or e_i over the m+1 positions that include the target."""
    if mode is IndexMode.NONE:
        return x
    if mode is IndexMode.SCALAR_CONCAT:
        return np.column_stack([x, np.full(len(x), i / (m - 1))])
    hot = np.zeros((len(x), m + 1))
    hot[:, i] = 1.0
    if mode is IndexMode.ONE_HOT_CONCAT:
        return np.column_stack([x, hot])
    blocks = [x if j == i else np.zeros_like(x) for j in range(m + 1)]
    return np.column_stack(blocks)


def oracle_train_erm(domains, hparams, seed, index_mode, last_k=None):
    m = len(domains)
    used = domains[-last_k:] if last_k else domains
    xs = np.vstack([_oracle_index_features(d.x, d.index, index_mode, m) for d in used])
    ys = np.concatenate([d.y for d in used])
    rng = np.random.default_rng(seed)
    net = nn.init_mlp((xs.shape[1],) + tuple(hparams["hidden"]) + (used[0].num_classes,), rng)
    layers = list(net.layers[:-1]) + [tuple(np.zeros_like(a) for a in net.layers[-1])]
    opt = _OracleOptimizer(hparams["lr"])
    n = xs.shape[0]
    batch = min(hparams["batch"] * used[0].num_classes, n)
    for _ in range(hparams["steps"]):
        pick = rng.choice(n, size=batch, replace=False)
        logits, cache = _forward(layers, xs[pick])
        _, dlogits = _softmax_cross_entropy(logits, ys[pick])
        layers = _pairs(opt.step(_flat(layers), _flat(_backward(layers, cache, dlogits))))
    return layers


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


def _layers_equal(params, layers):
    return len(params.layers) == len(layers) and all(
        np.array_equal(w, w2) and np.array_equal(b, b2) for (w, b), (w2, b2) in zip(params.layers, layers)
    )


def _blob_domains(dim, num_classes, m=5, per_class=30, seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim)) * 3.0
    domains = []
    for i in range(m):
        drift = 0.3 * i
        x = np.vstack([c + drift + rng.standard_normal((per_class, dim)) for c in centers])
        domains.append(data.DomainData(i, x, np.repeat(np.arange(num_classes), per_class), num_classes))
    return domains


@pytest.fixture(scope="module")
def evolcircle():
    return data.generate(data.default_spec("evolcircle", seed=7, num_domains=8, samples_per_domain=80))[:-1]


@pytest.fixture(scope="module")
def rplate():
    return data.generate(data.default_spec("rplate", seed=7, num_domains=8, samples_per_domain=80))[:-1]


def _check_dpnet(domains, embed, seed, steps=80, n=8, lr=0.02):
    hparams = {"steps": steps, "batch": n, "lr": lr, "embed": embed}
    [(trained, losses, accs)] = dpnet.train(domains, [(hparams, seed)])
    phi, psi, want = oracle_train_dpnet(domains, hparams, seed)
    assert _layers_equal(trained.f_phi, phi) and _layers_equal(trained.f_psi, psi)
    got = np.column_stack([losses, accs])
    assert np.array_equal(got, np.array(want))
    assert len(losses) == steps


# Adam is the only optimizer; the parameter keeps the cases' names.
@pytest.mark.parametrize("optimizer", ["adam"])
class TestDpnetMatchesOracle:
    def test_two_dim_linear_encoders(self, evolcircle, rplate, optimizer):
        _check_dpnet(evolcircle, (2,), seed=1)
        _check_dpnet(rplate, (2,), seed=2, lr=0.08)

    def test_three_layer_mlp(self, rplate, optimizer):
        _check_dpnet(rplate, (16, 8, 4), seed=3)

    def test_wide_inputs_three_classes(self, optimizer):
        _check_dpnet(_blob_domains(20, 3), (32, 8), seed=4, n=5, lr=0.002)


@pytest.mark.parametrize("optimizer", ["adam"])
def test_proto_shared_encoder_matches_oracle(evolcircle, optimizer):
    hparams = {"steps": 80, "batch": 6, "lr": 0.03, "embed": (8, 2)}
    [(trained, losses, accs)] = dpnet.train(evolcircle, [(hparams, 5)], shared=True)
    assert trained.f_phi is trained.f_psi
    phi, _, want = oracle_train_dpnet(evolcircle, hparams, 5, shared=True)
    assert _layers_equal(trained.f_phi, phi)
    assert np.array_equal(np.column_stack([losses, accs]), np.array(want))


@pytest.mark.parametrize("optimizer", ["adam"])
@pytest.mark.parametrize("hidden", [(), (6,)])
@pytest.mark.parametrize("mode", list(IndexMode))
def test_erm_matches_oracle(rplate, mode, hidden, optimizer):
    before = [d.x.copy() for d in rplate]
    hparams = {"steps": 60, "batch": 8, "lr": 0.05, "hidden": hidden}
    [model] = baselines.train_erm(rplate, [(hparams, 6)], index_mode=mode)
    assert _layers_equal(model.net, oracle_train_erm(rplate, hparams, 6, mode))
    assert all(np.array_equal(a, d.x) for a, d in zip(before, rplate))


def test_erm_tail_shuffle_matches_oracle():
    # A pool of 11,600 sampled 300 at a time: above 11,600 // 50, so numpy
    # shuffles the tail of arange(pool) instead of taking Floyd's sample. Two
    # runs of different lengths train in lockstep.
    domains = data.generate(data.default_spec("evolcircle", seed=7, samples_per_domain=400))[:-1]
    assert sum(d.x.shape[0] for d in domains) == 11600
    runs = [({"steps": steps, "batch": 150, "lr": 0.05, "hidden": ()}, seed) for steps, seed in ((12, 8), (20, 9))]
    for model, (hparams, seed) in zip(baselines.train_erm(domains, runs), runs):
        assert _layers_equal(model.net, oracle_train_erm(domains, hparams, seed, IndexMode.NONE))


def test_erm_recent_window_matches_oracle(rplate):
    hparams = {"steps": 60, "batch": 8, "lr": 0.05, "hidden": (4,)}
    [model] = baselines.train_erm(rplate, [(hparams, 7)], last_k=2)
    assert _layers_equal(model.net, oracle_train_erm(rplate, hparams, 7, IndexMode.NONE, last_k=2))


@pytest.mark.parametrize("same_domain", [False, True])
def test_episodes_match_oracle(evolcircle, same_domain):
    rng, oracle_rng = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(50):
        episodes = dpnet.Episodes(evolcircle, 5, [rng], same_domain=same_domain)
        episode, _ = dpnet.sample_episode(episodes, 0, [0])
        got_support, got_query = episode.swapaxes(0, 1)
        support, query = _oracle_episode(evolcircle, 5, oracle_rng, same_domain)
        assert np.array_equal(got_support[0], np.stack(support))
        assert np.array_equal(got_query[0], np.stack(query))


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(12)
    for n, k in ((1, 2), (32, 2), (80, 10), (257, 3)):
        logits = 10.0 * rng.standard_normal((n, k))
        labels = rng.integers(0, k, size=n)
        loss, grad = nn.softmax_cross_entropy(logits, labels)
        want_loss, want_grad = _softmax_cross_entropy(logits, labels)
        assert loss == want_loss and np.array_equal(grad, want_grad)


def test_shared_input_model_left_untouched(evolcircle):
    # train builds its start from init_dpnet of the seed; stepping it must not
    # write into a model the caller built from the same seed, nor into the data.
    model = dpnet.init_dpnet((2, 4, 2), 2, seed=8, shared=True)
    before = [a.copy() for a in model.f_phi.arrays()]
    data = [(d.x.copy(), d.y.copy()) for d in evolcircle]
    hparams = {"steps": 20, "batch": 4, "lr": 0.01, "embed": (4, 2)}
    [(trained, _, _)] = dpnet.train(evolcircle, [(hparams, 8)], shared=True)
    assert all(np.array_equal(a, b) for a, b in zip(before, model.f_phi.arrays()))
    assert not _layers_equal(trained.f_phi, model.f_phi.layers)
    for d, (x, y) in zip(evolcircle, data):
        assert np.array_equal(d.x, x) and np.array_equal(d.y, y)


class TestNonFiniteGradient:
    def test_step_raises_and_leaves_params(self):
        params = np.array([[1.0, -2.0, 3.0]])
        opt = nn.Optimizer([0.1], params)
        with pytest.raises(nn.OptimizerError):
            nn.step_mlps(opt, np.array([[0.5, np.nan, 0.0]]))
        with pytest.raises(nn.OptimizerError):
            nn.step_mlps(opt, np.array([[np.inf, 0.0, 0.0]]))
        assert np.array_equal(params, [[1.0, -2.0, 3.0]])

    def test_diverging_training_raises_like_oracle(self, evolcircle):
        hparams = {"steps": 40, "batch": 4, "lr": 1e200, "embed": (2,)}
        with np.errstate(over="ignore", invalid="ignore"):
            [result] = dpnet.train(evolcircle, [(hparams, 9)])
            with pytest.raises(nn.OptimizerError):
                oracle_train_dpnet(evolcircle, hparams, 9)
        assert isinstance(result, nn.OptimizerError)


# ---------------------------------------------------------------------------
# CLI exit-2 paths
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = cli.main(argv)
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    return code, {e["event"]: e for e in events}


SMALL = ["--dataset", "evolcircle", "--num-domains", "5", "--samples", "40", "--seed", "3"]


def _assert_every_prefix_raises(path, load, error):
    """Cut the file at every byte offset: ``load`` must raise ``error`` and
    nothing else each time."""
    full = path.read_bytes()
    for end in range(len(full)):
        path.write_bytes(full[:end])
        with pytest.raises(error):
            load(path)
    path.write_bytes(full)


class TestCliExitTwo:
    @pytest.mark.parametrize("flag", ["--instances", "--decomposition-pairs"])
    def test_zero_certification_counts(self, capsys, tmp_path, flag):
        code, events = _run(capsys, ["verify-bounds", flag, "0", "--out", str(tmp_path)])
        assert code == 2
        assert flag.lstrip("-") in events["config-error"]["message"]

    def test_run_certification_rejects_zero_counts(self):
        from edglab import bounds

        with pytest.raises(ValueError, match="instances"):
            bounds.run_certification(instances=0, decomposition_pairs=1)
        with pytest.raises(ValueError, match="decomposition_pairs"):
            bounds.run_certification(instances=1, decomposition_pairs=0)

    def test_truncated_dataset_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["train", *SMALL, "--steps", "5", "--cache-dir", str(cache), "--out", str(tmp_path / "o")]
        assert _run(capsys, argv)[0] == 0
        [path] = cache.iterdir()
        _assert_every_prefix_raises(path, data.load_domains, data.IngestionError)
        path.write_bytes(path.read_bytes()[:1000])
        code, events = _run(capsys, argv)
        assert code == 2
        assert "truncated" in events["input-error"]["message"]

    @pytest.mark.parametrize("keep", [8, 12, 30])
    def test_truncated_checkpoint(self, capsys, tmp_path, keep):
        out = tmp_path / "o"
        assert _run(capsys, ["train", *SMALL, "--steps", "5", "--embed", "4,2", "--out", str(out)])[0] == 0
        ckpt = out / "model.ckpt"
        _assert_every_prefix_raises(ckpt, nn.load_checkpoint, nn.CheckpointError)
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        code, events = _run(capsys, ["eval", "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 2
        assert "truncated" in events["input-error"]["message"]

    def test_bad_checkpoint_magic(self, capsys, tmp_path):
        out = tmp_path / "o"
        assert _run(capsys, ["train", *SMALL, "--steps", "5", "--out", str(out)])[0] == 0
        ckpt = out / "model.ckpt"
        ckpt.write_bytes(b"NOTACKPT" + ckpt.read_bytes()[8:])
        code, events = _run(capsys, ["eval", "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 2
        assert "magic" in events["input-error"]["message"]

    @pytest.mark.parametrize("algo,batch", [("dpnets", 500), ("proto", 11), ("dpnets", 0)])
    def test_infeasible_episode_batch(self, capsys, tmp_path, algo, batch):
        # 40 samples per domain: 20 per class, so dpnets fits 20 and proto 10.
        argv = ["train", *SMALL, "--algo", algo, "--batch", str(batch), "--steps", "5", "--out", str(tmp_path)]
        code, events = _run(capsys, argv)
        assert code == 2
        assert "--batch" in events["config-error"]["message"]
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("algo,batch", [("dpnets", 20), ("proto", 10)])
    def test_largest_feasible_episode_batch_trains(self, capsys, tmp_path, algo, batch):
        argv = ["train", *SMALL, "--algo", algo, "--batch", str(batch), "--steps", "3", "--out", str(tmp_path)]
        assert _run(capsys, argv)[0] == 0

    def test_one_short_source_fails_before_training(self, capsys, tmp_path):
        # Only source 0 is short (3 samples of class 1), so only pair (0,1)
        # cannot serve --batch 4. The run's one step would draw pair 2, yet
        # it fails before training, as every run on these sources does.
        cache, out = tmp_path / "cache", tmp_path / "o"
        assert _run(capsys, ["gen-data", *SMALL, "--cache-dir", str(cache), "--out", str(tmp_path / "g")])[0] == 0
        [path] = cache.iterdir()
        domains = data.load_domains(path)
        d = domains[0]
        keep = np.concatenate([np.flatnonzero(d.y == 0), np.flatnonzero(d.y == 1)[:3]])
        domains[0] = data.DomainData(d.index, d.x[keep], d.y[keep], d.num_classes)
        data.save_domains(path, domains)
        assert np.random.default_rng(3).integers(0, len(domains) - 2) == 2  # the one step's pair
        argv = ["train", *SMALL, "--algo", "dpnets", "--batch", "4", "--steps", "1", "--cache-dir", str(cache),
                "--out", str(out)]
        code, events = _run(capsys, argv)
        assert code == 2
        message = events["config-error"]["message"]
        assert "--batch" in message and "episode (0,1) class 1: insufficient per-class samples" in message
        assert "dataset-cache-hit" in events
        assert not (out / "model.ckpt").exists()


class TestAtomicSaves:
    """A save that fails partway leaves the earlier file whole and no
    temporary file behind."""

    SAVES = {
        "cache": lambda path, seed: data.save_domains(
            path, data.generate(data.default_spec("rplate", seed=seed, num_domains=3, samples_per_domain=8))
        ),
        "checkpoint": lambda path, seed: nn.save_checkpoint(
            path, [nn.init_mlp((2, 4, 2), np.random.default_rng(seed))]
        ),
    }

    @pytest.mark.parametrize("artifact", sorted(SAVES))
    def test_failed_save_keeps_the_earlier_file(self, monkeypatch, tmp_path, artifact):
        save, path = self.SAVES[artifact], tmp_path / artifact
        save(path, 1)
        earlier = path.read_bytes()

        class HalfWriter(io.FileIO):
            def write(self, payload):
                super().write(payload[: len(payload) // 2])
                raise OSError("disk full")

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            return HalfWriter(file, "w") if "w" in mode else real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            save(path, 2)
        monkeypatch.undo()
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == [artifact]


# ---------------------------------------------------------------------------
# Benchmark contract: the traced names still resolve and still see training
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_resolve(tracing):
    for mod_name, fn_names in tracing.TRACED.items():
        module = importlib.import_module(f"edglab.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"edglab.{mod_name}.{fn_name}"


def test_tracer_attributes_training_calls(tracing, evolcircle):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dpnet.train(evolcircle, [({"steps": 6, "batch": 4, "lr": 0.01, "embed": (2,)}, 0)])
        baselines.train_erm(evolcircle, [({"steps": 4, "batch": 4, "lr": 0.01, "hidden": ()}, 0)])
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["dpnet.sample_episode.train_calls"] == 6
    assert layers["dpnet.episode_loss.train_calls"] == 6
    assert layers["dpnet.compute_prototypes.train_calls"] == 0
    assert layers["dpnet.predict_with_prototypes.train_calls"] == 0
    assert layers["nn.step_mlps.calls"] == 6 + 4
    # A dpnets step runs both encoders as one stack: one forward, one backward.
    assert layers["nn.mlp_forward.calls"] == 6 + 4
    assert layers["nn.mlp_backward.calls"] == 6 + 4
    assert dpnet.train.__module__ == "edglab.dpnet"  # uninstalled


def test_tracer_attributes_certification_calls(tracing):
    # The traced bounds names are the stacked kernels: one pushforward and one
    # minimax pass per environment shape group of the instance block.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bounds.run_certification(instances=40, decomposition_pairs=10, seed=3)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    groups = sum("map" in values for _, values in bounds._instance_rows(3, range(40)))
    assert layers["bounds.apply_map.calls"] == layers["bounds.find_minimax_map.calls"] == groups > 0
    assert bounds.apply_map.__name__ == "apply_map"  # uninstalled
