import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import baselines, data, dpnet, nn
from edglab.baselines import IndexMode
from edglab.harness import METHODS, evaluate_accuracy


def train_proto(sources, seed, steps=2000, batch=16, lr=0.01):
    """The vanilla prototypical net as the method table builds it."""
    hparams = {"steps": steps, "batch": batch, "lr": lr, "embed": (2,)}
    [model] = METHODS["proto"].fit(sources, [(hparams, seed)])
    return model


class TestAugmentation:
    def test_none_is_identity(self, rng):
        x = rng.standard_normal((4, 3))
        assert np.array_equal(baselines.with_index(x, 0, IndexMode.NONE, 5), x)

    def test_one_hot_example(self):
        out = baselines.with_index(np.array([[5.0]]), 1, IndexMode.ONE_HOT_CONCAT, 2)
        assert np.array_equal(out, np.array([[5.0, 0.0, 1.0, 0.0]]))

    def test_outer_product_block_zero(self):
        out = baselines.with_index(np.array([[2.0, 3.0]]), 0, IndexMode.OUTER_PRODUCT, 1)
        assert np.array_equal(out, np.array([[2.0, 3.0, 0.0, 0.0]]))

    def test_scalar_normalization(self):
        out = baselines.with_index(np.array([[1.0]]), 2, IndexMode.SCALAR_CONCAT, 5)
        assert np.array_equal(out, np.array([[1.0, 0.5]]))

    def test_out_of_range_index(self):
        for position in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                baselines.with_index(np.array([[1.0]]), position, IndexMode.ONE_HOT_CONCAT, 2)

    def test_target_policy(self):
        # The target is position m: scalar extrapolates one step past the
        # sources; one-hot/outer use the environment's final (never trained)
        # position.
        m = 4
        scalar = baselines.with_index(np.array([[1.0]]), m, IndexMode.SCALAR_CONCAT, m)
        assert scalar[0, -1] == m / (m - 1)
        hot = baselines.with_index(np.array([[1.0]]), m, IndexMode.ONE_HOT_CONCAT, m)
        assert np.array_equal(hot[0, 1:], np.array([0, 0, 0, 0, 1.0]))
        outer = baselines.with_index(np.array([[2.0, 3.0]]), m, IndexMode.OUTER_PRODUCT, m)
        assert np.array_equal(outer[0, -2:], np.array([2.0, 3.0])) and np.all(outer[0, :-2] == 0)

    @given(
        st.integers(1, 6),
        st.integers(2, 8),
        st.sampled_from(list(IndexMode)),
    )
    def test_shape_law(self, d, m, mode):
        out = baselines.with_index(np.ones((3, d)), m, mode, m)
        expected = {
            IndexMode.NONE: d,
            IndexMode.SCALAR_CONCAT: d + 1,
            IndexMode.ONE_HOT_CONCAT: d + m + 1,
            IndexMode.OUTER_PRODUCT: d * (m + 1),
        }[mode]
        assert out.shape == (3, expected)
        # The model's width check agrees with the features it will be fed.
        net = nn.init_mlp((expected, 2), np.random.default_rng(0))
        baselines.ErmModel(net, mode, m, d)
        with pytest.raises(ValueError, match="augmented dim"):
            baselines.ErmModel(nn.init_mlp((expected + 1, 2), np.random.default_rng(0)), mode, m, d)


def make_domains(rng, m=3, n=60, gap=3.0, flip_first=False):
    domains = []
    for i in range(m):
        x = np.vstack(
            [rng.standard_normal((n // 2, 2)) + gap, rng.standard_normal((n // 2, 2)) - gap]
        )
        y = np.repeat([0, 1], n // 2)
        if flip_first and i == 0:
            y = 1 - y
        domains.append(data.DomainData(i, x, y, 2))
    return domains


class TestErm:
    def test_separable_iid_sanity(self, rng):
        domains = make_domains(rng, m=3)
        run = ({"steps": 300, "batch": 16, "lr": 0.05, "hidden": ()}, 0)
        [model] = baselines.train_erm(domains[:-1], [run])
        acc = evaluate_accuracy(lambda x: baselines.predict_erm(model, x), domains[-1])
        assert acc >= 0.99

    def test_pooling_invariance_to_domain_grouping(self, rng):
        # Same pooled sample order arranged as different domain groupings must
        # train the same plain-ERM model.
        xs = rng.standard_normal((60, 2))
        ys = (xs[:, 0] > 0).astype(int)
        if len(np.unique(ys[:30])) < 2 or len(np.unique(ys[30:40])) < 2:
            xs[0, 0], ys[0] = 1.0, 1
            xs[1, 0], ys[1] = -1.0, 0
            xs[30, 0], ys[30] = 1.0, 1
            xs[31, 0], ys[31] = -1.0, 0
        split_a = [
            data.DomainData(0, xs[:30], ys[:30], 2),
            data.DomainData(1, xs[30:], ys[30:], 2),
        ]
        split_b = [
            data.DomainData(0, xs[:40], ys[:40], 2),
            data.DomainData(1, xs[40:], ys[40:], 2),
        ]
        run = ({"steps": 100, "batch": 8, "lr": 0.05, "hidden": ()}, 3)
        pa = baselines.train_erm(split_a, [run])[0].net.arrays()
        pb = baselines.train_erm(split_b, [run])[0].net.arrays()
        assert all(np.array_equal(a, b) for a, b in zip(pa, pb))

    def test_predict_argmax_and_ties(self, rng):
        net = nn.MlpParams(((np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([2.0, 1.0])),))
        model = baselines.ErmModel(net, IndexMode.NONE, 3, 2)
        # logits (2, 1) at x = 0 -> class 0
        assert baselines.predict_erm(model, np.zeros((1, 2)))[0] == 0
        tie_net = nn.MlpParams(((np.zeros((2, 2)), np.zeros(2)),))
        tie_model = baselines.ErmModel(tie_net, IndexMode.NONE, 3, 2)
        assert baselines.predict_erm(tie_model, rng.standard_normal((5, 2))).tolist() == [0] * 5

    def test_predict_matches_forward_oracle(self, rng):
        domains = make_domains(rng, m=3)
        run = ({"steps": 50, "batch": 8, "lr": 0.05, "hidden": ()}, 1)
        [model] = baselines.train_erm(domains[:-1], [run], index_mode=IndexMode.ONE_HOT_CONCAT)
        points = rng.standard_normal((1000, 2))
        preds = baselines.predict_erm(model, points)
        aug = baselines.with_index(points, 2, IndexMode.ONE_HOT_CONCAT, 2)
        logits, _ = nn.mlp_forward(model.net, aug)
        assert np.array_equal(preds, np.argmax(logits, axis=1))

    def test_last_k_uses_only_recent_domains(self, rng):
        # Domain 0 carries flipped labels; a model trained only on the final
        # domain ignores the conflict, the pooled model cannot.
        domains = make_domains(rng, m=3, flip_first=True)
        run = ({"steps": 300, "batch": 16, "lr": 0.05, "hidden": ()}, 0)
        [recent] = baselines.train_erm(domains[:2], [run], last_k=1)
        acc_recent = evaluate_accuracy(lambda x: baselines.predict_erm(recent, x), domains[2])
        [pooled] = baselines.train_erm(domains[:2], [run])
        acc_pooled = evaluate_accuracy(lambda x: baselines.predict_erm(pooled, x), domains[2])
        assert acc_recent >= 0.99
        assert acc_pooled <= 0.7

    def test_cross_entropy_gradient_finite_differences(self, rng):
        domains = make_domains(rng, m=2, n=20)
        xs = np.vstack([d.x for d in domains])
        ys = np.concatenate([d.y for d in domains])
        net = nn.init_mlp((2, 4, 2), rng)
        logits, cache = nn.mlp_forward(net, xs)
        _, dlogits = nn.softmax_cross_entropy(logits, ys)
        grads = nn.mlp_backward(net, cache, dlogits)
        h = 1e-5
        for li, (w, b) in enumerate(net.layers):
            for arr, g_arr in ((w, grads.layers[li][0]), (b, grads.layers[li][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    hi, _ = nn.softmax_cross_entropy(nn.mlp_forward(net, xs)[0], ys)
                    arr[idx] = orig - h
                    lo, _ = nn.softmax_cross_entropy(nn.mlp_forward(net, xs)[0], ys)
                    arr[idx] = orig
                    fd = (hi - lo) / (2 * h)
                    denom = max(abs(fd), abs(g_arr[idx]), 1e-8)
                    assert abs(fd - g_arr[idx]) / denom < 1e-4


class TestProtoVanilla:
    def test_shared_encoder(self, rng):
        domains = make_domains(rng, m=3)
        model = train_proto(domains, seed=0, steps=20, batch=4)
        assert model.f_phi is model.f_psi

    def test_evolcircle_vanilla_proto_window(self):
        # Comparison-table value 93.6 with a ±5-point window, mean of 3 seeds.
        spec = data.default_spec("evolcircle", seed=7)
        domains = data.generate(spec)
        sources, target = domains[:-1], domains[-1]
        accs = []
        for seed in (1, 2, 3):
            model = train_proto(sources, seed)
            accs.append(
                evaluate_accuracy(lambda x: dpnet.predict_target(model, sources[-1], x), target)
            )
        assert 0.886 <= float(np.mean(accs)) <= 0.986

    def test_rplate_directional_training_beats_vanilla(self):
        # The one-step-ahead episodes correct the 12-degree support staleness
        # that the vanilla variant carries onto the rotating-boundary target.
        spec = data.default_spec("rplate", seed=7)
        domains = data.generate(spec)
        sources, target = domains[:-1], domains[-1]
        directional, vanilla = [], []
        for seed in (1, 2, 3):
            hparams = {"steps": 2000, "batch": 16, "lr": 0.01, "embed": (2,)}
            [(model, _, _)] = dpnet.train(sources, [(hparams, seed)])
            directional.append(
                evaluate_accuracy(lambda x: dpnet.predict_target(model, sources[-1], x), target)
            )
            vmodel = train_proto(sources, seed)
            vanilla.append(
                evaluate_accuracy(lambda x: dpnet.predict_target(vmodel, sources[-1], x), target)
            )
        assert float(np.mean(directional)) >= float(np.mean(vanilla)) + 0.02
