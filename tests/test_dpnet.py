import math

import numpy as np
import pytest

from edglab import data, dpnet, nn
from edglab.harness import evaluate_accuracy


def identity_model(dim=2, num_classes=2):
    ident = nn.MlpParams(((np.eye(dim), np.zeros(dim)),))
    other = nn.MlpParams(((np.eye(dim), np.zeros(dim)),))
    return dpnet.DPNetModel(ident, other, num_classes=num_classes)


def random_model(rng, dims=(3, 4, 2), num_classes=3):
    return dpnet.DPNetModel(nn.init_mlp(dims, rng), nn.init_mlp(dims, rng), num_classes)


def predictive_distribution(model, prototypes, x):
    """Probability over classes for one row x: softmax of negative squared
    distances to the prototypes under the query encoder."""
    z, _ = nn.mlp_forward(model.f_psi, x[None])
    return np.exp(nn.log_softmax_rows(-nn.pairwise_sq_dists(z, prototypes)))[0]


def sides(stack):
    """The per-side networks (phi, psi) of an encoder or gradient stack."""
    return [nn.MlpParams.from_arrays(list(side)) for side in zip(*stack.arrays())]


def random_batch(rng, model, n_per_class=4):
    """Support and query, one n_per_class × d block per class."""
    d = model.f_phi.in_dim
    k = model.num_classes
    support = tuple(rng.standard_normal((n_per_class, d)) for _ in range(k))
    query = tuple(rng.standard_normal((n_per_class, d)) for _ in range(k))
    return support, query


class TestPrototypes:
    def test_single_sample_prototype_is_embedding(self, rng):
        model = random_model(rng)
        x = rng.standard_normal((1, 3))
        protos = dpnet.compute_prototypes(model, [x, x + 1.0, x - 1.0])
        expected, _ = nn.mlp_forward(model.f_phi, x)
        assert np.max(np.abs(protos[0] - expected[0])) < 1e-15

    def test_identity_embedding_mean(self):
        model = identity_model()
        protos = dpnet.compute_prototypes(
            model, [np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([[4.0, 0.0]])]
        )
        assert np.array_equal(protos[0], np.array([1.0, 1.0]))

    def test_matches_loop_mean_oracle(self, rng):
        model = random_model(rng)
        support = [rng.standard_normal((5, 3)) for _ in range(3)]
        protos = dpnet.compute_prototypes(model, support)
        for k, block in enumerate(support):
            acc = np.zeros(2)
            for row in block:
                z, _ = nn.mlp_forward(model.f_phi, row[None])
                acc += z[0]
            assert np.max(np.abs(protos[k] - acc / 5)) < 1e-12

    def test_empty_class_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match="empty support"):
            dpnet.compute_prototypes(model, [np.zeros((0, 3)), np.zeros((1, 3)), np.zeros((1, 3))])


class TestPredictiveDistribution:
    def test_equidistant_gives_uniform(self):
        model = identity_model()
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        probs = predictive_distribution(model, protos, np.array([0.0, 3.0]))
        assert np.max(np.abs(probs - 0.5)) < 1e-12

    def test_hand_derived_quarter_split(self):
        # d(x, c0) = 0 and d(x, c1) = ln 3 give softmax(0, -ln 3) = (3/4, 1/4).
        model = identity_model()
        protos = np.array([[0.0, 0.0], [math.sqrt(math.log(3.0)), 0.0]])
        probs = predictive_distribution(model, protos, np.zeros(2))
        assert abs(probs[0] - 0.75) < 1e-12
        assert abs(probs[1] - 0.25) < 1e-12

    def test_argmax_is_nearest_prototype(self, rng):
        model = random_model(rng)
        protos = rng.standard_normal((3, 2))
        for _ in range(200):
            x = rng.standard_normal(3)
            probs = predictive_distribution(model, protos, x)
            z, _ = nn.mlp_forward(model.f_psi, x[None])
            dists = [(z[0] - c) @ (z[0] - c) for c in protos]
            assert int(np.argmax(probs)) == int(np.argmin(dists))

    def test_shift_invariance_of_distance_softmax(self, rng):
        # Adding a constant to every distance leaves the distribution unchanged.
        model = random_model(rng)
        protos = rng.standard_normal((3, 2))
        x = rng.standard_normal(3)
        probs = predictive_distribution(model, protos, x)
        z, _ = nn.mlp_forward(model.f_psi, x[None])
        d2 = np.array([(z[0] - c) @ (z[0] - c) for c in protos])
        shifted = np.exp(nn.log_softmax_rows(-(d2 + 123.456)))
        assert np.max(np.abs(probs - shifted)) < 1e-12


class TestEpisodeLoss:
    def test_symmetric_batch_gives_ln2(self):
        # Prototypes at (+-1, 0); every query on the y-axis is equidistant
        # from both, so each class probability is 1/2 and the loss is ln 2.
        model = identity_model()
        support = (np.array([[1.0, 0.5], [1.0, -0.5]]), np.array([[-1.0, 0.5], [-1.0, -0.5]]))
        query = (np.array([[0.0, 2.0], [0.0, -1.0]]), np.array([[0.0, 0.5], [0.0, 7.0]]))
        loss, _, _ = dpnet.episode_loss(model.encoders, (support, query))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_equals_mean_negative_log_probability(self, rng):
        for _ in range(25):
            model = random_model(rng)
            support, query = random_batch(rng, model)
            loss, _, _ = dpnet.episode_loss(model.encoders, (support, query))
            protos = dpnet.compute_prototypes(model, support)
            total = 0.0
            for k, block in enumerate(query):
                for row in block:
                    probs = predictive_distribution(model, protos, row)
                    total -= math.log(probs[k])
            assert abs(loss - total / (len(support) * len(support[0]))) < 1e-10

    def test_malformed_episode_rejected(self, rng):
        model = random_model(rng)
        support, query = random_batch(rng, model)
        for bad_support, bad_query in (
            (support, query[:2]),  # a class fewer on the query side
            (support, tuple(block[:3] for block in query)),  # fewer queries per class
            (np.zeros((3, 0, 3)), np.zeros((3, 0, 3))),  # every class block empty
            (np.zeros((0, 4, 3)), np.zeros((0, 4, 3))),  # no class at all
        ):
            with pytest.raises(ValueError, match="one equal-sized, non-empty block per class"):
                dpnet.episode_loss(model.encoders, (bad_support, bad_query))
        # One empty block among full ones cannot be stacked at all.
        with pytest.raises(ValueError):
            dpnet.episode_loss(model.encoders, ((np.zeros((0, 3)),) + support[1:], query))

    def test_gradients_match_finite_differences(self, rng):
        model = random_model(rng, dims=(3, 5, 2))
        batch = random_batch(rng, model, n_per_class=3)
        _, _, grads = dpnet.episode_loss(model.encoders, batch)
        g_phi, g_psi = sides(grads)
        h = 1e-5
        for net_name, grads in (("f_phi", g_phi), ("f_psi", g_psi)):
            net = getattr(model, net_name)
            for li, (w, b) in enumerate(net.layers):
                for arr, g_arr in ((w, grads.layers[li][0]), (b, grads.layers[li][1])):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        hi, _, _ = dpnet.episode_loss(model.encoders, batch)
                        arr[idx] = orig - h
                        lo, _, _ = dpnet.episode_loss(model.encoders, batch)
                        arr[idx] = orig
                        fd = (hi - lo) / (2 * h)
                        denom = max(abs(fd), abs(g_arr[idx]), 1e-8)
                        assert abs(fd - g_arr[idx]) / denom < 1e-4


def two_class_domains(rng, m=4, n=40):
    domains = []
    for i in range(m):
        x = np.vstack([rng.standard_normal((n // 2, 2)) + 3, rng.standard_normal((n // 2, 2)) - 3])
        y = np.repeat([0, 1], n // 2)
        domains.append(data.DomainData(i, x, y, 2))
    return domains


class TestSampleEpisode:
    def test_two_domains_always_pair_zero_one(self, rng):
        domains = two_class_domains(rng, m=2)
        for _ in range(20):
            _, pairs = dpnet.sample_episode(dpnet.Episodes(domains, 4, [rng]), 0, [0])
            assert pairs[0] == 0

    def test_without_replacement_support(self, rng):
        domains = two_class_domains(rng, m=2, n=8)
        episode, _ = dpnet.sample_episode(dpnet.Episodes(domains, 4, [rng]), 0, [0])  # full class size
        support = episode[:, 0]
        for k in range(2):
            drawn = support[0, k]
            original = domains[0].x[domains[0].y == k]
            assert sorted(map(tuple, drawn)) == sorted(map(tuple, original))

    def test_source_index_frequencies_uniform(self, rng):
        domains = two_class_domains(rng, m=5, n=20)
        counts = np.zeros(4)
        episodes = dpnet.Episodes(domains, 2, [rng], steps=10000)
        for step in range(10000):
            counts[dpnet.sample_episode(episodes, step, [0])[1][0]] += 1
        freqs = counts / 10000
        assert np.max(np.abs(freqs - 0.25)) < 0.02

    def test_insufficient_samples_rejected(self, rng):
        domains = two_class_domains(rng, m=2, n=8)
        with pytest.raises(ValueError, match="insufficient"):
            dpnet.sample_episode(dpnet.Episodes(domains, 5, [rng]), 0, [0])


class TestTrain:
    def test_zero_steps_leaves_model(self, rng):
        domains = two_class_domains(rng)
        model = dpnet.init_dpnet((2, 2), 2, seed=1)
        before = [a.copy() for a in model.f_phi.arrays() + model.f_psi.arrays()]
        hparams = {"steps": 0, "batch": 16, "lr": 0.01, "embed": (2,)}
        [(trained, losses, accs)] = dpnet.train(domains, [(hparams, 1)])
        after = trained.f_phi.arrays() + trained.f_psi.arrays()
        assert len(losses) == len(accs) == 0
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_fixed_seed_reproduces_parameters(self, rng):
        domains = two_class_domains(rng)
        run = ({"steps": 40, "batch": 4, "lr": 0.02, "embed": (2,)}, 9)
        results = []
        for _ in range(2):
            [(trained, _, _)] = dpnet.train(domains, [run])
            results.append(trained.f_phi.arrays() + trained.f_psi.arrays())
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_progress_callback_fires_each_step(self, rng):
        domains = two_class_domains(rng)
        seen = []
        dpnet.train(
            source_domains=domains,
            runs=[({"steps": 7, "batch": 4, "lr": 0.01, "embed": (2,)}, 0)],
            progress=lambda step, losses: seen.append(step),
        )
        assert seen == list(range(7))

    def test_separable_environment_reaches_high_query_accuracy(self, monkeypatch):
        monkeypatch.setattr(data, "SIGMA", 0.05)
        spec = data.default_spec("evolcircle", seed=3)
        domains = data.generate(spec)
        hparams = {"steps": 1000, "batch": 16, "lr": 0.02, "embed": (2,)}
        [(_, _, accs)] = dpnet.train(domains[:-1], [(hparams, 1)])
        assert np.mean(accs[-50:]) >= 0.99


class TestPredictTarget:
    def test_query_at_prototype_takes_its_class(self, rng):
        domains = two_class_domains(rng, m=2)
        model = identity_model()
        support = domains[-1]
        protos = dpnet.compute_prototypes(
            model, [support.x[support.y == k] for k in range(2)]
        )
        labels = dpnet.predict_target(model, support, protos)
        assert np.array_equal(labels, np.array([0, 1]))

    def test_full_agreement_with_nearest_centroid_oracle(self, rng):
        domains = two_class_domains(rng, m=2)
        model = random_model(rng, dims=(2, 3, 2), num_classes=2)
        support = domains[0]
        queries = rng.standard_normal((1000, 2))
        predicted = dpnet.predict_target(model, support, queries)
        protos = dpnet.compute_prototypes(model, [support.x[support.y == k] for k in range(2)])
        zq, _ = nn.mlp_forward(model.f_psi, queries)
        oracle = np.array([int(np.argmin([(z - c) @ (z - c) for c in protos])) for z in zq])
        assert np.array_equal(predicted, oracle)

    def test_evolcircle_headline_accuracy_window(self):
        # Comparison-table value 94.2 with a ±5-point window, mean of 3 seeds.
        spec = data.default_spec("evolcircle", seed=7)
        domains = data.generate(spec)
        sources, target = domains[:-1], domains[-1]
        accs = []
        for seed in (1, 2, 3):
            hparams = {"steps": 2000, "batch": 16, "lr": 0.01, "embed": (2,)}
            [(model, _, _)] = dpnet.train(sources, [(hparams, seed)])
            accs.append(
                evaluate_accuracy(lambda x: dpnet.predict_target(model, sources[-1], x), target)
            )
        assert 0.892 <= float(np.mean(accs)) <= 0.992


def test_mismatched_encoders_rejected(rng):
    with pytest.raises(ValueError, match="architectures differ"):
        dpnet.DPNetModel(nn.init_mlp((2, 2), rng), nn.init_mlp((2, 3), rng), 2)
