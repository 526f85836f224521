"""The class-major loss heads against frozen copies of the query-major heads
they replaced.

``dpnet.episode_loss`` runs both encoders as one stack and computes its head
class-major (distances K × (K·n)); ``nn.softmax_cross_entropy`` runs its
reductions over the class axis as elementwise ops on the columns. The
references below are the earlier kernels: two encoder passes, distances
(K·n) × K and every reduction over the class axis a ``ufunc.reduce``. The
package must reproduce them bit for bit, so losses, distances and every
gradient are compared with ``np.array_equal``.
"""
import numpy as np
import pytest

from edglab import dpnet, nn

# ---------------------------------------------------------------------------
# Frozen references: the query-major heads, kept only here
# ---------------------------------------------------------------------------


def _true_class(runs, k_classes, n_b):
    episodes = int(np.prod(runs, dtype=np.int64))
    labels = np.tile(np.repeat(np.arange(k_classes), n_b), episodes)
    return (np.arange(0, labels.size * k_classes, k_classes) + labels).reshape(*runs, -1)


def reference_episode_loss(f_phi, f_psi, support, query):
    """(loss, d2 (K·n) × K, grads_phi, grads_psi) of one encoder per side."""
    *runs, k_classes, n_b, dim = support.shape
    zs, cache_s = nn.mlp_forward(f_phi, support.reshape(*runs, k_classes * n_b, dim))
    zq, cache_q = nn.mlp_forward(f_psi, query.reshape(*runs, k_classes * n_b, dim))
    protos = np.add.reduce(zs.reshape(*runs, k_classes, n_b, -1), axis=-2) / n_b
    diff = zq[..., :, None, :] - protos[..., None, :, :]
    d2 = np.einsum("...nkd,...nkd->...nk", diff, diff)
    n_q = k_classes * n_b
    true = _true_class(tuple(runs), k_classes, n_b)
    neg = -d2
    m = np.maximum.reduce(neg, axis=-1, keepdims=True)
    p = np.exp(neg - m)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    lse = (m + np.log(total))[..., 0]
    loss = np.add.reduce(d2.take(true) + lse, axis=-1) / n_q
    p /= total
    gd2 = -p
    gd2.reshape(-1)[true] += 1.0
    gd2 /= n_q
    gzq = 2.0 * (zq * np.add.reduce(gd2, axis=-1, keepdims=True) - gd2 @ protos)
    gproto = -2.0 * (gd2.swapaxes(-1, -2) @ zq - np.add.reduce(gd2, axis=-2)[..., None] * protos)
    gzs = np.repeat(gproto / n_b, n_b, axis=-2)
    return loss, d2, nn.mlp_backward(f_phi, cache_s, gzs), nn.mlp_backward(f_psi, cache_q, gzq)


def reference_softmax_cross_entropy(logits, labels):
    n = logits.shape[-2]
    picked = np.arange(0, labels.size * logits.shape[-1], logits.shape[-1]).reshape(labels.shape) + labels
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    loss = -(np.add.reduce(logp.take(picked), axis=-1) / n)
    grad = np.exp(logp)
    grad.reshape(-1)[picked] -= 1.0
    grad /= n
    return loss, grad


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

DIMS = (5, 7, 3)


def _stack(nets):
    """Networks of one shape as one stack on a new leading axis."""
    return nn.MlpParams.from_arrays([np.stack(a) for a in zip(*(net.arrays() for net in nets))])


def _side(stack, side):
    return nn.MlpParams.from_arrays([a[:, side] for a in stack.arrays()])


def _equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


@pytest.mark.parametrize("shared", [False, True], ids=["two-encoders", "shared"])
@pytest.mark.parametrize("n_b", [1, 8, 32])
@pytest.mark.parametrize("runs", [1, 9])
@pytest.mark.parametrize("k_classes", [2, 3, 10])
def test_episode_loss_matches_query_major_reference(k_classes, runs, n_b, shared):
    rng = np.random.default_rng(1000 * k_classes + 100 * runs + n_b)
    models = [dpnet.init_dpnet(DIMS, k_classes, int(seed), shared) for seed in rng.integers(0, 2**31, runs)]
    episode = 2.0 * rng.standard_normal((runs, 2, k_classes, n_b, DIMS[0]))
    loss, d2, grads = dpnet.episode_loss(_stack([m.encoders for m in models]), episode)

    f_phi, f_psi = _stack([m.f_phi for m in models]), _stack([m.f_psi for m in models])
    want_loss, want_d2, g_phi, g_psi = reference_episode_loss(f_phi, f_psi, episode[:, 0], episode[:, 1])
    assert np.array_equal(loss, want_loss)
    assert np.array_equal(d2, want_d2.swapaxes(-1, -2))
    if shared:
        # The shared encoder steps on the sum of both sides' gradients.
        want = nn.MlpParams.from_arrays([a + b for a, b in zip(g_phi.arrays(), g_psi.arrays())])
        assert _equal(_side(grads, 0), want)
    else:
        assert _equal(_side(grads, 0), g_phi) and _equal(_side(grads, 1), g_psi)


@pytest.mark.parametrize("n_b", [1, 8, 32])
@pytest.mark.parametrize("runs", [None, 1, 9])
@pytest.mark.parametrize("k_classes", [2, 3, 10])
def test_softmax_cross_entropy_matches_reference(k_classes, runs, n_b):
    rng = np.random.default_rng(10 * k_classes + n_b)
    lead = () if runs is None else (runs,)
    logits = 10.0 * rng.standard_normal(lead + (n_b * k_classes, k_classes))
    labels = rng.integers(0, k_classes, size=logits.shape[:-1])
    loss, grad = nn.softmax_cross_entropy(logits, labels)
    want_loss, want_grad = reference_softmax_cross_entropy(logits, labels)
    assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("length", list(range(1, 34)) + [64, 127, 128, 129, 200, 256, 300])
def test_pairwise_sum_adds_in_reduce_order(length):
    # Terms of mixed sign and magnitude, so a different order shows.
    rng = np.random.default_rng(length)
    x = np.exp(5.0 * rng.standard_normal((64, length))) * rng.choice([-1.0, 1.0], size=(64, length))
    assert np.array_equal(nn.pairwise_sum([x[:, k] for k in range(length)]), np.add.reduce(x, axis=-1))


def test_malformed_stacked_episodes_rejected():
    rng = np.random.default_rng(3)
    stacked = _stack([dpnet.init_dpnet((3, 2), 2, seed=1).encoders] * 4)
    support, query = rng.standard_normal((4, 2, 5, 3)), rng.standard_normal((4, 2, 5, 3))
    for bad_support, bad_query in (
        (support, query[:, :1]),  # a class fewer on the query side
        (support, query[:, :, :4]),  # fewer queries per class
        (support[:, :, :0], query[:, :, :0]),  # every class block empty
        (support[:, :0], query[:, :0]),  # no class at all
    ):
        with pytest.raises(ValueError, match="one equal-sized, non-empty block per class"):
            dpnet.episode_loss(stacked, [[s, q] for s, q in zip(bad_support, bad_query)])
    with pytest.raises(ValueError, match="one equal-sized, non-empty block per class"):
        dpnet.episode_loss(stacked, support[:, None])  # the support side alone
