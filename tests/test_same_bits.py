"""The 2-D lockstep step's kernels against frozen copies of the kernels they
replaced.

``nn.sum_rows`` and ``nn.broadcast_rows`` loop along the rows of many
narrow ones; ``step_mlps`` builds its tile views once per gradient object;
``episode_loss`` and ``dpnet.train``'s per-step log take fewer calls. None of
that may move a bit. The references below are the kernels as they were
before: an axis −2 ``np.add.reduce`` for every sum over rows, numpy's own
loop for every broadcast, tile views rebuilt on every step. Every value is
compared with ``np.array_equal``, over run counts R ∈ {1, 9}, samples per
class n ∈ {1, 8, 32}, classes K ∈ {2, 10} and last-axis widths 1 (numpy's
pairwise sum), 2, 3 and 128.
"""
from functools import reduce

import numpy as np
import pytest

from edglab import data, dpnet, nn

# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------


def ref_mlp_forward(params, batch):
    h = batch
    inputs, pre_acts = [], []
    for li, (w, b) in enumerate(params.layers):
        inputs.append(h)
        z = np.matmul(h, w.swapaxes(-1, -2)) + b[..., None, :]
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if li < len(params.layers) - 1 else z
    return h, nn.ForwardCache(inputs=inputs, pre_acts=pre_acts)


def ref_mlp_backward(params, cache, g):
    out = nn.MlpParams(tuple((np.empty_like(w), np.empty_like(b)) for w, b in params.layers))
    shared = tuple(a for a, (p, q) in enumerate(zip(params.layers[0][0].shape[:-2], g.shape[:-2])) if p != q)
    for li in reversed(range(len(params.layers))):
        gw, gb = out.layers[li]
        if shared:
            np.add.reduce(np.matmul(g.swapaxes(-1, -2), cache.inputs[li]), axis=shared, keepdims=True, out=gw)
            np.add.reduce(np.add.reduce(g, axis=-2), axis=shared, keepdims=True, out=gb)
        else:
            np.matmul(g.swapaxes(-1, -2), cache.inputs[li], out=gw)
            np.add.reduce(g, axis=-2, out=gb)
        if li > 0:
            g = np.matmul(g, params.layers[li][0])
            g *= cache.pre_acts[li - 1] > 0.0
    return out


def ref_pairwise_sq_dists(a, b):
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.einsum("...nkd,...nkd->...nk", diff, diff)


def ref_episode_loss(encoders, episode):
    """(loss, d2, grads) of the class-major head as it was before."""
    *runs, _, k_classes, n_b, dim = episode.shape
    n_q = k_classes * n_b
    z, cache = ref_mlp_forward(encoders, episode.reshape(*runs, 2, n_q, dim))
    zs, zq = z[..., 0, :, :], z[..., 1, :, :]
    protos = np.add.reduce(zs.reshape(*runs, k_classes, n_b, -1), axis=-2) / n_b
    d2 = ref_pairwise_sq_dists(protos, zq)
    rows = range(k_classes)
    episodes = int(np.prod(runs, dtype=np.int64))
    own = np.repeat(np.arange(k_classes), n_b) * n_q + np.arange(n_q)
    true = (np.arange(0, episodes * k_classes * n_q, k_classes * n_q)[:, None] + own).reshape(*runs, n_q)
    near = reduce(np.minimum, [d2[..., k, :] for k in rows])
    p = np.exp(near[..., None, :] - d2)
    total = nn.pairwise_sum([p[..., k, :] for k in rows])
    lse = np.log(total) - near
    loss = np.add.reduce(d2.take(true) + lse, axis=-1) / n_q
    p /= total[..., None, :]
    gd2 = -p
    gd2.reshape(-1)[true] += 1.0
    gd2 /= n_q
    gq = gd2.swapaxes(-1, -2).copy()
    gz = np.empty_like(z)
    inner = zq * nn.pairwise_sum([gd2[..., k, :] for k in rows])[..., None] - gq @ protos
    np.multiply(inner, 2.0, out=gz[..., 1, :, :])
    gproto = -2.0 * (gq.swapaxes(-1, -2) @ zq - np.add.reduce(gq, axis=-2)[..., None] * protos)
    gz.reshape(*runs, 2, k_classes, n_b, -1)[..., 0, :, :, :] = (gproto / n_b)[..., None, :]
    return loss, d2, ref_mlp_backward(encoders, cache, gz)


def ref_softmax_cross_entropy(logits, labels):
    n = logits.shape[-2]
    picked = np.arange(0, labels.size * logits.shape[-1], logits.shape[-1]).reshape(labels.shape) + labels
    classes = range(logits.shape[-1])
    shifted = logits - reduce(np.maximum, [logits[..., k] for k in classes])[..., None]
    exp = np.exp(shifted)
    logp = shifted - np.log(nn.pairwise_sum([exp[..., k] for k in classes]))[..., None]
    loss = -(np.add.reduce(logp.take(picked), axis=-1) / n)
    grad = np.exp(logp)
    grad.reshape(-1)[picked] -= 1.0
    grad /= n
    return loss, grad


def ref_step_mlps(opt, grad):
    """The step as it was: tile views and scratch reshapes on every call."""
    g = grad.reshape(-1, grad.shape[-1])
    live, width = g.shape
    cols = max(1, nn.STEP_TILE // max(live, 1))
    starts = range(0, width, cols)
    if not all(np.isfinite(g[:, c : c + cols]).all() for c in starts):
        rows = np.flatnonzero(~np.isfinite(g).all(axis=1))
        raise nn.OptimizerError("non-finite gradient", tuple(rows.tolist()))
    p, lr = opt.params[:live], opt.lr[:live]
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    bc1, bc2 = 1 - b1**opt.t, 1 - b2**opt.t
    for c in starts:
        t = slice(c, c + cols)
        gt, pt, m, v = g[:, t], p[:, t], opt.m[:live, t], opt.v[:live, t]
        tmp, upd = opt.scratch[: gt.size].reshape(gt.shape), opt.scratch2[: gt.size].reshape(gt.shape)
        m *= b1
        np.multiply(gt, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(gt, 1 - b2, out=tmp)
        tmp *= gt
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += opt.eps
        np.divide(m, bc1, out=upd)
        upd *= lr
        upd /= tmp
        pt -= upd


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

WIDTHS = [1, 2, 3, 128]


def _same(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)
    # array_equal treats 0.0 and -0.0 as equal; the bytes do not.
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _same_nets(a, b):
    for x, y in zip(a.arrays(), b.arrays()):
        _same(x, y)


def _encoders(rng, runs, dims, sides):
    """A stack of ``sides`` encoders per run: (R, sides, out, in) weights and
    random (not zero) biases."""
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append((rng.standard_normal((runs, sides, d_out, d_in)), rng.standard_normal((runs, sides, d_out))))
    return nn.MlpParams(tuple(layers))


def _signed_zeros(rng, shape):
    """Normal values with whole columns of −0.0 and of 0.0 and scattered
    signed zeros: the inputs where a sum's start value shows."""
    x = rng.standard_normal(shape)
    x[..., 0] = -0.0
    if shape[-1] > 1:
        x[..., 1] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


# ---------------------------------------------------------------------------
# The two narrow-row kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS + [4, 5])
@pytest.mark.parametrize("lead, rows", [((), 1), ((), 7), ((9,), 8), ((3, 2), 32), ((9, 2), 16), ((9, 2), 300), ((1,), 1000)])
def test_sum_rows_is_the_axis_minus_two_reduction(lead, rows, width):
    rng = np.random.default_rng(rows * 1000 + width)
    for x in (rng.standard_normal(lead + (rows, width)) * 10.0 ** rng.integers(-8, 8, size=lead + (rows, 1)),
              _signed_zeros(rng, lead + (rows, width))):
        want = np.add.reduce(x, axis=-2)
        _same(nn.sum_rows(x), want)
        out = np.full(want.shape, np.nan)
        assert nn.sum_rows(x, out=out) is out
        _same(out, want)
        # A view whose rows are the contiguous axis, which numpy may sum pairwise.
        view = x.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        _same(nn.sum_rows(view), np.add.reduce(view, axis=-2))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("lead, rows", [((), 3), ((9,), 8), ((9, 2), 32), ((3, 2), 64)])
def test_broadcast_rows_is_the_elementwise_op(lead, rows, width):
    rng = np.random.default_rng(rows + width)
    x = _signed_zeros(rng, lead + (rows, width))
    per_row, per_col = rng.standard_normal(lead + (rows, 1)), rng.standard_normal(lead + (1, width))
    for op, a, b in ((np.add, x, per_col), (np.multiply, x, per_row), (np.divide, x, 7), (np.subtract, per_row, x)):
        want = op(a, b)
        out = np.empty(want.shape)
        assert nn.broadcast_rows(op, a, b, out) is out
        _same(out, want)


# ---------------------------------------------------------------------------
# Rewritten kernels against their frozen copies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("runs", [1, 9])
def test_mlp_forward_and_backward(runs, width):
    rng = np.random.default_rng(width)
    for dims, batch in (((width, width), (runs, 2, 32, width)), ((3, 5, width), (runs, 2, 20, 3)), ((width, 4, 2), (runs, 1, 300, width))):
        net = _encoders(rng, runs, dims, 2)
        x = rng.standard_normal(batch)
        for params in (net, nn.MlpParams(tuple((w[:, :1], b[:, :1]) for w, b in net.layers))):  # a shared stack of one
            z, cache = nn.mlp_forward(params, x)
            want_z, want_cache = ref_mlp_forward(params, x)
            _same(z, want_z)
            g = _signed_zeros(rng, z.shape)
            _same_nets(nn.mlp_backward(params, cache, g), ref_mlp_backward(params, want_cache, g))


@pytest.mark.parametrize("width", WIDTHS)
def test_pairwise_sq_dists(width):
    rng = np.random.default_rng(width)
    for lead, n, k in (((), 5, 3), ((9,), 2, 64), ((9,), 10, 320), ((1,), 2, 16)):
        a, b = rng.standard_normal(lead + (n, width)), rng.standard_normal(lead + (k, width))
        _same(nn.pairwise_sq_dists(a, b), ref_pairwise_sq_dists(a, b))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("k_classes", [2, 10])
@pytest.mark.parametrize("n_b", [1, 8, 32])
@pytest.mark.parametrize("runs", [1, 9])
def test_episode_loss(runs, n_b, k_classes, width, shared):
    rng = np.random.default_rng(runs * 100 + n_b * 10 + k_classes + width)
    dim = 3 if width == 128 else width  # the input width; width is the embedding's
    encoders = _encoders(rng, runs, (dim, 4, width) if width == 3 else (dim, width), 1 if shared else 2)
    # Far-apart classes make some probabilities exactly 0 and 1, and so
    # signed zeros in the gradients.
    scale = 10.0 ** rng.integers(0, 3, size=(runs, 1, 1, 1, 1))
    episode = rng.standard_normal((runs, 2, k_classes, n_b, dim)) * scale
    loss, d2, grads = dpnet.episode_loss(encoders, episode)
    want_loss, want_d2, want_grads = ref_episode_loss(encoders, episode)
    _same(loss, want_loss)
    _same(d2, want_d2)
    _same_nets(grads, want_grads)


@pytest.mark.parametrize("k_classes", [2, 3, 10])
@pytest.mark.parametrize("runs, n", [(1, 8), (1, 16), (3, 16), (9, 32), (3, 64), (9, 320)])
def test_softmax_cross_entropy(runs, n, k_classes):
    rng = np.random.default_rng(runs * n + k_classes)
    logits = rng.standard_normal((runs, n, k_classes)) * 5.0
    labels = rng.integers(0, k_classes, size=(runs, n))
    loss, grad = nn.softmax_cross_entropy(logits, labels)
    want_loss, want_grad = ref_softmax_cross_entropy(logits, labels)
    _same(loss, want_loss)
    _same(grad, want_grad)


@pytest.mark.parametrize("tile", [None, 7])  # the module's tile, then one that splits every row
@pytest.mark.parametrize("runs", [1, 9])
def test_step_mlps(runs, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(nn, "STEP_TILE", tile)
    width = 2 * nn.STEP_TILE + 123 if tile else 12
    rng = np.random.default_rng(runs)
    start = rng.standard_normal((runs, width))
    lrs = [1e-3 * (row + 1) for row in range(runs)]
    new, old = nn.Optimizer(lrs, start.copy()), nn.Optimizer(lrs, start.copy())
    grad = np.empty((runs, width + 5))[:, :width]  # as Lockstep keeps it: columns of a wider buffer
    live, rows = runs, grad
    for step in range(8):
        if step == 4 and runs > 1:  # a run leaves: new rows, a new gradient object
            for opt in (new, old):
                opt.keep([0, 2])
            live, rows = 2, grad[:2]
        rows[...] = _signed_zeros(rng, (live, width)) * 10.0 ** rng.integers(-6, 2, size=(live, 1))
        nn.step_mlps(new, rows)
        ref_step_mlps(old, rows)
        assert new.t == old.t
        for a, b in zip(new.state, old.state):
            _same(a, b)
    rows[-1, -1] = np.nan
    before = [a.copy() for a in new.state]
    with pytest.raises(nn.OptimizerError) as info:
        nn.step_mlps(new, rows)
    assert info.value.rows == (live - 1,)
    for a, b in zip(new.state, before):
        _same(a, b)


# ---------------------------------------------------------------------------
# The trainer: per-step losses, query accuracies and final weights
# ---------------------------------------------------------------------------


def ref_train(source_domains, runs, shared, monkeypatch):
    """``dpnet.train``'s group driven by the frozen kernels and the per-step
    log as it was: the same Lockstep, its optimizer step replaced by the
    frozen one."""
    n_per_class, embed = nn.group_values(runs, dpnet.GROUP_KEYS)
    dims, k_classes = (source_domains[0].dim,) + tuple(embed), source_domains[0].num_classes
    steps = [hp["steps"] for hp, _ in runs]
    episodes = dpnet.Episodes(source_domains, n_per_class, [np.random.default_rng(s) for _, s in runs], steps, shared)
    encoders = [[dpnet.init_dpnet(dims, k_classes, seed, shared).encoders] for _, seed in runs]
    lock = nn.Lockstep(encoders, [hp["lr"] for hp, _ in runs], steps)
    labels = np.repeat(np.arange(k_classes), n_per_class)
    logs = np.empty((2, len(runs), max(steps)))

    def grads(step):
        episode, _ = dpnet.sample_episode(episodes, step, lock.ids)
        losses, d2, g = ref_episode_loss(lock.nets[0], episode)
        for dst, src in zip(lock.grads[0].arrays(), g.arrays()):
            dst[...] = src
        acc = np.add.reduce(np.argmin(d2, axis=-2) == labels, axis=-1) / labels.size
        logs[:, lock.ids, step] = losses, acc
        return losses

    with monkeypatch.context() as patch:
        patch.setattr(nn, "step_mlps", ref_step_mlps)
        nets = lock.train(grads)
    return [(dpnet.from_encoders(out[0], k_classes), logs[0, run, : steps[run]], logs[1, run, : steps[run]]) for run, out in enumerate(nets)]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("runs, n", [(1, 1), (9, 8), (9, 32)])
def test_train_logs_and_weights(runs, n, shared, monkeypatch):
    domains = data.generate(data.default_spec("evolcircle", seed=7))[:6]
    group = [({"lr": 0.003 * (1 + s % 4), "steps": 30 + 5 * (s % 3), "batch": n, "embed": (2,)}, 50 + s) for s in range(runs)]
    got = dpnet.train(domains, group, shared)
    want = ref_train(domains, group, shared, monkeypatch)
    for (model, losses, accs), (ref_model, ref_losses, ref_accs) in zip(got, want):
        _same(losses, ref_losses)
        _same(accs, ref_accs)
        _same_nets(model.f_phi, ref_model.f_phi)
        _same_nets(model.f_psi, ref_model.f_psi)
