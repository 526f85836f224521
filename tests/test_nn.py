import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import nn


def identity_params(dim):
    return nn.MlpParams(((np.eye(dim), np.zeros(dim)),))


def naive_forward(params, batch):
    """Loop-based re-implementation used as the forward oracle."""
    out = np.empty((batch.shape[0], params.out_dim))
    for n in range(batch.shape[0]):
        h = batch[n]
        for li, (w, b) in enumerate(params.layers):
            z = np.array([sum(w[o, i] * h[i] for i in range(w.shape[1])) + b[o] for o in range(w.shape[0])])
            h = np.maximum(z, 0.0) if li < len(params.layers) - 1 else z
        out[n] = h
    return out


class TestForward:
    def test_identity_layer_is_identity(self, rng):
        batch = rng.standard_normal((5, 3))
        out, _ = nn.mlp_forward(identity_params(3), batch)
        assert np.array_equal(out, batch)

    def test_relu_zeroes_all_negative_preactivations(self):
        # Hidden layer forces negatives, output layer is identity.
        params = nn.MlpParams(
            (
                (-np.eye(2), -np.ones(2)),
                (np.eye(2), np.zeros(2)),
            )
        )
        out, _ = nn.mlp_forward(params, np.abs(np.random.default_rng(1).standard_normal((4, 2))))
        assert np.all(out == 0.0)

    def test_matches_naive_oracle(self, rng):
        params = nn.init_mlp((4, 6, 3), rng)
        batch = rng.standard_normal((7, 4))
        out, _ = nn.mlp_forward(params, batch)
        assert np.max(np.abs(out - naive_forward(params, batch))) < 1e-12

    def test_dimension_mismatch_raises(self, rng):
        params = nn.init_mlp((4, 3), rng)
        with pytest.raises(ValueError):
            nn.mlp_forward(params, rng.standard_normal((2, 5)))


def finite_diff_grads(params, batch, loss_fn, h=1e-5):
    """Central-difference gradient of loss_fn(forward output) per parameter."""
    grads = []
    for w, b in params.layers:
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, grad in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = loss_fn(nn.mlp_forward(params, batch)[0])
                arr[idx] = orig - h
                lo = loss_fn(nn.mlp_forward(params, batch)[0])
                arr[idx] = orig
                grad[idx] = (hi - lo) / (2 * h)
        grads.append((gw, gb))
    return grads


class TestBackward:
    def test_zero_output_grad_gives_zero_grads(self, rng):
        params = nn.init_mlp((3, 5, 2), rng)
        batch = rng.standard_normal((4, 3))
        out, cache = nn.mlp_forward(params, batch)
        grads = nn.mlp_backward(params, cache, np.zeros_like(out))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads.layers)

    def test_linear_sum_loss_weight_grad_is_column_sums(self, rng):
        params = nn.init_mlp((3, 2), rng)
        batch = rng.standard_normal((6, 3))
        out, cache = nn.mlp_forward(params, batch)
        grads = nn.mlp_backward(params, cache, np.ones_like(out))
        expected = np.tile(batch.sum(axis=0), (2, 1))
        assert np.max(np.abs(grads.layers[0][0] - expected)) < 1e-12
        assert np.max(np.abs(grads.layers[0][1] - 6.0)) < 1e-12

    def test_matches_finite_differences(self, rng):
        params = nn.init_mlp((4, 8, 3), rng)
        batch = rng.standard_normal((5, 4))
        coeff = rng.standard_normal((5, 3))
        out, cache = nn.mlp_forward(params, batch)
        grads = nn.mlp_backward(params, cache, coeff)
        fd = finite_diff_grads(params, batch, lambda o: float(np.sum(o * coeff)))
        for (gw, gb), (fw, fb) in zip(grads.layers, fd):
            for a, f in ((gw, fw), (gb, fb)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
                assert np.max(np.abs(a - f) / denom) < 1e-4


class TestDistancesAndSoftmax:
    def test_pairwise_matches_sq_euclidean(self, rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
        d = nn.pairwise_sq_dists(a, b)
        for i in range(4):
            for j in range(2):
                diff = a[i] - b[j]
                assert abs(d[i, j] - diff @ diff) < 1e-12
        with pytest.raises(ValueError, match="dim mismatch"):
            nn.pairwise_sq_dists(a, np.zeros((2, 4)))

    def test_log_softmax_uniform(self):
        out = nn.log_softmax_rows(np.full((1, 4), 2.5))
        assert np.max(np.abs(out - math.log(0.25))) < 1e-12

    def test_log_softmax_extreme_inputs_stable(self):
        out = nn.log_softmax_rows(np.array([[0.0, -1000.0]]))[0]
        probs = np.exp(out)
        assert np.all(np.isfinite(out))
        assert abs(probs[0] - 1.0) < 1e-12 and probs[1] < 1e-300

    def test_log_softmax_matches_naive(self, rng):
        v = rng.standard_normal(5)
        naive = np.log(np.exp(v) / np.sum(np.exp(v)))
        assert np.max(np.abs(nn.log_softmax_rows(v[None])[0] - naive)) < 1e-10

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_log_softmax_exponentiates_to_probability_vector(self, values):
        probs = np.exp(nn.log_softmax_rows(np.array([values])))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs > 0.0) and np.all(probs <= 1.0)

    def test_cross_entropy_gradient_rows_sum_to_zero(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        loss, grad = nn.softmax_cross_entropy(logits, labels)
        assert loss > 0
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-12


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        p = np.array([[1.0, -2.0]])
        nn.step_mlps(nn.Optimizer([0.5], p), np.zeros((1, 2)))
        assert np.array_equal(p, np.array([[1.0, -2.0]]))

    def test_adam_minimizes_quadratic(self):
        # Oracle: an independent textbook Adam recursion run side by side.
        p = np.array([[1.0]])
        opt = nn.Optimizer([0.1], p)
        m = v = 0.0
        ref = 1.0
        for t in range(1, 101):
            g = 2 * p
            nn.step_mlps(opt, g)
            gr = 2 * ref
            m = 0.9 * m + 0.1 * gr
            v = 0.999 * v + 0.001 * gr * gr
            ref -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(p[0, 0]) < 0.1
        assert abs(p[0, 0] - ref) < 1e-12

    def test_non_finite_gradient_raises(self):
        with pytest.raises(nn.OptimizerError):
            nn.step_mlps(nn.Optimizer([0.1], np.array([[1.0]])), np.array([[np.nan]]))

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.Optimizer([0.0], np.zeros((1, 1)))

    def test_only_a_stacked_buffer(self):
        # Lockstep passes an (R, P) buffer with one rate per row; a flat
        # buffer, or a gradient that is not r rows of it, is refused.
        with pytest.raises(ValueError, match="runs, size"):
            nn.Optimizer(0.1, np.zeros(3))
        opt = nn.Optimizer([0.1, 0.2], np.zeros((2, 3)))
        for bad in (np.zeros(3), np.zeros((3, 3)), np.zeros((1, 4))):
            with pytest.raises(ValueError, match="does not fit"):
                nn.step_mlps(opt, bad)


class FrozenStep:
    """The untiled ``step_mlps``, frozen as the oracle of the tiled one: each
    op runs once over all live rows, through full-size scratch buffers."""

    def __init__(self, lrs, params):
        self.t = 0
        self.lr, self.params = np.array(lrs, dtype=np.float64)[:, None], params
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)

    def keep(self, rows):
        for buf in (self.params, self.lr, self.m, self.v):
            buf[: len(rows)] = buf[rows]

    def step(self, g):
        live = len(g)
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            raise nn.OptimizerError("non-finite gradient", tuple(np.flatnonzero(bad).tolist()))
        p, lr, tmp = self.params[:live], self.lr[:live], np.empty_like(g)
        self.t += 1
        b1, b2, eps = nn.Optimizer.beta1, nn.Optimizer.beta2, nn.Optimizer.eps
        m, v, upd = self.m[:live], self.v[:live], np.empty_like(g)
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, 1 - b2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, 1 - b1**self.t, out=upd)
        upd *= lr
        upd /= tmp
        p -= upd


def _same_state(opt, ref):
    assert np.array_equal(opt.params, ref.params)
    assert opt.t == ref.t
    assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)


class TestTiledStep:
    """``step_mlps`` walks the buffer in ``STEP_TILE`` column tiles; every
    value must equal the untiled step's, bit for bit."""

    # Adam is the only optimizer; the parameter keeps the cases' names.
    @pytest.mark.parametrize("kind", ["adam"])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("tile", [None, 7])  # the module's tile, then one that splits every row
    def test_equals_untiled_step(self, kind, runs, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(nn, "STEP_TILE", tile)
        width = 2 * nn.STEP_TILE + 123  # several tiles, the last one ragged
        assert width % max(1, nn.STEP_TILE // runs) != 0
        rng = np.random.default_rng(runs)
        start = rng.standard_normal((runs, width))
        params, ref_params = start.copy(), start.copy()
        lrs = [1e-3 * (row + 1) for row in range(runs)]
        opt, ref = nn.Optimizer(lrs, params), FrozenStep(lrs, ref_params)
        # Gradient rows as Lockstep keeps them: the first columns of a wider buffer.
        grad = np.empty((runs, width + 5))
        live = runs
        for step in range(6):
            if step == 3 and runs > 1:  # a run leaves, as Lockstep.drop takes it out
                opt.keep([0, 2])
                ref.keep([0, 2])
                live = 2
            grad[:live, :width] = rng.standard_normal((live, width)) * 10.0 ** rng.integers(-6, 2, size=(live, 1))
            nn.step_mlps(opt, grad[:live, :width])
            ref.step(grad[:live, :width])
            _same_state(opt, ref)

    @pytest.mark.parametrize("kind", ["adam"])
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_tile_fails_before_any_update(self, kind, bad_value):
        runs, width = 3, 2 * nn.STEP_TILE + 123
        rng = np.random.default_rng(5)
        opt = nn.Optimizer([1e-3, 2e-3, 3e-3], rng.standard_normal((runs, width)))
        for _ in range(2):
            nn.step_mlps(opt, rng.standard_normal((runs, width)))
        before = [a.copy() for a in opt.state]
        t = opt.t
        grad = rng.standard_normal((runs, width))
        grad[1, -1] = bad_value
        with pytest.raises(nn.OptimizerError) as info:
            nn.step_mlps(opt, grad)
        assert info.value.rows == (1,)
        assert opt.t == t
        assert all(np.array_equal(a, b) for a, b in zip(opt.state, before))

class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        nets = [nn.init_mlp((3, 5, 2), rng), nn.init_mlp((2, 2), rng)]
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nets)
        loaded = nn.load_checkpoint(path)
        assert len(loaded) == 2
        for orig, back in zip(nets, loaded):
            for (w1, b1), (w2, b2) in zip(orig.layers, back.layers):
                assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            nn.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, [nn.init_mlp((2, 2), rng)])
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            nn.load_checkpoint(path)


def test_params_validation_catches_dim_break(rng):
    with pytest.raises(ValueError):
        nn.MlpParams(((rng.standard_normal((3, 2)), np.zeros(3)), (rng.standard_normal((2, 4)), np.zeros(2))))
