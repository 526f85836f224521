"""Acceptance gate: one test per shipped guarantee, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see every line.

The trained-accuracy criteria use the reduced-search protocol pinned here:
5 trials × 3 seeds, best-mean-target-accuracy selection, learning rate
log-uniform on [3e-3, 1e-1], steps in {1000, 2000} (the shipped default space
additionally allows the 1e-4..3e-3 decade and 500-step runs, which cannot
converge inside this reduced budget).
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from edglab import baselines, bounds, data, dpnet, harness, nn
from edglab.harness import HParamSpace, SelectionStrategy

MASTER_SEED = 2024
N_TRIALS = 5
N_SEEDS = 3
ACCEPTANCE_SPACE = HParamSpace(lr_range=(3e-3, 1e-1), steps_choices=(1000, 2000))
DATA_SEED = 7


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def timed_search(algorithm, domains):
    t0 = time.time()
    res = harness.random_search(
        ACCEPTANCE_SPACE,
        algorithm,
        domains,
        n_trials=N_TRIALS,
        n_seeds=N_SEEDS,
        strategy=SelectionStrategy.ORACLE_MAX_QUERY,
        master_seed=MASTER_SEED,
    )
    return res, time.time() - t0


def to_cell(row, res):
    return harness.CellResult(
        row, res.algorithm, res.mean, res.std, tuple(res.best.target_accs), res.strategy.value
    )


@pytest.fixture(scope="module")
def evolcircle_results():
    domains = data.generate(data.default_spec("evolcircle", seed=DATA_SEED))
    return {
        algo: timed_search(algo, domains)
        for algo in ("dpnets", "erm", "erm-scalar", "erm-onehot", "erm-outer")
    }


@pytest.fixture(scope="module")
def rplate_results():
    domains = data.generate(data.default_spec("rplate", seed=DATA_SEED))
    return {algo: timed_search(algo, domains) for algo in ("dpnets", "erm")}


@pytest.fixture(scope="module")
def distance_sweep_cells():
    spec = data.default_spec("rotatedcloud", seed=DATA_SEED)
    sweep = harness.SweepConfig(
        axis="domain_distance", values=(3.0, 20.0), base_spec=spec, algorithms=("dpnets", "erm")
    )
    t0 = time.time()
    cells = harness.run_sweep(
        sweep,
        space=ACCEPTANCE_SPACE,
        n_trials=N_TRIALS,
        n_seeds=N_SEEDS,
        strategy=SelectionStrategy.ORACLE_MAX_QUERY,
        master_seed=MASTER_SEED,
    )
    return cells, time.time() - t0


@pytest.fixture(scope="module")
def certification():
    t0 = time.time()
    results = bounds.run_certification(instances=1000, decomposition_pairs=10000, seed=MASTER_SEED)
    return {r.name: r for r in results}, time.time() - t0


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness for every shipped architecture
# ---------------------------------------------------------------------------


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def _episode_grad_error(dims, num_classes, n_per_class, n_coords, rng):
    model = dpnet.DPNetModel(
        nn.init_mlp(dims, rng), nn.init_mlp(dims, rng), dims[-1], num_classes
    )
    batch = dpnet.EpisodeBatch(
        support=tuple(rng.standard_normal((n_per_class, dims[0])) for _ in range(num_classes)),
        query=tuple(rng.standard_normal((n_per_class, dims[0])) for _ in range(num_classes)),
        source_index=0,
    )
    _, _, g_phi, g_psi = dpnet.episode_loss(model, batch)
    h = 1e-5
    worst = 0.0
    for net, grads in ((model.f_phi, g_phi), (model.f_psi, g_psi)):
        for li in range(len(net.layers)):
            for part in (0, 1):
                arr = net.layers[li][part]
                g_arr = grads.layers[li][part]
                flat_idx = rng.choice(arr.size, size=min(n_coords, arr.size), replace=False)
                for fi in flat_idx:
                    idx = np.unravel_index(fi, arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + h
                    hi, _, _, _ = dpnet.episode_loss(model, batch)
                    arr[idx] = orig - h
                    lo, _, _, _ = dpnet.episode_loss(model, batch)
                    arr[idx] = orig
                    worst = max(worst, _rel_err((hi - lo) / (2 * h), g_arr[idx]))
    return worst


def _erm_grad_error(dims, n_coords, rng):
    net = nn.init_mlp(dims, rng)
    xs = rng.standard_normal((24, dims[0]))
    ys = rng.integers(0, dims[-1], size=24)
    logits, cache = nn.mlp_forward(net, xs)
    _, dlogits = nn.softmax_cross_entropy(logits, ys)
    grads = nn.mlp_backward(net, cache, dlogits)
    h = 1e-5
    worst = 0.0
    for li in range(len(net.layers)):
        for part in (0, 1):
            arr = net.layers[li][part]
            g_arr = grads.layers[li][part]
            flat_idx = rng.choice(arr.size, size=min(n_coords, arr.size), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                hi, _ = nn.softmax_cross_entropy(nn.mlp_forward(net, xs)[0], ys)
                arr[idx] = orig - h
                lo, _ = nn.softmax_cross_entropy(nn.mlp_forward(net, xs)[0], ys)
                arr[idx] = orig
                worst = max(worst, _rel_err((hi - lo) / (2 * h), g_arr[idx]))
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    # Episodic loss: the 2-D linear encoders and both image backbones.
    for dims, k, npc in (((2, 2), 2, 6), ((784, 128), 10, 2), ((784, 256, 128), 10, 2)):
        worst = max(worst, _episode_grad_error(dims, k, npc, n_coords=20, rng=rng))
    # ERM cross-entropy: the linear heads (plain and index-augmented widths)
    # and both image classifiers.
    for dims in ((2, 2), (3, 2), (32, 2), (60, 2), (784, 128, 10), (784, 256, 128, 10)):
        worst = max(worst, _erm_grad_error(dims, n_coords=20, rng=rng))
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"max finite-difference relative error {worst:.3e} (<1e-4), {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: episodic loss equals mean negative log-probability
# ---------------------------------------------------------------------------


def test_criterion_2_loss_probability_consistency():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        dims = (3, int(rng.integers(2, 5)))
        model = dpnet.DPNetModel(nn.init_mlp(dims, rng), nn.init_mlp(dims, rng), dims[-1], k)
        npc = int(rng.integers(1, 4))
        batch = dpnet.EpisodeBatch(
            support=tuple(rng.standard_normal((npc, 3)) for _ in range(k)),
            query=tuple(rng.standard_normal((npc, 3)) for _ in range(k)),
            source_index=0,
        )
        loss, _, _, _ = dpnet.episode_loss(model, batch)
        protos = dpnet.compute_prototypes(model, batch.support)
        ref = -np.mean(
            [
                math.log(dpnet.predictive_distribution(model, protos, row)[kk])
                for kk, block in enumerate(batch.query)
                for row in block
            ]
        )
        worst = max(worst, abs(loss - ref))
    elapsed = time.time() - t0
    report(
        2,
        worst <= 1e-10 and elapsed < 10.0,
        f"max |loss − mean(−log p_true)| = {worst:.2e} over 1000 episodes (≤1e-10), {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# Criteria 3–5: headline comparisons
# ---------------------------------------------------------------------------


def test_criterion_3_evolcircle_headline(evolcircle_results):
    (dp, t_dp), (erm, t_erm) = evolcircle_results["dpnets"], evolcircle_results["erm"]
    elapsed = t_dp + t_erm
    ok = dp.mean >= 0.88 and dp.mean - erm.mean >= 0.12 and elapsed < 180.0
    report(
        3,
        ok,
        f"EvolCircle: dpnets {100 * dp.mean:.1f}% (≥88), erm {100 * erm.mean:.1f}%, "
        f"gap {100 * (dp.mean - erm.mean):.1f} pts (≥12), {elapsed:.0f}s (<180s)",
    )


def test_criterion_4_rplate_headline(rplate_results):
    (dp, t_dp), (erm, t_erm) = rplate_results["dpnets"], rplate_results["erm"]
    elapsed = t_dp + t_erm
    ok = dp.mean >= 0.85 and erm.mean <= 0.72 and elapsed < 180.0
    report(
        4,
        ok,
        f"RPlate: dpnets {100 * dp.mean:.1f}% (≥85), erm {100 * erm.mean:.1f}% (≤72), "
        f"{elapsed:.0f}s (<180s)",
    )


def test_criterion_5_distance_sweep_trend(distance_sweep_cells):
    cells, elapsed = distance_sweep_cells
    acc = {(c.row, c.algorithm): c.mean for c in cells}
    gap_near = acc[("domain_distance=3.0", "dpnets")] - acc[("domain_distance=3.0", "erm")]
    gap_far = acc[("domain_distance=20.0", "dpnets")] - acc[("domain_distance=20.0", "erm")]
    ok = gap_far - gap_near >= 0.05 and elapsed < 600.0
    report(
        5,
        ok,
        f"RotatedCloud gaps: {100 * gap_far:.1f} pts at 20° vs {100 * gap_near:.1f} pts at 3°, "
        f"difference {100 * (gap_far - gap_near):.1f} pts (≥5), {elapsed:.0f}s (<600s)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: rotated digits (needs real IDX files)
# ---------------------------------------------------------------------------


def find_mnist_files():
    roots = []
    if os.environ.get("EDGLAB_MNIST_DIR"):
        roots.append(Path(os.environ["EDGLAB_MNIST_DIR"]))
    roots += [Path("data/mnist"), Path.home() / "data" / "mnist"]
    for root in roots:
        imgs = root / "train-images-idx3-ubyte"
        lbls = root / "train-labels-idx1-ubyte"
        if imgs.exists() and lbls.exists():
            return imgs, lbls
    return None


def test_criterion_6_rmnist_directional():
    found = find_mnist_files()
    if found is None:
        msg = (
            "[criterion  6] SKIP — MNIST IDX files not found "
            "(set EDGLAB_MNIST_DIR to a directory holding train-images-idx3-ubyte "
            "and train-labels-idx1-ubyte); directional digit check not run"
        )
        print(msg)
        pytest.skip(msg)
    t0 = time.time()
    imgs, lbls = found
    spec = data.default_spec("rmnist", seed=DATA_SEED)
    domains = data.load_rmnist(imgs, lbls, spec)
    space = HParamSpace(
        lr_range=(3e-3, 3e-2),
        steps_choices=(1000, 2000),
        batch_choices=(8, 10),
        embed_choices=((256, 128),),
        hidden_choices=((128,),),
    )
    results = {}
    for algo in ("dpnets", "erm"):
        results[algo] = harness.random_search(
            space, algo, domains, n_trials=N_TRIALS, n_seeds=N_SEEDS, master_seed=MASTER_SEED
        )
    elapsed = time.time() - t0
    gap = results["dpnets"].mean - results["erm"].mean
    report(
        6,
        gap >= 0.04 and elapsed < 1200.0,
        f"RMNIST: dpnets {100 * results['dpnets'].mean:.1f}% vs erm {100 * results['erm'].mean:.1f}%, "
        f"gap {100 * gap:.1f} pts (≥4), {elapsed:.0f}s (<1200s)",
    )


# ---------------------------------------------------------------------------
# Criteria 7–8: bound certification
# ---------------------------------------------------------------------------


def test_criterion_7_bound_certification(certification):
    results, elapsed = certification
    lines = []
    ok = elapsed < 120.0
    for name in (
        "synthetic_transfer",
        "sequential_transfer",
        "decomposed_transfer",
        "js_decomposition",
        "change_of_measure",
    ):
        r = results[name]
        ok = ok and r.min_slack >= -1e-9
        lines.append(f"{name} min {r.min_slack:.2e}/{r.instances}")
    attain = results["change_of_measure"].max_abs_attainment
    ok = ok and attain <= 1e-9
    report(
        7,
        ok,
        "; ".join(lines) + f"; attainment |slack| ≤ {attain:.2e} (≤1e-9); {elapsed:.0f}s (<120s)",
    )


def test_criterion_8_relaxation_ordering(certification):
    results, _ = certification
    margin = results["decomposed_transfer"].extras["min_relaxation_margin"]
    report(
        8,
        margin >= -1e-12,
        f"decomposed bound ≥ sequential bound on all certified instances "
        f"(min margin {margin:.2e})",
    )


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical reports when the searches are rerun
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_across_workers(evolcircle_results, rplate_results, distance_sweep_cells):
    # The reruns go in reverse cell order, so no state left behind by one
    # search (such as a cached draw layout) can shape the next one's bytes.
    t0 = time.time()
    baseline_cells = [
        to_cell("evolcircle", evolcircle_results["dpnets"][0]),
        to_cell("evolcircle", evolcircle_results["erm"][0]),
        to_cell("rplate", rplate_results["dpnets"][0]),
        to_cell("rplate", rplate_results["erm"][0]),
    ]
    spec = data.default_spec("rotatedcloud", seed=DATA_SEED)
    reversed_sweep = harness.SweepConfig(
        axis="domain_distance", values=(20.0, 3.0), base_spec=spec, algorithms=("erm", "dpnets")
    )
    sweep_rerun = harness.run_sweep(
        reversed_sweep,
        space=ACCEPTANCE_SPACE,
        n_trials=N_TRIALS,
        n_seeds=N_SEEDS,
        strategy=SelectionStrategy.ORACLE_MAX_QUERY,
        master_seed=MASTER_SEED,
    )
    rerun_cells = []
    for kind in ("rplate", "evolcircle"):
        domains = data.generate(data.default_spec(kind, seed=DATA_SEED))
        for algo in ("erm", "dpnets"):
            res, _ = timed_search(algo, domains)
            rerun_cells.append(to_cell(kind, res))
    csv_a = harness.render_csv(baseline_cells)
    csv_b = harness.render_csv(rerun_cells)

    sweep_cells, _ = distance_sweep_cells
    sweep_equal = harness.render_csv(sweep_cells) == harness.render_csv(sweep_rerun)
    elapsed = time.time() - t0
    report(
        9,
        csv_a == csv_b and sweep_equal,
        f"headline CSV bytes identical on a rerun in reverse order: {csv_a == csv_b}; "
        f"sweep CSV identical on a rerun in reverse order: {sweep_equal}; rerun {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 10: domain-index baselines stay marginal
# ---------------------------------------------------------------------------


def test_criterion_10_domain_index_baselines(evolcircle_results):
    means = {algo: res.mean for algo, (res, _) in evolcircle_results.items()}
    elapsed = sum(t for _, t in evolcircle_results.values())
    variants = ("erm-scalar", "erm-onehot", "erm-outer")
    marginal = all(means[v] <= means["erm"] + 0.06 for v in variants)
    leads = all(means["dpnets"] >= means[v] + 0.12 for v in variants + ("erm",))
    detail = ", ".join(f"{a} {100 * m:.1f}%" for a, m in sorted(means.items()))
    report(
        10,
        marginal and leads and elapsed < 300.0,
        f"{detail}; index variants within +6 pts of erm: {marginal}; "
        f"dpnets leads all by ≥12 pts: {leads}; {elapsed:.0f}s (<300s)",
    )
