"""The exact draw layer (``seeding``): bulk decoding of a generator's words
gives what ``Generator.choice`` and ``Generator.integers`` give call by call,
and leaves the generator where those calls would.

The references are numpy's own calls, and ``reference_episode`` below draws
an episode one numpy call at a time, as the bulk decoder must match.
"""
import tracemalloc

import numpy as np
import pytest

from edglab import baselines, data, dpnet, seeding


def state_equal(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def decode_bounds(rng, bounds):
    """``seeding.decode`` over one stream for draws with the given bounds."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    live = bounds != 0
    at = np.minimum(np.cumsum(live) - live, max(int(live.sum()) - 1, 0))
    words = seeding.Words(rng)
    values = seeding.decode([words], max(int(live.sum()), 1), lambda _: (bounds[None], at[None], int(live.sum())))
    return values[0], words


@pytest.mark.parametrize(
    "pop,size",
    [(110, 16), (20, 20), (6380, 64), (12000, 500), (10001, 10001), (10000, 9000), (20000, 400), (20000, 401)],
)
def test_choice_matches_generator(pop, size):
    # (20, 20): Floyd's first bound is 0 and takes no word. (12000, 500),
    # (10001, 10001) and (20000, 401): numpy shuffles the tail of arange(pop)
    # instead; (10000, 9000) and (20000, 400) are the last Floyd cases.
    for seed in range(3):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [ref.choice(pop, size, replace=False) for _ in range(2)]
        batches = seeding.Steps([[pop]], [[0]], size, [rng], steps=2)
        got = [batches.draw(step, [0])[0][0] for step in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert state_equal(ref, rng)  # handed back after its last step
        assert np.array_equal(ref.integers(0, 1000, 50), rng.integers(0, 1000, 50))


def test_choice_stacks_streams():
    batches = seeding.Steps([[300]], [[0]], 7, [np.random.default_rng(s) for s in range(3)], steps=4)
    got = np.stack([batches.draw(step, [0, 1, 2])[0] for step in range(4)], axis=1)
    for s in range(3):
        ref = np.random.default_rng(s)
        assert np.array_equal(got[s], [ref.choice(300, 7, replace=False) for _ in range(4)])


def test_lemire_matches_integers_with_rejections():
    bounds = np.random.default_rng(0).integers(2**31, 2**32 - 1, size=2000, dtype=np.uint64)
    bounds[::9] = 0  # no word
    ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    want = ref.integers(0, bounds.astype(np.int64), endpoint=True)
    got, words = decode_bounds(rng, bounds)
    assert np.array_equal(got, want)
    assert words.used > np.count_nonzero(bounds)  # rejections happened and were redrawn
    words.sync()
    assert state_equal(ref, rng)


def test_words_start_with_a_buffered_half():
    ref, rng = np.random.default_rng(9), np.random.default_rng(9)
    ref.integers(0, 10), rng.integers(0, 10)  # one uint32 of a 64-bit output
    assert rng.bit_generator.state["has_uint32"] == 1
    want = ref.choice(50, 5, replace=False)
    batches = seeding.Steps([[50]], [[0]], 5, [rng])
    assert np.array_equal(batches.draw(0, [0])[0][0], want)
    assert state_equal(ref, rng)


def reference_episode(domains, n, rng, same_domain):
    """One episode the way training drew it call by call: rows of support
    and query, the pair index, or the EpisodeError message."""
    i = int(rng.integers(0, len(domains) - (0 if same_domain else 1)))
    sup, qry = domains[i], domains[i if same_domain else i + 1]
    s_rows, q_rows = [], []
    for k in range(sup.num_classes):
        if same_domain:
            idx = sup.class_index[k]
            if len(idx) < 2 * n:
                return f"domain {i} class {k}: need {2 * n} samples, have {len(idx)}"
            pick = rng.choice(idx, size=2 * n, replace=False)
            s_rows.append(pick[:n])
            q_rows.append(pick[n:])
        else:
            s_idx, q_idx = sup.class_index[k], qry.class_index[k]
            if len(s_idx) < n or len(q_idx) < n:
                return f"episode ({i},{i + 1}) class {k}: insufficient per-class samples"
            s_rows.append(rng.choice(s_idx, size=n, replace=False))
            q_rows.append(rng.choice(q_idx, size=n, replace=False))
    return sup.x[np.array(s_rows)], qry.x[np.array(q_rows)], i


def draw_all(domains, n, seeds, steps, same_domain):
    """Every episode of a group, asked for as ``dpnet.train`` asks: all live
    runs each step."""
    episodes = dpnet.Episodes(domains, n, [np.random.default_rng(s) for s in seeds], steps, same_domain)
    live, out = list(range(len(seeds))), {run: [] for run in range(len(seeds))}
    for step in range(max(steps)):
        live = [run for run in live if steps[run] > step]
        episode, pairs = dpnet.sample_episode(episodes, step, live)
        for row, run in enumerate(live):
            out[run].append((episode[row, 0], episode[row, 1], pairs[row]))
    return out


def reference_all(domains, n, seeds, steps, same_domain):
    out = {}
    for run, (seed, count) in enumerate(zip(seeds, steps)):
        rng, out[run] = np.random.default_rng(seed), []
        for _ in range(count):
            out[run].append(reference_episode(domains, n, rng, same_domain))
            if isinstance(out[run][-1], str):
                break
    return out


def same_episodes(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


@pytest.fixture(scope="module")
def evolcircle():
    return data.generate(data.default_spec("evolcircle", seed=7, num_domains=8, samples_per_domain=60))[:-1]


# Chunk budgets: one step per chunk, the default, and one chunk per run. Under
# the default, the 45-step run ends inside a chunk and hands its generator back.
BUDGETS = pytest.mark.parametrize("budget", [1, seeding.CHUNK_DRAWS, 10**9], ids=["one-step", "default", "whole-run"])


def check_chunking(domains, monkeypatch, same_domain, budget):
    seeds, steps = [3, 4, 5], [70, 45, 70]
    full = draw_all(domains, 6, seeds, steps, same_domain)
    monkeypatch.setattr(seeding, "CHUNK_DRAWS", budget)
    if budget == 1:
        assert seeding.chunk_steps(3, 100, 70) == 1  # one step per chunk
    if budget == 10**9:
        assert seeding.chunk_steps(3, 100, 70) == 70  # one chunk per run
    chunked = draw_all(domains, 6, seeds, steps, same_domain)
    want = reference_all(domains, 6, seeds, steps, same_domain)
    for run in range(len(seeds)):
        assert len(full[run]) == len(chunked[run]) == len(want[run]) == steps[run]
        assert all(same_episodes(a, b) for a, b in zip(full[run], want[run]))
        assert all(same_episodes(a, b) for a, b in zip(chunked[run], want[run]))


@BUDGETS
@pytest.mark.parametrize("same_domain", [False, True], ids=["dpnets", "proto"])
def test_chunking_does_not_change_episodes(evolcircle, monkeypatch, same_domain, budget):
    check_chunking(evolcircle, monkeypatch, same_domain, budget)


@BUDGETS
@pytest.mark.parametrize("same_domain", [False, True], ids=["dpnets", "proto"])
def test_chunking_does_not_change_one_pair_episodes(evolcircle, monkeypatch, same_domain, budget):
    # One pair: two sources for dpnets, one for proto. Drawing the pair takes
    # no word, so every step takes its words at the same slots.
    domains = evolcircle[: 1 if same_domain else 2]
    assert dpnet.Episodes(domains, 6, [], same_domain=same_domain).uniform
    check_chunking(domains, monkeypatch, same_domain, budget)


@pytest.mark.parametrize("same_domain,n", [(False, 6), (True, 3)], ids=["dpnets", "proto"])
def test_steps_of_different_word_counts(evolcircle, same_domain, n):
    # Domain 3 keeps 6 samples of class 1. Where it serves, Floyd's first
    # draw for that class has bound 0 and takes no word, so those steps take
    # one word fewer than the others and each step begins where the pairs
    # drawn before it say.
    domains = list(evolcircle)
    d = domains[3]
    keep = np.concatenate([np.flatnonzero(d.y == 0), np.flatnonzero(d.y == 1)[:6]])
    domains[3] = data.DomainData(d.index, d.x[keep], d.y[keep], d.num_classes)
    seeds, steps = [3, 4, 5], [70, 45, 70]
    assert not dpnet.Episodes(domains, n, [], same_domain=same_domain).uniform
    got = draw_all(domains, n, seeds, steps, same_domain)
    want = reference_all(domains, n, seeds, steps, same_domain)
    for run in range(len(seeds)):
        assert len(got[run]) == len(want[run]) == steps[run]
        assert all(same_episodes(a, b) for a, b in zip(got[run], want[run]))


def test_a_short_pair_fails_every_run_before_training(evolcircle):
    # Domain 3 keeps 3 samples of class 1: pairs (2,3) and (3,4) cannot serve
    # n=4. Every run fails with the first short pair's error before its first
    # draw, the 7- and 5-step runs of seeds 3 and 5 too, though alone they
    # would never draw a short pair.
    domains = list(evolcircle)
    d = domains[3]
    keep = np.concatenate([np.flatnonzero(d.y == 0), np.flatnonzero(d.y == 1)[:3]])
    domains[3] = data.DomainData(d.index, d.x[keep], d.y[keep], d.num_classes)
    seeds, steps = list(range(6)), [200, 200, 200, 7, 200, 5]
    want = reference_all(domains, 4, seeds, steps, False)
    assert [run for run, w in want.items() if not isinstance(w[-1], str)] == [3, 5]
    error = "episode (2,3) class 1: insufficient per-class samples"
    rngs = [np.random.default_rng(s) for s in seeds]
    with pytest.raises(dpnet.EpisodeError) as info:
        dpnet.Episodes(domains, 4, rngs, steps)
    assert str(info.value) == error
    assert all(state_equal(rng, np.random.default_rng(s)) for rng, s in zip(rngs, seeds))
    runs = [({"steps": n, "batch": 4, "lr": 0.01, "embed": (2,)}, s) for s, n in zip(seeds, steps)]
    called = []
    for group in (runs, runs[3:4], runs[5:]):  # the group, and each of the two alone
        results = dpnet.train(domains, group, progress=lambda *call: called.append(call))
        assert len(results) == len(group)
        assert all(isinstance(r, dpnet.EpisodeError) and str(r) == error for r in results)
    assert not called


@BUDGETS
def test_erm_batches_do_not_depend_on_chunking(evolcircle, monkeypatch, budget):
    runs = [({"steps": s, "batch": 8, "lr": 0.05, "hidden": ()}, s) for s in (30, 45)]
    full = baselines.train_erm(evolcircle, runs)
    monkeypatch.setattr(seeding, "CHUNK_DRAWS", budget)
    chunked = baselines.train_erm(evolcircle, runs)
    for a, b in zip(full, chunked):
        assert all(np.array_equal(x, y) for x, y in zip(a.net.arrays(), b.net.arrays()))


def test_episodes_need_a_sample(evolcircle):
    with pytest.raises(ValueError, match="n_per_class"):
        dpnet.Episodes(evolcircle, 0, [np.random.default_rng(0)])


def test_decode_memory_stays_small():
    # One decode of 27 runs at n=32 on search-2d's evolcircle (4 steps, 27,324
    # draws at the default budget) peaks at 0.35 MiB with numpy 2.4, of which
    # 0.04 MiB is Floyd's intp swap table over an int32 one. The bound leaves
    # 28% on that; forming Lemire's 64-bit products over the whole chunk at
    # once took it to 0.49 MiB with the int32 table.
    domains = data.generate(data.default_spec("evolcircle", seed=7))[:-1]
    episodes = dpnet.Episodes(domains, 32, [np.random.default_rng(s) for s in range(27)], 1000)
    tracemalloc.start()
    try:
        dpnet.sample_episode(episodes, 0, list(range(27)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert episodes.stop == seeding.CHUNK_DRAWS // (27 * 253)
    assert peak < 0.45 * 2**20


def test_one_pair_decode_memory_stays_small():
    # One pair (two evolcircle sources) draws no pair index and takes the
    # fixed layout. A full chunk of 9 runs at n=32 (14 steps, 31,752 draws)
    # peaks at 0.40 MiB with numpy 2.4, about 13 bytes a draw. The chain
    # path, which follows each run's steps one at a time (as blocks whose
    # dead slots differ need), peaks at 0.60 MiB on this decode.
    domains = data.generate(data.default_spec("evolcircle", seed=7))[:2]
    episodes = dpnet.Episodes(domains, 32, [np.random.default_rng(s) for s in range(9)], 1000)
    tracemalloc.start()
    try:
        dpnet.sample_episode(episodes, 0, list(range(9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert episodes.stop == seeding.CHUNK_DRAWS // (9 * 252)
    assert peak < 0.45 * 2**20
