"""Deterministic seed derivation shared by data generation, the harness and
certification (which derives blocks of ``default_rng`` streams in bulk), and
the exact bulk decoding of a generator's bounded draws: ``Steps``, the one
step sampler of both trainers."""
from __future__ import annotations

import hashlib

import numpy as np

TWO32 = np.uint64(1 << 32)
# Draws decoded at once for all live runs of a group: enough steps to spread
# the per-chunk calls. A draw holds about 13 bytes at the decode's peak (its
# uint32 word, which its value overwrites, its bound, and its share of the
# picks, sort keys and rows): a chunk of 9 runs at n=32 on 30 domains
# (31,878 draws) peaks at 0.40 MiB.
CHUNK_DRAWS = 32768
# Draws per block of ``lemire``'s 64-bit products (and numpy's cast buffer).
LEMIRE_BLOCK = 4096


def child_seed(master: int, *parts) -> int:
    """Stable 63-bit child seed from a master seed and any hashable labels.

    Platform-independent (sha256 of the rendered key), so identical configs
    reproduce bit-identical streams everywhere.
    """
    key = repr((int(master),) + tuple(parts)).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def child_rng(master: int, *parts) -> np.random.Generator:
    return np.random.default_rng(child_seed(master, *parts))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# multiplier: ``default_rng(s)`` seeds its PCG64 from four words of the hash.
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# The running constant of the pool's 16 hashes and of generate_state's 8:
# init·mult**k mod 2**32.
_POOL_HASH = [np.uint32(0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & 0xFFFFFFFF) for k in range(17)]
_STATE_HASH = [np.uint32(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & 0xFFFFFFFF) for k in range(9)]


def _hashmix(words: np.ndarray, consts: list, k: int) -> np.ndarray:
    """Call ``k`` of a hash: xor with constant k, multiply by constant k + 1,
    fold the high half down. uint32 arrays wrap silently."""
    words = (words ^ consts[k]) * consts[k + 1]
    return words ^ (words >> _SHIFT)


def seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of every
    seed s in [0, 2**64), as an (n, 4) uint64 array, hashed for all seeds at
    once. A seed's entropy is its low and high 32-bit words; a seed below
    2**32 has one, and numpy fills the pool with hashed zeros after it, which
    is what a high word of 0 gives."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    low, high = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [_hashmix(w, _POOL_HASH, k) for k, w in enumerate((low, high, np.zeros_like(low), np.zeros_like(low)))]
    k = 4
    for src in range(4):  # late words reach early ones
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_HASH, k)
                pool[dst], k = mixed ^ (mixed >> _SHIFT), k + 1
    state = np.stack([_hashmix(pool[i % 4], _STATE_HASH, i) for i in range(8)], axis=-1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def stream_states(seeds):
    """The bit generator state of ``np.random.default_rng(s)`` for every seed
    s, as ``PCG64.state`` takes it. PCG64 seeds from the words w0..w3 with
    initstate w0·2**64 + w1 and initseq w2·2**64 + w3: inc = 2·initseq + 1,
    then the state takes two steps from 0, adding initstate between them."""
    for w0, w1, w2, w3 in seed_words(seeds).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def child_rngs(master: int, label, indices):
    """``child_rng(master, label, i)`` for each i in turn, as one reused
    Generator set to each stream's state: done with one before the next."""
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state in stream_states([child_seed(master, label, i) for i in indices]):
        bitgen.state = state
        yield rng


def child_raw(master: int, label, indices, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of each ``child_rng(master, label,
    i)``'s bit generator, (len(indices), count) uint64."""
    out = np.empty((len(indices), count), dtype=np.uint64)
    for row, rng in zip(out, child_rngs(master, label, indices)):
        row[:] = rng.bit_generator.random_raw(count)
    return out


class Words:
    """The uint32 words a PCG64 ``Generator`` spends on bounded draws, from
    its current state on.

    Each 64-bit output gives its low half, then its high half; a half the
    generator holds over (``has_uint32``) comes first. ``decode`` reads words
    ahead with ``random_raw`` straight into its rows and hands back the ones
    its draws did not take, so the generator belongs to the stream until
    ``sync`` puts it where the consumed words end.
    """

    def __init__(self, rng: np.random.Generator):
        self.bitgen = rng.bit_generator
        self.start = self.bitgen.state
        if self.start["bit_generator"] != "PCG64":
            raise TypeError(f"need a PCG64 generator, got {self.start['bit_generator']}")
        # Words read but not consumed, next in line.
        self.ahead = np.array([self.start["uinteger"]] if self.start["has_uint32"] else [], dtype=np.uint32)
        self.used = 0  # words consumed since the start, rejected ones included

    def fill(self, row: np.ndarray) -> None:
        """Write the next ``row.size`` words into ``row`` (uint32)."""
        have = min(self.ahead.size, row.size)
        row[:have] = self.ahead[:have]
        self.ahead = self.ahead[have:]
        fresh = row[have:]
        if fresh.size:
            # Little-endian outputs split into (low, high) halves on any host.
            halves = self.bitgen.random_raw((fresh.size + 1) // 2).astype("<u8", copy=False).view("<u4")
            fresh[:] = halves[: fresh.size]
            self.ahead = halves[fresh.size :].astype(np.uint32)  # ``ahead`` was empty

    def reread(self, row: np.ndarray, dropped: list[int]) -> None:
        """Fill ``row`` again from where the consumed words end, leaving out
        the rejected words ``dropped`` words on from there."""
        self.sync()
        state = self.bitgen.state
        self.ahead = np.array([state["uinteger"]] if state["has_uint32"] else [], dtype=np.uint32)
        words = np.empty(row.size + len(dropped), dtype=np.uint32)
        self.fill(words)
        row[:] = np.delete(words, dropped)

    def consume(self, row: np.ndarray, count: int, rejected: int) -> None:
        """The first ``count`` words of ``row`` are spent, and ``rejected``
        words left out of it; the rest of the row comes next."""
        self.used += count + rejected
        if count < row.size:
            self.ahead = np.concatenate([row[count:], self.ahead])

    def sync(self) -> None:
        """Set the generator to where the consumed words end, state for state
        as if it had made the draws (numpy keeps the last high half in
        ``uinteger`` after handing it out)."""
        fresh = self.used - self.start["has_uint32"]  # words taken from new outputs
        if fresh <= 0:
            self.bitgen.state = {**self.start, "has_uint32": int(fresh < 0)}
            return
        self.bitgen.state = self.start
        self.bitgen.advance((fresh - 1) // 2)
        high = int(self.bitgen.random_raw()) >> 32
        self.bitgen.state = {**self.bitgen.state, "has_uint32": fresh % 2, "uinteger": high}


def chunk_steps(runs: int, draws_per_step: int, left: int) -> int:
    """Steps to decode at once for ``runs`` runs with ``left`` steps to go."""
    return max(1, min(left, CHUNK_DRAWS // (runs * draws_per_step)))


def lemire(words: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Lemire's draw in [0, bound] from one word each, as numpy's bounded
    integer draws make it. The values (uint32) overwrite the words (R × S);
    returns the flat indices of the words the method rejects (it would draw
    again). Rows go through in blocks of about ``LEMIRE_BLOCK`` draws, so
    the 64-bit products never span the whole chunk."""
    bounds = np.broadcast_to(bounds, words.shape)
    step = max(1, LEMIRE_BLOCK // max(words.shape[1], 1))
    rejected = []
    for top in range(0, len(words), step):
        w, b = words[top : top + step], bounds[top : top + step]
        m = np.add(b, 1, dtype=np.uint64)
        m *= w
        np.copyto(w, m, casting="unsafe")  # the low half, for now
        # The low half falls to the bound or below only rarely; only then
        # can the word be rejected.
        maybe = np.flatnonzero(w <= b)
        if maybe.size:
            excl = b.flat[maybe].astype(np.uint64) + np.uint64(1)
            rejected.append(maybe[w.flat[maybe] < (TWO32 - excl) % excl] + top * words.shape[1])
        np.right_shift(m, np.uint64(32), out=w, casting="unsafe")
    return np.concatenate(rejected) if rejected else np.empty(0, dtype=np.intp)


def decode(streams: list[Words], width: int, layout) -> np.ndarray:
    """Bounded draws of R streams at once, value for value as the generators
    would make them one by one.

    ``layout(words)`` gets the next ``width`` words of every stream (R ×
    width, uint32) and returns, for the draws they serve: their bounds (R × S,
    or 1 × S for every stream), the word each reads (``None`` when draw s
    reads word s; else column indices, R × S or 1 × S) and the words each
    stream's draws take in all. A draw of bound 0 takes no word and gives 0.
    Where a draw rejects its word, that stream drops the word and the layout
    is asked again, since every later word moves by one. The words taken
    are consumed. Returns the R × S values (uint32).
    """
    words = np.empty((len(streams), width), dtype=np.uint32)
    for stream, row in zip(streams, words):
        stream.fill(row)
    dropped: list[list[int]] = [[] for _ in streams]
    while True:
        bounds, at, used = layout(words)
        size = bounds.shape[-1]
        values = words[:, :size] if at is None else np.take_along_axis(words, at, axis=1)
        rejected = lemire(values, bounds)
        if not rejected.size:
            break
        # Each stream's first rejection, in stream order: later ones move.
        # The words before it draw as they did, so a stream's rejections come
        # in order, each offset by the ones dropped before it.
        at = np.broadcast_to(np.arange(size) if at is None else at, values.shape)
        hit, first = np.unique(rejected // size, return_index=True)
        for row, flat in zip(hit.tolist(), rejected[first].tolist()):
            dropped[row].append(int(at.flat[flat]) + len(dropped[row]))
        for stream, row, drop in zip(streams, words, dropped):  # the values overwrote them
            stream.reread(row, drop)
    for stream, row, count, drop in zip(streams, words, np.broadcast_to(used, len(streams)).tolist(), dropped):
        stream.consume(row, count, len(drop))
    return values


def _tail_shuffled(pops: np.ndarray, size: int) -> np.ndarray:
    return (pops > 10000) & (size > pops // 50)


def choice_bounds(pops, size: int) -> np.ndarray:
    """The bounds of the draws ``Generator.choice(pop, size, replace=False)``
    makes, one row of 2·size − 1 per pop: Floyd's ``size`` draws at
    pop − size + t, then a shuffle of the picks at size − 1 … 1; or, when pop
    > 10000 and size > pop // 50, a shuffle of the tail of ``arange(pop)`` at
    pop − 1 down to max(pop − size, 1), padded with 0 bounds. Pops up to
    2**32: numpy draws larger bounds from 64-bit words."""
    pops = np.asarray(pops, dtype=np.int64)[:, None]
    t = np.arange(2 * size - 1)
    floyd = np.where(t < size, pops - size + t, 2 * size - 1 - t)
    tail = np.where(t < np.minimum(size, pops - 1), pops - 1 - t, 0)
    return np.where(_tail_shuffled(pops, size), tail, floyd).astype(np.uint32)


def choice_picks(values: np.ndarray, pops, size: int) -> np.ndarray:
    """The samples ``Generator.choice(pop, size, replace=False)`` returns,
    from the values of the draws at ``choice_bounds``: values ``(..., 2·size
    − 1)`` and pops ``(...)`` give picks ``(..., size)`` (uint32)."""
    pops = np.asarray(pops, dtype=np.int64)
    picks = _floyd(values, pops, size)
    for row in np.flatnonzero(_tail_shuffled(pops, size)).tolist():  # rare: their Floyd picks are discarded
        at = np.unravel_index(row, pops.shape)
        picks[at] = _tail_shuffle(values[at], int(pops[at]), size)
    return picks


def _floyd(values: np.ndarray, pops: np.ndarray, size: int) -> np.ndarray:
    """Floyd's sample, then its Fisher–Yates shuffle. Draw t is kept unless
    an earlier step already holds it; then the step's own top value
    j_t = pop − size + t goes in instead."""
    base = (pops - size).astype(np.uint32).ravel()
    n = base.size
    # Position-major, size × N: position i of every sample is one row.
    picks = np.empty((size, n), dtype=np.uint32)
    picks.reshape(size, *pops.shape)[...] = np.moveaxis(values[..., :size], -1, 0)
    held = _held(picks, base, size)
    flat = picks.reshape(-1)
    flat[held] = base.take(held % n) + held // n
    # Fisher–Yates, last position first: swap i with j_i in every sample at
    # once. Row k of ``swap`` is the flat index of j_i for i = size − 1 − k,
    # as intp, so ``take`` and the scatter use it without a cast.
    swap = np.empty((size - 1, n), dtype=np.intp)
    swap.reshape(size - 1, *pops.shape)[...] = np.moveaxis(values[..., size:], -1, 0)
    swap *= n
    swap += np.arange(n, dtype=np.intp)
    for i, j in zip(range(size - 1, 0, -1), swap):
        at_j = flat.take(j)
        flat[j] = picks[i]
        picks[i] = at_j
    return np.moveaxis(picks.reshape(size, *pops.shape), 0, -1)


def _held(drawn: np.ndarray, base: np.ndarray, size: int) -> np.ndarray:
    """The flat indices of Floyd's draws (position-major, size × N) that an
    earlier step already holds."""
    n = base.size
    shift = size.bit_length()
    # An earlier draw of the same value (one sort of value-then-step keys
    # per sample) ...
    fits = (int(base.max(initial=0)) + size) << shift <= 1 << 32
    keys = np.left_shift(drawn.T, shift, dtype=np.uint32 if fits else np.uint64, order="C")
    keys |= np.arange(size, dtype=np.uint32)
    keys.sort(axis=-1)
    keys = keys.reshape(-1)
    value = keys >> shift
    repeat = value[1:] == value[:-1]
    del value
    repeat[size - 1 :: size] = False  # a sample's first key follows the last sample's
    later = np.flatnonzero(repeat) + 1
    steps = (keys.take(later) & ((1 << shift) - 1)).astype(np.intp)
    del keys, repeat
    held = np.zeros(drawn.size, dtype=bool)
    held[steps * n + later // size] = True
    # ... or j_u = base + u of an earlier step u that was itself held, which
    # can chain. (Step t's own j_t counts as its source: it never grows.)
    hits = np.flatnonzero(drawn >= base)
    rows = hits % n
    source = rows + (drawn.reshape(-1).take(hits) - base.take(rows)).astype(np.intp) * n
    while True:
        grow = held.take(source) & ~held.take(hits)
        if not grow.any():
            return np.flatnonzero(held)
        held[hits[grow]] = True


def _tail_shuffle(values: np.ndarray, pop: int, size: int) -> list[int]:
    """The last ``size`` entries of ``arange(pop)`` after the tail shuffle,
    tracking only the positions it moves."""
    moved: dict[int, int] = {}
    for k, j in enumerate(values[: min(size, pop - 1)].tolist()):
        i = pop - 1 - k
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(p, p) for p in range(pop - size, pop)]


class Steps:
    """The draws of R runs, decoded a chunk of steps at a time, value for
    value as each run's generator would make them one call at a time.

    A step picks a block b with ``rng.integers(0, B)``, which takes no word
    when B is 1, then draws ``rng.choice(pops[b, j], size, replace=False)``
    for each j in turn, offset by ``firsts[b, j]``; every pop holds at least
    ``size``. ``steps`` (one per run, or one for all) bounds each run's
    draws; a run that gets through them hands its generator back where the
    draws left it.

    ``draw`` decodes a chunk of steps of every run it is asked for at once
    (``chunk_steps``). Each step takes its words at fixed slots when every
    block has the same dead slots (0 bounds); else each run's steps are
    followed in turn, since where a step begins depends on the blocks drawn
    before it.
    """

    def __init__(self, pops, firsts, size: int, rngs, steps=1):
        self.pops = np.asarray(pops, dtype=np.int64)  # B × J
        self.streams = [Words(rng) for rng in rngs]
        self.steps = np.broadcast_to(np.asarray(steps, dtype=np.int64), len(self.streams))
        self.firsts = np.asarray(firsts, dtype=np.uint32)
        blocks = len(self.pops)
        bounds = choice_bounds(self.pops.ravel(), size).reshape(blocks, -1)
        # With more than one block, slot 0 of a step draws b. A slot's word is
        # the step's first plus the words of the live slots before it.
        self.select = int(blocks > 1)
        self.step_bounds = np.hstack([np.full((blocks, self.select), blocks - 1, dtype=np.uint32), bounds])
        live = self.step_bounds != 0
        self.step_words = live.sum(axis=1)
        last = np.maximum(self.step_words - 1, 0)[:, None]  # a 0 bound reads a word and ignores it
        self.step_at = np.minimum(np.cumsum(live, axis=1) - live, last).astype(np.int32)
        # Usually every block takes its words at the same slots, so step s
        # begins at word s·W whatever the blocks drawn before it.
        self.uniform = bool((live == live[0]).all())
        self.size = size
        self.start = self.stop = 0  # the decoded steps
        self.runs: list[int] = []

    def decode(self, step: int, runs: list[int]) -> None:
        """Decode the next chunk of steps, from ``step`` on, for ``runs``."""
        if step != self.stop:
            raise ValueError(f"steps are drawn in order: step {step} after {self.stop}")
        self.rows = self.live_rows = self.live = None  # this chunk's rows replace the last's
        left = self.steps[runs] - step
        slots = self.step_bounds.shape[1]
        n_steps = chunk_steps(len(runs), slots, int(left.max()))
        t, blocks = np.arange(n_steps), np.uint64(len(self.pops))
        drawn = {}
        # One block, and no run stops in the chunk: every run draws the same
        # bounds, so one row of them serves all.
        whole = not self.select and int(left.min()) >= n_steps

        def block_of(words):
            """The b a step draws, if it begins at these words."""
            return (np.multiply(words, blocks, dtype=np.uint64) >> np.uint64(32)).astype(np.intp)

        def layout(words):
            if not self.uniform:  # where a step begins depends on the blocks drawn before it
                rows = np.arange(len(runs))
                begin = np.zeros((len(runs), n_steps + 1), dtype=np.int32)
                block = np.empty((len(runs), n_steps), dtype=np.intp)
                for s in range(n_steps):
                    block[:, s] = block_of(words[rows, begin[:, s]])
                    begin[:, s + 1] = begin[:, s] + self.step_words[block[:, s]]
                at = (begin[:, :-1, None] + self.step_at[block]).reshape(len(runs), -1)
            else:
                per = int(self.step_words[0])
                block = np.zeros((len(runs), n_steps), dtype=np.intp)  # one block is drawn with no word
                if self.select:
                    block = block_of(words[:, : n_steps * per : per])
                at = None if per == slots else (self.step_at[0] + per * t[:, None]).reshape(1, -1)
                if whole:
                    drawn["block"] = block
                    return np.tile(self.step_bounds[0], n_steps)[None], at, per * n_steps
            # Each run takes its steps up to its last.
            idle = t >= left[:, None]
            drawn["block"] = block  # the last call's words are the ones drawn
            bounds = self.step_bounds.take(block, axis=0)
            bounds[idle] = 0
            used = np.add.reduce(self.step_words.take(block) * ~idle, axis=1)
            return bounds.reshape(len(runs), -1), at, used

        width = max(1, n_steps * int(self.step_words.max()))
        values = decode([self.streams[r] for r in runs], width, layout)
        block = drawn["block"]
        draws = values.reshape(len(runs), n_steps, slots)[:, :, self.select :]
        draws = draws.reshape(len(runs), n_steps, -1, 2 * self.size - 1)
        picks = choice_picks(draws, self.pops.take(block, axis=0), self.size)
        del values, draws
        picks += self.firsts.take(block, axis=0)[..., None]  # stored position-major: runs along R·T·J
        # Rows of each step, T × R × (J · size); a finished run's are not drawn.
        self.rows = np.empty((n_steps, len(runs), picks.shape[2] * self.size), dtype=np.intp)
        self.rows.reshape(n_steps, len(runs), -1, self.size)[...] = picks.swapaxes(0, 1)
        self.block = block.T
        self.runs = runs
        self.start, self.stop = step, step + n_steps
        for run, done in zip(runs, left <= n_steps):
            if done:
                self.streams[run].sync()

    def draw(self, step: int, runs: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The rows (R × (J · size), the J draws in turn) and block (R) each
        run of ``runs`` draws at ``step``. Steps are asked for in order; a
        run's first step is 0."""
        if not self.start <= step < self.stop:
            self.decode(step, list(runs))
        if runs != self.live:  # the runs' share of the chunk, kept until they change
            # Usually they are the decoded runs, or the first of them once the
            # shortest have finished: a slice.
            row = slice(len(runs)) if runs == self.runs[: len(runs)] else [self.runs.index(r) for r in runs]
            self.live = list(runs)
            self.live_rows, self.live_block = self.rows[:, row], self.block[:, row]
        t = step - self.start
        return self.live_rows[t], self.live_block[t]
