"""Deterministic seed derivation shared by data generation and the harness,
and the exact bulk decoding of a generator's bounded draws."""
from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

LOW32 = np.uint64(0xFFFFFFFF)
TWO32 = np.uint64(1 << 32)
# Draws decoded at once for all live runs of a group: enough steps to spread
# the per-call cost, few enough that the temporaries stay well under 1 MB.
CHUNK_DRAWS = 8192


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


class Words:
    """The uint32 words a PCG64 ``Generator`` spends on bounded draws, from
    its current state on.

    Each 64-bit output gives its low half, then its high half; a half the
    generator holds over (``has_uint32``) comes first. Words are read ahead
    in bulk with ``random_raw``, so the generator belongs to the stream until
    ``sync`` puts it where the consumed words end.
    """

    def __init__(self, rng: np.random.Generator):
        self.bitgen = rng.bit_generator
        self.start = self.bitgen.state
        if self.start["bit_generator"] != "PCG64":
            raise TypeError(f"need a PCG64 generator, got {self.start['bit_generator']}")
        self.buf = np.array([self.start["uinteger"]] if self.start["has_uint32"] else [], dtype=np.uint32)
        self.used = 0  # words consumed since the start, rejected ones included

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words."""
        if count > self.buf.size:
            raw = self.bitgen.random_raw(max(count - self.buf.size, 4096) // 2 + 1)
            fresh = np.empty(2 * raw.size, dtype=np.uint32)
            fresh[0::2] = raw & LOW32  # masks and shifts, not a view: no byte-order dependence
            fresh[1::2] = raw >> np.uint64(32)
            self.buf = np.concatenate([self.buf, fresh])
        return self.buf[:count]

    def skip(self, count: int) -> None:
        self.buf = self.buf[count:]
        self.used += count

    def reject(self, offset: int) -> None:
        """A draw rejected the word ``offset`` words ahead: it is spent, and
        every later draw moves on by one word."""
        self.buf = np.delete(self.buf, offset)
        self.used += 1

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


def lemire(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw in [0, bound] from one word each, as numpy's bounded
    integer draws make it: the values (uint64) and the flat indices of the
    words the method rejects (it would draw again)."""
    m = np.empty(np.broadcast_shapes(words.shape, bounds.shape), dtype=np.uint64)
    np.add(bounds, 1, out=m, dtype=np.uint64)
    m *= words
    # The low half falls below the bound + 1 only rarely; only then can the
    # word be rejected. (In uint32 a bound of 2**32 - 1 wraps to 0 and never
    # rejects, as in numpy.)
    maybe = np.flatnonzero(m.astype(np.uint32) < np.asarray(bounds, dtype=np.uint32) + np.uint32(1))
    excl = np.broadcast_to(bounds, m.shape).flat[maybe].astype(np.uint64) + np.uint64(1)
    rejected = maybe[(m.flat[maybe] & LOW32) < (TWO32 - excl) % excl]
    m >>= np.uint64(32)
    return m, rejected


def decode(streams: list[Words], width: int, layout) -> np.ndarray:
    """Bounded draws of R streams at once, value for value as the generators
    would make them one by one.

    ``layout(words)`` gets the next ``width`` words of every stream (R ×
    width, uint32) and returns, for the draws they serve: their bounds, the word
    each reads (R × S each, or 1 × S for every stream) and the words each
    stream's draws take in all. A draw of bound 0 takes no word and gives 0.
    Where a draw rejects its word, that stream drops the word and the layout
    is asked again, since every later word moves by one. The words taken
    are consumed. Returns the R × S values (int64).
    """
    offsets = np.arange(0, len(streams) * width, width)[:, None]
    while True:
        words = np.stack([s.peek(width) for s in streams])
        bounds, at, used = layout(words)
        words = words.ravel().take(offsets + at)  # the word each draw reads
        values, rejected = lemire(words, bounds)
        if not rejected.size:
            break
        # Each stream's first rejection, in stream order: later ones move.
        hit, first = np.unique(rejected // values.shape[1], return_index=True)
        at = np.broadcast_to(at, values.shape)
        for row, flat in zip(hit.tolist(), rejected[first].tolist()):
            streams[row].reject(int(at.flat[flat]))
    for stream, count in zip(streams, np.broadcast_to(used, len(streams)).tolist()):
        stream.skip(count)
    return values.view(np.int64)


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
    return np.where(_tail_shuffled(pops, size), tail, floyd).astype(np.uint64)


def choice_picks(values: np.ndarray, pops, size: int) -> np.ndarray:
    """The samples ``Generator.choice(pop, size, replace=False)`` returns,
    from the values of the draws at ``choice_bounds``: values ``(..., 2·size
    − 1)`` and pops ``(...)`` give picks ``(..., size)``."""
    pops = np.asarray(pops, dtype=np.int64)
    tail = np.flatnonzero(_tail_shuffled(pops, size))
    picks = _floyd(values, pops, size)
    rows, flat_picks = values.reshape(-1, 2 * size - 1), picks.reshape(-1, size)
    for row in tail.tolist():  # rare: their Floyd picks above are discarded
        flat_picks[row] = _tail_shuffle(rows[row], int(pops.flat[row]), size)
    return picks


def _floyd(values: np.ndarray, pops: np.ndarray, size: int) -> np.ndarray:
    """Floyd's sample, then its Fisher–Yates shuffle. Draw t is kept unless
    an earlier step already holds it; then the step's own top value
    j_t = pop − size + t goes in instead. (Gathers run on flat indices:
    ``take`` on a flat array costs a fraction of 2-D fancy indexing.)"""
    shape = pops.shape + (size,)
    base = (pops - size)[..., None]
    drawn = values[..., :size]
    t = np.arange(size)
    picks = np.where(_held(drawn, base, size), base + t, drawn).ravel()
    # Fisher–Yates, last position first: swap i with j_i in every row at
    # once, as one gather and one scatter of flat indices per i.
    starts = np.arange(0, picks.size, size, dtype=np.int32)
    n = starts.size
    swap = np.empty((size - 1, 2 * n), dtype=np.int32)
    swap[:, :n] = starts + np.arange(size - 1, 0, -1, dtype=np.int32)[:, None]
    swap[:, n:] = values[..., size:].reshape(n, size - 1).T + starts
    for gather, scatter in zip(swap, np.roll(swap, n, axis=1)):
        picks[scatter] = picks.take(gather)
    return picks.reshape(shape)


def _held(drawn: np.ndarray, base: np.ndarray, size: int) -> np.ndarray:
    """Which of Floyd's draws an earlier step already holds (bool, shaped
    like ``drawn``)."""
    t = np.arange(size)
    shift = size.bit_length()
    # An earlier draw of the same value (one sort of value-then-step keys
    # per row) ...
    keys = np.sort((drawn << shift) | t, axis=-1).ravel()
    value = keys >> shift
    repeat = np.empty(keys.size, dtype=bool)
    np.equal(value[1:], value[:-1], out=repeat[1:])
    repeat[::size] = False  # a row's first key follows the last row's
    held = np.empty(keys.size, dtype=bool)
    held[(keys & ((1 << shift) - 1)) + np.arange(0, keys.size, size).repeat(size)] = repeat  # every step once
    # ... or j_u of an earlier step u that was itself held, which can chain.
    back = drawn - base
    hits = np.flatnonzero((back >= 0) & (back < t))
    source = hits - hits % size + back.ravel().take(hits)
    while True:
        grow = held.take(source) & ~held.take(hits)
        if not grow.any():
            return held.reshape(drawn.shape)
        held[hits[grow]] = True


def _tail_shuffle(values: np.ndarray, pop: int, size: int) -> list[int]:
    """The last ``size`` entries of ``arange(pop)`` after the tail shuffle,
    tracking only the positions it moves."""
    moved: dict[int, int] = {}
    for k, j in enumerate(values[: min(size, pop - 1)].tolist()):
        i = pop - 1 - k
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(p, p) for p in range(pop - size, pop)]


@lru_cache(maxsize=2)  # a trainer's full chunk and its last
def _choice_layout(pop: int, size: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Bounds and words of ``count`` successive ``choice(pop, size,
    replace=False)`` (read-only, as ``decode`` wants them), and the words
    they take."""
    one = choice_bounds([pop], size)
    live = one != 0
    per = int(live.sum())  # words per choice
    at = np.minimum(np.cumsum(live) - live, max(per - 1, 0))  # a 0 bound reads a word and ignores it
    bounds = np.tile(one.astype(np.uint32), count)
    at = (at + per * np.arange(count)[:, None]).astype(np.int32).reshape(1, -1)
    bounds.flags.writeable = at.flags.writeable = False
    return bounds, at, per * count


def choice(streams: list[Words], pop: int, size: int, count: int) -> np.ndarray:
    """``count`` successive ``choice(pop, size, replace=False)`` of each
    stream's generator: R × count × size."""
    bounds, at, used = _choice_layout(pop, size, count)
    values = decode(streams, max(used, 1), lambda words: (bounds, at, used))
    return choice_picks(values.reshape(len(streams), count, 2 * size - 1), np.full((len(streams), count), pop), size)
