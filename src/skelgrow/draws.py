"""The search's tip draws: numpy's per-candidate generators, replayed in
blocks of iterations.

In iteration ``it`` of the search, candidate ``ci`` with ``n`` >= 2 open
tips takes ``numpy.random.default_rng((seed, it, ci)).integers(n)``. That
draw reads the first uint32 word of the generator's stream, which depends
on ``(seed, it, ci)`` alone. :func:`first_words` computes those words bit
for bit for a block of iterations times a set of ``ci`` in one vectorised
pass. :class:`TipDraws` serves the search one block of iterations times
every ``ci < K`` at a time and turns a row of words into draws, building a
generator only for the rare draw whose word enters Lemire's rejection
test.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

# numpy's SeedSequence hash constants and pool size, and PCG64's 128-bit
# LCG multiplier: ``first_words`` replays both algorithms.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _M64)
#: Words per :class:`TipDraws` block: iterations times candidates.
BLOCK_WORDS = 1 << 12


def _hash_constants(c: int, mult: int):
    """SeedSequence's running hash constant: ``c * mult**k`` mod 2**32."""
    while True:
        yield c
        c = c * mult & _M32


# (pool word, xor constant, multiplier) of each uint32 word that
# ``generate_state(4, np.uint64)`` emits.
_STATE_HASHES = [
    (i % _POOL_SIZE, xor, mult) for i, (xor, mult) in zip(
        range(2 * _POOL_SIZE), pairwise(_hash_constants(_INIT_B, _MULT_B)))]


def _uint32_words(x: int) -> list[int]:
    """SeedSequence's entropy words of the int ``x`` >= 0: its 32-bit
    words, least significant first, and ``[0]`` for 0."""
    words = [x & _M32]
    x >>= 32
    while x:
        words.append(x & _M32)
        x >>= 32
    return words


def _mul_hi64(a, b):
    """High 64 bits of the 128-bit products of uint64 ``a`` and ``b``,
    from their 32-bit limbs; no partial sum overflows."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _M32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32)


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2**128, as uint64 word pairs."""
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * _PCG_MULT + inc mod 2**128, on uint64
    word pairs."""
    prod_hi = (_mul_hi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO
               + lo * _PCG_MULT_HI)
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def first_words(seed: int, iterations, cis) -> np.ndarray:
    """The first uint32 word of ``np.random.default_rng((seed, it, ci))``'s
    stream, for each iteration ``it`` in ``iterations`` (rows) and each
    ``ci`` in ``cis`` (columns), as a uint64 array. Each ``it`` and ``ci``
    is below 2**32, so each is one entropy word.

    SeedSequence's entropy mixing and ``generate_state`` run as uint32
    array arithmetic, broadcast from the seed's words, a column of
    iterations and a row of ``ci``; PCG64's seeding and first step run as
    arithmetic on uint64 word pairs, 128-bit products built from 32-bit
    limbs.
    """
    hashes = pairwise(_hash_constants(_INIT_A, _MULT_A))

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    entropy = [np.full((1, 1), w, dtype=np.uint32)
               for w in _uint32_words(seed)]
    entropy.append(np.array(iterations, dtype=np.uint32).reshape(-1, 1))
    entropy.append(np.array(cis, dtype=np.uint32).reshape(1, -1))
    zero = np.zeros((1, 1), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = iter(_STATE_HASHES)

    def state_half():
        src, xor, mult = next(state)
        value = (pool[src] ^ xor) * mult
        return (value ^ value >> 16).astype(np.uint64)

    # Little-endian word pairs: PCG64's seed (s0, s1) and sequence (q0, q1),
    # each built as soon as its two halves are, so that few block-sized
    # temporaries are alive at once.
    return _pcg64_first_word(*(state_half() | state_half() << 32
                               for _ in range(4)))


def _pcg64_first_word(s0, s1, q0, q1):
    """The low uint32 of PCG64's first output, seeded with the uint64
    word pairs (s0, s1) and sequence (q0, q1)."""
    inc = (q0 << 1 | q1 >> 63, q1 << 1 | 1)  # (q0 << 65 | q1 << 1 | 1)
    # PCG64 seeding: state 0, one step, add the seed, one more step.
    seeded = _pcg64_step(*_add128(s0, s1, *inc), *inc)
    hi, lo = _pcg64_step(*seeded, *inc)
    # The first XSL-RR output's low half; (-rot) & 63 keeps the left
    # shift in range and rotates by 0 when rot is 0.
    rot = hi >> 58
    x = lo ^ hi
    return (x >> rot | x << (-rot & 63)) & _M32


class TipDraws:
    """The tip draws of a search with population ``K``: called with an
    iteration and its drawing candidates ``cis`` (each below ``K``) and
    their open-tip counts ``ns`` (each below 2**32), it returns
    ``[int(np.random.default_rng((seed, iteration, ci)).integers(n)) for
    ci, n in zip(cis, ns)]``, bit for bit.

    The first words of a block of iterations times every ``ci < K``, about
    BLOCK_WORDS of them, come from one :func:`first_words` pass, made when
    an iteration outside the current block is asked for. Each word feeds
    ``integers``' bounded Lemire draw; a draw that enters its rejection
    test, with chance n / 2**32, is left to numpy's own generator.
    """

    def __init__(self, seed: int, K: int):
        self.seed, self.K = seed, K
        self.rows = max(1, BLOCK_WORDS // K)
        self.start, self.words = 0, None

    def __call__(self, iteration: int, cis: list[int],
                 ns: list[int]) -> list[int]:
        if not cis:
            return []
        row = iteration - self.start
        if self.words is None or not 0 <= row < self.rows:
            self.start, row = iteration, 0
            self.words = first_words(
                self.seed, range(iteration, iteration + self.rows),
                range(self.K))
        ns = np.array(ns, dtype=np.uint64)
        m = self.words[row, cis] * ns
        draws = (m >> 32).tolist()
        # Lemire's rejection test, rarely entered: numpy makes those draws.
        for k in np.flatnonzero((m & _M32) < ns).tolist():
            draws[k] = int(np.random.default_rng(
                (self.seed, iteration, cis[k])).integers(int(ns[k])))
        return draws
