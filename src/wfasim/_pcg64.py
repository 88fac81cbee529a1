"""numpy's ``Generator(PCG64(SeedSequence(words)))``, in pure Python, for
the draws the workload generator makes.

Every draw equals numpy's bit for bit (``tests/test_pcg64.py`` checks this
against numpy where it is installed):

- ``SeedSequence`` mixes the seed words into a 4-word pool and expands it
  into the generator's 128-bit state and increment;
- PCG64 (O'Neill, *PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation*, 2014) steps a
  128-bit LCG, then outputs its XSL-RR 64-bit permutation: the state's two
  halves XORed, rotated right by its top 6 bits;
- ``random()`` is the top 53 bits of one output, ``uniform(lo, hi)`` is
  ``lo + (hi - lo) * random()``, and ``lognormal(mean, sigma)`` is
  ``exp(mean + sigma * z)``, with ``z`` from numpy's ziggurat standard
  normal (Marsaglia & Tsang, *J. Stat. Software* 5(8), 2000) on the tables
  in :mod:`wfasim._ziggurat`;
- ``integers(low, high)`` is Lemire's method on 32-bit draws, which take
  the low half of an output and keep its high half for the next one.
"""

from __future__ import annotations

from math import exp, log1p

from ._ziggurat import FI, KI, WI

M32 = 0xFFFFFFFF
M52 = 0xFFFFFFFFFFFFF
M53 = 0x1FFFFFFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
M128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53
# x * TWICE is x | x << 64 for a 64-bit x, so a shift of it by r is x rotated
# right by r in its low 64 bits
TWICE = 1 << 64 | 1

# SeedSequence's hash constants, for a pool of 4 words
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16

# the ziggurat's right edge and its inverse
ZIG_R = 3.6541528853610088
ZIG_INV_R = 0.27366123732975828


def _powers(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**k`` modulo 2**32, for k below ``count``."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & M32)
    return out


# SeedSequence hashes words in a fixed order, whatever their values: its
# k-th hash XORs a word with the k-th constant and multiplies it by the
# (k+1)-th. The pool's first fill and its cross mix make 4 + 12 hashes,
# and each entropy word past the fourth makes 4 more, read from a longer
# sequence made for the call. Expanding the pool makes 8 hashes with the B
# constants.
_HASH_A = _powers(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE + 1)
_HASH_B = _powers(INIT_B, MULT_B, 2 * POOL_SIZE + 1)
_CROSS = tuple((src, dst) for src in range(POOL_SIZE) for dst in range(POOL_SIZE) if src != dst)


def seed_state(words: list[int]) -> tuple[int, int]:
    """The PCG64 state and increment that numpy seeds from ``words``, each
    a non-negative int taken as its little-endian 32-bit digits."""
    entropy = []
    for word in words:
        entropy.append(word & M32)
        while word > M32:
            word >>= 32
            entropy.append(word & M32)
    extra = entropy[POOL_SIZE:]
    entropy += [0] * (POOL_SIZE - len(entropy))
    a = _powers(INIT_A, MULT_A, POOL_SIZE * (POOL_SIZE + len(extra)) + 1) if extra else _HASH_A

    pool = []
    for k in range(POOL_SIZE):
        value = (entropy[k] ^ a[k]) * a[k + 1] & M32
        pool.append(value ^ value >> XSHIFT)
    k = POOL_SIZE
    for src, dst in _CROSS:
        value = (pool[src] ^ a[k]) * a[k + 1] & M32
        k += 1
        value = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (value ^ value >> XSHIFT)) & M32
        pool[dst] = value ^ value >> XSHIFT
    for word in extra:
        for dst in range(POOL_SIZE):
            value = (word ^ a[k]) * a[k + 1] & M32
            k += 1
            value = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (value ^ value >> XSHIFT)) & M32
            pool[dst] = value ^ value >> XSHIFT

    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    b = _HASH_B
    halves = []
    for i in range(2 * POOL_SIZE):
        value = (pool[i % POOL_SIZE] ^ b[i]) * b[i + 1] & M32
        halves.append(value ^ value >> XSHIFT)
    s0, s1, i0, i1 = (halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & M128
    state = (inc + (s0 << 64 | s1)) & M128  # one step from 0, then the seed
    return (state * PCG_MULT + inc) & M128, inc


class Generator:
    """One PCG64 stream seeded like ``numpy.random.default_rng(words)``."""

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, words: list[int]):
        self._state, self._inc = seed_state(words)
        self._upper = None  # the high half of the last 64-bit output split in two

    def _next64(self) -> int:
        state = self._state = (self._state * PCG_MULT + self._inc) & M128
        return ((state >> 64 ^ state) & M64) * TWICE >> (state >> 122) & M64

    def _next32(self) -> int:
        upper = self._upper
        if upper is not None:
            self._upper = None
            return upper
        r = self._next64()
        self._upper = r >> 32
        return r & M32

    def random(self) -> float:
        return (self._next64() >> 11) * TO_DOUBLE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            rabs = r >> 9 & M52
            x = rabs * WI[idx]
            if r & 0x100:
                x = -x
            if rabs < KI[idx]:
                return x
            x = self._normal_slow(idx, rabs, x)
            if x is not None:
                return x

    def _normal_slow(self, idx: int, rabs: int, x: float) -> float | None:
        """The ziggurat's slow paths, after a draw failed its strip's fast
        test: the tail past the right edge from the base strip, else the
        wedge test. None means draw again."""
        if idx == 0:
            while True:
                xx = -ZIG_INV_R * log1p(-self.random())
                yy = -log1p(-self.random())
                if yy + yy > xx * xx:
                    return -(ZIG_R + xx) if rabs >> 8 & 1 else ZIG_R + xx
        if (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] < exp(-0.5 * x * x):
            return x
        return None

    def lognormal(self, mean: float, sigma: float) -> float:
        return exp(mean + sigma * self.standard_normal())

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)``; the range must be below 2**32 - 1."""
        span = high - 1 - low  # numpy's inclusive range
        if not 0 <= span < M32:
            raise ValueError(f"integers needs 0 < high - low < 2**32, got [{low}, {high})")
        if span == 0:
            return low
        excl = span + 1
        m = self._next32() * excl
        if m & M32 < excl:
            threshold = (M32 - span) % excl
            while m & M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def task_draws(self, count: int, mean: float, sigma: float, uniforms: int) -> list[float]:
        """``count`` rows, flat in draw order, of ``lognormal(mean, sigma)``
        then ``uniforms`` (1 or 2) ``random()`` draws: the draws of
        ``count`` calls, with the state held in locals."""
        state, inc, mult, m128, m64, m53 = self._state, self._inc, PCG_MULT, M128, M64, M53
        wi, ki = WI, KI
        out = []
        append = out.append
        for _ in range(count):
            while True:
                state = (state * mult + inc) & m128
                # the rotation's bits past 64 are left: the normal reads bits 0-60
                r = ((state >> 64 ^ state) & m64) * TWICE >> (state >> 122)
                idx = r & 0xFF
                rabs = r >> 9 & M52
                z = rabs * wi[idx]
                if r & 0x100:
                    z = -z
                if rabs < ki[idx]:
                    break
                self._state = state
                z = self._normal_slow(idx, rabs, z)
                state = self._state
                if z is not None:
                    break
            append(exp(mean + sigma * z))
            state = (state * mult + inc) & m128
            top = ((state >> 64 ^ state) & m64) * TWICE >> ((state >> 122) + 11)
            append((top & m53) * TO_DOUBLE)
            if uniforms == 2:
                state = (state * mult + inc) & m128
                top = ((state >> 64 ^ state) & m64) * TWICE >> ((state >> 122) + 11)
                append((top & m53) * TO_DOUBLE)
        self._state = state
        return out
