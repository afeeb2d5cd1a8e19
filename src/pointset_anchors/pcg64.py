"""numpy's default random stream, ``np.random.default_rng(seed)``, in pure Python.

k-means++ seeding in ``pose_modes`` needs one ``integers`` draw and at most
k - 1 weighted choices a run. Drawing them here, not from numpy.random,
spares ``modes`` and ``coverage`` its import, which also loads secrets, hmac
and OpenSSL's _hashlib (about 6 MB of peak RSS and 15 ms a process, 2 cores). Only k-means
imports this module, so the other commands never compile it.
"""

from __future__ import annotations

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _seed_sequence_words(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)``, from a pool of 4."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value = (value ^ mult) * (mult := mult * 0x931E8875 & _MASK32) & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(value) for value in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    mult, halves = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ mult) * (mult := mult * 0x58F38DED & _MASK32) & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """The draws k-means++ makes from ``np.random.default_rng(seed)``, bit for bit:
    a PCG64 (128-bit LCG, XSL-RR output) seeded as numpy seeds it."""

    def __init__(self, seed: int):
        words = _seed_sequence_words(seed)
        self._inc = (words[2] << 64 | words[3]) << 1 & _MASK128 | 1
        self._state = (((words[0] << 64 | words[1]) + self._inc) * _PCG64_MULTIPLIER
                       + self._inc) & _MASK128
        self._spare = None     # the unused high half of the last output split into two

    def _next64(self) -> int:
        self._state = (self._state * _PCG64_MULTIPLIER + self._inc) & _MASK128
        rot = self._state >> 122
        value = (self._state >> 64 ^ self._state) & _MASK64
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n <= 2**63: Lemire's rejection on 32-bit
        draws when n fits in them, on 64-bit ones above."""
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n <= 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        scaled = draw() * n
        if scaled & mask < n:
            threshold = (1 << bits) % n
            while scaled & mask < threshold:
                scaled = draw() * n
        return scaled >> bits

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of an output, on [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53
