"""Shared plumbing: counter-based random streams.

All randomness in the package flows from a single integer seed through
named Philox streams, so draws are reproducible regardless of execution
order.  ``PhiloxStream`` is Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011) on Python integers, drawn the way
numpy's ``Generator(Philox(key))`` draws ``uniform``, so the audits run
without numpy; the tests check it against numpy bit for bit.  ``hashlib``
is imported on first use.  No command calls ``parallel_map``, a plain
map, or ``thread_count``: they remain because the benchmark's tracer
(``perfbench/trace_run.py``) hooks them by name.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_MASK64 = 2**64 - 1
# Philox4x64 multipliers and Weyl key increments (Random123)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


def philox4x64(counter: Sequence[int], key: Sequence[int]) -> list[int]:
    """The Philox4x64-10 block of four 64-bit words at ``counter`` (four
    words) under ``key`` (two words)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(_ROUNDS):
        if r:
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return [c0, c1, c2, c3]


class PhiloxStream:
    """64-bit words and uniform doubles from Philox4x64-10 under a 128-bit
    key, in numpy's order: the 256-bit counter starts at ``counter`` and is
    incremented (with carry) before each block, whose four words are used
    in turn; a double is the top 53 bits of one word over 2^53."""

    def __init__(self, key: int, counter: int = 0):
        if not (0 <= key < 2**128 and 0 <= counter < 2**256):
            raise ValueError("Philox key must fit 128 bits and the counter 256 bits")
        self._key = (key & _MASK64, key >> 64)
        self._counter = counter
        self._block: list[int] = []

    def next_uint64(self) -> int:
        if not self._block:
            self._counter = (self._counter + 1) & (2**256 - 1)
            c = self._counter
            words = [(c >> (64 * i)) & _MASK64 for i in range(4)]
            self._block = philox4x64(words, self._key)[::-1]
        return self._block.pop()

    def random(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """low + (high - low) u for one uniform double u in [0, 1)."""
        return low + (high - low) * self.random()


def stream_key(seed: int, stream: str) -> int:
    """The 128-bit Philox key of a named substream of ``seed``: the first
    16 bytes of sha256(stream), little-endian, XOR the low 64 bits of the
    seed."""
    import hashlib

    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    return (seed & _MASK64) ^ int.from_bytes(digest[:16], "little")


def rng_for(seed: int, stream: str) -> PhiloxStream:
    """Counter-based generator for a named substream of ``seed``."""
    return PhiloxStream(stream_key(seed, stream))


def thread_count() -> int:
    return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(it) for it in items]."""
    return [fn(it) for it in items]
