"""Shared plumbing: counter-based RNG streams and a thread-pool map.

All randomness in the package flows from a single integer seed through
named Philox streams, so draws are reproducible regardless of execution
order.  No command calls ``parallel_map``: it and ``thread_count`` remain
because the benchmark's tracer (``perfbench/trace_run.py``) hooks them by
name.  ``hashlib`` and ``concurrent.futures`` are imported on first use.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Counter-based generator for a named substream of ``seed``."""
    import hashlib

    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=(seed & (2**64 - 1)) ^ key))


def thread_count() -> int:
    raw = os.environ.get("ZIC_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` preserving order; threaded when allowed.

    ``fn`` must be pure: the output list order is the input order, never
    completion order, so reports stay deterministic under any thread count.
    """
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
