"""Execution backends: serial, thread and process pools with one contract.

The contract that matters is *determinism*: a computation sharded across
workers must produce the same spectrum bits as the serial loop, or every
regression gate downstream (bench comparisons, golden files, cache keys)
becomes backend-dependent.  Two rules enforce it:

1. **Sharding is independent of the worker count.**  Work items are split
   into a fixed number of shards decided by the caller (not by ``jobs``),
   so the partial results are the same arrays no matter how many workers
   exist or in which order they finish.
2. **Reduction order is fixed.**  ``map`` returns results in input
   order, and callers reduce them in that order; since every backend
   hands back the same arrays in the same order, serial, thread and
   process execution agree bit for bit.

``map`` preserves input order (results arrive as submitted, regardless of
completion order).  The process backend requires picklable functions and
arguments — module-level workers, not closures.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "default_jobs",
    "get_backend",
    "shard_items",
    "shutdown_warm_pools",
]

T = TypeVar("T")
R = TypeVar("R")

#: Recognized backend names, in CLI/help order.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")


def default_jobs() -> int:
    """Default worker count: one per available core."""
    return os.cpu_count() or 1


class ExecutionBackend:
    """Common interface of the execution backends.

    ``map`` applies ``fn`` to every item and returns results in input
    order; ``close`` releases pooled workers (idempotent).  Backends are
    reusable across ``map`` calls — pools are created lazily on first use.
    """

    name: str = "abstract"

    @property
    def jobs(self) -> int:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the default and the reference."""

    name = "serial"

    @property
    def jobs(self) -> int:
        return 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class _PoolBackend(ExecutionBackend):
    """Shared lazy-pool plumbing of the thread/process backends."""

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._jobs = jobs if jobs is not None else default_jobs()
        self._pool: concurrent.futures.Executor | None = None

    @property
    def jobs(self) -> int:
        return self._jobs

    def _make_pool(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self._pool is None:
            self._pool = self._make_pool()
        # Executor.map yields results in submission order, independent of
        # completion order — the determinism contract needs exactly that.
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadBackend(_PoolBackend):
    """Thread pool: shared memory, no pickling; NumPy releases the GIL
    inside the large vectorized kernels, so real speedups are possible."""

    name = "thread"

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self._jobs, thread_name_prefix="repro-worker"
        )


#: Warm process pools parked across backend instances, keyed by worker
#: count.  Spawning worker processes dominates short maps (it is why the
#: process backend can lose to serial), so ``ProcessBackend.close`` parks
#: its pool here and the next backend asking for the same worker count
#: adopts it instead of forking a fresh one.
_WARM_POOLS: dict[int, concurrent.futures.ProcessPoolExecutor] = {}


def shutdown_warm_pools() -> None:
    """Tear down every parked warm process pool.

    Registered via ``atexit`` so parked pools are joined before the
    interpreter starts unloading modules (a pool reaped only by the
    garbage collector at shutdown races module teardown); tests and
    long-lived hosts can also call it to release workers early.
    """
    while _WARM_POOLS:
        _, pool = _WARM_POOLS.popitem()
        pool.shutdown(wait=True)


atexit.register(shutdown_warm_pools)


def _book_pool(*, reused: bool) -> None:
    # Imported lazily: the ledger lives with the kernel counters in
    # quadrature, and this package must stay importable without it.
    from repro.quadrature.batch import KERNEL_COUNTERS

    KERNEL_COUNTERS.book_pool(reused=reused)


def _book_map(n_chunks: int, n_items: int) -> None:
    from repro.quadrature.batch import KERNEL_COUNTERS

    KERNEL_COUNTERS.book_map(n_chunks, n_items)


def _run_chunk(payload: tuple[Callable, tuple]) -> list:
    """Worker-side chunk runner: apply ``fn`` to each item, in order.

    Module-level so ``(fn, chunk)`` crosses the process boundary as one
    pickle instead of one round trip per item.
    """
    fn, chunk = payload
    return [fn(item) for item in chunk]


class ProcessBackend(_PoolBackend):
    """Process pool: true multi-core parallelism; functions and arguments
    must be picklable (module-level workers, frozen dataclasses).

    Pools are *warm-reused*: ``close`` parks the pool in a module-level
    registry instead of shutting it down, and the next ``ProcessBackend``
    with the same worker count adopts it — repeated short maps pay the
    worker fork cost once per process, not once per backend instance.
    Adoptions and cold starts are booked as ``pool_reuses`` /
    ``pool_creates`` on :data:`repro.quadrature.batch.KERNEL_COUNTERS`.

    ``map`` submits sharded *chunks* rather than single items: one
    pickle round trip per chunk (at most ``4 x jobs`` chunks per call)
    instead of one per item, which is what made many-small-item maps
    slower than serial.  Chunk results are flattened in submission
    order, so input order — and therefore every downstream reduction —
    is untouched; chunk sizes depend only on the item count and
    ``jobs``, never on completion order.
    """

    name = "process"

    def _make_pool(self) -> concurrent.futures.Executor:
        pool = _WARM_POOLS.pop(self._jobs, None)
        reused = pool is not None
        if pool is None:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=self._jobs)
        _book_pool(reused=reused)
        return pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if not len(items):
            return []
        if self._pool is None:
            self._pool = self._make_pool()
        chunks = shard_items(items, self._jobs * 4)
        _book_map(n_chunks=len(chunks), n_items=len(items))
        out: list[R] = []
        for part in self._pool.map(_run_chunk, [(fn, c) for c in chunks]):
            out.extend(part)
        return out

    def close(self) -> None:
        if self._pool is None:
            return
        parked = _WARM_POOLS.setdefault(self._jobs, self._pool)
        if parked is not self._pool:
            # A pool of this size is already parked; keeping two warm
            # doubles the resident workers for no further speedup.
            self._pool.shutdown(wait=True)
        self._pool = None


def get_backend(name: str, jobs: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by name (``serial`` ignores ``jobs``)."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(jobs)
    if name == "process":
        return ProcessBackend(jobs)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")


def shard_items(items: Sequence[T], n_shards: int) -> list[tuple[T, ...]]:
    """Split ``items`` into at most ``n_shards`` contiguous, non-empty
    shards of near-equal size.

    The split depends only on ``len(items)`` and ``n_shards`` — never on
    the backend or worker count — so sharded results are reproducible.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n = len(items)
    if n == 0:
        return []
    n_shards = min(n_shards, n)
    bounds = np.linspace(0, n, n_shards + 1).round().astype(int)
    return [
        tuple(items[bounds[i]: bounds[i + 1]]) for i in range(n_shards)
    ]

