"""Wall-clock parallel execution backends.

Everything else in the reproduction measures *simulated* time on the
event clock; this package is about *real* time — sharding real NumPy
work across host cores so ``repro spectrum`` / ``serve`` and the bench
harness get multi-core speedups on actual hardware.

See :mod:`repro.parallel.executor` for the backend protocol and the
sharding and ordering rules that keep every backend bit-identical to
serial execution.
"""

from repro.parallel.executor import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_jobs,
    get_backend,
    shard_items,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_jobs",
    "get_backend",
    "shard_items",
]
