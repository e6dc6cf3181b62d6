"""Algorithm 1: the dynamic load-balancing scheduler.

``SCHE-ALLOC`` scans the shared load array for the least-loaded device,
breaking ties by the smallest *history task count*; if that minimum load
is below the maximum queue length the slot is occupied atomically and the
device index returned, otherwise -1 ("all GPUs are busy") and the caller
runs the task on its own CPU with the traditional QAGS routine.

Two variants:

- :class:`SharedMemoryScheduler` — the paper's design: scheduling is a
  few shared-memory reads plus one atomic update, effectively free.
- :class:`ClientServerScheduler` — the MPS-style ablation: identical
  policy, but every alloc/free round-trips through a scheduler server
  with a configurable RPC latency, reproducing the overhead argument the
  paper makes against client-server architectures for small tasks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.sharedmem import SharedSegment
from repro.core.metrics import MetricsLedger
from repro.core.queue import TaskQueue

__all__ = [
    "NO_DEVICE",
    "TICKS_PER_S",
    "SharedMemoryScheduler",
    "ClientServerScheduler",
    "RandomScheduler",
    "WeightedScheduler",
    "PredictiveScheduler",
]

#: Sentinel returned by SCHE-ALLOC when every queue is at full load.
NO_DEVICE: int = -1

#: Backlog accounting resolution: picoseconds per virtual second — the
#: same tick the attribution ledger uses, so predicted costs conserve
#: exactly through occupy/steal/release integer arithmetic.
TICKS_PER_S: int = 10**12


class SharedMemoryScheduler:
    """The shared-memory scheduler of Section III-A / Algorithm 1."""

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        metrics: Optional[MetricsLedger] = None,
        segment: Optional[SharedSegment] = None,
        tie_break: str = "history",
    ) -> None:
        if n_devices < 0:
            raise ValueError("device count must be non-negative")
        if max_queue_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        if tie_break not in ("history", "first"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.n_devices = n_devices
        self.max_queue_length = max_queue_length
        self.segment = segment or SharedSegment(n_devices)
        self.queues: list[TaskQueue] = [
            TaskQueue(self.segment, d, max_queue_length) for d in range(n_devices)
        ]
        self.metrics = metrics
        #: "history" (the paper: minimum history count wins ties) or
        #: "first" (first device at the minimum load — the ablation).
        self.tie_break = tie_break

    #: Scheduling cost charged to the caller (none: shared memory).
    rpc_latency_s: float = 0.0

    def sche_alloc(self, now: float = 0.0) -> int:
        """Algorithm 1 SCHE-ALLOC: pick a device or return ``NO_DEVICE``.

        Scan order follows the pseudocode: track the minimum load; among
        devices tied at the minimum, prefer the smallest history count.
        """
        if self.n_devices == 0:
            return NO_DEVICE
        load, history = self.segment.attach()
        best = 0
        l_min = load[0]
        h_min = history[0]
        use_history = self.tie_break == "history"
        for d in range(1, self.n_devices):
            l_d = load[d]
            h_d = history[d]
            if l_d < l_min or (use_history and l_d == l_min and h_d < h_min):
                best, l_min, h_min = d, l_d, h_d
        if l_min >= self.max_queue_length:
            return NO_DEVICE
        return self._occupy(best, now)

    def _occupy(self, device: int, now: float, ticks: int = 0) -> int:
        """Admit one task to ``device`` atomically; returns ``device``.

        Takes one slot (plus ``ticks`` of predicted backlog) and books the
        load change.
        """
        old_load = self.queues[device].load
        self.queues[device].occupy(ticks)
        if self.metrics is not None:
            self.metrics.on_load_change(device, old_load, old_load + 1, now)
        return device

    def sche_free(self, device: int, now: float = 0.0) -> None:
        """Algorithm 1 SCHE-FREE: release the slot after completion."""
        if not 0 <= device < self.n_devices:
            raise ValueError(f"device {device} out of range")
        old_load = self.queues[device].load
        self.queues[device].release()
        if self.metrics is not None:
            self.metrics.on_load_change(device, old_load, old_load - 1, now)

    def loads(self) -> list[int]:
        return [q.load for q in self.queues]

    def histories(self) -> list[int]:
        return [q.history for q in self.queues]

    def validate(self) -> None:
        self.segment.validate(self.max_queue_length)


class ClientServerScheduler(SharedMemoryScheduler):
    """MPS-like ablation: same policy, paid per-request RPC latency.

    The paper: "the client-server architecture will introduce much extra
    overhead if each task is fast and scheduling is quite frequent like in
    the spectral calculation."  Workers must stall ``rpc_latency_s`` on
    every alloc *and* every free; with ~12k tasks and two RPCs each, a
    500 us round-trip already costs ~12 s of pure scheduling.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        rpc_latency_s: float = 5.0e-4,
        metrics: Optional[MetricsLedger] = None,
        segment: Optional[SharedSegment] = None,
        tie_break: str = "history",
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics, segment, tie_break)
        if rpc_latency_s < 0.0:
            raise ValueError("RPC latency must be non-negative")
        self.rpc_latency_s = rpc_latency_s


class RandomScheduler(SharedMemoryScheduler):
    """Policy baseline: uniform-random placement among non-full devices.

    Ablation target for Algorithm 1's min-load rule.  Admission still
    respects the maximum queue length (otherwise nothing would bound GPU
    backlog), but the *choice* among admissible devices is random, so the
    queue-length distribution across devices is unmanaged.  Deterministic
    via an internal seeded generator.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        metrics: Optional[MetricsLedger] = None,
        segment: Optional[SharedSegment] = None,
        seed: int = 20150413,
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics, segment)
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def sche_alloc(self, now: float = 0.0) -> int:
        if self.n_devices == 0:
            return NO_DEVICE
        load, _history = self.segment.attach()
        admissible = [
            d for d in range(self.n_devices) if load[d] < self.max_queue_length
        ]
        if not admissible:
            return NO_DEVICE
        best = int(self._rng.choice(admissible))
        return self._occupy(best, now)


class WeightedScheduler(SharedMemoryScheduler):
    """Speed-aware placement — the paper's future-work improvement.

    The conclusion promises "an improved scheme for load balancing"; the
    heterogeneity ablation shows why: Algorithm 1's min-load rule is
    blind to device speed, so a mixed fleet queues equal task *counts* on
    unequal devices and the slow card gates the makespan.

    The fix keeps the shared-memory structure and the queue bound but
    ranks devices by *expected backlog time* — load x expected service
    time — instead of raw load.  With equal weights it reduces exactly to
    Algorithm 1 (history tie-break included), so it is a strict
    generalization.
    """

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        service_s: Sequence[float],
        metrics: Optional[MetricsLedger] = None,
        segment: Optional[SharedSegment] = None,
    ) -> None:
        super().__init__(n_devices, max_queue_length, metrics, segment)
        service = list(service_s)
        if len(service) != n_devices:
            raise ValueError(
                f"need one service time per device, got {len(service)} "
                f"for {n_devices}"
            )
        if any(s <= 0.0 for s in service):
            raise ValueError("service times must be positive")
        self.service_s = service

    def sche_alloc(self, now: float = 0.0) -> int:
        if self.n_devices == 0:
            return NO_DEVICE
        load, history = self.segment.attach()
        best = -1
        best_backlog = float("inf")
        best_history = 0
        for d in range(self.n_devices):
            l_d = load[d]
            if l_d >= self.max_queue_length:
                continue
            # Backlog the *new* task would see, in seconds.
            backlog = (l_d + 1) * self.service_s[d]
            h_d = history[d]
            if backlog < best_backlog or (
                backlog == best_backlog and h_d < best_history
            ):
                best, best_backlog, best_history = d, backlog, h_d
        if best < 0:
            return NO_DEVICE
        return self._occupy(best, now)


class PredictiveScheduler(SharedMemoryScheduler):
    """Measured-cost placement: minimize *predicted* finish time.

    :class:`WeightedScheduler` fixed the device axis of Algorithm 1's
    blindness (unequal devices); this scheduler fixes the task axis —
    unequal *tasks*.  The shared segment gains a per-device ``backlog``
    array holding the summed predicted cost (integer picosecond ticks)
    of every admitted task, maintained by the caller passing each task's
    predicted cost (from the online EWMA
    :class:`~repro.obs.attribution.CostModel`) to ``sche_alloc`` /
    ``sche_free``.  SCHE-ALLOC places the task on the device whose
    backlog-plus-new-cost is smallest, history tie-break unchanged — so
    with equal costs it reduces exactly to Algorithm 1 (backlog is then
    load x cost).  As in Algorithm 1, a task falls back to the
    rank's CPU only when every queue is at the slot cap.

    ``on_steal`` is the work-stealing transfer: an idle device pulls one
    admitted task from a loaded victim, moving its slot and predicted
    backlog atomically on the segment (conservation is validated at end
    of run — no slot or tick is lost or duplicated).
    """

    @staticmethod
    def cost_ticks(cost_s: float) -> int:
        """A predicted cost in the segment's integer tick resolution."""
        if cost_s < 0.0:
            raise ValueError("predicted cost must be non-negative")
        return int(round(cost_s * TICKS_PER_S))

    def sche_alloc(self, now: float = 0.0, cost_s: float = 0.0) -> int:
        """Place one task of predicted cost ``cost_s`` (seconds).

        Scans for the minimum predicted finish time (device backlog +
        this task's cost), history tie-break among exact tick ties; the
        new cost is added to the winner's backlog in the same atomic
        admission step.  Returns ``NO_DEVICE`` when every queue is at
        the slot cap.
        """
        if self.n_devices == 0:
            return NO_DEVICE
        ticks = self.cost_ticks(cost_s)
        load, history = self.segment.attach()
        backlog = self.segment.backlog
        use_history = self.tie_break == "history"
        best = -1
        best_finish = 0
        best_history = 0
        for d in range(self.n_devices):
            if load[d] >= self.max_queue_length:
                continue
            finish = backlog[d] + ticks
            h_d = history[d]
            if (
                best < 0
                or finish < best_finish
                or (use_history and finish == best_finish and h_d < best_history)
            ):
                best, best_finish, best_history = d, finish, h_d
        if best < 0:
            return NO_DEVICE
        return self._occupy(best, now, ticks)

    def sche_free(self, device: int, now: float = 0.0, cost_s: float = 0.0) -> None:
        """Release one slot, removing the cost admitted for the task.

        ``cost_s`` must be the value passed to the matching
        ``sche_alloc`` (or carried through ``on_steal``) — the tick
        conversion is deterministic, so the backlog returns to exactly
        what it was.
        """
        if not 0 <= device < self.n_devices:
            raise ValueError(f"device {device} out of range")
        old_load = self.queues[device].load
        self.queues[device].release(self.cost_ticks(cost_s))
        if self.metrics is not None:
            self.metrics.on_load_change(device, old_load, old_load - 1, now)

    def on_steal(
        self, victim: int, thief: int, now: float = 0.0, cost_s: float = 0.0
    ) -> None:
        """Transfer one admitted task's slot + backlog from victim to thief."""
        for d in (victim, thief):
            if not 0 <= d < self.n_devices:
                raise ValueError(f"device {d} out of range")
        ticks = self.cost_ticks(cost_s)
        victim_old = self.queues[victim].load
        thief_old = self.queues[thief].load
        self.queues[victim].transfer_to(self.queues[thief], ticks)
        if self.metrics is not None:
            self.metrics.on_load_change(victim, victim_old, victim_old - 1, now)
            self.metrics.on_load_change(thief, thief_old, thief_old + 1, now)
            self.metrics.on_steal(victim, thief)

    def backlogs_s(self) -> list[float]:
        """Predicted backlog per device, in seconds (diagnostics)."""
        return [q.backlog_ticks / TICKS_PER_S for q in self.queues]
