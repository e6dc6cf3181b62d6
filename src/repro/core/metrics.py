"""Measurement ledger behind Figs. 4-6 and Tables I-II.

Collected during a hybrid run:

- task placement counts (per device / CPU fallback) -> Fig. 5, Table I;
- time-weighted *load residency*: how long each device's load sat at each
  value 0..max -> Fig. 6 and Table I's "GPU load >= 3" column;
- per-device busy statistics and the run makespan -> Figs. 3-4;
- per-task wait/service records for deeper diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs.tracer import NULL_TRACER

__all__ = ["TaskEvent", "MetricsLedger", "RunResult"]


@dataclass(frozen=True)
class TaskEvent:
    """One task's lifetime inside a hybrid run (for timeline analysis).

    ``enqueue`` is when the task became ready for service (GPU path: the
    moment it was submitted to the device; CPU path: when the fallback
    execution began), ``start`` is when service actually began (GPU
    path: after any device-queue wait), and ``end`` is when the rank
    moved on (result in hand) — so ``start``/``end`` delimit pure
    service and :attr:`wait` is the queueing delay, no longer conflated.
    ``device`` is -1 for CPU fallback executions.  ``enqueue`` defaults
    to ``None`` for hand-built events (wait reads as zero).
    """

    rank: int
    task_id: int
    placement: str  # "gpu" | "cpu"
    device: int
    start: float
    end: float
    enqueue: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wait(self) -> float:
        """Queueing delay between readiness and service start."""
        if self.enqueue is None:
            return 0.0
        return self.start - self.enqueue


class MetricsLedger:
    """Accumulates scheduling statistics over one simulated run."""

    def __init__(
        self,
        n_devices: int,
        max_queue_length: int,
        start_time: float = 0.0,
        tracer=NULL_TRACER,
        device_tracks: Sequence[int] = (),
    ) -> None:
        if n_devices < 0 or max_queue_length < 0:
            raise ValueError("negative sizes")
        #: Span tracer mirroring load changes onto per-device counter
        #: tracks and admission outcomes onto instants; the default
        #: :data:`~repro.obs.tracer.NULL_TRACER` records nothing.
        self.tracer = tracer
        self.device_tracks = tuple(device_tracks)
        self.n_devices = n_devices
        self.max_queue_length = max_queue_length
        #: Virtual time the run began — non-zero for batches embedded in a
        #: larger simulation (the service broker), so residency intervals
        #: open at the batch start rather than at t = 0.
        self.start_time = start_time
        self.gpu_tasks = np.zeros(max(1, n_devices), dtype=np.int64)
        self.cpu_tasks = 0
        # Load residency: residency[d, L] = virtual seconds device d spent
        # with load exactly L.
        self.load_residency = np.zeros(
            (max(1, n_devices), max_queue_length + 1), dtype=np.float64
        )
        self._last_change = np.full(max(1, n_devices), start_time, dtype=np.float64)
        self._current_load = np.zeros(max(1, n_devices), dtype=np.int64)
        self.task_waits: list[float] = []
        self.task_services: list[float] = []
        #: Work stealing (predictive dispatch): tasks each device pulled
        #: from another queue / had pulled away.  All-zero on depth runs.
        self.steals = np.zeros(max(1, n_devices), dtype=np.int64)
        self.donations = np.zeros(max(1, n_devices), dtype=np.int64)
        #: Predicted-vs-measured service pairs from the cost model
        #: (predictive dispatch only): one (predicted_s, measured_s) per
        #: GPU-executed task, for the prediction-error histogram.
        self.predictions: list[tuple[float, float]] = []
        #: Integrand evaluations pruned by active windows across the
        #: batch's tasks (set once by the runner, folded by telemetry).
        self.evals_saved: int = 0
        self.end_time: float = 0.0
        #: Per-task timeline records (populated only when the runner is
        #: configured with ``record_trace=True``).
        self.trace: list[TaskEvent] = []

    # ------------------------------------------------------------------
    # Hooks called by the scheduler / runner
    # ------------------------------------------------------------------
    def on_load_change(self, device: int, old: int, new: int, now: float) -> None:
        """Close the residency interval at ``old`` and open one at ``new``."""
        self.load_residency[device, old] += now - self._last_change[device]
        self._last_change[device] = now
        self._current_load[device] = new
        if new > old:
            self.gpu_tasks[device] += 1
        if self.tracer.enabled and device < len(self.device_tracks):
            self.tracer.counter(self.device_tracks[device], "load", new)

    def on_cpu_task(self) -> None:
        self.cpu_tasks += 1

    def on_admission_revoked(self, device: int) -> None:
        """Undo one GPU-task count (admission whose submit failed)."""
        if self.gpu_tasks[device] <= 0:
            raise ValueError(f"device {device} has no admissions to revoke")
        self.gpu_tasks[device] -= 1
        self._instant(device, "admission.revoked")

    def on_task_timing(self, wait_s: float, service_s: float) -> None:
        self.task_waits.append(wait_s)
        self.task_services.append(service_s)

    def on_steal(self, victim: int, thief: int) -> None:
        """One task moved from ``victim``'s queue to ``thief``'s.

        The thief's ``on_load_change`` rise already counted the task as
        a thief placement, so the victim hands its admission-time count
        back — total GPU task counts are conserved across steals.
        """
        if self.gpu_tasks[victim] <= 0:
            raise ValueError(f"device {victim} has no admissions to donate")
        self.gpu_tasks[victim] -= 1
        self.steals[thief] += 1
        self.donations[victim] += 1
        self._instant(thief, "steal", {"victim": victim})

    def on_prediction(self, predicted_s: float, measured_s: float) -> None:
        """One cost-model prediction resolved against measured service."""
        self.predictions.append((predicted_s, measured_s))

    def on_task_event(self, event: TaskEvent) -> None:
        self.trace.append(event)

    def _instant(self, device: int, name: str, args=None) -> None:
        if self.tracer.enabled and device < len(self.device_tracks):
            self.tracer.instant(
                self.device_tracks[device], name, cat="sched", args=args
            )

    def finalize(self, now: float) -> None:
        """Close all residency intervals at the end of the run."""
        for d in range(self.n_devices):
            self.load_residency[d, self._current_load[d]] += (
                now - self._last_change[d]
            )
            self._last_change[d] = now
        self.end_time = now

    # ------------------------------------------------------------------
    # Derived quantities (the paper's reported metrics)
    # ------------------------------------------------------------------
    @property
    def total_tasks(self) -> int:
        return int(self.gpu_tasks.sum()) + self.cpu_tasks

    def gpu_task_ratio(self) -> float:
        """Fig. 5: tasks achieved by GPUs / total tasks."""
        total = self.total_tasks
        if total == 0:
            return 0.0
        return float(self.gpu_tasks.sum()) / total

    def load_distribution_percent(self, device: int = 0) -> np.ndarray:
        """Fig. 6: % of run time device spent at each load 0..max."""
        row = self.load_residency[device]
        total = row.sum()
        if total == 0.0:
            return np.zeros_like(row)
        return row / total * 100.0

    def load_at_least_ratio(self, threshold: int, device: int = 0) -> float:
        """Table I: fraction of run time with load >= ``threshold``."""
        row = self.load_residency[device]
        total = row.sum()
        if total == 0.0:
            return 0.0
        return float(row[threshold:].sum() / total)

    def mean_wait_s(self) -> float:
        return float(np.mean(self.task_waits)) if self.task_waits else 0.0

    @property
    def total_steals(self) -> int:
        return int(self.steals.sum())

    def prediction_errors(self) -> list[float]:
        """Relative |predicted - measured| / measured per resolved task."""
        return [
            abs(p - m) / m for p, m in self.predictions if m > 0.0
        ]

    def mean_device_load(self, device: int) -> float:
        """Time-weighted mean queue load of one device over the run."""
        row = self.load_residency[device]
        total = row.sum()
        if total == 0.0:
            return 0.0
        return float((row * np.arange(row.size)).sum() / total)

    def load_imbalance(self) -> float:
        """Spread of time-weighted mean loads across devices (max - min).

        0 = perfectly even residency; the gauge the predictive scheduler
        and work stealing exist to push down on skewed workloads.
        """
        if self.n_devices < 2:
            return 0.0
        means = [self.mean_device_load(d) for d in range(self.n_devices)]
        return max(means) - min(means)


@dataclass
class RunResult:
    """Outcome of one hybrid (or baseline) run."""

    makespan_s: float
    metrics: MetricsLedger
    n_tasks: int
    mode: str = "hybrid"
    #: point_index -> accumulated per-bin spectrum (real-execution runs).
    spectra: dict[int, np.ndarray] = field(default_factory=dict)
    #: Device utilizations at the end of the run.
    gpu_utilization: list[float] = field(default_factory=list)

    def speedup_vs(self, baseline_s: float) -> float:
        """Speedup of this run relative to a baseline wall time."""
        if self.makespan_s <= 0.0:
            raise ValueError("makespan must be positive to form a speedup")
        return baseline_s / self.makespan_s
