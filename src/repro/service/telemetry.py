"""Service telemetry: per-request, per-lane, and per-batch ledgers.

The same accounting style as :class:`repro.core.metrics.MetricsLedger`
(time-weighted residency closed at interval edges, counters advanced by
hooks), lifted one level up: the unit here is a *request*, not a task.
Per-batch :class:`~repro.core.metrics.RunResult` ledgers from the hybrid
runner are folded in so one report spans the whole stack — admission,
queueing, caching, and device placement.

The broker calls the hooks directly.  With a tracer attached
(``tracer``/``queue_track``/``lane_tracks``) the same hooks also mirror
rejections, retries, megabatch assembly, window waits and anomalies to
instants and the queue depth to a counter track, so the ledger and the
trace read one event stream; the default
:data:`~repro.obs.tracer.NULL_TRACER` records nothing.

Latency samples are exact by default; for long trace replays pass
``latency_reservoir`` to cap per-lane memory with deterministic
reservoir sampling (mean/max stay exact from streaming aggregates,
percentiles come from the reservoir).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.metrics import RunResult
from repro.obs.tracer import NULL_TRACER

__all__ = ["LaneStats", "ServiceTelemetry"]

#: Fixed seed of the reservoir's replacement draws — sampling stays
#: deterministic for a given observation sequence, like everything else.
_RESERVOIR_SEED = 20150413


@dataclass
class LaneStats:
    """Request counters and latency samples of one priority lane.

    ``reservoir=None`` keeps every latency sample (exact percentiles,
    unbounded memory); ``reservoir=k`` holds a uniform k-sample
    reservoir (Vitter's algorithm R) instead, so arbitrarily long
    replays use O(k) memory.  Mean and max are always exact — they come
    from streaming aggregates, not the sample set.
    """

    arrivals: int = 0
    completions: int = 0
    cache_hits: int = 0
    #: Served by lattice interpolation within the declared budget.
    lattice_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    rejections: int = 0
    retries: int = 0
    latencies_s: list[float] = field(default_factory=list)
    #: Most recent (latency, trace_id) pairs of traced completions —
    #: the exemplar source linking the Prometheus latency histogram back
    #: to concrete request spans (OpenMetrics-style exemplars).
    latency_exemplars: list[tuple[float, int]] = field(default_factory=list)
    reservoir: Optional[int] = None
    _seen: int = field(default=0, repr=False)
    _sum: float = field(default=0.0, repr=False)
    _max: float = field(default=0.0, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.reservoir is not None and self.reservoir < 1:
            raise ValueError("reservoir capacity must be >= 1")

    @property
    def lost(self) -> int:
        """Requests that arrived but never completed."""
        return self.arrivals - self.completions

    def record_latency(self, latency_s: float, trace_id: int = 0) -> None:
        """Stream one latency sample into the (bounded or exact) store."""
        if trace_id > 0:
            self.latency_exemplars.append((latency_s, trace_id))
            if len(self.latency_exemplars) > 64:
                del self.latency_exemplars[0]
        self._seen += 1
        self._sum += latency_s
        if latency_s > self._max:
            self._max = latency_s
        if self.reservoir is None or len(self.latencies_s) < self.reservoir:
            self.latencies_s.append(latency_s)
            return
        if self._rng is None:
            self._rng = np.random.default_rng(_RESERVOIR_SEED)
        j = int(self._rng.integers(0, self._seen))
        if j < self.reservoir:
            self.latencies_s[j] = latency_s

    def latency_samples(self) -> list[float]:
        """The retained samples (every one, or the reservoir's subset)."""
        return list(self.latencies_s)

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def latency_quantile(self, q: float) -> float:
        """Quantile accessor on the [0, 1] scale the SLO engine uses.

        Same linear-interpolation estimator as ``latency_percentile``
        (which takes 0-100), so SLO rules and reports that target
        p95/p99 read one number from one code path.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return self.latency_percentile(q * 100.0)

    def mean_latency_s(self) -> float:
        if self._seen:
            return self._sum / self._seen
        # Hand-built stats (latencies_s passed directly): fall back.
        return float(np.mean(self.latencies_s)) if self.latencies_s else 0.0

    def max_latency_s(self) -> float:
        if self._seen:
            return self._max
        return max(self.latencies_s, default=0.0)

    def as_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "completions": self.completions,
            "lost": self.lost,
            "cache_hits": self.cache_hits,
            "lattice_hits": self.lattice_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "rejections": self.rejections,
            "retries": self.retries,
            "latency_mean_s": self.mean_latency_s(),
            "latency_p50_s": self.latency_percentile(50.0),
            "latency_p95_s": self.latency_percentile(95.0),
            "latency_max_s": self.max_latency_s(),
        }


class ServiceTelemetry:
    """Accumulates service statistics over one simulated serving run."""

    def __init__(
        self,
        lanes: tuple[str, ...] = ("interactive", "survey"),
        latency_reservoir: Optional[int] = None,
        tracer=NULL_TRACER,
        queue_track: int = 0,
        lane_tracks: Optional[dict[str, int]] = None,
    ) -> None:
        if not lanes:
            raise ValueError("need at least one lane")
        self.tracer = tracer
        self.queue_track = queue_track
        self.lane_tracks = dict(lane_tracks or {})
        self.lanes: dict[str, LaneStats] = {
            lane: LaneStats(reservoir=latency_reservoir) for lane in lanes
        }
        # Queue-depth residency (all lanes pooled): virtual seconds the
        # admission queue spent at each observed depth.
        self._depth_residency: dict[int, float] = {}
        self._depth = 0
        self._depth_since = 0.0
        self.max_depth = 0
        # Per-batch records folded from the hybrid runner's ledgers.
        self.batch_sizes: list[int] = []
        self.batch_makespans_s: list[float] = []
        self.gpu_tasks = 0
        self.cpu_tasks = 0
        self.evals_saved = 0
        # Continuous-batching ledger: one width sample per assembled
        # megabatch group, plus the counters the repro_batch_* metric
        # families export.  All stay zero on the legacy dispatch path.
        self.megabatch_widths: list[int] = []
        self.batched_temperatures = 0
        self.batch_coalesced_requests = 0
        self.batch_window_waits = 0
        # Anomaly events emitted by an attached detector.
        self.anomalies = 0
        #: Summed device load residency across batches (device x load
        #: virtual seconds), grown to the widest batch shape seen.
        self.load_residency: Optional[np.ndarray] = None
        # Predictive-scheduling ledger folded from batch metrics: steal /
        # donation counts per device index and the cost model's relative
        # prediction errors.  All stay empty/zero on depth-scheduled runs.
        self.sched_steals: list[int] = []
        self.sched_donations: list[int] = []
        self.sched_prediction_errors: list[float] = []
        self.end_time = 0.0

    def _lane(self, lane: str) -> LaneStats:
        try:
            return self.lanes[lane]
        except KeyError:
            raise ValueError(
                f"unknown lane {lane!r}; expected one of {tuple(self.lanes)}"
            ) from None

    # ------------------------------------------------------------------
    # Hooks called by the broker
    # ------------------------------------------------------------------
    def on_arrival(self, lane: str) -> None:
        self._lane(lane).arrivals += 1

    def on_rejection(self, lane: str) -> None:
        self._lane(lane).rejections += 1
        self._instant(self._lane_track(lane), "rejected", "admission")

    def on_retry(self, lane: str) -> None:
        self._lane(lane).retries += 1
        self._instant(self._lane_track(lane), "retry", "admission")

    def on_completion(
        self,
        lane: str,
        latency_s: float,
        *,
        cached: bool,
        coalesced: bool,
        lattice: bool = False,
        trace_id: int = 0,
    ) -> None:
        stats = self._lane(lane)
        stats.completions += 1
        stats.record_latency(latency_s, trace_id=trace_id)
        if cached:
            stats.cache_hits += 1
        elif lattice:
            stats.lattice_hits += 1
        elif coalesced:
            stats.coalesced += 1
        else:
            stats.computed += 1

    def on_queue_depth(self, depth: int, now: float) -> None:
        """Close the residency interval at the old depth, open the new."""
        self._set_depth(depth, now)
        if self.tracer.enabled:
            self.tracer.counter(self.queue_track, "queue_depth", depth)

    def _set_depth(self, depth: int, now: float) -> None:
        if depth < 0:
            raise ValueError("queue depth cannot be negative")
        self._depth_residency[self._depth] = (
            self._depth_residency.get(self._depth, 0.0) + now - self._depth_since
        )
        self._depth = depth
        self._depth_since = now
        self.max_depth = max(self.max_depth, depth)

    def on_megabatch(self, widths: list[int]) -> None:
        """Record one dispatch cycle's assembled megabatch groups.

        ``widths`` holds the temperature count of each group.  A request
        counts as *batch-coalesced* when it shared its fused launch with
        at least one other request (group width >= 2).
        """
        self.megabatch_widths.extend(int(w) for w in widths)
        self.batched_temperatures += sum(int(w) for w in widths)
        self.batch_coalesced_requests += sum(
            int(w) for w in widths if w >= 2
        )
        self._instant(
            self.queue_track,
            "megabatch.assembled",
            "batch",
            {"groups": len(widths), "widths": list(widths)},
        )

    def on_window_wait(self) -> None:
        """One admission-window wait taken by a service worker."""
        self.batch_window_waits += 1
        self._instant(self.queue_track, "batch.window_wait", "batch")

    def on_anomaly(self, event) -> None:
        """One :class:`~repro.obs.anomaly.AnomalyEvent` from a detector."""
        self.anomalies += 1
        self._instant(self.queue_track, "anomaly", "anomaly", event.as_dict())

    def on_batch(self, result: RunResult, n_requests: int) -> None:
        """Fold one dispatched batch's hybrid ledger into the totals."""
        self.batch_sizes.append(n_requests)
        self.batch_makespans_s.append(result.makespan_s)
        self.gpu_tasks += int(result.metrics.gpu_tasks.sum())
        self.cpu_tasks += result.metrics.cpu_tasks
        self.evals_saved += result.metrics.evals_saved
        for d, (stolen, donated) in enumerate(
            zip(result.metrics.steals, result.metrics.donations)
        ):
            while len(self.sched_steals) <= d:
                self.sched_steals.append(0)
                self.sched_donations.append(0)
            self.sched_steals[d] += int(stolen)
            self.sched_donations[d] += int(donated)
        self.sched_prediction_errors.extend(
            result.metrics.prediction_errors()
        )
        batch = result.metrics.load_residency
        if self.load_residency is None:
            self.load_residency = batch.copy()
        else:
            rows = max(self.load_residency.shape[0], batch.shape[0])
            cols = max(self.load_residency.shape[1], batch.shape[1])
            if (rows, cols) != self.load_residency.shape:
                grown = np.zeros((rows, cols))
                grown[
                    : self.load_residency.shape[0], : self.load_residency.shape[1]
                ] = self.load_residency
                self.load_residency = grown
            self.load_residency[: batch.shape[0], : batch.shape[1]] += batch

    def finalize(self, now: float) -> None:
        """Close the open residency interval at the end of the run."""
        self._set_depth(self._depth, now)
        self.end_time = now

    def _lane_track(self, lane: str) -> int:
        return self.lane_tracks.get(lane, self.queue_track)

    def _instant(self, track: int, name: str, cat: str, args=None) -> None:
        if self.tracer.enabled:
            self.tracer.instant(track, name, cat=cat, args=args)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def sched_mean_loads(self) -> list[float]:
        """Time-weighted mean queue load per device (all batches pooled)."""
        if self.load_residency is None:
            return []
        out = []
        for row in self.load_residency:
            total = row.sum()
            if total == 0.0:
                out.append(0.0)
                continue
            out.append(float((row * np.arange(row.size)).sum() / total))
        return out

    def sched_imbalance(self) -> float:
        """Spread (max - min) of the pooled mean device loads."""
        means = self.sched_mean_loads()
        if len(means) < 2:
            return 0.0
        return max(means) - min(means)

    @property
    def total_steals(self) -> int:
        return sum(self.sched_steals)

    @property
    def arrivals(self) -> int:
        return sum(s.arrivals for s in self.lanes.values())

    @property
    def completions(self) -> int:
        return sum(s.completions for s in self.lanes.values())

    @property
    def lost(self) -> int:
        return self.arrivals - self.completions

    @property
    def rejections(self) -> int:
        return sum(s.rejections for s in self.lanes.values())

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.lanes.values())

    def mean_queue_depth(self) -> float:
        """Time-weighted mean admission-queue depth."""
        total = sum(self._depth_residency.values())
        if total <= 0.0:
            return 0.0
        weighted = sum(d * t for d, t in self._depth_residency.items())
        return weighted / total

    def gpu_task_ratio(self) -> float:
        total = self.gpu_tasks + self.cpu_tasks
        return self.gpu_tasks / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "completions": self.completions,
            "lost": self.lost,
            "rejections": self.rejections,
            "retries": self.retries,
            "queue_depth_mean": self.mean_queue_depth(),
            "queue_depth_max": self.max_depth,
            "batches": len(self.batch_sizes),
            "batch_size_mean": (
                float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            "gpu_tasks": self.gpu_tasks,
            "cpu_tasks": self.cpu_tasks,
            "gpu_task_ratio": self.gpu_task_ratio(),
            "evals_saved": self.evals_saved,
            "megabatch_groups": len(self.megabatch_widths),
            "batch_width_mean": (
                float(np.mean(self.megabatch_widths))
                if self.megabatch_widths
                else 0.0
            ),
            "batch_width_max": max(self.megabatch_widths, default=0),
            "batched_temperatures": self.batched_temperatures,
            "batch_coalesced_requests": self.batch_coalesced_requests,
            "batch_window_waits": self.batch_window_waits,
            "sched_steals": self.total_steals,
            "sched_prediction_error_mean": (
                float(np.mean(self.sched_prediction_errors))
                if self.sched_prediction_errors
                else 0.0
            ),
            "sched_load_imbalance": self.sched_imbalance(),
            "anomalies": self.anomalies,
            "virtual_time_s": self.end_time,
            "lanes": {lane: s.as_dict() for lane, s in self.lanes.items()},
        }
