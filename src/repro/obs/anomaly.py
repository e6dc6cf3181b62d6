"""Online anomaly detection over scraped series: EWMA + MAD bands.

Each monitored series gets a robust control band maintained online:

- *center* — an exponentially-weighted moving average (EWMA) of the
  observed signal;
- *scale* — 1.4826 x the median absolute deviation (MAD) over a sliding
  window (the normal-consistency factor makes MAD comparable to a
  standard deviation), floored both absolutely and relative to the
  center so a perfectly steady series never alarms on float dust;
- a point outside ``center +- k * scale`` after the warmup emits an
  :class:`AnomalyEvent`.

Counters (including histogram ``_sum``/``_count`` series) are observed
as *per-scrape deltas* — the raw monotone value would always drift out
of any band — while gauges are observed raw.  Histogram ``_bucket``
series are skipped: quantile behaviour is better watched through the
query engine and SLO rules.

Events land in the service telemetry (``ServiceTelemetry.on_anomaly``,
which also mirrors each to a trace instant) and can arm the
:class:`~repro.obs.flight.FlightRecorder`, so a utilization collapse or
latency spike dumps a postmortem bundle with the trailing series window
included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

from repro.obs.tsdb import TimeSeriesStore

__all__ = ["AnomalyDetector", "AnomalyEvent"]


@dataclass(frozen=True)
class AnomalyEvent:
    """One out-of-band observation on one series."""

    t: float
    series: str
    labels: Mapping[str, str]
    value: float
    center: float
    lower: float
    upper: float
    kind: str  # "spike" (above band) or "drop" (below band)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "series": self.series,
            "labels": dict(sorted(self.labels.items())),
            "value": self.value,
            "center": self.center,
            "lower": self.lower,
            "upper": self.upper,
            "kind": self.kind,
        }

    def describe(self) -> str:
        lbl = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return (
            f"{self.kind} on {self.series}{{{lbl}}} at t={self.t:.3f}: "
            f"{self.value:g} outside [{self.lower:g}, {self.upper:g}]"
        )


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class _SeriesState:
    window: deque = field(default_factory=lambda: deque(maxlen=64))
    ewma: Optional[float] = None
    seen: int = 0
    prev_raw: Optional[float] = None  # counters: last raw value
    cursor: int = 0  # total points consumed (including evicted)


class AnomalyDetector:
    """Per-series robust baselines over a :class:`TimeSeriesStore`.

    :meth:`scan` consumes only points appended since the previous scan
    (eviction-aware cursors), so calling it after every scrape costs
    O(new points).  Defaults are tuned so the seeded steady service
    trace produces zero false positives (gated by the
    ``telemetry_pipeline`` bench case) while genuine latency spikes and
    utilization collapses on bursty traces still alarm.
    """

    def __init__(
        self,
        alpha: float = 0.25,
        k: float = 6.0,
        warmup: int = 16,
        window: int = 48,
        min_scale_abs: float = 1e-9,
        min_scale_frac: float = 0.25,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if k <= 0.0 or warmup < 2 or window < 4:
            raise ValueError("need k > 0, warmup >= 2, window >= 4")
        self.alpha = alpha
        self.k = k
        self.warmup = warmup
        self.window = window
        self.min_scale_abs = min_scale_abs
        self.min_scale_frac = min_scale_frac
        self.events: List[AnomalyEvent] = []
        self._states: dict[tuple, _SeriesState] = {}
        self._listeners: list[Callable[[AnomalyEvent], None]] = []
        self.points_seen = 0

    def on_anomaly(self, listener: Callable[[AnomalyEvent], None]) -> None:
        """Register a callback fired for every emitted event."""
        self._listeners.append(listener)

    def scan(self, store: TimeSeriesStore) -> list[AnomalyEvent]:
        """Process points appended since the last scan; return new events."""
        new_events: list[AnomalyEvent] = []
        for series in store.series():
            if series.name.endswith("_bucket"):
                continue
            state = self._states.get(series.key)
            if state is None:
                state = _SeriesState(
                    window=deque(maxlen=self.window)
                )
                self._states[series.key] = state
            points = series.points()
            start = state.cursor - series.evicted
            if start < 0:
                # The ring outran us; resynchronize without alarming on
                # the gap (deltas across unseen points are meaningless).
                state.prev_raw = None
                start = 0
            is_counter = series.kind in ("counter", "histogram")
            for t, raw in points[start:]:
                self.points_seen += 1
                if is_counter:
                    if state.prev_raw is None:
                        state.prev_raw = raw
                        continue
                    x = raw - state.prev_raw
                    state.prev_raw = raw
                else:
                    x = raw
                event = self._observe(state, series, t, x)
                if event is not None:
                    new_events.append(event)
            state.cursor = series.evicted + len(points)
        self.events.extend(new_events)
        for event in new_events:
            for listener in self._listeners:
                listener(event)
        return new_events

    def _observe(self, state, series, t: float, x: float):
        event = None
        if state.seen >= self.warmup and state.ewma is not None:
            center = state.ewma
            window_median = _median(list(state.window))
            mad = _median([abs(v - window_median) for v in state.window])
            scale = 1.4826 * mad
            floor = max(self.min_scale_abs, self.min_scale_frac * abs(center))
            band = self.k * max(scale, floor)
            lower, upper = center - band, center + band
            if x > upper or x < lower:
                event = AnomalyEvent(
                    t=t,
                    series=series.name,
                    labels=dict(series.labels),
                    value=x,
                    center=center,
                    lower=lower,
                    upper=upper,
                    kind="spike" if x > upper else "drop",
                )
        # The baseline absorbs the point either way: a real regime shift
        # should alarm once and adapt, not alarm forever.
        state.window.append(x)
        state.ewma = (
            x
            if state.ewma is None
            else (1.0 - self.alpha) * state.ewma + self.alpha * x
        )
        state.seen += 1
        return event
