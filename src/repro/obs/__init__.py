"""Unified observability: spans, trace and metric exports.

One substrate for the whole stack — broker -> runner -> device — on the
shared virtual clock:

- :mod:`repro.obs.tracer` — the span tracer (:class:`EventTracer`) and
  its zero-cost stand-in (:data:`NULL_TRACER`);
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable),
  a schema validator, and terminal Gantt/summary renderers;
- :mod:`repro.obs.prom` — Prometheus-style registry, text exposition,
  and a minimal parser for CI round-trips;
- :mod:`repro.obs.profile` — hierarchical cost attribution over span
  streams: self-vs-total tables, device utilization, critical paths,
  and collapsed-stack flamegraph export;
- :mod:`repro.obs.slo` — declarative SLO rules evaluated over registry
  snapshots on the sim clock, with ``for:`` hysteresis and burn rates;
- :mod:`repro.obs.attribution` — request-scoped causal cost attribution
  (fair-share split of fused-group spans back to member requests, exact
  conservation) and the online EWMA :class:`CostModel`;
- :mod:`repro.obs.flight` — the SLO/anomaly-triggered flight recorder
  dumping postmortem bundles (trailing trace window + scraped series +
  cost ledger);
- :mod:`repro.obs.tsdb` — the in-process ring-buffer time-series store
  scraping registries on the sim clock (:data:`NULL_TSDB` when off);
- :mod:`repro.obs.query` — the PromQL-subset query engine over the
  store (``rate``, ``increase``, ``histogram_quantile``, matchers,
  binary ops);
- :mod:`repro.obs.anomaly` — online EWMA+MAD control bands per series
  emitting :class:`AnomalyEvent` into the service telemetry;
- :mod:`repro.obs.dash` — deterministic self-contained HTML dashboards
  (inline SVG) with SLO/anomaly annotations and store federation.
"""

from repro.obs.anomaly import AnomalyDetector, AnomalyEvent

from repro.obs.attribution import (
    Attribution,
    AttributionResult,
    CostEntry,
    CostModel,
    kernel_root_map,
    render_cost_report,
)
from repro.obs.dash import Panel, SERVICE_PANELS, federate, render_dashboard
from repro.obs.flight import FlightRecorder
from repro.obs.export import (
    render_gantt,
    render_summary,
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import (
    Profile,
    render_profile,
    to_collapsed,
    write_collapsed,
)
from repro.obs.prom import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    run_registry,
    service_registry,
)
from repro.obs.query import QueryEngine, QueryError, Sample, parse_query
from repro.obs.slo import Rule, RuleState, SLOEngine, Transition
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer, WallClock
from repro.obs.tsdb import (
    NULL_TSDB,
    NullTimeSeriesStore,
    Series,
    TimeSeriesStore,
)

__all__ = [
    "AnomalyDetector",
    "AnomalyEvent",
    "Attribution",
    "AttributionResult",
    "CostEntry",
    "CostModel",
    "Counter",
    "EventTracer",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NULL_TSDB",
    "NullTimeSeriesStore",
    "NullTracer",
    "Panel",
    "Profile",
    "QueryEngine",
    "QueryError",
    "Rule",
    "RuleState",
    "SERVICE_PANELS",
    "SLOEngine",
    "Sample",
    "Series",
    "TimeSeriesStore",
    "Transition",
    "WallClock",
    "federate",
    "kernel_root_map",
    "parse_query",
    "render_dashboard",
    "parse_exposition",
    "render_cost_report",
    "render_gantt",
    "render_profile",
    "render_summary",
    "run_registry",
    "service_registry",
    "to_chrome",
    "to_collapsed",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_collapsed",
]
