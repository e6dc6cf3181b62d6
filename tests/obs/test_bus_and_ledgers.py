"""Ledger trace mirroring, the latency reservoir, and TaskEvent timing fields."""

import numpy as np
import pytest

from repro.core.metrics import MetricsLedger, TaskEvent
from repro.obs import NULL_TRACER, EventTracer
from repro.cluster.simclock import SimClock
from repro.service.telemetry import LaneStats, ServiceTelemetry


def _device_ledger(tracer=NULL_TRACER, n_devices=1):
    tracks = tuple(tracer.track("node", f"gpu{d}") for d in range(n_devices))
    return MetricsLedger(
        n_devices=n_devices, max_queue_length=4,
        tracer=tracer, device_tracks=tracks,
    )


class TestMetricsLedgerTracer:
    def test_bare_ledger_is_a_scheduler_sink(self):
        ledger = MetricsLedger(n_devices=2, max_queue_length=4)
        ledger.on_load_change(0, 0, 1, 0.0)
        ledger.on_load_change(0, 1, 0, 1.0)
        ledger.on_cpu_task()
        ledger.on_task_timing(0.25, 1.0)
        assert ledger.cpu_tasks == 1
        assert ledger.load_residency[0, 1] == pytest.approx(1.0)

    def test_load_counter_lands_on_device_track(self):
        tracer = EventTracer(SimClock())
        ledger = _device_ledger(tracer, n_devices=2)
        ledger.on_load_change(1, 0, 2, 0.0)
        counters = [e for e in tracer.events if e.ph == "C"]
        assert len(counters) == 1
        assert counters[0].name == "load"
        assert counters[0].track == ledger.device_tracks[1]
        assert counters[0].args == {"value": 2}

    def test_admission_outcomes_become_instants(self):
        tracer = EventTracer(SimClock())
        ledger = _device_ledger(tracer, n_devices=2)
        ledger.on_load_change(0, 0, 1, 0.0)
        ledger.on_load_change(0, 1, 2, 0.0)
        ledger.on_admission_revoked(0)
        ledger.on_steal(0, 1)
        instants = [(e.name, e.track, e.args) for e in tracer.events if e.ph == "i"]
        assert instants == [
            ("admission.revoked", ledger.device_tracks[0], None),
            ("steal", ledger.device_tracks[1], {"victim": 0}),
        ]

    def test_ledger_math_identical_with_tracer(self):
        plain = MetricsLedger(n_devices=1, max_queue_length=4)
        traced = _device_ledger(EventTracer(SimClock()))
        for ledger in (plain, traced):
            ledger.on_load_change(0, 0, 1, 0.5)
            ledger.on_load_change(0, 1, 2, 1.0)
            ledger.on_load_change(0, 2, 0, 3.0)
            ledger.on_task_timing(0.1, 0.9)
            ledger.finalize(4.0)
        assert np.array_equal(plain.load_residency, traced.load_residency)
        assert np.array_equal(plain.gpu_tasks, traced.gpu_tasks)
        assert plain.task_waits == traced.task_waits
        assert plain.task_services == traced.task_services


class TestServiceTelemetryTracer:
    @staticmethod
    def _drive(tel):
        tel.on_arrival("interactive")
        tel.on_rejection("interactive")
        tel.on_retry("interactive")
        tel.on_queue_depth(3, 0.0)
        tel.finalize(1.0)

    def test_records_admission_and_queue_depth(self):
        tracer = EventTracer(SimClock())
        tel = ServiceTelemetry(
            ("interactive",),
            tracer=tracer,
            queue_track=tracer.track("service", "queue"),
            lane_tracks={"interactive": tracer.track("service", "lane.interactive")},
        )
        self._drive(tel)
        stats = tel.lanes["interactive"]
        assert (stats.arrivals, stats.rejections, stats.retries) == (1, 1, 1)
        assert tel.max_depth == 3
        events = [(e.ph, e.name, e.track) for e in tracer.events]
        lane, queue = tel.lane_tracks["interactive"], tel.queue_track
        # finalize closes the residency interval without a second sample.
        assert events == [
            ("i", "rejected", lane),
            ("i", "retry", lane),
            ("C", "queue_depth", queue),
        ]

    def test_ledger_math_identical_with_tracer(self):
        plain = ServiceTelemetry(("interactive",))
        tracer = EventTracer(SimClock())
        traced = ServiceTelemetry(("interactive",), tracer=tracer)
        for tel in (plain, traced):
            self._drive(tel)
            tel.on_megabatch([2, 1])
            tel.on_window_wait()
        assert plain.as_dict() == traced.as_dict()
        assert plain.megabatch_widths == traced.megabatch_widths
        assert plain.batch_window_waits == traced.batch_window_waits
        assert [e.name for e in tracer.events if e.ph == "i"] == [
            "rejected", "retry", "megabatch.assembled", "batch.window_wait",
        ]


class TestLatencyReservoir:
    def test_unbounded_by_default(self):
        stats = LaneStats()
        for i in range(500):
            stats.record_latency(float(i))
        assert len(stats.latencies_s) == 500

    def test_reservoir_caps_memory(self):
        stats = LaneStats(reservoir=32)
        for i in range(10_000):
            stats.record_latency(float(i))
        assert len(stats.latencies_s) == 32
        assert all(0.0 <= v < 10_000.0 for v in stats.latencies_s)

    def test_mean_and_max_exact_despite_sampling(self):
        stats = LaneStats(reservoir=8)
        values = [float(i) for i in range(1000)]
        for v in values:
            stats.record_latency(v)
        assert stats.mean_latency_s() == pytest.approx(np.mean(values))
        assert stats.max_latency_s() == max(values)

    def test_sampling_is_deterministic(self):
        def fill():
            s = LaneStats(reservoir=16)
            for i in range(2000):
                s.record_latency(float(i))
            return s.latencies_s

        assert fill() == fill()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LaneStats(reservoir=0)

    def test_hand_built_stats_still_report(self):
        stats = LaneStats(latencies_s=[1.0, 3.0])
        assert stats.mean_latency_s() == pytest.approx(2.0)
        assert stats.max_latency_s() == 3.0

    def test_telemetry_threads_reservoir_to_lanes(self):
        tel = ServiceTelemetry(("a", "b"), latency_reservoir=4)
        for _ in range(10):
            tel.on_completion("a", 1.0, cached=False, coalesced=False)
        assert len(tel.lanes["a"].latencies_s) == 4
        assert tel.lanes["a"].completions == 10


class TestTaskEventTiming:
    def test_wait_derived_from_enqueue(self):
        ev = TaskEvent(
            rank=0, task_id=1, placement="gpu", device=0,
            start=2.0, end=5.0, enqueue=1.5,
        )
        assert ev.wait == pytest.approx(0.5)
        assert ev.duration == pytest.approx(3.0)

    def test_wait_zero_without_enqueue(self):
        ev = TaskEvent(0, 2, "cpu", -1, 1.0, 2.0)
        assert ev.enqueue is None
        assert ev.wait == 0.0

    def test_hybrid_run_records_enqueue_separately(self):
        from repro.core.granularity import WorkloadSpec, build_tasks
        from repro.core.hybrid import HybridConfig, HybridRunner

        tasks = build_tasks(WorkloadSpec(n_points=1))
        result = HybridRunner(
            HybridConfig(n_gpus=1, max_queue_length=2, record_trace=True)
        ).run(tasks)
        events = result.metrics.trace
        assert events
        for ev in events:
            assert ev.enqueue is not None
            assert ev.enqueue <= ev.start <= ev.end
            assert ev.wait == pytest.approx(ev.start - ev.enqueue)
        # Some GPU tasks in a contended run actually waited.
        assert any(ev.wait > 0 for ev in events if ev.placement == "gpu")
