"""Per-task trace recording (timeline export)."""

import pytest

from repro.atomic.database import AtomicConfig
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.metrics import TaskEvent


def _traced(async_depth):
    tasks = build_tasks(
        WorkloadSpec(n_points=2, bins_per_level=2_000, db_config=AtomicConfig.tiny())
    )
    runner = HybridRunner(
        HybridConfig(
            n_workers=2, n_gpus=1, max_queue_length=2, record_trace=True,
            async_depth=async_depth,
        )
    )
    return tasks, runner.run(tasks)


@pytest.fixture(scope="module")
def traced_run():
    return _traced(0)


@pytest.fixture(
    scope="module", params=[0, 4], ids=lambda d: f"async_depth={d}"
)
def traced_run_any_mode(request):
    """A traced run with ranks blocking per task, or 4 tasks in flight."""
    return _traced(request.param)


class TestTraceRecording:
    def test_every_task_appears_once(self, traced_run_any_mode):
        tasks, result = traced_run_any_mode
        ids = [ev.task_id for ev in result.metrics.trace]
        assert sorted(ids) == [t.task_id for t in tasks]

    def test_events_well_formed(self, traced_run_any_mode):
        _tasks, result = traced_run_any_mode
        assert result.metrics.trace
        for ev in result.metrics.trace:
            assert ev.end > ev.start >= 0.0
            assert ev.duration == ev.end - ev.start
            assert ev.placement in ("gpu", "cpu")
            assert (ev.device >= 0) == (ev.placement == "gpu")

    def test_events_within_makespan(self, traced_run_any_mode):
        _tasks, result = traced_run_any_mode
        assert result.metrics.trace
        for ev in result.metrics.trace:
            assert ev.end <= result.makespan_s + 1e-9

    def test_task_timing_per_gpu_task(self, traced_run_any_mode):
        _tasks, result = traced_run_any_mode
        m = result.metrics
        assert int(m.gpu_tasks.sum()) > 0
        assert len(m.task_waits) == int(m.gpu_tasks.sum())
        assert len(m.task_services) == len(m.task_waits)

    def test_rank_task_intervals_disjoint(self, traced_run):
        """A synchronous rank works one task at a time."""
        _tasks, result = traced_run
        by_rank: dict[int, list[TaskEvent]] = {}
        for ev in result.metrics.trace:
            by_rank.setdefault(ev.rank, []).append(ev)
        for events in by_rank.values():
            events.sort(key=lambda e: e.start)
            for a, b in zip(events, events[1:]):
                assert b.start >= a.end - 1e-9

    def test_gantt_rows_lane_mapping(self, traced_run):
        _tasks, result = traced_run
        rows = result.metrics.gantt_rows()
        assert len(rows) == len(result.metrics.trace)
        for lane, label, start, end in rows:
            assert end > start
            if label.startswith("gpu"):
                assert lane >= 1000

    def test_trace_off_by_default(self):
        tasks = build_tasks(
            WorkloadSpec(n_points=1, bins_per_level=1_000, db_config=AtomicConfig.tiny())
        )
        res = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2)
        ).run(tasks)
        assert res.metrics.trace == []


class TestChromeTrace:
    def test_export_shape(self, traced_run):
        import json

        _tasks, result = traced_run
        events = result.metrics.to_chrome_trace()
        assert len(events) == len(result.metrics.trace)
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["dur"] > 0.0
            assert ev["cat"] in ("gpu", "cpu")
        # Must be JSON-serializable as-is.
        json.dumps(events)

    def test_gpu_events_grouped_by_device_pid(self, traced_run):
        _tasks, result = traced_run
        events = result.metrics.to_chrome_trace()
        gpu_events = [e for e in events if e["cat"] == "gpu"]
        assert gpu_events
        assert all(e["pid"] == 1 for e in gpu_events)
