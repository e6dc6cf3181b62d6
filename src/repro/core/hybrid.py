"""The end-to-end hybrid runner — the architecture of Fig. 2.

The main program divides the parameter space into equal subspaces (one or
more grid points per MPI rank); each rank walks its tasks through one
loop: prep, ``SCHE-ALLOC``, then a GPU run (released by ``SCHE-FREE``)
or, when every queue is full, a run on the rank's own CPU with the
serial QAGS routine.

Every scheduler drives that same loop; what differs is data chosen from
the config:

- the *admission price* — one slot for the depth schedulers, or the
  predicted seconds of the online EWMA cost model for ``predictive``;
- the *submission route* — straight to the chosen GPU, or through the
  per-device predictive dispatch queues (where idle devices steal);
- the *in-flight window* — ``async_depth``: 0 blocks the rank on each
  GPU task (the paper's synchronous mode); n > 0 keeps up to n in flight
  (the paper's "future work" asynchronous mode).

Besides the hybrid run, the runner prices the two baselines every speedup
in the paper is quoted against:

- :meth:`HybridRunner.serial_time` — the original serial APEC;
- :meth:`HybridRunner.run_mpi_only` — the 24-rank pure-MPI version
  (13.5x over serial, per the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Optional

import numpy as np

from repro.cluster.simclock import SimClock
from repro.core.calibration import CostModel
from repro.core.metrics import MetricsLedger, RunResult, TaskEvent
from repro.obs.attribution import ion_from_label
from repro.obs.bus import RunBus
from repro.obs.tracer import NULL_TRACER
from repro.obs.tsdb import NULL_TSDB
from repro.core.scheduler import (
    NO_DEVICE,
    ClientServerScheduler,
    PredictiveScheduler,
    RandomScheduler,
    SharedMemoryScheduler,
    WeightedScheduler,
)
from repro.core.task import Task
from repro.gpusim.device import DeviceSpec, SimulatedGPU, TESLA_C2075

__all__ = ["HybridConfig", "HybridRunner"]


@dataclass(frozen=True)
class HybridConfig:
    """Knobs of one hybrid run (paper defaults: 24 ranks, Fermi GPUs)."""

    n_workers: int = 24
    n_gpus: int = 3
    max_queue_length: int = 12
    device: DeviceSpec = TESLA_C2075
    #: Optional heterogeneous fleet: one spec per GPU (overrides
    #: ``device`` x ``n_gpus``).  The paper's node is homogeneous; mixed
    #: fleets exercise the scheduler's "tasks of equal size" assumption.
    devices: Optional[tuple[DeviceSpec, ...]] = None
    cost: CostModel = field(default_factory=CostModel)
    #: "shared" (Algorithm 1), "client-server" (MPS-like ablation),
    #: "random" (policy baseline), "weighted" (the future-work speed-aware
    #: rule; uses each device's mean service time for a reference task),
    #: "predictive" (measured-cost placement via the online EWMA cost
    #: model, with work stealing in the dispatch loop).
    scheduler_kind: str = "shared"
    rpc_latency_s: float = 5.0e-4
    #: 0 = synchronous (the paper's implementation); n > 0 allows each
    #: rank n outstanding GPU tasks (the "future work" asynchronous mode).
    async_depth: int = 0
    #: Per-rank start offset modelling real MPI startup skew (ranks never
    #: hit the scheduler in perfect lockstep); 0.2 s spreads the 24 ranks
    #: over ~5 s, killing the artificial t=0 admission burst.
    stagger_s: float = 0.2
    #: Tie-breaking rule among equally loaded devices ("history" = the
    #: paper's minimum-history rule; "first" = positional, for ablation).
    tie_break: str = "history"
    #: Record a per-task TaskEvent timeline in the metrics ledger
    #: (off by default: ~12k events per paper-scale run).
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.n_gpus < 0:
            raise ValueError("GPU count must be non-negative")
        if self.max_queue_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        if self.scheduler_kind not in (
            "shared", "client-server", "random", "weighted", "predictive"
        ):
            raise ValueError(f"unknown scheduler kind {self.scheduler_kind!r}")
        if self.async_depth < 0:
            raise ValueError("async_depth must be non-negative")
        if self.scheduler_kind == "predictive" and self.async_depth > 0:
            raise ValueError(
                "predictive scheduling dispatches through per-device "
                "workers; async_depth applies only to direct-submit modes"
            )
        if self.devices is not None and len(self.devices) != self.n_gpus:
            raise ValueError(
                f"devices tuple has {len(self.devices)} entries for "
                f"n_gpus={self.n_gpus}"
            )


class HybridRunner:
    """Runs task lists through the simulated hybrid node.

    ``tracer`` (default: the no-op tracer) receives per-task spans with
    placement-decision attributes (queue loads, history counts, chosen
    device), queue-wait sub-spans, per-device load counters, and batch
    spans; ``scope`` names the trace process grouping the node's tracks
    (the service broker sets it to the owning worker's name).

    ``tsdb`` (default: the no-op :data:`~repro.obs.tsdb.NULL_TSDB`)
    receives continuous telemetry: each batch scrapes a live registry of
    the ledger's state at its start and end, plus every
    ``scrape_cadence_s`` of virtual time in between via a cadence
    process on the batch's clock.  Scraping is pure observation — the
    simulated schedule is bit-identical with or without it.
    """

    def __init__(
        self,
        config: HybridConfig | None = None,
        tracer=None,
        scope: str = "hybrid",
        tsdb=None,
        scrape_cadence_s: float = 0.5,
        span_cost_model=None,
    ) -> None:
        self.config = config or HybridConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scope = scope
        self.tsdb = tsdb if tsdb is not None else NULL_TSDB
        if scrape_cadence_s <= 0.0:
            raise ValueError("scrape_cadence_s must be positive")
        self.scrape_cadence_s = scrape_cadence_s
        #: Online EWMA :class:`~repro.obs.attribution.CostModel` backing
        #: predictive placement.  ``None`` lazily seeds one from the
        #: config's device spec + the kernel-savings ledger on the first
        #: predictive batch; the broker passes its shared (possibly
        #: persisted) model so every batch prices from the same history.
        self.span_cost_model = span_cost_model

    # ------------------------------------------------------------------
    # Observability handles
    # ------------------------------------------------------------------
    def registry(self, result, wall_s: float | None = None):
        """Metrics snapshot of one finished run's ledger.

        Thin handle over :func:`repro.obs.prom.run_registry`, so the SLO
        engine and exposition writers can consume a run without knowing
        the registry module.
        """
        from repro.obs.prom import run_registry

        return run_registry(result, wall_s=wall_s)

    def profile(self):
        """Hierarchical cost attribution over this runner's trace.

        Requires the runner to have been built with an
        :class:`~repro.obs.tracer.EventTracer` and at least one batch to
        have run through it.
        """
        from repro.obs.profile import Profile

        if not self.tracer.enabled:
            raise ValueError(
                "runner has no event tracer; construct it with "
                "tracer=EventTracer() to profile"
            )
        return Profile.from_tracer(self.tracer)

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def serial_time(self, tasks: list[Task]) -> float:
        """Wall time of the original serial APEC on this workload."""
        cost = self.config.cost
        total = 0.0
        points = set()
        for task in tasks:
            total += cost.cpu_task_serial_s(task.n_integrals, task.cpu_evals_per_integral)
            total += cost.prep_s(task.n_levels)
            points.add(task.point_index)
        return total + len(points) * cost.point_overhead_s

    def run_mpi_only(self, tasks: list[Task]) -> RunResult:
        """The pure-MPI baseline: every task on its rank's CPU."""
        cost = self.config.cost
        per_worker = self._partition(tasks)
        makespans = []
        metrics = MetricsLedger(0, self.config.max_queue_length)
        for my_tasks in per_worker:
            t = 0.0
            points = set()
            for task in my_tasks:
                points.add(task.point_index)
                t += cost.prep_s(task.n_levels)
                t += cost.cpu_task_mpi_s(task.n_integrals, task.cpu_evals_per_integral)
                metrics.on_cpu_task()
            t += len(points) * cost.point_overhead_s
            makespans.append(t)
        makespan = max(makespans) if makespans else 0.0
        metrics.finalize(makespan)
        return RunResult(
            makespan_s=makespan, metrics=metrics, n_tasks=len(tasks), mode="mpi"
        )

    # ------------------------------------------------------------------
    # The hybrid run
    # ------------------------------------------------------------------
    def run(self, tasks: list[Task]) -> RunResult:
        """Simulate the full hybrid execution; returns the run result."""
        clock = SimClock()
        handle = self.spawn_batch(tasks, clock)
        clock.run()
        if handle.alive:
            # The event heap drained with ranks still blocked: a device
            # died with tasks in flight and their waiters are stranded.
            raise RuntimeError(
                "hybrid run stalled: stranded waiters leaked queue slots"
            )
        result = handle.result
        assert isinstance(result, RunResult)
        return result

    def spawn_batch(self, tasks: list[Task], clock: SimClock, name: str = "batch"):
        """Start one batch as a process on an *existing* clock.

        This is the reusable per-batch entry point the service broker
        dispatches through: the batch runs embedded in the caller's
        simulation (its ranks, scheduler, and GPUs live on the shared
        clock), and the returned :class:`ProcessHandle` can be yielded
        from another process to join.  ``handle.result`` is the batch's
        :class:`RunResult`; its ``makespan_s`` is the batch's *elapsed*
        virtual time, not the absolute clock reading.
        """
        if self.tracer.enabled and not self.tracer.bound:
            self.tracer.bind(clock)
        return clock.spawn(self._batch_process(tasks, clock, name), name=name)

    def _batch_process(
        self, tasks: list[Task], clock: SimClock, name: str = "batch"
    ) -> Generator:
        """Generator process executing one batch; returns its RunResult."""
        cfg = self.config
        tracer = self.tracer
        start = clock.now
        metrics = MetricsLedger(cfg.n_gpus, cfg.max_queue_length, start_time=start)
        metrics.evals_saved = sum(t.kernel.evals_saved for t in tasks)
        device_tracks = (
            [tracer.track(self.scope, f"gpu{d}") for d in range(cfg.n_gpus)]
            if tracer.enabled
            else [0] * cfg.n_gpus
        )
        batch_track = tracer.track(self.scope, "batches") if tracer.enabled else 0
        # The bus is the single ingestion point: the ledger (and, when
        # tracing, the span tracer) consume the same event stream.
        bus = RunBus(metrics, tracer, device_tracks)
        specs = cfg.devices or tuple(cfg.device for _ in range(cfg.n_gpus))
        if cfg.scheduler_kind == "client-server":
            sched: SharedMemoryScheduler = ClientServerScheduler(
                cfg.n_gpus, cfg.max_queue_length, cfg.rpc_latency_s, bus,
                tie_break=cfg.tie_break,
            )
        elif cfg.scheduler_kind == "random":
            sched = RandomScheduler(cfg.n_gpus, cfg.max_queue_length, bus)
        elif cfg.scheduler_kind == "weighted":
            reference = tasks[0].kernel if tasks else None
            service = [
                specs[d].service_time(reference) if reference is not None else 1.0
                for d in range(cfg.n_gpus)
            ]
            sched = WeightedScheduler(
                cfg.n_gpus, cfg.max_queue_length, service, bus
            )
        elif cfg.scheduler_kind == "predictive":
            sched = PredictiveScheduler(
                cfg.n_gpus, cfg.max_queue_length, bus, tie_break=cfg.tie_break
            )
        else:
            sched = SharedMemoryScheduler(
                cfg.n_gpus, cfg.max_queue_length, bus, tie_break=cfg.tie_break
            )
        gpus = [
            SimulatedGPU(
                clock, specs[d], index=d, tracer=tracer, track=device_tracks[d]
            )
            for d in range(cfg.n_gpus)
        ]
        spectra: dict[int, np.ndarray] = {}

        if cfg.scheduler_kind == "predictive":
            if self.span_cost_model is None:
                from repro.obs.attribution import CostModel as SpanCostModel

                self.span_cost_model = SpanCostModel.seeded_from_counters(
                    cfg.device
                )
            route = _PredictiveDispatch(
                clock, sched, gpus, bus, self.span_cost_model
            )
            for d in range(cfg.n_gpus):
                for slot in range(specs[d].max_concurrent_kernels):
                    clock.spawn(
                        route.device_worker(d),
                        name=f"{name}.gpu{d}.disp{slot}",
                    )
        else:
            route = _DirectSubmit(clock, sched, gpus, bus)

        handles = []
        for rank, my_tasks in enumerate(self._partition(tasks)):
            rank_track = (
                tracer.track(self.scope, f"rank{rank}") if tracer.enabled else 0
            )
            handles.append(clock.spawn(
                self._worker(
                    rank, my_tasks, clock, sched, route, bus, spectra, rank_track
                ),
                name=f"rank{rank}",
            ))

        # Continuous telemetry: scrape the ledger's live state at the
        # batch boundaries and on a cadence process in between.  Pure
        # observation — the workers' schedule is untouched.
        batch_done = [False]
        if self.tsdb.enabled:
            self.tsdb.scrape(self._live_registry(metrics, cfg.n_gpus), clock.now)

            def scraper() -> Generator:
                while True:
                    yield self.scrape_cadence_s
                    if batch_done[0]:
                        return
                    self.tsdb.scrape(
                        self._live_registry(metrics, cfg.n_gpus), clock.now
                    )

            clock.spawn(scraper(), name=f"{name}.scraper")

        for handle in handles:
            yield handle
        batch_done[0] = True
        route.close()
        makespan = clock.now - start
        metrics.finalize(clock.now)
        if self.tsdb.enabled:
            # Boundary scrape on the finalized ledger.
            self.tsdb.scrape(self._live_registry(metrics, cfg.n_gpus), clock.now)
        sched.validate()
        if sched.segment.total_load() != 0:
            raise RuntimeError("scheduler leaked queue slots at end of run")
        if sched.segment.total_backlog() != 0:
            raise RuntimeError(
                "scheduler leaked predicted backlog at end of run"
            )
        if tracer.enabled:
            tracer.complete(
                batch_track,
                name,
                start,
                cat="batch",
                args={
                    "n_tasks": len(tasks),
                    "gpu_tasks": int(metrics.gpu_tasks.sum()),
                    "cpu_tasks": metrics.cpu_tasks,
                    "evals_saved": metrics.evals_saved,
                },
            )
        return RunResult(
            makespan_s=makespan,
            metrics=metrics,
            n_tasks=len(tasks),
            mode="hybrid",
            spectra=spectra,
            gpu_utilization=[g.utilization(makespan) for g in gpus],
        )

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _worker(
        self, rank, my_tasks, clock, sched, route, bus, spectra, rank_track=0
    ) -> Generator:
        """One rank of Fig. 2: per task, prep, SCHE-ALLOC, a GPU or CPU run.

        ``route`` prices the admission and carries an admitted task to a
        GPU; ``async_depth`` sets the in-flight window.  At depth 0 the
        rank blocks on each GPU task, so its spectra accumulate in its
        own task order whichever device ends up running a task.  At
        depth n the rank keeps up to n GPU tasks in flight and settles
        each from a completion callback, so a queue slot frees the
        instant its task finishes rather than when the rank next wakes.
        """
        cfg = self.config
        cost = cfg.cost
        tracer = self.tracer
        # Completion signals of in-flight GPU tasks, oldest first.
        window: deque = deque()

        def settle(entry: _PendingTask, payload, started: float) -> None:
            """Book one finished GPU task: its result, span and event."""
            task = entry.task
            self._accumulate(spectra, task, payload)
            if tracer.enabled:
                if entry.wait_s > 0.0:
                    tracer.span(
                        rank_track, "queue-wait", entry.enqueued_at,
                        entry.exec_started, cat="wait",
                        args={"device": entry.executed_device},
                        parent=entry.span_id,
                    )
                args = {"placement": "gpu", "device": entry.executed_device}
                if entry.cost_s is not None:
                    args["stolen"] = entry.executed_device != entry.device
                    args["predicted_s"] = entry.cost_s
                args["wait_s"] = entry.wait_s
                args["service_s"] = entry.service_s
                tracer.complete(
                    rank_track,
                    task.label or f"task{task.task_id}",
                    started,
                    cat="task",
                    args=args,
                    id=entry.span_id,
                    parent=task.trace_parent or None,
                )
            if cfg.record_trace:
                bus.on_task_event(TaskEvent(
                    rank=rank, task_id=task.task_id, placement="gpu",
                    device=entry.executed_device, start=entry.exec_started,
                    end=clock.now, enqueue=entry.enqueued_at,
                ))

        def on_done(payload, entry: _PendingTask, started: float) -> None:
            route.measure(entry)
            route.release(entry)
            settle(entry, payload, started)

        yield rank * cfg.stagger_s
        point_share = self._point_share(my_tasks)
        for task in my_tasks:
            started = clock.now
            # One span id per task: the gpusim sub-spans parent under it,
            # and it parents under whatever compiled the task (megabatch
            # group span or request root) via task.trace_parent.
            span_id = tracer.new_id() if tracer.enabled else 0
            # Per-point overhead (I/O, ion balance) is interleaved with the
            # task loop in APEC, so it is amortized across the point's
            # tasks rather than paid as a serial prelude that would starve
            # the GPUs at startup.
            yield cost.prep_s(task.n_levels) + point_share[task.point_index]
            while window and len(window) >= cfg.async_depth:
                yield window.popleft()
            if sched.rpc_latency_s:
                yield sched.rpc_latency_s
            price = route.price(task)
            if tracer.enabled:
                decision = {"loads": sched.loads(), "histories": sched.histories()}
                if price is not None:
                    decision["backlogs_s"] = sched.backlogs_s()
                    decision["predicted_s"] = price
            if price is None:
                device = sched.sche_alloc(clock.now)
            else:
                device = sched.sche_alloc(clock.now, cost_s=price)
            if tracer.enabled:
                tracer.instant(
                    rank_track,
                    "sche_alloc",
                    cat="sched",
                    args={"chosen": device, **decision, "task_id": task.task_id},
                )
            if device != NO_DEVICE:
                yield cost.submit_overhead_s
                entry = route.submit(device, task, price, span_id)
                if not entry.failed:
                    if cfg.async_depth:
                        entry.done.add_callback(
                            clock, partial(on_done, entry=entry, started=started)
                        )
                        window.append(entry.done)
                        continue
                    payload = yield entry.done
                if not entry.failed:
                    route.measure(entry)
                    if sched.rpc_latency_s:
                        yield sched.rpc_latency_s
                    route.release(entry)
                    settle(entry, payload, started)
                    continue
                # The device died after admission: the route released the
                # slot; revoke the phantom admission and degrade to the
                # CPU path (the task must not vanish, the queue not leak).
                bus.on_admission_revoked(entry.executed_device)
            bus.on_cpu_task()
            cpu_started = clock.now
            yield cost.cpu_task_fallback_s(task.n_integrals, task.cpu_evals_per_integral)
            self._accumulate(spectra, task, task.run_cpu())
            if tracer.enabled:
                tracer.complete(
                    rank_track,
                    task.label or f"task{task.task_id}",
                    started,
                    cat="task",
                    args={"placement": "cpu", "device": -1, "wait_s": 0.0},
                    id=span_id,
                    parent=task.trace_parent or None,
                )
            if cfg.record_trace:
                bus.on_task_event(TaskEvent(
                    rank=rank, task_id=task.task_id, placement="cpu",
                    device=-1, start=cpu_started, end=clock.now,
                    enqueue=cpu_started,
                ))
        for sig in window:
            yield sig

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _live_registry(metrics: MetricsLedger, n_gpus: int):
        """A registry snapshot of the ledger's *live* mid-run state.

        Unlike :func:`repro.obs.prom.run_registry` (which needs a
        finished :class:`RunResult`), this reads the incremental fields
        a running batch maintains — task placements, instantaneous
        device loads, evals saved — so the cadence scraper can observe
        a batch while it executes.
        """
        from repro.obs.prom import MetricsRegistry

        reg = MetricsRegistry()
        tasks = reg.counter(
            "repro_node_tasks_total",
            "Tasks completed so far by placement.",
            ("placement",),
        )
        tasks.inc(float(metrics.gpu_tasks.sum()), placement="gpu")
        tasks.inc(float(metrics.cpu_tasks), placement="cpu")
        load = reg.gauge(
            "repro_node_device_load",
            "Instantaneous admitted queue length per device.",
            ("device",),
        )
        for d in range(n_gpus):
            load.set(float(metrics._current_load[d]), device=str(d))
        saved = reg.counter(
            "repro_node_evals_saved_total",
            "Kernel evaluations elided by active-window pruning.",
        )
        saved.inc(float(metrics.evals_saved))
        return reg

    def _partition(self, tasks: list[Task]) -> list[list[Task]]:
        """Equal sub-spaces: rank r owns the points with index % n == r."""
        n = self.config.n_workers
        out: list[list[Task]] = [[] for _ in range(n)]
        for task in tasks:
            out[task.point_index % n].append(task)
        return out

    def _point_share(self, my_tasks: list[Task]) -> dict[int, float]:
        """Per-task share of the per-point overhead, for each owned point."""
        counts: dict[int, int] = {}
        for task in my_tasks:
            counts[task.point_index] = counts.get(task.point_index, 0) + 1
        overhead = self.config.cost.point_overhead_s
        return {p: overhead / c for p, c in counts.items()}

    @staticmethod
    def _accumulate(spectra: dict, task: Task, payload: object) -> None:
        if payload is None:
            return
        arr = np.asarray(payload, dtype=np.float64)
        existing = spectra.get(task.point_index)
        if existing is None:
            spectra[task.point_index] = arr.copy()
        else:
            existing += arr


# ----------------------------------------------------------------------
# Submission routes: direct submit, predictive dispatch + work stealing
# ----------------------------------------------------------------------
def _task_cost_key(task: Task) -> tuple[str, str, int]:
    """(ion, method, evals) — one task's cost-model axes."""
    label = task.kernel.label or task.label
    return ion_from_label(label), task.cost_key_method, task.kernel.total_evals


class _PendingTask:
    """One admitted GPU task, from submission to completion."""

    __slots__ = (
        "task", "cost_s", "span_id", "device", "enqueued_at", "done",
        "executed_device", "exec_started", "wait_s", "service_s", "failed",
    )

    def __init__(self, task, cost_s, span_id, device, now, done=None):
        self.task = task
        #: Predicted cost at admission time (``None`` when admission is
        #: priced in slots) — the exact value added to the segment
        #: backlog, carried so free/steal remove it exactly.
        self.cost_s = cost_s
        self.span_id = span_id
        #: The device SCHE-ALLOC admitted the task to.
        self.device = device
        self.enqueued_at = now
        self.done = done
        # Set once the task runs (by the route, or the device that ran it):
        self.executed_device = -1
        self.exec_started = 0.0
        self.wait_s = 0.0
        self.service_s = 0.0
        self.failed = False


class _DirectSubmit:
    """The depth schedulers' route: submit straight to the admitted GPU.

    Admission costs one slot (``price`` is ``None``).  The rank, or its
    completion callback, measures each task and releases its slot when
    the GPU's own completion signal fires — no queue hop in between.
    """

    def __init__(self, clock, sched, gpus, bus):
        self.clock = clock
        self.sched = sched
        self.gpus = gpus
        self.bus = bus

    def price(self, task: Task) -> None:
        return None

    def submit(self, device, task, cost_s, span_id) -> _PendingTask:
        entry = _PendingTask(task, cost_s, span_id, device, self.clock.now)
        entry.executed_device = device
        try:
            entry.done = self.gpus[device].submit(task.kernel, parent=span_id)
        except RuntimeError:
            # The device died between admission and submission.
            self.sched.sche_free(device, self.clock.now)
            entry.failed = True
        return entry

    def measure(self, entry: _PendingTask) -> None:
        """Book the finished task's queue wait and modelled service time."""
        service = self.gpus[entry.device].spec.service_time(entry.task.kernel)
        entry.service_s = service
        entry.wait_s = max(0.0, self.clock.now - entry.enqueued_at - service)
        entry.exec_started = entry.enqueued_at + entry.wait_s
        self.bus.on_task_timing(wait_s=entry.wait_s, service_s=service)

    def release(self, entry: _PendingTask) -> None:
        self.sched.sche_free(entry.device, self.clock.now)

    def close(self) -> None:
        pass


class _PredictiveDispatch:
    """Per-device dispatch queues with work stealing.

    Admission is priced in predicted seconds from the online cost model.
    Rank workers enqueue admitted tasks here instead of submitting to
    the device directly; one dispatch worker per device kernel slot
    drains its own queue head-first (FIFO — admission order, matching
    the direct-submit route), and an idle device pulls from the *tail*
    of the pending queue with the largest summed predicted backlog (ties
    to the lowest index).  The steal rebalances slot + predicted ticks
    on the shared segment through :meth:`PredictiveScheduler.on_steal`,
    so conservation is validated at end of run exactly as for unstolen
    tasks.  The dispatch worker, not the rank, measures each task and
    releases its slot.

    Relocating a task never changes its result — placement prices
    answers, it does not compute them — and each rank still blocks per
    task, so spectra are bit-identical to the depth schedulers'.
    """

    def __init__(self, clock, sched, gpus, bus, model):
        self.clock = clock
        self.sched = sched
        self.gpus = gpus
        self.bus = bus
        self.model = model
        self.pending: list[deque] = [deque() for _ in gpus]
        self._idle: list = []
        self.closed = False

    def price(self, task: Task) -> float:
        """Predicted device seconds of ``task``."""
        return self.model.predict(*_task_cost_key(task))

    def submit(self, device, task, cost_s, span_id) -> _PendingTask:
        """Park one admitted task on ``device``'s queue; wake idle workers."""
        entry = _PendingTask(
            task, cost_s, span_id, device, self.clock.now,
            self.clock.signal(f"task{task.task_id}.done"),
        )
        self.pending[device].append(entry)
        self._wake_all(prefer=device)
        return entry

    def measure(self, entry: _PendingTask) -> None:
        """Already booked by the dispatch worker that ran the task."""

    def release(self, entry: _PendingTask) -> None:
        """Already released by the dispatch worker that ran the task."""

    def close(self) -> None:
        """All ranks joined: let idle dispatch workers exit."""
        self.closed = True
        self._wake_all()

    def _wake_all(self, prefer: int = -1) -> None:
        """Wake every idle worker; ``prefer``'s own workers step first.

        Waking is a same-instant schedule, so ordering decides who claims
        a fresh entry: the owning device gets first refusal, and another
        device steals it only when the owner's slots are all busy.
        """
        waiters, self._idle = self._idle, []
        waiters.sort(key=lambda pair: pair[0] != prefer)
        for _d, sig in waiters:
            sig.fire(self.clock)

    def _steal_from(self, thief: int) -> Optional[_PendingTask]:
        """Pull the tail task of the most-backlogged pending queue."""
        best = -1
        best_ticks = 0
        for d, queue in enumerate(self.pending):
            if d == thief or not queue:
                continue
            ticks = sum(
                PredictiveScheduler.cost_ticks(e.cost_s) for e in queue
            )
            if best < 0 or ticks > best_ticks:
                best, best_ticks = d, ticks
        if best < 0:
            return None
        entry = self.pending[best].pop()
        self.sched.on_steal(best, thief, self.clock.now, cost_s=entry.cost_s)
        return entry

    def device_worker(self, device: int) -> Generator:
        """One kernel slot's drain loop: own head, else steal, else idle."""
        clock = self.clock
        sched = self.sched
        gpu = self.gpus[device]
        while True:
            entry = None
            if self.pending[device]:
                entry = self.pending[device].popleft()
            elif (
                not gpu.failed
                and sched.queues[device].load < sched.max_queue_length
            ):
                entry = self._steal_from(device)
            if entry is None:
                if self.closed and not any(self.pending):
                    return
                sig = clock.signal(f"gpu{device}.disp.idle")
                self._idle.append((device, sig))
                yield sig
                continue
            try:
                gpu_done = gpu.submit(entry.task.kernel, parent=entry.span_id)
            except RuntimeError:
                # Device died after admission: release the slot, flag the
                # entry; the owning rank revokes the placement count and
                # degrades to the CPU path.  Keep looping so later
                # entries (enqueued or stolen here) fail fast too.
                sched.sche_free(device, clock.now, cost_s=entry.cost_s)
                entry.executed_device = device
                entry.failed = True
                entry.done.fire(clock, None)
                continue
            entry.exec_started = clock.now
            payload = yield gpu_done
            measured = clock.now - entry.exec_started
            entry.executed_device = device
            entry.service_s = measured
            entry.wait_s = entry.exec_started - entry.enqueued_at
            self.model.observe(*_task_cost_key(entry.task), measured)
            self.bus.on_prediction(entry.cost_s, measured)
            self.bus.on_task_timing(wait_s=entry.wait_s, service_s=measured)
            sched.sche_free(device, clock.now, cost_s=entry.cost_s)
            entry.done.fire(clock, payload)
