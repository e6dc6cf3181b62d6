"""Wall-clock benchmark of the spectral calculator at paper scale.

    python3 perfbench/run.py --workload sweep_pruned --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run times the
workload untraced and reports the end-to-end metrics; with ``--trace 1``
it wraps each layer's public functions, records spans, and reports the
per-layer metrics (spans go to ``perfbench/out/``).  Every output is
checked against the reference path.  The last stdout line is the result
object; the line before it records the host and thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fit temperatures re-run as overhead pairs in the traced fit.
OVERHEAD_PAIRS = 3

END_TO_END = {
    "spectrum_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "atomic.levels_s": "s",
    "atomic.levels": "count",
    "ionbalance.ion_density_s": "s",
    "ionbalance.calls": "count",
    "windows.level_windows_s": "s",
    "windows.active_pairs": "count",
    "windows.active_frac": "ratio",
    "apec.kernel_s": "s",
    "apec.kernel_calls": "count",
    "apec.evals": "count",
    "apec.evals_per_s": "1/s",
    "lines.s": "s",
    "brems.s": "s",
    "fitting.evals": "count",
    "fitting.response_s": "s",
    "parallel.map_s": "s",
    "parallel.overhead_s": "s",
    "parallel.map_chunks": "count",
    "parallel.map_items": "count",
    "parallel.pool_creates": "count",
    "parallel.pool_reuses": "count",
    "parallel.ipc_bytes": "bytes",
    "parallel.efficiency": "ratio",
    "plan.compile_s": "s",
    "plan.execute_s": "s",
    "plan.vs_per_ion": "ratio",
    "plan.max_rel_err": "ratio",
    "trace.spectrum_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "max_rel_err": "ratio",
    "fit_t_rel_err": "ratio",
}


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# -- set-up ------------------------------------------------------------------
class Setup:
    """Everything before the first timed spectrum: imports, level build,
    model construction and, for the process backend, pool start."""

    def __init__(self, workload, tracer=None) -> None:
        from repro.atomic.database import AtomicConfig, AtomicDatabase
        from workloads import (
            SWEEP_T_RANGE_K, grid_point, make_grid, make_model, make_response,
        )

        self.db = AtomicDatabase(AtomicConfig())
        if tracer is not None:
            tracer.active = True
        self.db.total_levels()  # builds every ion's levels (lazy otherwise)
        if tracer is not None:
            tracer.active = False
        self.grid = make_grid(workload)
        self.jobs = env.nproc() if workload.backend == "process" else 1
        self.model = make_model(
            workload, self.db, self.grid,
            jobs=self.jobs if workload.backend == "process" else None,
        )
        self.response = (
            make_response(self.grid) if workload.name == "fit_temperature" else None
        )
        if workload.backend == "process":
            # Start the pool (every worker) on a few ions before timing.
            self.model.compute(
                grid_point(SWEEP_T_RANGE_K[0]), ions=self.db.ions[: self.jobs]
            )

    def close(self) -> None:
        from repro.parallel.executor import shutdown_warm_pools

        self.model.close()
        shutdown_warm_pools()


def setup_samples(workload_name: str) -> list[float]:
    """Wall seconds from process launch to a ready model, per fresh probe."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload_name]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus its live children."""
    pids = [str(os.getpid())]
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += (task / "children").read_text().split()
        except OSError:
            pass
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# -- correctness ---------------------------------------------------------------
class Checks:
    """Per-operation checks against the reference path.

    Every spectrum and every fitted temperature is one attempted operation;
    a raise (recorded as ``None``), a non-finite output or a failed check
    counts it as failed.  The first passing spectrum is also corrupted on
    purpose, and the check must reject every corrupted copy.
    """

    def __init__(self, kind: str, store) -> None:
        self.kind = kind
        self.store = store
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.fit_err = 0.0
        self.self_check_ok: bool | None = None

    def spectrum(self, temperature_k: float, values, diagnostic: bool = False) -> float:
        """Check one spectrum; a ``diagnostic`` path's error is returned but
        kept out of ``max_err``."""
        from reference import check_spectrum, self_check

        self.attempted += 1
        if values is None:
            self.failed += 1
            return float("inf")
        ref = self.store.spectrum(temperature_k)
        ok, err = check_spectrum(self.kind, values, ref)
        if not diagnostic:
            self.max_err = max(self.max_err, err)
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED spectrum at T={temperature_k!r}: "
                  f"max_rel_err={err!r}", file=sys.stderr)
        elif self.self_check_ok is None:
            self.self_check_ok = self_check(self.kind, values, ref)
        return err

    def fit(self, t_fit: float | None, case) -> None:
        from reference import FIT_T_RTOL

        self.attempted += 1
        err = float("inf") if t_fit is None else abs(t_fit - case.t_ref) / case.t_ref
        self.fit_err = max(self.fit_err, err)
        if not err <= FIT_T_RTOL:
            self.failed += 1
            print(f"perfbench: FAILED fit: T_fit={t_fit!r} T_ref={case.t_ref!r}",
                  file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.self_check_ok is True


def guarded(fn, *args, **kwargs):
    """Call ``fn``; a raise is reported and returned as ``None``."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # an operation's failure is a result, not a crash
        traceback.print_exc()
        return None


def values_of(spectrum):
    return None if spectrum is None else spectrum.values


def fit_once(model, setup, case):
    from repro.physics.fitting import fit_temperature
    from workloads import FIT_BRACKET_K, NE_CM3

    result = guarded(
        fit_temperature, model, case.observed, setup.response, case.exposure,
        t_bounds=FIT_BRACKET_K, ne_cm3=NE_CM3,
    )
    return None if result is None else result.temperature_k


def deadline_reached(start: float, seconds: float, op_seconds: list[float]) -> bool:
    """Closed loop under a time budget: start the next operation only if a
    typical one still ends inside it (the first always runs)."""
    return bool(op_seconds) and (
        time.perf_counter() - start + median(op_seconds) > seconds
    )


# -- untraced runs -------------------------------------------------------------
def timed_sweep(setup, temps, seconds, checks) -> dict:
    from workloads import grid_point

    times, outputs = [], []
    start = time.perf_counter()
    for t in temps:
        if deadline_reached(start, seconds, times):
            break
        t0 = time.perf_counter()
        values = values_of(guarded(setup.model.compute, grid_point(t)))
        times.append(time.perf_counter() - t0)
        outputs.append((t, values))
    for t, values in outputs:
        checks.spectrum(t, values)
    return {"spectrum_s": median(times), "solve_s": median(times)}


def timed_fits(setup, store, cases, seconds, checks) -> dict:
    from reference import Recording

    solves, evals, done = [], [], []
    start = time.perf_counter()
    for k in cases:
        if deadline_reached(start, seconds, solves):
            break
        case = store.fit_case(k)
        rec = Recording(setup.model)
        t0 = time.perf_counter()
        t_fit = fit_once(rec, setup, case)
        solves.append(time.perf_counter() - t0)
        evals += rec.seconds
        done.append((case, t_fit, rec.outputs))
    for case, t_fit, outputs in done:
        for t, values in outputs:
            checks.spectrum(t, values)
        checks.fit(t_fit, case)
    return {"spectrum_s": median(evals), "solve_s": median(solves)}


# -- traced runs ---------------------------------------------------------------
def overhead_pair(tracer, compute, t: float, checks) -> tuple[float, float]:
    """Untraced, traced, untraced spectra at one temperature: the traced
    time and the mean untraced time around it (cancels drift in the run)."""
    from repro.quadrature.batch import KERNEL_COUNTERS
    from workloads import grid_point

    times = []
    for traced in (False, True, False):
        tracer.active = traced
        before = KERNEL_COUNTERS.snapshot()
        t0 = time.perf_counter()
        with tracer.span("op", role="traced") as op:
            values = values_of(guarded(compute, grid_point(t)))
        times.append(time.perf_counter() - t0)
        if op is not None:
            after = KERNEL_COUNTERS.snapshot()
            op.attrs.update({k: after[k] - before[k] for k in ("map_chunks", "map_items")})
        checks.spectrum(t, values)
    tracer.active = False
    return times[1], (times[0] + times[2]) / 2.0


def traced_sweep(workload, setup, tracer, temps, seconds, checks) -> dict:
    """Per temperature: an overhead pair, plus the plan-path diagnostic on
    sweep_pruned and the one-worker map of the same shards on the process
    workload."""
    from workloads import grid_point, make_model

    diag = {"pairs": [], "plan_errs": []}
    plan = None
    if workload.name == "sweep_pruned":
        from repro.physics.plan import PLAN_CACHE

        tracer.active = True
        with tracer.span("plan.compile"):
            plan = PLAN_CACHE.get(
                setup.db, setup.grid, method="simpson", tail_tol=workload.tail_tol
            )
        tracer.active = False
    serial_map = None
    if workload.backend == "process":
        serial_map = make_model(workload, setup.db, setup.grid, jobs=1, backend="thread")

    # One untraced spectrum (at a temperature the loop never reaches) so the
    # overhead pairs compare warm spectra; it is checked like any other.
    checks.spectrum(temps[-1], values_of(guarded(setup.model.compute, grid_point(temps[-1]))))
    iters: list[float] = []
    start = time.perf_counter()
    for t in temps[:-1]:
        if deadline_reached(start, seconds, iters):
            break
        it0 = time.perf_counter()
        diag["pairs"].append(overhead_pair(tracer, setup.model.compute, t, checks))
        tracer.active = True
        if serial_map is not None:
            with tracer.span("op", role="serial_map"):
                values = values_of(guarded(serial_map.compute, grid_point(t)))
            checks.spectrum(t, values)
        if plan is not None:
            with tracer.span("plan.execute"):
                res = guarded(plan.execute, grid_point(t))
            values = None if res is None else res.values
            diag["plan_errs"].append(checks.spectrum(t, values, diagnostic=True))
        tracer.active = False
        iters.append(time.perf_counter() - it0)
    if serial_map is not None:
        serial_map.close()
    return diag


def traced_fit(setup, store, tracer, cases, checks) -> dict:
    """One traced fit, then overhead pairs at a few of its temperatures."""
    from reference import Recording

    case = store.fit_case(cases[0])
    rec = Recording(setup.model)
    tracer.active = True
    with tracer.span("op", role="traced"):
        t_fit = fit_once(rec, setup, case)
    tracer.active = False
    for t, values in rec.outputs:
        checks.spectrum(t, values)
    checks.fit(t_fit, case)
    n = len(rec.outputs)
    picks = sorted({round(j * (n - 1) / (OVERHEAD_PAIRS - 1)) for j in range(OVERHEAD_PAIRS)})
    pairs = [
        overhead_pair(tracer, setup.model.compute, rec.outputs[j][0], checks)
        for j in (picks if n else ())
    ]
    return {"pairs": pairs, "plan_errs": []}


def spectrum_rows(tracer, role: str) -> list[dict]:
    """Per-spectrum layer totals: self seconds, call counts and attributes
    of every span under each ``apec.compute`` inside ``op`` spans of
    ``role``."""
    kids = tracer.children()
    rows = []
    for op in tracer.spans:
        if op.name != "op" or op.attrs.get("role") != role:
            continue
        for comp in tracer.subtree(op, kids):
            if comp.name != "apec.compute":
                continue
            row: dict = defaultdict(float)
            row["spectrum"] = comp.seconds
            row.update({k: v for k, v in op.attrs.items() if k != "role"})
            for sp in tracer.subtree(comp, kids):
                row[sp.name + ".self"] += tracer.self_seconds(sp, kids)
                row[sp.name + ".total"] += sp.seconds
                row[sp.name + ".n"] += 1
                for key, value in sp.attrs.items():
                    if key in ("active_pairs", "pairs", "ipc_bytes"):
                        row[f"{sp.name}.{key}"] += value
                if sp.name == "apec.kernel":
                    wins = [c for c in kids.get(sp.id, ()) if c.name == "windows.level_windows"]
                    pairs = wins[0].attrs["active_pairs"] if wins else sp.attrs["pairs"]
                    row["evals"] += pairs * (sp.attrs["pieces"] + 1)
            rows.append(row)
    return rows


def layer_metrics(workload, setup, tracer, checks, diag) -> dict:
    from repro.quadrature.batch import KERNEL_COUNTERS

    traced = spectrum_rows(tracer, "traced")
    # Process workers are not traced: their kernel shows in the one-worker
    # map of the same shards.
    kernel = spectrum_rows(tracer, "serial_map") if setup.jobs > 1 else traced

    def med(rows, key):
        return median([r[key] for r in rows])

    m = dict.fromkeys(PER_LAYER, 0.0)
    # Set-up's level build (root spans); worker-side rebuilds sit under ops.
    build = [sp for sp in tracer.spans
             if sp.name == "atomic.build_levels" and sp.parent == 0]
    m["atomic.levels_s"] = sum(sp.seconds for sp in build)
    m["atomic.levels"] = sum(sp.attrs["levels"] for sp in build)
    m["ionbalance.ion_density_s"] = med(kernel, "ionbalance.ion_density.self")
    m["ionbalance.calls"] = med(kernel, "ionbalance.ion_density.n")
    m["windows.level_windows_s"] = med(kernel, "windows.level_windows.self")
    m["windows.active_pairs"] = med(kernel, "windows.level_windows.active_pairs")
    all_pairs = sum(r["windows.level_windows.pairs"] for r in kernel)
    if all_pairs:
        m["windows.active_frac"] = (
            sum(r["windows.level_windows.active_pairs"] for r in kernel) / all_pairs
        )
    m["apec.kernel_s"] = med(kernel, "apec.kernel.self")
    m["apec.kernel_calls"] = med(kernel, "apec.kernel.n")
    m["apec.evals"] = med(kernel, "evals")
    m["apec.evals_per_s"] = median(
        [r["evals"] / r["apec.kernel.self"] for r in kernel if r["apec.kernel.self"] > 0]
    )
    m["lines.s"] = med(traced, "lines.self")
    m["brems.s"] = med(traced, "brems.self")

    if workload.name == "fit_temperature":
        # The first op span is the fit; later ones are its overhead pairs.
        fit_spans = tracer.subtree(next(sp for sp in tracer.spans if sp.name == "op"),
                                   tracer.children())
        evals = [sp for sp in fit_spans if sp.name == "apec.compute"]
        folds = [sp for sp in fit_spans
                 if sp.name in ("fitting.response", "fitting.chi_squared")]
        m["fitting.evals"] = len(evals)
        m["fitting.response_s"] = sum(sp.seconds for sp in folds) / max(len(evals), 1)

    if setup.jobs > 1:
        m["parallel.map_s"] = med(traced, "parallel.map.total")
        m["parallel.overhead_s"] = median(
            [r["spectrum"] - r["parallel.map.total"] for r in traced]
        )
        m["parallel.map_chunks"] = med(traced, "map_chunks")
        m["parallel.map_items"] = med(traced, "map_items")
        m["parallel.ipc_bytes"] = med(traced, "parallel.map.ipc_bytes")
        counters = KERNEL_COUNTERS.snapshot()
        m["parallel.pool_creates"] = counters["pool_creates"]
        m["parallel.pool_reuses"] = counters["pool_reuses"]
        if m["parallel.map_s"] > 0:
            m["parallel.efficiency"] = med(kernel, "parallel.map.total") / (
                setup.jobs * m["parallel.map_s"]
            )

    compile_spans = [sp for sp in tracer.spans if sp.name == "plan.compile"]
    if compile_spans:
        m["plan.compile_s"] = compile_spans[0].seconds
        m["plan.execute_s"] = median(
            [sp.seconds for sp in tracer.spans if sp.name == "plan.execute"]
        )
        if m["apec.kernel_s"] > 0:
            m["plan.vs_per_ion"] = m["plan.execute_s"] / m["apec.kernel_s"]
        m["plan.max_rel_err"] = max(diag["plan_errs"], default=0.0)

    m["trace.spectrum_s"] = med(traced, "spectrum")
    m["trace.unattributed_s"] = med(traced, "apec.compute.self")
    spent = sum(r["spectrum"] for r in traced)
    if spent:
        m["trace.unattributed_frac"] = sum(r["apec.compute.self"] for r in traced) / spent
    untraced = sum(u for _, u in diag["pairs"])
    if untraced:
        m["trace.overhead_frac"] = sum(t for t, _ in diag["pairs"]) / untraced - 1.0
    m["max_rel_err"] = checks.max_err
    m["fit_t_rel_err"] = checks.fit_err
    return m


# -- entry point ---------------------------------------------------------------
def run(args) -> dict:
    from reference import ReferenceStore
    from workloads import WORKLOADS, fit_cases, sweep_temperatures

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup = Setup(workload, tracer)
    try:
        store = ReferenceStore(workload, setup.db, setup.grid)
        checks = Checks(workload.check, store)
        fit = workload.name == "fit_temperature"
        if fit:
            cases = fit_cases(args.seed)
        else:
            temps = sweep_temperatures(args.seed)
        if tracer is None:
            setup_s = median(setup_samples(workload.name))
            if fit:
                metrics = timed_fits(setup, store, cases, args.seconds, checks)
            else:
                metrics = timed_sweep(setup, temps, args.seconds, checks)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
        else:
            if fit:
                diag = traced_fit(setup, store, tracer, cases, checks)
            else:
                diag = traced_sweep(workload, setup, tracer, temps, args.seconds, checks)
            metrics = layer_metrics(workload, setup, tracer, checks, diag)
            units = PER_LAYER
            tracer.write(
                OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json",
                {"workload": workload.name, "seed": args.seed, "env": env.describe()},
            )
        store.save_cache()
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
        setup.close()
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        probe = Setup(WORKLOADS[args.workload])
        print("ready", flush=True)
        probe.close()
        return 0
    result = run(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env.describe()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
