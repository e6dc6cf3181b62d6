"""Typed spectrum requests and their canonical content address.

A :class:`SpectrumRequest` names one unit of service work: a
parameter-space grid point (temperature, density), an ion subset, a
binning, a quadrature rule, and a tolerance.  Two requests that would
produce the same spectrum hash to the same :meth:`~SpectrumRequest.key`,
which is what the cache and the coalescer address by.

:func:`compile_tasks` lowers a request to the hybrid runner's task list:
one Ion-granularity task per ion in scope, each carrying a real execute
callable so the batch produces an actual per-bin spectrum that can be
cached and returned to clients.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.atomic.database import AtomicDatabase
from repro.atomic.ions import Ion
from repro.constants import K_B_KEV, RYDBERG_KEV
from repro.core.task import Task, TaskKind
from repro.gpusim.kernel import KernelSpec
from repro.physics.plan import PLAN_CACHE, PlanCache
from repro.physics.spectrum import EnergyGrid

__all__ = [
    "SpectrumRequest",
    "compile_group_tasks",
    "compile_tasks",
    "family_spectra",
    "group_member_weights",
    "ion_emission",
    "request_grid",
    "request_spectrum",
]

_RULES = ("simpson", "romberg")

#: Spectral window of the service (the paper's Fig. 7 axis).
LAMBDA_MIN_A = 10.0
LAMBDA_MAX_A = 45.0

#: Emission lines modelled per ion — caps the synthetic numerics at
#: O(lines x bins) so a service batch stays cheap.
MAX_LINES_PER_ION = 8


@dataclass(frozen=True)
class SpectrumRequest:
    """One client request for a spectrum at one grid point.

    Attributes
    ----------
    temperature_k, ne_cm3:
        The parameter-space grid point.
    z_max:
        Ion subset: every ion with atomic number <= ``z_max``.
    n_bins:
        Spectral bins across the 10-45 Angstrom window.
    rule:
        Quadrature rule priced on the GPU path ("simpson" | "romberg").
    tolerance:
        Requested relative accuracy; sets the rule's refinement depth.
    tail_tol:
        Relative tail tolerance for active-window pruning
        (:mod:`repro.physics.windows`); ``0`` disables pruning.  Part of
        the content address — a pruned and an unpruned spectrum must
        never share a cache entry.
    accuracy:
        Declared peak-relative error budget for approximate serving
        (:mod:`repro.approx`); ``0`` (the default) demands the exact
        path.  Positive budgets join the content address — an
        interpolated and an exact spectrum must never share a cache
        entry — while ``0`` renders exactly as before, keeping legacy
        keys stable.
    """

    temperature_k: float
    ne_cm3: float = 1.0
    z_max: int = 8
    n_bins: int = 64
    rule: str = "simpson"
    tolerance: float = 1.0e-6
    tail_tol: float = 0.0
    accuracy: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature_k) and self.temperature_k > 0.0):
            raise ValueError("temperature must be finite and positive")
        if not (math.isfinite(self.ne_cm3) and self.ne_cm3 > 0.0):
            raise ValueError("density must be finite and positive")
        if self.z_max < 1:
            raise ValueError("z_max must be >= 1")
        if self.n_bins < 1:
            raise ValueError("need at least one bin")
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected {_RULES}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if not (math.isfinite(self.tail_tol) and self.tail_tol >= 0.0):
            raise ValueError("tail tolerance must be finite and non-negative")
        if self.accuracy < 0.0:
            raise ValueError("accuracy budget must be non-negative")

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text form: equal requests render identically.

        The ``acc=`` field appears only for positive budgets, so every
        pre-accuracy request renders (and hashes) exactly as it always
        has — ``accuracy=0`` is bit-compatible with history.
        """
        fields = [
            f"T={self.temperature_k:.9e}",
            f"ne={self.ne_cm3:.9e}",
            f"z={self.z_max}",
            f"bins={self.n_bins}",
            f"rule={self.rule}",
            f"tol={self.tolerance:.3e}",
            f"tt={self.tail_tol:.3e}",
        ]
        if self.accuracy > 0.0:
            fields.append(f"acc={self.accuracy:.3e}")
        return "|".join(fields)

    @property
    def key(self) -> str:
        """Content address: sha1 of the canonical form."""
        return hashlib.sha1(self.canonical().encode("ascii")).hexdigest()

    def family_canonical(self) -> str:
        """Canonical form of the request *family*: everything but the
        temperature and the accuracy budget.  One family maps to one
        lattice in :class:`repro.approx.store.LatticeStore` — the
        lattice spans the temperature axis, and budgets are evaluated
        per request against its certificates."""
        return "|".join(
            (
                f"ne={self.ne_cm3:.9e}",
                f"z={self.z_max}",
                f"bins={self.n_bins}",
                f"rule={self.rule}",
                f"tol={self.tolerance:.3e}",
                f"tt={self.tail_tol:.3e}",
            )
        )

    @property
    def family_key(self) -> str:
        """Content address of the request family (lattice lookup key)."""
        return hashlib.sha1(self.family_canonical().encode("ascii")).hexdigest()

    # ------------------------------------------------------------------
    # Quadrature pricing
    # ------------------------------------------------------------------
    @property
    def evals_per_integral(self) -> int:
        """Integrand evaluations per bin integral implied by the rule.

        Tighter tolerances buy more refinement: Simpson doubles its piece
        count per decade below 1e-4; Romberg deepens its extrapolation
        table by one level per decade.  Both mappings are deterministic,
        so tolerance is part of the content address *and* of the price.
        """
        decades = max(0, int(round(-np.log10(self.tolerance))))
        if self.rule == "simpson":
            pieces = min(512, 16 * 2 ** max(0, decades - 4))
            return pieces + 1
        k = min(13, max(5, decades + 1))
        return 2**k + 1


def request_grid(request: SpectrumRequest) -> EnergyGrid:
    """The energy grid a request's spectrum is accumulated on."""
    return EnergyGrid.from_wavelength(LAMBDA_MIN_A, LAMBDA_MAX_A, request.n_bins)


def ion_emission(
    ion: Ion, n_levels: int, request: SpectrumRequest, grid: EnergyGrid | None = None
) -> np.ndarray:
    """Deterministic per-ion emission on the request's grid.

    A cheap vectorized stand-in for the full RRC integration — a
    recombination-continuum-shaped exponential plus a hydrogenic line
    ladder — used as the *real* payload both execution paths return, so
    spectra accumulated through the scheduler are reproducible and
    byte-sized for the cache.  (The physics-grade path stays
    :class:`repro.physics.apec.SerialAPEC`; the service models the
    workload's data flow, not its opacity tables.)
    """
    grid = grid or request_grid(request)
    e = grid.centers
    kt = K_B_KEV * request.temperature_k
    charge = ion.charge
    # Continuum: Kramers-flavoured edge at the ground-state binding energy.
    e_bind = RYDBERG_KEV * charge**2
    cont = np.where(e >= min(e_bind, e[-1] * 0.999), 0.0, np.exp(-e / kt))
    cont *= ion.z / (1.0 + charge)
    # Line ladder: the first few hydrogenic transitions n -> 1.
    out = cont
    width = max(2.0 * float(np.mean(grid.widths)), 1e-4)
    for n in range(2, 2 + min(n_levels, MAX_LINES_PER_ION)):
        e_line = e_bind * (1.0 - 1.0 / n**2)
        if not e[0] <= e_line <= e[-1]:
            continue
        strength = np.exp(-e_line / kt) / n**3
        out = out + strength * np.exp(-0.5 * ((e - e_line) / width) ** 2)
    return out * request.ne_cm3


def _plan_rule_knobs(request: SpectrumRequest) -> tuple[int, int]:
    """(pieces, k) implied by the request's rule + tolerance pricing."""
    evals = request.evals_per_integral
    if request.rule == "simpson":
        return evals - 1, 7
    return 64, (evals - 1).bit_length() - 1


def request_spectrum(
    payload: tuple[SpectrumRequest, int, int]
) -> np.ndarray:
    """Full spectrum of one request, ion order, left-fold accumulation.

    Module-level and picklable (``payload`` is ``(request, db n_max,
    db z_max)``), so the broker can farm payload evaluation out to a
    process pool.  The accumulation order matches the hybrid runner's
    synchronous per-point task order bit for bit, so precomputed and
    simulation-accumulated spectra are interchangeable.
    """
    from repro.physics.apec import _worker_db

    request, n_max, z_max = payload
    db = _worker_db(n_max, z_max)
    grid = request_grid(request)
    out = np.zeros(grid.n_bins, dtype=np.float64)
    for ion in db.ions:
        if ion.z > request.z_max:
            continue
        out += ion_emission(ion, db.n_levels(ion), request, grid)
    return out


def family_spectra(
    payload: tuple[tuple[SpectrumRequest, ...], int, int]
) -> np.ndarray:
    """Stacked spectra of one same-family request group, ion-major.

    ``payload`` is ``(requests, db n_max, db z_max)`` — module-level and
    picklable like :func:`request_spectrum`, so megabatch payloads can
    cross a process pool.  Returns shape ``(len(requests), n_bins)``.

    Accumulation runs ion-major (outer loop over ions, inner over
    temperatures): row ``j`` receives exactly the same additions in
    exactly the same order as ``request_spectrum(requests[j])``, so each
    row is bit-identical to unbatched evaluation — the determinism
    contract the continuous-batching tests pin down.
    """
    from repro.physics.apec import _worker_db

    requests, n_max, z_max = payload
    if not requests:
        return np.zeros((0, 0), dtype=np.float64)
    lead = requests[0]
    db = _worker_db(n_max, z_max)
    grid = request_grid(lead)
    out = np.zeros((len(requests), grid.n_bins), dtype=np.float64)
    for ion in db.ions:
        if ion.z > lead.z_max:
            continue
        n_levels = db.n_levels(ion)
        for j, request in enumerate(requests):
            out[j] += ion_emission(ion, n_levels, request, grid)
    return out


def compile_tasks(
    request: SpectrumRequest,
    db: AtomicDatabase,
    point_index: int = 0,
    task_id_base: int = 0,
    with_payload: bool = True,
    plan_cache: PlanCache = PLAN_CACHE,
    trace_parent: int = 0,
) -> list[Task]:
    """Lower one request to Ion-granularity tasks for the hybrid runner.

    Every task carries the same execute callable on both the GPU and the
    CPU-fallback path (the service mirrors the repo's "real numerics
    under simulated time" rule: placement decides the *price*, never the
    *answer*), so a batch's accumulated spectrum is independent of
    scheduling.  ``with_payload=False`` compiles *cost-only* tasks —
    identical prices, no execute callables — for brokers that evaluate
    payloads out of band (closures cannot cross a process pool).

    Active-window pricing goes through the plan cache: the per-ion
    window search is compiled once per ``(db, grid, rule, tail_tol)``
    combination and repeated requests reprice from the cached plan.
    """
    if request.z_max > db.config.z_max:
        raise ValueError(
            f"request z_max={request.z_max} exceeds database "
            f"z_max={db.config.z_max}"
        )
    grid = request_grid(request)
    evals = request.evals_per_integral
    kt_kev = K_B_KEV * request.temperature_k
    ions = tuple(ion for ion in db.ions if ion.z <= request.z_max)

    # Active-window pruning shrinks the priced workload: the device
    # model, scheduler load counters, and autotuner all see the cheaper
    # tasks.  tail_tol=0 keeps the dense levels x bins count (pruning
    # off must price exactly like the legacy kernels).
    active_per_ion = None
    if request.tail_tol > 0.0:
        pieces, k = _plan_rule_knobs(request)
        plan = plan_cache.get(
            db, grid, ions=ions, method=request.rule,
            pieces=pieces, k=k, tail_tol=request.tail_tol, gaunt=True,
            trace_parent=trace_parent,
        )
        active_per_ion = plan.per_ion_active(kt_kev)

    tasks: list[Task] = []
    tid = task_id_base
    for i, ion in enumerate(ions):
        n_levels = db.n_levels(ion)
        n_active = None
        if active_per_ion is not None and n_levels > 0:
            n_active = int(active_per_ion[i])

        if with_payload:
            def execute(ion=ion, n_levels=n_levels) -> np.ndarray:
                return ion_emission(ion, n_levels, request, grid)
        else:
            execute = None

        tasks.append(
            Task(
                task_id=tid,
                kind=TaskKind.ION,
                kernel=KernelSpec.for_ion_task(
                    n_levels=n_levels,
                    n_bins=request.n_bins,
                    evals_per_integral=evals,
                    label=f"req{point_index}/{ion.name}",
                    execute=execute,
                    n_active=n_active,
                ),
                point_index=point_index,
                n_levels=n_levels,
                cpu_execute=execute,
                label=f"req{point_index}/{ion.name}",
                trace_parent=trace_parent,
                method=request.rule,
            )
        )
        tid += 1
    return tasks


def compile_group_tasks(
    requests: tuple[SpectrumRequest, ...],
    db: AtomicDatabase,
    point_index: int = 0,
    task_id_base: int = 0,
    with_payload: bool = True,
    plan_cache: PlanCache = PLAN_CACHE,
    spread: bool = False,
    trace_parent: int = 0,
) -> list[Task]:
    """Lower a same-family request group to megabatched ion tasks.

    The continuous-batching analogue of :func:`compile_tasks`: one task
    per ion covers *all* temperatures of the group, returning a stacked
    ``(width, n_bins)`` payload whose row ``j`` is bit-identical to the
    single-request task for ``requests[j]``.  The kernel is priced as the
    fused launch it models — the per-level parameter upload (``bytes_in``)
    is paid once for the whole group while the output, the dense bound
    and the active-pair count scale with the batch width — so the host
    prep, RPC, and submit overheads the simulation charges per *task*
    amortize across every temperature riding the batch.

    Active-window prices come from the shared plan (windows memoized per
    ``kT``), summed over the group's temperatures.

    ``spread=True`` gives task ``i`` point index ``point_index + i`` —
    one point per ion task — so the hybrid runner's per-point rank
    partition spreads the group's host prep across every rank instead
    of serializing the whole group on ``point_index % n_workers``.  The
    caller then owns the ion-order fold of the per-task blocks (the
    runner's per-point accumulation degenerates to identity).
    """
    group = tuple(requests)
    if not group:
        return []
    lead = group[0]
    if any(r.family_key != lead.family_key for r in group[1:]):
        raise ValueError("megabatch group must share one request family")
    if lead.z_max > db.config.z_max:
        raise ValueError(
            f"request z_max={lead.z_max} exceeds database "
            f"z_max={db.config.z_max}"
        )
    width = len(group)
    grid = request_grid(lead)
    evals = lead.evals_per_integral
    ions = tuple(ion for ion in db.ions if ion.z <= lead.z_max)

    active_per_ion = None
    if lead.tail_tol > 0.0:
        pieces, k = _plan_rule_knobs(lead)
        plan = plan_cache.get(
            db, grid, ions=ions, method=lead.rule,
            pieces=pieces, k=k, tail_tol=lead.tail_tol, gaunt=True,
            trace_parent=trace_parent,
        )
        active_per_ion = np.zeros(len(ions), dtype=np.int64)
        for request in group:
            active_per_ion += plan.per_ion_active(K_B_KEV * request.temperature_k)

    tasks: list[Task] = []
    tid = task_id_base
    for i, ion in enumerate(ions):
        n_levels = db.n_levels(ion)
        n_active = None
        if active_per_ion is not None and n_levels > 0:
            n_active = int(active_per_ion[i])

        if with_payload:
            def execute(ion=ion, n_levels=n_levels) -> np.ndarray:
                return np.stack(
                    [ion_emission(ion, n_levels, r, grid) for r in group]
                )
        else:
            execute = None

        label = f"grp{point_index}/{ion.name}x{width}"
        tasks.append(
            Task(
                task_id=tid,
                kind=TaskKind.ION,
                kernel=KernelSpec.for_ion_task(
                    n_levels=n_levels,
                    n_bins=lead.n_bins * width,
                    evals_per_integral=evals,
                    label=label,
                    execute=execute,
                    n_active=n_active,
                ),
                point_index=point_index + len(tasks) if spread else point_index,
                n_levels=n_levels,
                cpu_execute=execute,
                label=label,
                trace_parent=trace_parent,
                method=lead.rule,
            )
        )
        tid += 1
    return tasks


def group_member_weights(
    requests: tuple[SpectrumRequest, ...],
    db: AtomicDatabase,
    plan_cache: PlanCache = PLAN_CACHE,
) -> list[float]:
    """Fair-share weights of one megabatch group's member requests.

    The width-proportional baseline (every member rides the same fused
    launch) corrected by each member's *marginal* work: with active-window
    pruning on, a member's weight is its temperature's total active
    (level, bin) pair count summed over the group's ions — exactly the
    term its row contributes to the fused kernel's priced work — so hot
    temperatures that keep more windows alive carry proportionally more
    of the group's measured cost.  With pruning off every temperature
    prices the same dense ``levels x bins`` work and the weights are
    uniform.  Weights are plain deterministic floats (no measurement in
    the loop), so attribution splits are bit-identical across execution
    backends.
    """
    group = tuple(requests)
    if not group:
        return []
    lead = group[0]
    if lead.tail_tol <= 0.0:
        return [1.0] * len(group)
    grid = request_grid(lead)
    ions = tuple(ion for ion in db.ions if ion.z <= lead.z_max)
    pieces, k = _plan_rule_knobs(lead)
    plan = plan_cache.get(
        db, grid, ions=ions, method=lead.rule,
        pieces=pieces, k=k, tail_tol=lead.tail_tol, gaunt=True,
    )
    weights = [
        float(plan.per_ion_active(K_B_KEV * r.temperature_k).sum()) for r in group
    ]
    if all(w <= 0.0 for w in weights):
        return [1.0] * len(group)
    # A fully pruned member still rode the launch: floor at one pair so
    # the split stays defined and every member pays a nonzero share.
    return [max(w, 1.0) for w in weights]
