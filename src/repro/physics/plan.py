"""Compiled spectrum plans and the cross-request plan cache.

A :class:`SpectrumPlan` compiles the temperature-independent structure of
one ``(database, grid, ion set, method, rule knobs, tail_tol, gaunt)``
combination *once*, in flat structure-of-arrays form:

- ``energy_kev`` — per-level binding energies, concatenated over all ions
  (one global "row" index per level);
- ``ion_index`` / ``offsets`` — the level-to-ion indirection used to split
  per-ion counts back out;
- per-ion ``e_min`` — feeds the vectorized per-ion Gaunt tail budget so
  the plan's windows reproduce :func:`repro.physics.windows.level_windows`
  ion by ion, bit for bit.

A plan has two jobs.  Its windows, memoized per ``kT``, and
:meth:`SpectrumPlan.per_ion_active` price service tasks from the real
active (level, bin) pairs.  :meth:`SpectrumPlan.execute` computes the RRC
spectrum at a grid point with the one per-ion kernel,
:func:`repro.physics.apec.ion_emissivity_batched`, looped over the plan's
ions in order with the plan's rule knobs — bit-identical to the serial
``SerialAPEC`` loop over the same ions.

:class:`PlanCache` content-addresses compiled plans so repeated grid
points, parameter sweeps, and cache-miss service requests reuse them; hit,
miss, compilation and eviction counters are exported through the
Prometheus registry (:func:`repro.obs.prom.service_registry`) and, when a
tracer is bound, as instant events on a ``plan-cache`` track.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.database import AtomicDatabase
from repro.atomic.ions import Ion
from repro.physics.apec import _check_tail_tol, ion_emissivity_batched
# Unused here, but perfbench's traced run wraps ``plan.ion_density``.
from repro.physics.ionbalance import ion_density  # noqa: F401
from repro.physics.rrc import gaunt_factor
from repro.physics.spectrum import EnergyGrid, Spectrum
from repro.physics.windows import GAUNT_SUP

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import EventTracer

__all__ = [
    "PLAN_CACHE",
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "SpectrumPlan",
    "db_fingerprint",
    "grid_fingerprint",
    "ions_fingerprint",
]

PLAN_METHODS = ("simpson", "romberg", "gauss")


def db_fingerprint(db: AtomicDatabase) -> str:
    """Content address of a synthetic database.

    The database is fully determined by its :class:`AtomicConfig`
    (construction is deterministic), so hashing the size knobs suffices.
    """
    text = f"atomicdb|n_max={db.config.n_max}|z_max={db.config.z_max}"
    return hashlib.sha1(text.encode()).hexdigest()


def grid_fingerprint(grid: EnergyGrid) -> str:
    """Content address of an energy grid (exact edge bytes)."""
    return hashlib.sha1(grid.edges.tobytes()).hexdigest()


def ions_fingerprint(ions: Iterable[Ion]) -> str:
    """Content address of an ordered ion subset."""
    text = "|".join(f"{ion.z},{ion.charge}" for ion in ions)
    return hashlib.sha1(text.encode()).hexdigest()


@dataclass(frozen=True)
class PlanKey:
    """Content address of one compiled plan.

    Every field that changes the compiled structure or the kernel math is
    part of the key; anything temperature-dependent is deliberately *not*
    (plans are reused across grid points and bound at execution time).
    """

    db: str
    grid: str
    ions: str
    method: str
    pieces: int
    k: int
    gl_points: int
    tail_tol: float
    gaunt: bool


class SpectrumPlan:
    """Temperature-independent compiled form of one RRC configuration.

    Built by :meth:`PlanCache.get`; execute with :meth:`execute` at any
    grid point.  Immutable after construction apart from the small
    per-``kT`` window memo.
    """

    #: Window sets memoized per plan (parameter sweeps revisit few kTs).
    _WINDOW_MEMO_MAX = 64

    def __init__(
        self,
        key: PlanKey,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...],
    ) -> None:
        self.key = key
        self.db = db
        self.grid = grid
        self.ions = ions
        energies: list[np.ndarray] = []
        offsets = np.zeros(len(ions) + 1, dtype=np.int64)
        e_min = np.full(len(ions), np.inf)
        for i, ion in enumerate(ions):
            ls = db.levels(ion)
            offsets[i + 1] = offsets[i] + len(ls)
            if len(ls) == 0:
                continue
            energies.append(ls.energy_kev)
            e_min[i] = float(ls.energy_kev.min())
        self.energy_kev = np.concatenate(energies) if energies else np.zeros(0)
        self.offsets = offsets
        self.e_min_ion = e_min
        self.ion_index = np.repeat(
            np.arange(len(ions), dtype=np.int64), np.diff(offsets)
        )
        for arr in (self.energy_kev, self.offsets, self.e_min_ion,
                    self.ion_index):
            arr.setflags(write=False)
        self._window_memo: OrderedDict[float, tuple[np.ndarray, np.ndarray]]
        self._window_memo = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return int(self.energy_kev.size)

    def windows(self, kt_kev: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-level ``(first, cutoff)`` windows of all ions at one ``kT``.

        Vectorized over all ions at once, but with the tail budget
        computed *per ion* (the Gaunt safety factor depends on each ion's
        ``x_max = E_grid_max / min(I_l)``), so the result matches running
        :func:`repro.physics.windows.level_windows` ion by ion exactly —
        including the task prices the service cost model derives from it.
        """
        if kt_kev <= 0.0:
            raise ValueError("kT must be positive")
        kt = float(kt_kev)
        with self._memo_lock:
            cached = self._window_memo.get(kt)
            if cached is not None:
                self._window_memo.move_to_end(kt)
                return cached
        first, cutoff = self._compute_windows(kt)
        first.setflags(write=False)
        cutoff.setflags(write=False)
        with self._memo_lock:
            self._window_memo[kt] = (first, cutoff)
            self._window_memo.move_to_end(kt)
            while len(self._window_memo) > self._WINDOW_MEMO_MAX:
                self._window_memo.popitem(last=False)
        return first, cutoff

    def _compute_windows(self, kt: float) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        n_bins = grid.n_bins
        energies = self.energy_kev
        if energies.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        first = np.searchsorted(grid.upper, energies, side="right")
        tail_tol = self.key.tail_tol
        if tail_tol == 0.0:
            cutoff = np.full(energies.shape, n_bins, dtype=np.int64)
        else:
            if self.key.gaunt:
                # Same double-precision expression sequence as
                # tail_cutoff_kev, vectorized over ions: x_max -> g_inf
                # -> safety -> tau.
                with np.errstate(divide="ignore"):
                    x_max = np.maximum(1.0, grid.upper[-1] / self.e_min_ion)
                g_inf = np.minimum(1.0, gaunt_factor(x_max))
                safety = GAUNT_SUP / g_inf
            else:
                safety = np.ones(len(self.ions))
            tau_ion = kt * np.log(safety / tail_tol)
            cutoff = np.searchsorted(
                grid.lower, energies + tau_ion[self.ion_index], side="left"
            )
        first = np.minimum(first, n_bins).astype(np.int64)
        cutoff = np.maximum(np.minimum(cutoff, n_bins).astype(np.int64), first)
        return first, cutoff

    def per_ion_active(self, kt_kev: float) -> np.ndarray:
        """Active (level, bin) pairs per ion — the pruned task prices."""
        first, cutoff = self.windows(kt_kev)
        counts = cutoff - first
        csum = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        return csum[self.offsets[1:]] - csum[self.offsets[:-1]]

    def execute(
        self, point: "GridPointLike", abundances: AbundanceSet = SOLAR
    ) -> Spectrum:
        """The grid point's RRC spectrum, one per-ion kernel call per ion.

        Loops :func:`~repro.physics.apec.ion_emissivity_batched` over
        :attr:`ions` in order with this plan's rule knobs, so the values
        are bit-identical to ``SerialAPEC(..., backend="serial")
        .compute(point, ions=plan.ions)`` with the same knobs.
        """
        key = self.key
        spectrum = Spectrum.zeros(
            self.grid,
            temperature_k=point.temperature_k,
            ne_cm3=point.ne_cm3,
            method=key.method,
            components=("rrc",),
            tail_tol=key.tail_tol,
        )
        for ion in self.ions:
            spectrum.accumulate(
                ion_emissivity_batched(
                    self.db, ion, point, self.grid,
                    method=key.method, pieces=key.pieces, k=key.k,
                    gl_points=key.gl_points, gaunt=key.gaunt,
                    abundances=abundances, tail_tol=key.tail_tol,
                )
            )
        return spectrum


class GridPointLike:
    """Structural protocol of :class:`repro.physics.apec.GridPoint`."""

    temperature_k: float
    ne_cm3: float
    kt_kev: float


@dataclass
class PlanCacheStats:
    """Monotonic counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    compilations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compilations": self.compilations,
            "evictions": self.evictions,
        }


class PlanCache:
    """Thread-safe LRU cache of compiled :class:`SpectrumPlan` objects.

    Plans are content-addressed by :class:`PlanKey`; a second request
    with the same database, grid, ion set and rule knobs performs zero
    compilations regardless of temperature (the temperature-dependent
    pieces bind at execution time).
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        self._plans: OrderedDict[PlanKey, SpectrumPlan] = OrderedDict()
        self._lock = threading.RLock()
        self._tracer: "EventTracer | None" = None

    def bind_tracer(self, tracer: "EventTracer | None") -> None:
        """Route hit/miss/compile instants to a tracer (or unbind)."""
        self._tracer = tracer

    def _instant(self, name: str, parent: int = 0, **args: object) -> None:
        # The track is interned lazily on the first event so traces that
        # never consult the plan cache are unchanged by the binding.
        if self._tracer is not None:
            track = self._tracer.track("service", "plan-cache")
            self._tracer.instant(
                track, name, cat="plan", args=dict(args), parent=parent or None
            )

    def make_key(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...] | None = None,
        method: str = "simpson",
        pieces: int = 64,
        k: int = 7,
        gl_points: int = 12,
        tail_tol: float = 0.0,
        gaunt: bool = True,
    ) -> tuple[PlanKey, tuple[Ion, ...]]:
        if method not in PLAN_METHODS:
            raise ValueError(f"unknown plan method {method!r}")
        _check_tail_tol(tail_tol)
        ion_set = tuple(ions) if ions is not None else db.ions
        key = PlanKey(
            db=db_fingerprint(db),
            grid=grid_fingerprint(grid),
            ions=ions_fingerprint(ion_set),
            method=method,
            pieces=int(pieces),
            k=int(k),
            gl_points=int(gl_points),
            tail_tol=float(tail_tol),
            gaunt=bool(gaunt),
        )
        return key, ion_set

    def get(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        ions: tuple[Ion, ...] | None = None,
        method: str = "simpson",
        pieces: int = 64,
        k: int = 7,
        gl_points: int = 12,
        tail_tol: float = 0.0,
        gaunt: bool = True,
        trace_parent: int = 0,
    ) -> SpectrumPlan:
        """The compiled plan for these inputs, compiling on first use.

        ``trace_parent`` links the cache instants (and a compile, when
        one happens) to the causing span — the request or megabatch
        group whose lowering consulted the plan.
        """
        key, ion_set = self.make_key(
            db, grid, ions, method, pieces, k, gl_points, tail_tol, gaunt
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stats.hits += 1
                self._plans.move_to_end(key)
                self._instant("plan-hit", parent=trace_parent, method=method)
                return plan
            self.stats.misses += 1
            self._instant("plan-miss", parent=trace_parent, method=method)
        # Compile outside the lock: a concurrent duplicate costs repeated
        # work, never an inconsistent cache (last writer wins).
        plan = SpectrumPlan(key, db, grid, ion_set)
        with self._lock:
            self.stats.compilations += 1
            self._instant(
                "plan-compile",
                parent=trace_parent,
                method=method,
                levels=plan.n_levels,
            )
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: Process-global plan cache shared by the model layer, the service cost
#: model, and worker processes of the parallel backend (each process gets
#: its own instance).
PLAN_CACHE = PlanCache()
