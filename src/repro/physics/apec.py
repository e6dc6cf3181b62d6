"""Serial APEC-style spectral calculator — the three nested loops of Fig. 1.

For each grid point (temperature, density, time) the RRC emissivity is
integrated over every energy bin of every level of every ion:

    for ion in 496 ions:
        for level in thousands of levels:
            for bin in ~1e5 energy bins:
                Lambda_RRC(bin) += integral of Eq. (1) over the bin

Two execution styles are provided, mirroring the paper's CPU and GPU code
paths:

- :func:`ion_emissivity_scalar` — one scalar integration per (level, bin),
  using QAGS (the paper's CPU fallback) or scalar Simpson;
- :func:`ion_emissivity_batched` — all bins of all levels of one ion in
  vectorized batches (Algorithm 2's coarse-grained kernel), with Simpson
  (default, 64 pieces) or Romberg (accuracy-scaled by ``k``) rules.

Both paths produce a per-bin array that :class:`SerialAPEC` accumulates
into a :class:`~repro.physics.spectrum.Spectrum`, in ion order, on every
execution backend.  Sharded and plan-driven execution
(:mod:`repro.physics.plan`) call the same per-ion functions; there is no
separate all-ion kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.atomic.abundances import SOLAR, AbundanceSet
from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.atomic.ions import Ion
from repro.constants import K_B_KEV
from repro.parallel.executor import (
    BACKENDS,
    ExecutionBackend,
    get_backend,
    shard_items,
)
from repro.physics.ionbalance import ion_density
from repro.physics.rrc import (
    GAUNT_BETA,
    GAUNT_GAMMA,
    RRCLevelParams,
    gaunt_factor,
    make_level_integrand,
    rrc_prefactor,
)
from repro.physics.spectrum import EnergyGrid, Spectrum
from repro.physics.windows import LevelWindows, level_windows
from repro.quadrature.batch import (
    batch_gauss_windows,
    batch_romberg,
    batch_romberg_windows,
    batch_simpson,
    batch_simpson_windows,
    simpson_weights,
    unit_fractions,
)
from repro.quadrature.gauss_legendre import batch_gauss_legendre
from repro.quadrature.qags import qags
from repro.quadrature.simpson import simpson

__all__ = [
    "GridPoint",
    "level_params_for",
    "ion_emissivity_batched",
    "ion_emissivity_scalar",
    "SerialAPEC",
    "ApecModel",
]

#: Model-level method name -> batch kernel name.
_BATCH_METHOD = {
    "simpson-batch": "simpson",
    "romberg": "romberg",
    "gauss": "gauss",
}

BatchMethod = Literal["simpson", "romberg", "gauss"]
ScalarMethod = Literal["qags", "simpson"]

#: Levels processed per fused-kernel chunk; bounds scratch memory at
#: roughly chunk * n_bins * (pieces + 1) float64 elements.
_LEVEL_CHUNK = 16

#: Largest exponent magnitude the shared-abscissa rescaling may produce:
#: the fast path splits exp(-(E - I)/kT) into exp(I/kT) * exp(-E/kT),
#: which overflows float64 near 709 and loses ~(E/kT) * eps relative
#: precision; beyond this the pruned kernel falls back to per-level
#: abscissae.
_SAFE_RESCALE_ARG = 600.0


@dataclass(frozen=True)
class GridPoint:
    """One point of the (temperature, density, time) parameter space."""

    temperature_k: float
    ne_cm3: float
    time_s: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature_k) and self.temperature_k > 0.0):
            raise ValueError("temperature must be finite and positive")
        if not (math.isfinite(self.ne_cm3) and self.ne_cm3 >= 0.0):
            raise ValueError("electron density must be finite and non-negative")

    @property
    def kt_kev(self) -> float:
        return K_B_KEV * self.temperature_k


def _check_tail_tol(tail_tol: float) -> None:
    if not (math.isfinite(tail_tol) and tail_tol >= 0.0):
        raise ValueError("tail_tol must be finite and non-negative")


def level_params_for(
    db: AtomicDatabase,
    ion: Ion,
    level_index: int,
    point: GridPoint,
    abundances: AbundanceSet = SOLAR,
) -> RRCLevelParams:
    """Assemble Eq. (1) parameters for one level at one grid point."""
    ls = db.levels(ion)
    return RRCLevelParams(
        binding_kev=float(ls.energy_kev[level_index]),
        n=int(ls.n_arr[level_index]),
        c_eff=float(ls.c_eff[level_index]),
        g_level=float(ls.degeneracy[level_index]),
        kt_kev=point.kt_kev,
        ne_cm3=point.ne_cm3,
        n_ion_cm3=ion_density(
            ion, point.temperature_k, point.ne_cm3, abundances=abundances
        ),
    )


def _flat_constants(ls, point: GridPoint, n_ion: float) -> np.ndarray:
    """Per-level flat constants C_l of the Kramers+Milne collapse.

    integrand_l(E) = C_l * exp(-(E - I_l)/kT) * [gaunt(E / I_l)] * (E >= I_l)
    with C_l = prefactor * (g_l/2) * sigma_K n_l I_l^3 / (2 m_e c^2 c_eff_l^2).
    """
    from repro.constants import ME_C2_KEV, SIGMA_KRAMERS_CM2

    base = RRCLevelParams(
        binding_kev=float(ls.energy_kev[0]),
        n=int(ls.n_arr[0]),
        c_eff=float(ls.c_eff[0]),
        g_level=float(ls.degeneracy[0]),
        kt_kev=point.kt_kev,
        ne_cm3=point.ne_cm3,
        n_ion_cm3=n_ion,
    )
    pref = rrc_prefactor(base)
    return (
        pref
        * (ls.degeneracy / 2.0)
        * SIGMA_KRAMERS_CM2
        * ls.n_arr
        * ls.energy_kev**3
        / (2.0 * ME_C2_KEV * ls.c_eff**2)
    )


def _fused_simpson(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    pieces: int,
    gaunt: bool,
    abundances: AbundanceSet = SOLAR,
) -> np.ndarray:
    """All levels x all bins of one ion in chunked broadcast evaluations.

    This is the software analogue of the Algorithm 2 CUDA kernel: the
    per-level emission is accumulated *inside* the kernel, and only the
    final n_bins array leaves (one device-to-host transfer per ion task).
    """
    ls = db.levels(ion)
    n_levels = len(ls)
    out = np.zeros(grid.n_bins, dtype=np.float64)
    if n_levels == 0:
        return out

    n_ion = ion_density(
        ion, point.temperature_k, point.ne_cm3, abundances=abundances
    )
    kt = point.kt_kev
    c_l = _flat_constants(ls, point, n_ion)

    w = simpson_weights(pieces)
    frac = unit_fractions(pieces + 1)

    for start in range(0, n_levels, _LEVEL_CHUNK):
        sl = slice(start, min(start + _LEVEL_CHUNK, n_levels))
        i_l = ls.energy_kev[sl][:, None]  # (chunk, 1)
        # APEC tabulates each level's RRC from its recombination edge
        # upward, so the bin integral runs over [max(E0, I_l), E1]; bins
        # entirely below the edge have zero width and contribute nothing.
        lo = np.maximum(grid.lower[None, :], i_l)  # (chunk, n_bins)
        width = np.maximum(grid.upper[None, :] - lo, 0.0)
        x = lo[:, :, None] + width[:, :, None] * frac[None, None, :]
        with np.errstate(over="ignore", under="ignore"):
            y = np.exp(-(x - i_l[:, :, None]) / kt)
            if gaunt:
                y = y * gaunt_factor(x / i_l[:, :, None])
        y *= c_l[sl][:, None, None]
        h = width / pieces
        # Simpson reduce over points, then sum the chunk's levels.
        out += (h * (y @ w)).sum(axis=0)
    return out


def _window_integrand(energies: np.ndarray, c_l: np.ndarray, kt: float, gaunt: bool):
    """Ragged-batch form of the collapsed Eq. (1) integrand.

    ``f(rows, x)`` evaluates level ``rows[i]`` at abscissae ``x[i]`` —
    the calling convention of the CSR window kernels in
    :mod:`repro.quadrature.batch`.
    """

    def f(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        i_r = energies[rows][:, None]
        with np.errstate(over="ignore", under="ignore"):
            y = np.exp(-np.maximum(x - i_r, 0.0) / kt)
            if gaunt:
                y = y * gaunt_factor(np.maximum(x / i_r, 1.0))
        return c_l[rows][:, None] * y

    return f


#: One-slot memo of :func:`_node_tables`: ``(kt, pieces, edges, tables)``
#: with a private read-only copy of the grid edges.  Replaced whole by a
#: single assignment, so concurrent threads see either the old or the new
#: slot, never a mix.
_NODE_MEMO: tuple[float, int, np.ndarray, tuple[np.ndarray, ...]] | None = None


def _node_tables(
    grid: EnergyGrid, kt: float, pieces: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ion-independent tables over every bin's Simpson nodes ``x``.

    Returns read-only ``(u, u2, ehw)`` of shape ``(n_bins, pieces + 1)``:
    ``u = cbrt(x)``, ``u2 = u**2`` and ``ehw = exp(-x/kT) * h * w`` (node
    value times its bin's Simpson weight).  They depend only on
    ``(grid.edges, kT, pieces)``, so every ion of one spectrum shares one
    build; the last build is kept in :data:`_NODE_MEMO`.
    """
    global _NODE_MEMO
    memo = _NODE_MEMO
    if (
        memo is not None
        and memo[0] == kt
        and memo[1] == pieces
        and np.array_equal(memo[2], grid.edges)
    ):
        return memo[3]
    edges = grid.edges.copy()
    frac = unit_fractions(pieces + 1)
    w = simpson_weights(pieces)
    widths = grid.widths
    x = grid.lower[:, None] + widths[:, None] * frac[None, :]
    with np.errstate(under="ignore"):
        ehw = np.exp(-x / kt)
    ehw *= (widths / pieces)[:, None] * w[None, :]
    u = np.cbrt(x)
    u2 = u * u
    for arr in (edges, u, u2, ehw):
        arr.setflags(write=False)
    _NODE_MEMO = (kt, pieces, edges, (u, u2, ehw))
    return u, u2, ehw


def _gaunt_ratio_terms(
    energies: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-level ``(pref, m, k)`` of the factored Gaunt ratio.

    For ``x >= I`` (so the ``max(x/I, 1)`` clamp is a no-op),
    ``c = u / cbrt(I)`` with ``u = cbrt(x)`` turns
    ``g = (a + b c) / (d + e c^2)`` into ``pref * (u + m) / (u^2 + k)``
    with ``pref = (b/e) cbrt(I)``, ``m = (a/b) cbrt(I)`` and
    ``k = (d/e) cbrt(I)^2``; ``a = 1 - b`` and ``d = 1 - e``.
    """
    b, e = GAUNT_BETA, GAUNT_GAMMA
    cbrt_i = np.cbrt(energies)
    return (b / e) * cbrt_i, ((1.0 - b) / b) * cbrt_i, ((1.0 - e) / e) * cbrt_i**2


def _fused_simpson_windows(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    pieces: int,
    gaunt: bool,
    tail_tol: float,
    abundances: AbundanceSet = SOLAR,
) -> np.ndarray:
    """Active-window variant of :func:`_fused_simpson`.

    Two task-shaping moves on top of the fused kernel:

    1. **Pruning** — only bins inside each level's accuracy-budgeted
       window (:func:`repro.physics.windows.level_windows`) are
       evaluated; levels whose window is empty are skipped outright.
    2. **Shared abscissae** — every full bin (not split by a
       recombination edge) uses the same Simpson nodes for every level
       and every ion, so ``exp(-x/kT)`` and the Gaunt factor's ``cbrt``
       are tabulated once per spectrum (:func:`_node_tables`) and each
       level only rescales them by ``C_l * exp(I_l/kT)``; the Gaunt
       ratio is factored per level (:func:`_gaunt_ratio_terms`).  Edge
       bins keep per-level nodes.  When the rescaling would overflow or
       cost more precision than ``tail_tol`` allows, the kernel falls
       back to the generic CSR evaluation with unfactored exponentials.

    Results agree with :func:`_fused_simpson` to within ``tail_tol``
    (dropped tail mass) plus floating-point reassociation noise many
    orders below it.
    """
    ls = db.levels(ion)
    n_levels = len(ls)
    out = np.zeros(grid.n_bins, dtype=np.float64)
    if n_levels == 0:
        return out
    n_ion = ion_density(
        ion, point.temperature_k, point.ne_cm3, abundances=abundances
    )
    kt = point.kt_kev
    c_l = _flat_constants(ls, point, n_ion)
    energies = ls.energy_kev
    win = level_windows(energies, grid, kt, tail_tol, gaunt=gaunt)
    first, cutoff = win.first, win.cutoff
    active = first < cutoff
    if not active.any():
        return out

    # Rescaling safety: exponent magnitude of the exp(I/kT) * exp(-E/kT)
    # split, and the precision it costs relative to the tail budget.
    arg = (float(energies.max()) + float(grid.upper[-1])) / kt
    if arg >= _SAFE_RESCALE_ARG or arg * np.finfo(np.float64).eps >= 0.05 * tail_tol:
        return batch_simpson_windows(
            _window_integrand(energies, c_l, kt, gaunt),
            grid.edges,
            first,
            cutoff,
            lower_clip=energies,
            pieces=pieces,
        )

    # --- edge bins: the one bin per level split by its recombination
    # edge needs level-specific abscissae (integration from I_l up).
    has_edge = active & (grid.lower[np.minimum(first, grid.n_bins - 1)] < energies)
    if has_edge.any():
        w = simpson_weights(pieces)
        frac = unit_fractions(pieces + 1)
        b_e = first[has_edge]
        i_e = energies[has_edge][:, None]
        width_e = grid.upper[b_e][:, None] - i_e
        x = i_e + width_e * frac[None, :]
        with np.errstate(over="ignore", under="ignore"):
            y = np.exp(-(x - i_e) / kt)
            if gaunt:
                y = y * gaunt_factor(x / i_e)
        vals = (width_e[:, 0] / pieces) * (y @ w) * c_l[has_edge]
        # Several levels can share one edge bin -> unbuffered scatter-add.
        np.add.at(out, b_e, vals)

    # --- full bins: shared abscissae, tabulated once per spectrum.
    start = np.minimum(np.where(has_edge, first + 1, first), cutoff)
    full = start < cutoff
    if not full.any():
        return out
    u, u2, ehw = _node_tables(grid, kt, pieces)
    scale = c_l * np.exp(np.where(full, energies, 0.0) / kt)

    if not gaunt:
        # The integrand factorizes completely: each level contributes
        # scale_l * base[b] on its window, so accumulate the per-bin sum
        # of scales with a difference array (O(levels + bins) adds).
        bmin = int(start[full].min())
        bmax = int(cutoff[full].max())
        base = ehw[bmin:bmax].sum(axis=1)
        diff = np.zeros(bmax - bmin + 1)
        np.add.at(diff, start[full] - bmin, scale[full])
        np.add.at(diff, cutoff[full] - bmin, -scale[full])
        out[bmin:bmax] += np.cumsum(diff[:-1]) * base
        return out

    # With the Gaunt correction the per-level factor g(E / I_l) remains,
    # in the factored form of :func:`_gaunt_ratio_terms`: its scalar
    # folds into the level's scale, leaving two adds into scratch, one
    # divide and one dot over the level's window of the shared tables.
    pref, m_l, k_l = _gaunt_ratio_terms(energies)
    scale *= pref
    rows = np.flatnonzero(full)
    span = int((cutoff[rows] - start[rows]).max())
    num = np.empty((span, pieces + 1))
    den = np.empty((span, pieces + 1))
    for li in rows:
        lo = int(start[li])
        hi = int(cutoff[li])
        n = hi - lo
        np.add(u[lo:hi], m_l[li], out=num[:n])
        np.add(u2[lo:hi], k_l[li], out=den[:n])
        np.divide(num[:n], den[:n], out=num[:n])
        out[lo:hi] += scale[li] * np.einsum("bp,bp->b", num[:n], ehw[lo:hi])
    return out


def ion_emissivity_batched(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    method: BatchMethod = "simpson",
    pieces: int = 64,
    k: int = 7,
    gl_points: int = 12,
    gaunt: bool = True,
    abundances: AbundanceSet = SOLAR,
    tail_tol: float = 0.0,
) -> np.ndarray:
    """Per-bin RRC emission of one ion, computed with batch kernels.

    This is the unit of work of a coarse-grained (``Ion``) GPU task.
    ``method`` selects the pluggable kernel — the paper: "a general
    interface of the GPU-accelerated component is developed, so that
    different numerical integration algorithms can be connected to the
    main program on demand".

    ``tail_tol > 0`` enables active-window pruning: each level is only
    evaluated inside its accuracy-budgeted bin window and the result
    differs from the unpruned kernel by at most ``tail_tol`` relative
    tail mass per level.  ``tail_tol = 0`` (default) runs the original
    unpruned kernels bit-for-bit.
    """
    _check_tail_tol(tail_tol)
    if method == "simpson":
        if tail_tol > 0.0:
            return _fused_simpson_windows(
                db, ion, point, grid, pieces, gaunt, tail_tol, abundances
            )
        return _fused_simpson(db, ion, point, grid, pieces, gaunt, abundances)
    if method in ("romberg", "gauss"):
        ls = db.levels(ion)
        if tail_tol > 0.0 and len(ls) > 0:
            n_ion = ion_density(
                ion, point.temperature_k, point.ne_cm3, abundances=abundances
            )
            kt = point.kt_kev
            win = level_windows(ls.energy_kev, grid, kt, tail_tol, gaunt=gaunt)
            f = _window_integrand(ls.energy_kev, _flat_constants(ls, point, n_ion), kt, gaunt)
            if method == "romberg":
                return batch_romberg_windows(
                    f, grid.edges, win.first, win.cutoff,
                    lower_clip=ls.energy_kev, k=k,
                )
            return batch_gauss_windows(
                f, grid.edges, win.first, win.cutoff,
                lower_clip=ls.energy_kev, n=gl_points,
            )
        out = np.zeros(grid.n_bins, dtype=np.float64)
        for i in range(len(ls)):
            p = level_params_for(db, ion, i, point, abundances)
            f = make_level_integrand(p, gaunt=gaunt)
            lo = np.maximum(grid.lower, p.binding_kev)
            hi = np.maximum(grid.upper, lo)
            if method == "romberg":
                out += batch_romberg(f, lo, hi, k=k)
            else:
                out += batch_gauss_legendre(f, lo, hi, n=gl_points)
        return out
    raise ValueError(f"unknown batch method {method!r}")


def ion_emissivity_scalar(
    db: AtomicDatabase,
    ion: Ion,
    point: GridPoint,
    grid: EnergyGrid,
    method: ScalarMethod = "qags",
    pieces: int = 64,
    epsabs: float = 1.0e-30,
    epsrel: float = 1.0e-10,
    gaunt: bool = True,
    abundances: AbundanceSet = SOLAR,
    tail_tol: float = 0.0,
) -> np.ndarray:
    """Per-bin RRC emission of one ion, one scalar integral at a time.

    This is the CPU fallback path of Algorithm 1 (``CPU-Integr`` calling
    QAGS serially) and the reference for accuracy experiments.

    ``tail_tol > 0`` clamps each level's bin loop to its active window
    (same budget as the batched path); ``0`` scans every bin.
    """
    _check_tail_tol(tail_tol)
    ls = db.levels(ion)
    out = np.zeros(grid.n_bins, dtype=np.float64)
    win: LevelWindows | None = None
    if tail_tol > 0.0 and len(ls) > 0:
        win = level_windows(
            ls.energy_kev, grid, point.kt_kev, tail_tol, gaunt=gaunt
        )
    for i in range(len(ls)):
        p = level_params_for(db, ion, i, point, abundances)
        f = make_level_integrand(p, gaunt=gaunt)
        threshold = p.binding_kev
        if win is not None:
            bin_range = range(int(win.first[i]), int(win.cutoff[i]))
        else:
            bin_range = range(grid.n_bins)
        for b in bin_range:
            e0, e1 = float(grid.edges[b]), float(grid.edges[b + 1])
            if e1 <= threshold:
                continue  # entirely below the recombination edge
            # Split at the edge so adaptive quadrature sees a smooth
            # integrand (the kink at E = I is exactly representable).
            lo = max(e0, threshold)
            if method == "qags":
                out[b] += qags(f, lo, e1, epsabs=epsabs, epsrel=epsrel).value
            elif method == "simpson":
                out[b] += simpson(f, lo, e1, pieces=pieces).value
            else:
                raise ValueError(f"unknown scalar method {method!r}")
    return out


@dataclass(frozen=True)
class _RRCShard:
    """Picklable unit of parallel RRC work: some ions at one grid point.

    Carries everything a worker process needs to rebuild the calculation
    (database size knobs, grid edges, rule configuration) — never live
    objects with closures.
    """

    n_max: int
    z_max: int
    ions: tuple[Ion, ...]
    point: GridPoint
    edges: np.ndarray
    method: str
    pieces: int
    k: int
    gaunt: bool
    tail_tol: float
    abundances: AbundanceSet


#: Per-process memo of rebuilt databases (worker processes pay the level
#: construction once per configuration, not once per shard).
_WORKER_DBS: dict[tuple[int, int], AtomicDatabase] = {}


def _worker_db(n_max: int, z_max: int) -> AtomicDatabase:
    key = (n_max, z_max)
    db = _WORKER_DBS.get(key)
    if db is None:
        db = AtomicDatabase(AtomicConfig(n_max=n_max, z_max=z_max))
        _WORKER_DBS[key] = db
    return db


def _rrc_shard_worker(task: _RRCShard) -> np.ndarray:
    """Compute one shard's RRC emission (module-level: process-picklable).

    Returns the *stacked per-ion* arrays so the parent can reduce them in
    exact ion order — bit-identical to the serial loop on every backend.
    """
    model = SerialAPEC(
        _worker_db(task.n_max, task.z_max), EnergyGrid(task.edges),
        method=task.method, pieces=task.pieces, k=task.k,
        gaunt=task.gaunt, abundances=task.abundances, tail_tol=task.tail_tol,
    )
    return np.stack(
        [model.ion_emissivity(ion, task.point) for ion in task.ions]
    )


class SerialAPEC:
    """The APEC-style calculator: serial reference plus opt-in speedups.

    Parameters
    ----------
    db:
        Atomic database (size set by its :class:`AtomicConfig`).
    grid:
        Output energy grid.
    method / pieces / k:
        Integration rule used for every (level, bin) integral.  ``qags``
        and scalar ``simpson`` follow the scalar path; ``simpson-batch``
        and ``romberg`` use the vectorized kernels (useful when the serial
        reference itself would be too slow at full scale).
    tail_tol:
        Relative tail tolerance of active-window pruning; ``0`` (the
        default) disables pruning and reproduces the unpruned kernels
        bit-for-bit.  Must be finite.
    backend / jobs:
        Wall-clock execution backend for the RRC ion loop: ``serial``
        (default; the original in-process loop), ``thread`` or
        ``process`` (see :mod:`repro.parallel`).  Every backend runs the
        same per-ion kernel and sums the ions in the same order, so any
        backend produces the same spectrum bits as ``serial``.
    shards:
        Number of work shards the ion set is split into on the thread
        and process backends.  Deliberately independent of ``jobs``;
        fewer shards mean fewer round trips, more shards better load
        balance.  The spectrum bits never depend on it.
    """

    def __init__(
        self,
        db: AtomicDatabase,
        grid: EnergyGrid,
        method: str = "qags",
        pieces: int = 64,
        k: int = 7,
        gaunt: bool = True,
        components: tuple[str, ...] = ("rrc",),
        abundances: AbundanceSet = SOLAR,
        tail_tol: float = 0.0,
        backend: str = "serial",
        jobs: int | None = None,
        shards: int = 8,
    ) -> None:
        if method not in ("qags", "simpson", "simpson-batch", "romberg", "gauss"):
            raise ValueError(f"unknown method {method!r}")
        unknown = set(components) - {"rrc", "lines", "brems"}
        if unknown:
            raise ValueError(f"unknown components {sorted(unknown)}")
        if not components:
            raise ValueError("need at least one emission component")
        _check_tail_tol(tail_tol)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.db = db
        self.grid = grid
        self.method = method
        self.pieces = pieces
        self.k = k
        self.gaunt = gaunt
        self.components = tuple(components)
        self.abundances = abundances
        self.tail_tol = tail_tol
        self.backend = backend
        self.jobs = jobs
        self.shards = shards
        self._backend_obj: ExecutionBackend | None = None

    def _get_backend(self) -> ExecutionBackend:
        if self._backend_obj is None:
            self._backend_obj = get_backend(self.backend, self.jobs)
        return self._backend_obj

    def close(self) -> None:
        """Release pooled workers (no-op for the serial backend)."""
        if self._backend_obj is not None:
            self._backend_obj.close()
            self._backend_obj = None

    def __enter__(self) -> "SerialAPEC":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def ion_emissivity(self, ion: Ion, point: GridPoint) -> np.ndarray:
        if self.method in ("qags", "simpson"):
            return ion_emissivity_scalar(
                self.db, ion, point, self.grid,
                method=self.method, pieces=self.pieces, gaunt=self.gaunt,
                abundances=self.abundances, tail_tol=self.tail_tol,
            )
        return ion_emissivity_batched(
            self.db, ion, point, self.grid,
            method=_BATCH_METHOD[self.method],
            pieces=self.pieces, k=self.k, gaunt=self.gaunt,
            abundances=self.abundances, tail_tol=self.tail_tol,
        )

    def _rrc_values(
        self, point: GridPoint, ions: tuple[Ion, ...]
    ) -> np.ndarray:
        """RRC per-bin totals of one grid point over ``ions``.

        The serial backend runs the per-ion loop in-process.  Otherwise
        the ion set is split into backend-independent shards whose
        workers ship per-ion arrays back, reduced here in exact ion order
        (bit-identical to the serial loop).
        """
        if self.backend == "serial":
            out = np.zeros(self.grid.n_bins, dtype=np.float64)
            for ion in ions:
                out += self.ion_emissivity(ion, point)
            return out
        shards = shard_items(ions, self.shards)
        if not shards:
            return np.zeros(self.grid.n_bins, dtype=np.float64)
        tasks = [
            _RRCShard(
                n_max=self.db.config.n_max,
                z_max=self.db.config.z_max,
                ions=shard,
                point=point,
                edges=self.grid.edges,
                method=self.method,
                pieces=self.pieces,
                k=self.k,
                gaunt=self.gaunt,
                tail_tol=self.tail_tol,
                abundances=self.abundances,
            )
            for shard in shards
        ]
        out = np.zeros(self.grid.n_bins, dtype=np.float64)
        for block in self._get_backend().map(_rrc_shard_worker, tasks):
            for row in block:
                out += row
        return out

    def compute(self, point: GridPoint, ions: tuple[Ion, ...] | None = None) -> Spectrum:
        """Full spectrum at one grid point.

        Sums the configured emission components: ``rrc`` (the paper's
        workload), ``lines`` (collisional line emission) and ``brems``
        (free-free continuum).  Only the RRC component uses the parallel
        execution backends; the others stay serial.
        """
        spectrum = Spectrum.zeros(
            self.grid,
            temperature_k=point.temperature_k,
            ne_cm3=point.ne_cm3,
            method=self.method,
            components=self.components,
            tail_tol=self.tail_tol,
        )
        ion_set = ions if ions is not None else self.db.ions
        if "rrc" in self.components:
            spectrum.accumulate(self._rrc_values(point, ion_set))
        if "lines" in self.components:
            from repro.physics.lines import ion_line_emissivity

            for ion in ion_set:
                spectrum.accumulate(
                    ion_line_emissivity(
                        self.db, ion, point, self.grid,
                        abundances=self.abundances,
                    )
                )
        if "brems" in self.components:
            from repro.physics.brems import brems_emissivity

            spectrum.accumulate(
                brems_emissivity(
                    self.grid, point, z_max=self.db.config.z_max,
                    abundances=self.abundances,
                )
            )
        return spectrum


#: Public name of the model entry point; ``SerialAPEC`` is kept as the
#: historical alias (the class long ago stopped being serial-only).
ApecModel = SerialAPEC
