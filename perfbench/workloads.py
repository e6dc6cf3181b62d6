"""Workload definitions, seeded inputs, and the reason each workload exists.

Every workload runs the full paper-scale database
(``AtomicDatabase(AtomicConfig())``: 496 ions, 15,372 levels) on a
10-45 Angstrom grid, closed loop with one caller: each spectrum is
requested after the previous one returns.

Inputs come from fixed pools whose reference outputs are stored in
``refs/`` (computing a reference costs 2-7x the spectrum it checks, too
much to repeat in every run).  The seed draws which pool members a run
uses and in which order; the program only ever sees the drawn
temperatures and mock observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seed for headline figures, and a second one for re-checking a claim on
#: inputs not used while the change was written.
PRIMARY_SEED = 1
RECHECK_SEED = 2

NE_CM3 = 1.0
WAVELENGTH_A = (10.0, 45.0)
METHOD = "simpson-batch"

#: Sweep temperature pool: a log-uniform lattice over [1e6, 3e7] K cut
#: into strata of equal log width.  A run visits one member of every
#: stratum before any stratum repeats, so each run covers the whole
#: temperature range and per-run medians do not hinge on where the draws
#: fell (pruned windows widen with T, so cost depends on it).
SWEEP_T_RANGE_K = (1.0e6, 3.0e7)
SWEEP_STRATA = 6
SWEEP_PER_STRATUM = 6

#: Fit cases: true temperatures on a log-uniform lattice over [3e6, 3e7] K
#: (inside the fit bracket), each with its own Poisson noise realization.
FIT_T_RANGE_K = (3.0e6, 3.0e7)
FIT_CASES = 8
FIT_NOISE_SEED = 2015
FIT_BRACKET_K = (2.0e6, 6.0e7)
FIT_FWHM_KEV = 0.015
#: Expected total counts of a mock observation (sets its exposure).
FIT_COUNTS = 1.0e5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_bins: int
    tail_tol: float
    components: tuple[str, ...]
    backend: str
    #: Output check against the reference: "close" (within CHECK_RTOL) or
    #: "identical" (bit for bit).
    check: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep_pruned",
            why=(
                "Survey path: the per-ion pruned Simpson window kernel does "
                "~98% of the time; no temperature repeats, so every cache, "
                "memo, lattice and the executor are bypassed"
            ),
            n_bins=1000,
            tail_tol=1e-9,
            components=("rrc",),
            backend="serial",
            check="close",
        ),
        Workload(
            name="sweep_exact_parallel",
            why=(
                "Unpruned kernel (gaunt_factor ~half the time) plus the "
                "executor's shard, pickle and pool path, both bypassed by "
                "sweep_pruned; fewer bins to fit the run, never fewer ions"
            ),
            n_bins=300,
            tail_tol=0.0,
            components=("rrc",),
            backend="process",
            check="identical",
        ),
        Workload(
            name="fit_temperature",
            why=(
                "The paper's motivating use, time to a fitted temperature: "
                "evaluations converge on nearby temperatures, small grid "
                "weighs per-call overhead, only workload running lines"
            ),
            n_bins=200,
            tail_tol=1e-9,
            components=("rrc", "lines", "brems"),
            backend="serial",
            check="close",
        ),
    )
}


def _log_lattice(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` cell-centred points, evenly spaced in log T over [lo, hi]."""
    u = (np.arange(n) + 0.5) / n
    return 10.0 ** (np.log10(lo) + u * (np.log10(hi) - np.log10(lo)))


def sweep_pool() -> np.ndarray:
    """Every temperature a sweep may draw, stratum-major."""
    return _log_lattice(*SWEEP_T_RANGE_K, SWEEP_STRATA * SWEEP_PER_STRATUM)


def sweep_temperatures(seed: int) -> list[float]:
    """The seeded, non-repeating order in which a run visits the pool.

    Round ``r`` takes one not-yet-used member of every stratum, strata in
    a fresh seeded order, so any prefix of ``k * SWEEP_STRATA`` draws
    covers every stratum ``k`` times.
    """
    rng = np.random.default_rng(seed)
    pool = sweep_pool().reshape(SWEEP_STRATA, SWEEP_PER_STRATUM)
    members = [rng.permutation(SWEEP_PER_STRATUM) for _ in range(SWEEP_STRATA)]
    order: list[float] = []
    for r in range(SWEEP_PER_STRATUM):
        for s in rng.permutation(SWEEP_STRATA):
            order.append(float(pool[s, members[s][r]]))
    return order


def fit_true_temperatures() -> np.ndarray:
    return _log_lattice(*FIT_T_RANGE_K, FIT_CASES)


def fit_cases(seed: int) -> list[int]:
    """The seeded order in which a run fits the stored observations."""
    return [int(k) for k in np.random.default_rng(seed).permutation(FIT_CASES)]


def make_grid(workload: Workload):
    from repro.physics.spectrum import EnergyGrid

    return EnergyGrid.from_wavelength(*WAVELENGTH_A, workload.n_bins)


def make_model(workload: Workload, db, grid, jobs: int | None = None, backend=None):
    """The workload's model as a user would build it.

    ``backend``/``jobs`` override the workload's execution backend (the
    traced run maps the same shards on one thread for its efficiency
    baseline); fused execution and shard count stay at their defaults.
    """
    from repro.physics.apec import SerialAPEC

    return SerialAPEC(
        db, grid, method=METHOD, components=workload.components,
        tail_tol=workload.tail_tol, backend=backend or workload.backend,
        jobs=jobs,
    )


def make_reference_model(workload: Workload, db, grid):
    """The retained reference path: serial per-ion kernel, no pruning."""
    from repro.physics.apec import SerialAPEC

    return SerialAPEC(
        db, grid, method=METHOD, components=workload.components, tail_tol=0.0
    )


def make_response(grid):
    from repro.physics.fitting import InstrumentResponse

    return InstrumentResponse(grid, fwhm_kev=FIT_FWHM_KEV)


def grid_point(temperature_k: float):
    from repro.physics.apec import GridPoint

    return GridPoint(temperature_k=temperature_k, ne_cm3=NE_CM3)
