"""Approximate serving: log-T spectrum lattices with certified error.

The service's answer to a continuous temperature axis defeating exact
content-address caching: precompute spectra on a refinable log-spaced
temperature lattice (:mod:`repro.approx.lattice`), interpolate in
log-log space with a measured per-interval error certificate
(:mod:`repro.approx.interp`), and serve any request whose declared
``accuracy`` budget the certificate satisfies from the lattice in O(1)
(:mod:`repro.approx.store`).  Requests the lattice cannot certify fall
back to the exact path — accuracy is a contract, never a hope.
"""

from repro.approx.interp import (
    INTERP_METHODS,
    interpolate_loglog,
    peak_rel_error,
)
from repro.approx.lattice import (
    ExactFn,
    ExactManyFn,
    LatticeSpec,
    SpectrumLattice,
    plan_exact_fn,
)
from repro.approx.store import (
    LatticeResult,
    LatticeStats,
    LatticeStore,
    RequestEvaluator,
)

__all__ = [
    "ExactFn",
    "ExactManyFn",
    "INTERP_METHODS",
    "LatticeResult",
    "LatticeSpec",
    "LatticeStats",
    "LatticeStore",
    "RequestEvaluator",
    "SpectrumLattice",
    "interpolate_loglog",
    "peak_rel_error",
    "plan_exact_fn",
]
