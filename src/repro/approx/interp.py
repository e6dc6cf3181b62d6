"""Log-log spectral interpolation kernels and the error metric.

The lattice tier stores spectra at log-spaced temperatures and serves
intermediate temperatures by interpolating each bin's flux along the
``u = ln kT`` axis.  Fluxes span many orders of magnitude and are close
to exponential in ``1/kT``, so the natural variable pair is
``(ln kT, ln flux)`` — log-log interpolation linearizes the dominant
``exp(-E/kT)`` behaviour and keeps the per-interval curvature (and with
it the interpolation error) small.

Bins can hold *exactly* zero flux (a bin entirely above every modelled
edge), where the log transform is undefined.  Rather than flooring into
a fake epsilon, each bin picks its transform from its own stencil: bins
whose stencil values are all positive interpolate in log flux, the rest
fall back to linear flux (which reproduces exact zeros exactly).

Errors are measured **peak-relative**: ``max |approx - exact|`` over
bins divided by the exact spectrum's peak.  Per-bin relative error is
meaningless in the far tail (fluxes underflow toward 0 where even a
perfect method has huge relative noise); peak-normalized error is what
a spectrum-level accuracy budget can promise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INTERP_METHODS",
    "interpolate_loglog",
    "peak_rel_error",
]

#: Supported interpolation methods along the log-T axis.
INTERP_METHODS = ("linear", "cubic")

#: Peak floor guarding the relative-error division for all-zero spectra.
_TINY_PEAK = 1.0e-300


def peak_rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Peak-relative error: ``max |approx - exact| / max |exact|``."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    peak = max(float(np.max(np.abs(exact))), _TINY_PEAK)
    return float(np.max(np.abs(approx - exact)) / peak)


def _log_mask(stencil: np.ndarray) -> np.ndarray:
    """Bins safe for the log transform: every stencil value positive."""
    return np.all(stencil > 0.0, axis=0)


def _hermite_slopes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-node derivative estimates dv/du on a non-uniform grid.

    Interior nodes use the h-weighted three-point formula (exact for
    quadratics); the end nodes use one-sided secants.  ``u`` is (n,)
    ascending, ``v`` is (n, bins); returns (n, bins).
    """
    n = u.size
    dv = np.diff(v, axis=0)
    h = np.diff(u)[:, None]
    sec = dv / h
    m = np.empty_like(v)
    m[0] = sec[0]
    m[-1] = sec[-1]
    if n > 2:
        h0 = h[:-1]
        h1 = h[1:]
        m[1:-1] = (h1 * sec[:-1] + h0 * sec[1:]) / (h0 + h1)
    return m


def _hermite_eval(
    u0: float, u1: float, v0: np.ndarray, v1: np.ndarray,
    m0: np.ndarray, m1: np.ndarray, u: float,
) -> np.ndarray:
    """Cubic Hermite value at ``u`` on one interval (vectorized per bin)."""
    h = u1 - u0
    t = (u - u0) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return h00 * v0 + h10 * h * m0 + h01 * v1 + h11 * h * m1


def interpolate_loglog(
    u_nodes: np.ndarray,
    values: np.ndarray,
    u: float,
    method: str = "linear",
) -> np.ndarray:
    """Interpolate node spectra to one abscissa ``u`` (``= ln kT``).

    ``u_nodes`` is a (n,) strictly-ascending array, ``values`` the
    matching (n, bins) node spectra.  ``u`` must lie inside
    ``[u_nodes[0], u_nodes[-1]]``.  ``method`` is ``"linear"`` (2-node
    stencil) or ``"cubic"`` (4-node Hermite stencil, clamped at the
    boundary).  Each bin interpolates ``ln flux`` when its whole stencil
    is positive and raw flux otherwise; a ``u`` exactly on a node
    returns that node's spectrum bit for bit.
    """
    u_nodes = np.asarray(u_nodes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if method not in INTERP_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {INTERP_METHODS}"
        )
    n = u_nodes.size
    if n < 2:
        raise ValueError("need at least two lattice nodes")
    if not u_nodes[0] <= u <= u_nodes[-1]:
        raise ValueError(
            f"u={u} outside the lattice domain "
            f"[{u_nodes[0]}, {u_nodes[-1]}]"
        )
    # Node coincidence: serve the stored spectrum exactly.
    j = int(np.searchsorted(u_nodes, u))
    if j < n and u_nodes[j] == u:
        return values[j].copy()
    i = j - 1  # containing interval [u_i, u_{i+1}]

    if method == "linear":
        lo, hi = i, i + 2
    else:
        lo, hi = max(0, i - 1), min(n, i + 3)
    stencil = values[lo:hi]
    log_ok = _log_mask(stencil)

    def blend(vals: np.ndarray) -> np.ndarray:
        """Interpolate one (stencil, bins) value block at ``u``."""
        if method == "linear":
            t = (u - u_nodes[i]) / (u_nodes[i + 1] - u_nodes[i])
            return (1.0 - t) * vals[i - lo] + t * vals[i + 1 - lo]
        m = _hermite_slopes(u_nodes[lo:hi], vals)
        return _hermite_eval(
            u_nodes[i], u_nodes[i + 1],
            vals[i - lo], vals[i + 1 - lo],
            m[i - lo], m[i + 1 - lo], u,
        )

    out = blend(stencil)
    if log_ok.any():
        logged = np.exp(blend(np.log(stencil[:, log_ok])))
        out[log_ok] = logged
    return out
