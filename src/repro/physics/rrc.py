"""The RRC integrand of Eq. (1) and per-level emissivity helpers.

Equation (1) of the paper:

    dP/dE = n_e * n_(Z,j+1) * 4 * (E_e / kT) * sqrt(1 / (2 pi m_e kT)) * A
    A     = sigma_rec_n(E_e) * exp(-E_e / kT) * E_gamma,
    E_e   = E_gamma - I_(Z,j,n)   (zero below threshold)

which is exactly the Maxwellian-averaged Milne form of radiative
recombination emission.  With the pure Kramers cross section the power-law
factors cancel and the integrand reduces to ``C * exp(-E_e / kT)`` above
threshold; we therefore multiply by a Karzas–Latter-style bound-free Gaunt
factor by default so the integrand keeps realistic curvature, and expose
``gaunt=False`` (with :func:`analytic_bin_integral` as the closed-form
reference) for exactness tests.

Units: energies keV, densities cm^-3, cross sections cm^2; the emitted
power carries an arbitrary-but-consistent overall scale, which cancels in
every experiment (normalized flux, relative error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.atomic.cross_sections import kramers_photoionization
from repro.constants import K_B_KEV, ME_C2_KEV, maxwellian_norm

__all__ = [
    "RRCLevelParams",
    "gaunt_factor",
    "rrc_prefactor",
    "rrc_integrand",
    "make_level_integrand",
    "analytic_bin_integral",
]


@dataclass(frozen=True)
class RRCLevelParams:
    """Everything Eq. (1) needs for one level of one ion at one grid point.

    Attributes
    ----------
    binding_kev:
        Level binding energy I(Z, j, n).
    n, c_eff, g_level:
        Principal quantum number, effective charge and statistical weight
        of the captured level (cross-section inputs).
    kt_kev:
        Plasma thermal energy.
    ne_cm3, n_ion_cm3:
        Electron and recombining-ion number densities.
    """

    binding_kev: float
    n: int
    c_eff: float
    g_level: float
    kt_kev: float
    ne_cm3: float
    n_ion_cm3: float

    def __post_init__(self) -> None:
        if self.binding_kev <= 0.0:
            raise ValueError("binding energy must be positive")
        if self.kt_kev <= 0.0:
            raise ValueError("kT must be positive")
        if self.ne_cm3 < 0.0 or self.n_ion_cm3 < 0.0:
            raise ValueError("densities must be non-negative")

    @property
    def temperature_k(self) -> float:
        return self.kt_kev / K_B_KEV


#: Slopes of :func:`gaunt_factor`'s ratio form
#: ``g = (1 + GAUNT_BETA (c - 1)) / (1 + GAUNT_GAMMA (c**2 - 1))``,
#: ``c = cbrt(max(x, 1))``.
GAUNT_BETA = 0.1728
GAUNT_GAMMA = 0.0496


def gaunt_factor(x: np.ndarray) -> np.ndarray:
    """Bound-free Gaunt-like correction g(E_gamma / I) >= 0.

    Smooth, equal to 1 at threshold (x = 1), with the gentle sub-power-law
    rise and turnover of Karzas–Latter tables.  Exact values are not
    physical claims — only the *shape class* matters for the workload.
    """
    x = np.asarray(x, dtype=np.float64)
    xc = np.maximum(x, 1.0)
    cbrt = np.cbrt(xc)
    # Ratio form: equals 1 at threshold, rises gently, then decays like
    # x^(-1/3) far above it — positive everywhere, unlike the truncated
    # Karzas-Latter series whose quadratic term goes negative at x ~ 250.
    return (1.0 + GAUNT_BETA * (cbrt - 1.0)) / (1.0 + GAUNT_GAMMA * (cbrt**2 - 1.0))


def rrc_prefactor(p: RRCLevelParams) -> float:
    """The energy-independent factor n_e n_i 4 sqrt(1/(2 pi m_e kT)) / kT."""
    return (
        p.ne_cm3
        * p.n_ion_cm3
        * 4.0
        * maxwellian_norm(p.temperature_k)
        / p.kt_kev
    )


def rrc_integrand(
    e_gamma_kev: np.ndarray,
    p: RRCLevelParams,
    gaunt: bool = True,
) -> np.ndarray:
    """dP/dE of Eq. (1) at photon energies ``e_gamma_kev`` (any shape).

    Zero below the recombination edge E_gamma < I.
    """
    e = np.asarray(e_gamma_kev, dtype=np.float64)
    e_e = e - p.binding_kev
    # The Milne relation divides by E_e, but Eq. (1) multiplies it back:
    #   E_e * sigma_rec(E_e) = g/(2 g_ion) * E_gamma^2 / (2 m_e c^2)
    #                          * sigma_ph(E_gamma).
    # Using the product form keeps the integrand finite *and defined* at
    # the threshold E_gamma = I (closed mask), so fixed-node rules that
    # evaluate the clipped endpoint (Simpson, Romberg) agree with
    # open-node rules (Gauss-Kronrod) to rounding.
    above = e_e >= 0.0
    sigma_ph = kramers_photoionization(e, p.binding_kev, p.n, p.c_eff)
    with np.errstate(over="ignore", under="ignore"):
        val = (
            rrc_prefactor(p)
            * (p.g_level / 2.0)
            * e**2
            / (2.0 * ME_C2_KEV)
            * sigma_ph
            * np.exp(-np.where(above, e_e, 0.0) / p.kt_kev)
            * e
        )
    if gaunt:
        val = val * gaunt_factor(e / p.binding_kev)
    return np.where(above, val, 0.0)


def make_level_integrand(
    p: RRCLevelParams, gaunt: bool = True
) -> Callable[[np.ndarray], np.ndarray]:
    """Closure form of :func:`rrc_integrand`, for the quadrature APIs."""

    def f(e_gamma_kev: np.ndarray) -> np.ndarray:
        return rrc_integrand(e_gamma_kev, p, gaunt=gaunt)

    return f


def _flat_constant(p: RRCLevelParams) -> float:
    """The constant C of the gaunt-free integrand C * exp(-E_e / kT).

    Kramers + Milne collapse:  E_e * sigma_rec(E_e) * E_gamma
      = E_e * [g/(2 g_ion) * E_gamma^2 / (2 m_e c^2 E_e) * sigma_K n (I/E_gamma)^3 / c_eff^2] * E_gamma
      = g/(2 g_ion) * sigma_K * n * I^3 / (2 m_e c^2 c_eff^2).
    """
    from repro.constants import ME_C2_KEV, SIGMA_KRAMERS_CM2

    weight = p.g_level / 2.0
    return (
        rrc_prefactor(p)
        * weight
        * SIGMA_KRAMERS_CM2
        * p.n
        * p.binding_kev**3
        / (2.0 * ME_C2_KEV * p.c_eff**2)
    )


def analytic_bin_integral(
    e0_kev: float, e1_kev: float, p: RRCLevelParams
) -> float:
    """Exact Eq. (2) bin integral for the ``gaunt=False`` integrand.

    integral_{max(E0, I)}^{E1} C exp(-(E - I)/kT) dE
      = C kT [exp(-(lo - I)/kT) - exp(-(E1 - I)/kT)].

    Used by tests to pin the quadrature stack against a closed form.
    """
    if e1_kev < e0_kev:
        raise ValueError("bin upper edge below lower edge")
    lo = max(e0_kev, p.binding_kev)
    if e1_kev <= lo:
        return 0.0
    c = _flat_constant(p)
    kt = p.kt_kev
    return c * kt * (
        np.exp(-(lo - p.binding_kev) / kt) - np.exp(-(e1_kev - p.binding_kev) / kt)
    )
