"""Pruned (active-window) kernels vs the dense reference.

The promises pinned here:

1. ``tail_tol = 0`` is *bit-for-bit* identical to the legacy kernels —
   pruning off must not perturb a single ULP.
2. ``tail_tol > 0`` agrees with the dense reference to within the
   requested relative tail tolerance on every bin, across seeded
   (temperature, grid, ion) combinations, quadrature methods, and both
   Gaunt settings.
3. The pruned Simpson kernel's shared-abscissa fast path — factored
   Gaunt ratio, node tables memoized once per spectrum — agrees with
   its generic CSR fallback, and the memo never serves one grid's or
   temperature's tables to another, serially or across threads.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.physics import apec
from repro.physics.apec import (
    GridPoint,
    SerialAPEC,
    _flat_constants,
    _fused_simpson_windows,
    _gaunt_ratio_terms,
    _node_tables,
    _window_integrand,
    ion_emissivity_batched,
    ion_emissivity_scalar,
)
from repro.physics.ionbalance import ion_density
from repro.physics.rrc import gaunt_factor
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import level_windows
from repro.quadrature.batch import batch_simpson_windows, unit_fractions


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


def _grids() -> list[EnergyGrid]:
    return [
        # The paper's window: edges mostly below, ~1 kT span at 1e7 K.
        EnergyGrid.from_wavelength(10.0, 45.0, 64),
        # A wide grid where the tail cutoff genuinely binds at low kT.
        EnergyGrid.linear(0.05, 12.0, 150),
    ]


def _assert_within_budget(
    pruned: np.ndarray, dense: np.ndarray, tail_tol: float
) -> None:
    """The pruning contract: dropped mass <= tail_tol * total mass.

    The budget is *mass*-relative — a bin beyond the cutoff is dropped
    entirely (pointwise relative error 1) precisely because its whole
    content fits in the budget.  So assert the summed residual against
    the total emission, and the per-bin residual against the peak.
    """
    resid = np.abs(pruned - dense)
    total = float(dense.sum())
    slack = 1.0 + 1e-9  # float reassociation noise on top of the budget
    assert float(resid.sum()) <= tail_tol * total * slack + 1e-300
    assert float(resid.max()) <= tail_tol * total * slack + 1e-300


class TestBitForBitOff:
    @pytest.mark.parametrize("method", ["simpson", "romberg", "gauss"])
    @pytest.mark.parametrize("gaunt", [True, False])
    def test_zero_tail_tol_identical(self, db, method, gaunt):
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 64)
        for ion in list(db.ions)[:6]:
            if db.n_levels(ion) == 0:
                continue
            dense = ion_emissivity_batched(
                db, ion, point, grid, method=method, gaunt=gaunt
            )
            off = ion_emissivity_batched(
                db, ion, point, grid, method=method, gaunt=gaunt, tail_tol=0.0
            )
            assert np.array_equal(dense, off)

    def test_negative_tail_tol_rejected(self, db):
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 16)
        ion = list(db.ions)[0]
        with pytest.raises(ValueError):
            ion_emissivity_batched(db, ion, point, grid, tail_tol=-1e-9)
        with pytest.raises(ValueError):
            ion_emissivity_scalar(db, ion, point, grid, tail_tol=-1e-9)
        with pytest.raises(ValueError):
            SerialAPEC(db, grid, tail_tol=-1e-9)


class TestPrunedWithinTolerance:
    @pytest.mark.parametrize("method", ["simpson", "romberg", "gauss"])
    @pytest.mark.parametrize("gaunt", [True, False])
    @pytest.mark.parametrize("tail_tol", [1e-6, 1e-9])
    def test_property_seeded_combinations(self, db, method, gaunt, tail_tol):
        rng = np.random.default_rng(20150413)
        ions = [i for i in db.ions if db.n_levels(i) > 0]
        temperatures = [1.0e6, 1.0e7, 5.0e7]
        for grid in _grids():
            for t_k in temperatures:
                point = GridPoint(temperature_k=t_k, ne_cm3=1.0)
                for ion in rng.choice(len(ions), size=3, replace=False):
                    ion = ions[int(ion)]
                    dense = ion_emissivity_batched(
                        db, ion, point, grid, method=method, gaunt=gaunt
                    )
                    pruned = ion_emissivity_batched(
                        db,
                        ion,
                        point,
                        grid,
                        method=method,
                        gaunt=gaunt,
                        tail_tol=tail_tol,
                    )
                    if not dense.any():
                        assert not pruned.any()
                        continue
                    _assert_within_budget(pruned, dense, tail_tol)

    def test_scalar_clamp_matches_dense_scan(self, db):
        # The scalar path's early bin-range clamp must agree with the
        # full scan to the same budget.
        point = GridPoint(temperature_k=2.0e6, ne_cm3=1.0)
        grid = EnergyGrid.linear(0.05, 8.0, 60)
        ion = [i for i in db.ions if i.name == "O+7"][0]
        dense = ion_emissivity_scalar(db, ion, point, grid, method="simpson")
        pruned = ion_emissivity_scalar(
            db, ion, point, grid, method="simpson", tail_tol=1e-9
        )
        _assert_within_budget(pruned, dense, 1e-9)

    def test_serial_apec_threads_tail_tol(self, db):
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 40)
        point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        dense = SerialAPEC(db, grid, method="simpson-batch").compute(point)
        pruned = SerialAPEC(
            db, grid, method="simpson-batch", tail_tol=1e-9
        ).compute(point)
        assert pruned.meta["tail_tol"] == 1e-9
        _assert_within_budget(pruned.values, dense.values, 1e-9)


class TestFactoredGaunt:
    def test_factored_ratio_matches_gaunt_factor(self, db):
        # On and above each edge the kernel evaluates the Gaunt factor as
        # pref * (u + m) / (u^2 + k) with u = cbrt(x); pin that identity
        # against rrc.gaunt_factor(x / I) on its own.
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 64)
        pieces = 64
        x = grid.lower[:, None] + grid.widths[:, None] * unit_fractions(
            pieces + 1
        )[None, :]
        x = x.ravel()
        u = np.cbrt(x)
        energies = np.concatenate([db.levels(ion).energy_kev for ion in db.ions])
        pref, m, k = _gaunt_ratio_terms(energies)
        checked = 0
        for i_l, p_l, m_l, k_l in zip(energies, pref, m, k):
            above = x >= i_l
            if not above.any():
                continue
            factored = p_l * (u[above] + m_l) / (u[above] * u[above] + k_l)
            direct = gaunt_factor(x[above] / i_l)
            np.testing.assert_allclose(factored, direct, rtol=1e-14, atol=0.0)
            checked += int(above.sum())
        assert checked > 0


def _windows_and_integrand(db, ion, point, grid, tail_tol, gaunt):
    ls = db.levels(ion)
    n_ion = ion_density(ion, point.temperature_k, point.ne_cm3)
    c_l = _flat_constants(ls, point, n_ion)
    win = level_windows(ls.energy_kev, grid, point.kt_kev, tail_tol, gaunt=gaunt)
    f = _window_integrand(ls.energy_kev, c_l, point.kt_kev, gaunt)
    return win, f, ls.energy_kev


class TestSharedAbscissaeVsFallback:
    """The shared-abscissa fast path against the generic CSR fallback."""

    @pytest.mark.parametrize("gaunt", [True, False])
    def test_fast_path_matches_fallback(self, db, gaunt, monkeypatch):
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 64)
        ions = [i for i in db.ions if db.n_levels(i) > 0]
        compared = 0
        for t_k in (1.0e6, 1.0e7, 5.0e7):
            point = GridPoint(temperature_k=t_k, ne_cm3=1.0)
            for ion in ions:
                win, f, energies = _windows_and_integrand(
                    db, ion, point, grid, 1e-9, gaunt
                )
                fallback = batch_simpson_windows(
                    f, grid.edges, win.first, win.cutoff,
                    lower_clip=energies, pieces=64,
                )
                with monkeypatch.context() as m:
                    # The fast path must not route through the fallback.
                    m.setattr(apec, "batch_simpson_windows", None)
                    fast = _fused_simpson_windows(
                        db, ion, point, grid, 64, gaunt, 1e-9
                    )
                total = float(fallback.sum())
                if total == 0.0:
                    assert not fast.any()
                    continue
                assert float(np.abs(fast - fallback).max()) <= 1e-12 * total
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("gaunt", [True, False])
    def test_precision_gate_returns_fallback_exactly(self, db, gaunt, monkeypatch):
        grid = EnergyGrid.from_wavelength(10.0, 45.0, 64)
        point = GridPoint(temperature_k=2.0e6, ne_cm3=1.0)
        calls = []
        real = apec.batch_simpson_windows

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(apec, "batch_simpson_windows", spy)
        ions = [i for i in db.ions if db.n_levels(i) > 0][:8]
        for ion in ions:
            win, f, energies = _windows_and_integrand(
                db, ion, point, grid, 1e-14, gaunt
            )
            if not (win.first < win.cutoff).any():
                continue
            expected = real(
                f, grid.edges, win.first, win.cutoff,
                lower_clip=energies, pieces=64,
            )
            before = len(calls)
            got = _fused_simpson_windows(db, ion, point, grid, 64, gaunt, 1e-14)
            assert len(calls) == before + 1
            np.testing.assert_array_equal(got, expected)
        assert calls


class TestNodeTableMemo:
    """The once-per-spectrum node tables: no poisoning, no races."""

    GRIDS = (
        EnergyGrid.from_wavelength(10.0, 45.0, 48),
        EnergyGrid.from_wavelength(12.0, 40.0, 48),  # same n_bins, new edges
    )
    TEMPERATURES = (3.0e6, 1.0e7)

    def _model(self, db, grid, **kw) -> SerialAPEC:
        return SerialAPEC(
            db, grid, method="simpson-batch", components=("rrc",),
            tail_tol=1e-9, **kw,
        )

    def _cases(self):
        return [
            (g, t) for t in self.TEMPERATURES for g in range(len(self.GRIDS))
        ] * 2

    def _fresh(self, db, monkeypatch) -> dict:
        ref = {}
        for g, grid in enumerate(self.GRIDS):
            for t_k in self.TEMPERATURES:
                monkeypatch.setattr(apec, "_NODE_MEMO", None)
                point = GridPoint(temperature_k=t_k, ne_cm3=1.0)
                ref[g, t_k] = self._model(db, grid).compute(point).values
        return ref

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_interleaved_grids_match_fresh_memo(self, db, backend, monkeypatch):
        ref = self._fresh(db, monkeypatch)
        kw = {"backend": "thread", "jobs": 2} if backend == "thread" else {}
        models = [self._model(db, grid, **kw) for grid in self.GRIDS]
        try:
            for g, t_k in self._cases():
                point = GridPoint(temperature_k=t_k, ne_cm3=1.0)
                np.testing.assert_array_equal(
                    models[g].compute(point).values, ref[g, t_k]
                )
        finally:
            for model in models:
                model.close()

    def test_concurrent_spectra_match_fresh_memo(self, db, monkeypatch):
        # Four callers on two grids and two temperatures swap the one
        # memo slot under each other, with a short switch interval; each
        # must still get its own grid's and temperature's tables.
        ref = self._fresh(db, monkeypatch)
        models = [self._model(db, grid) for grid in self.GRIDS]

        def run(case):
            g, t_k = case
            point = GridPoint(temperature_k=t_k, ne_cm3=1.0)
            return models[g].compute(point).values

        cases = self._cases() * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, cases, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(cases)
        for case, values in zip(cases, results):
            np.testing.assert_array_equal(values, ref[case])

    def test_tables_built_once_and_read_only(self, monkeypatch):
        monkeypatch.setattr(apec, "_NODE_MEMO", None)
        grid = self.GRIDS[0]
        tables = _node_tables(grid, 0.5, 16)
        again = _node_tables(grid, 0.5, 16)
        assert all(a is b for a, b in zip(tables, again))
        for table in (*tables, apec._NODE_MEMO[2]):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
        # A new temperature or piece count rebuilds the slot.
        assert _node_tables(grid, 0.6, 16)[0] is not tables[0]
        assert _node_tables(grid, 0.6, 32)[0].shape == (grid.n_bins, 33)
