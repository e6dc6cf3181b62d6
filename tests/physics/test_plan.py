"""Compiled spectrum plans and the cross-request plan cache.

Pinned promises:

1. A plan's windows and per-ion active counts match the per-ion
   :func:`repro.physics.windows.level_windows` search exactly.
2. Executing a plan is bit-identical to the serial ``SerialAPEC`` loop
   over the plan's ions on seeded (temperature, method, tail tolerance)
   combinations.
3. The cache is content-addressed: identical inputs hit, every key knob
   (grid, method, pieces, k, tail tolerance, Gaunt flag) misses, and a
   temperature change never recompiles (plans are T-independent).
"""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.constants import K_B_KEV
from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.plan import PlanCache, SpectrumPlan
from repro.physics.spectrum import EnergyGrid
from repro.physics.windows import level_windows


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


@pytest.fixture(scope="module")
def grid() -> EnergyGrid:
    return EnergyGrid.from_wavelength(10.0, 45.0, 48)


#: Plan method -> the SerialAPEC method running the same per-ion kernel.
_MODEL_METHOD = {"simpson": "simpson-batch", "romberg": "romberg", "gauss": "gauss"}


def _get(cache: PlanCache, db, grid, **kw) -> SpectrumPlan:
    base = dict(method="simpson", pieces=32, k=5, tail_tol=1.0e-9, gaunt=True)
    base.update(kw)
    return cache.get(db, grid, ions=tuple(db.ions), **base)


class TestPlanStructure:
    def test_windows_match_level_windows_per_ion(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        for kt in (0.4, 0.8617, 1.5):
            first, cutoff = plan.windows(kt)
            for i, ion in enumerate(plan.ions):
                lo, hi = plan.offsets[i], plan.offsets[i + 1]
                if lo == hi:
                    continue
                win = level_windows(
                    db.levels(ion).energy_kev, grid, kt, 1.0e-9, gaunt=True
                )
                np.testing.assert_array_equal(first[lo:hi], win.first)
                np.testing.assert_array_equal(cutoff[lo:hi], win.cutoff)

    def test_per_ion_active_matches_window_counts(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        kt = K_B_KEV * 1.0e7
        active = plan.per_ion_active(kt)
        assert active.shape == (len(plan.ions),)
        for i, ion in enumerate(plan.ions):
            if db.n_levels(ion) == 0:
                assert active[i] == 0
                continue
            win = level_windows(
                db.levels(ion).energy_kev, grid, kt, 1.0e-9, gaunt=True
            )
            assert active[i] == win.n_active

    def test_window_memo_reuses_arrays(self, db, grid):
        plan = _get(PlanCache(), db, grid)
        a = plan.windows(0.8617)
        b = plan.windows(0.8617)
        assert a[0] is b[0] and a[1] is b[1]


class TestPlanExecution:
    @pytest.mark.parametrize("tail_tol", [0.0, 1.0e-9])
    @pytest.mark.parametrize("method", ["simpson", "romberg", "gauss"])
    def test_matches_per_ion_path_seeded(self, db, grid, method, tail_tol):
        rng = np.random.default_rng(2015)
        plan = _get(PlanCache(), db, grid, method=method, tail_tol=tail_tol)
        model = SerialAPEC(
            db, grid, method=_MODEL_METHOD[method], pieces=32, k=5,
            tail_tol=tail_tol, backend="serial",
        )
        for temperature in 10 ** rng.uniform(6.3, 7.3, size=3):
            point = GridPoint(temperature_k=float(temperature), ne_cm3=1.0)
            expected = model.compute(point, ions=plan.ions).values
            np.testing.assert_array_equal(plan.execute(point).values, expected)


class TestPlanCache:
    def test_same_inputs_hit(self, db, grid):
        cache = PlanCache()
        a = _get(cache, db, grid)
        b = _get(cache, db, grid)
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.compilations == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"method": "romberg"},
            {"pieces": 64},
            {"k": 6},
            {"tail_tol": 1.0e-6},
            {"gaunt": False},
        ],
    )
    def test_every_key_knob_misses(self, db, grid, change):
        cache = PlanCache()
        _get(cache, db, grid)
        _get(cache, db, grid, **change)
        assert cache.stats.compilations == 2
        assert cache.stats.hits == 0

    def test_grid_change_misses(self, db, grid):
        cache = PlanCache()
        _get(cache, db, grid)
        _get(cache, db, EnergyGrid.from_wavelength(10.0, 45.0, 50))
        assert cache.stats.compilations == 2

    def test_temperature_never_recompiles(self, db, grid):
        cache = PlanCache()
        plan = _get(cache, db, grid)
        for t in (5.0e6, 1.0e7, 2.0e7):
            plan.execute(GridPoint(temperature_k=t, ne_cm3=1.0))
        again = _get(cache, db, grid)
        assert again is plan
        assert cache.stats.compilations == 1

    def test_lru_eviction(self, db, grid):
        cache = PlanCache(max_entries=2)
        _get(cache, db, grid, pieces=16)
        _get(cache, db, grid, pieces=32)
        _get(cache, db, grid, pieces=64)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (pieces=16) was evicted; refetching recompiles.
        _get(cache, db, grid, pieces=16)
        assert cache.stats.compilations == 4

    def test_rejects_unknown_method(self, db, grid):
        with pytest.raises(ValueError, match="method"):
            _get(PlanCache(), db, grid, method="midpoint")

    @pytest.mark.parametrize("tail_tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_tail_tol(self, db, grid, tail_tol):
        cache = PlanCache()
        with pytest.raises(ValueError, match="tail_tol"):
            _get(cache, db, grid, tail_tol=tail_tol)
        assert len(cache) == 0

    def test_stats_as_dict(self, db, grid):
        cache = PlanCache()
        _get(cache, db, grid)
        d = cache.stats.as_dict()
        assert d["compilations"] == 1
        assert cache.stats.lookups == 1
        assert cache.stats.hit_rate == 0.0
