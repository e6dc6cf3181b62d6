"""The serial APEC calculator and the batched/scalar path agreement."""

import numpy as np
import pytest

from repro.atomic.ions import Ion
from repro.physics.apec import (
    GridPoint,
    SerialAPEC,
    ion_emissivity_batched,
    ion_emissivity_scalar,
    level_params_for,
)


@pytest.fixture()
def oxygen_h_like(tiny_db):
    return [i for i in tiny_db.ions if i.name == "O+7"][0]


class TestGridPoint:
    def test_kt(self):
        pt = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
        assert pt.kt_kev == pytest.approx(0.8617, rel=1e-3)

    @pytest.mark.parametrize("kwargs", [dict(temperature_k=0.0, ne_cm3=1.0), dict(temperature_k=1e6, ne_cm3=-1.0)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridPoint(**kwargs)

    @pytest.mark.parametrize(
        "temperature_k, ne_cm3",
        [
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (1.0e7, float("nan")),
            (1.0e7, float("inf")),
        ],
    )
    def test_non_finite_rejected(self, temperature_k, ne_cm3):
        with pytest.raises(ValueError, match="finite"):
            GridPoint(temperature_k=temperature_k, ne_cm3=ne_cm3)


@pytest.mark.parametrize("tail_tol", [float("nan"), float("inf")])
class TestNonFiniteTailTol:
    def test_model_rejects(self, tiny_db, grid_small, tail_tol):
        with pytest.raises(ValueError, match="tail_tol"):
            SerialAPEC(tiny_db, grid_small, method="simpson-batch", tail_tol=tail_tol)

    @pytest.mark.parametrize("kernel", [ion_emissivity_batched, ion_emissivity_scalar])
    def test_kernels_reject(
        self, tiny_db, hot_point, grid_small, oxygen_h_like, kernel, tail_tol
    ):
        with pytest.raises(ValueError, match="tail_tol"):
            kernel(tiny_db, oxygen_h_like, hot_point, grid_small, tail_tol=tail_tol)


class TestLevelParams:
    def test_params_match_database(self, tiny_db, hot_point, oxygen_h_like):
        ls = tiny_db.levels(oxygen_h_like)
        p = level_params_for(tiny_db, oxygen_h_like, 0, hot_point)
        assert p.binding_kev == pytest.approx(float(ls.energy_kev[0]))
        assert p.n == int(ls.n_arr[0])
        assert p.kt_kev == hot_point.kt_kev


class TestPathAgreement:
    def test_batched_simpson_matches_qags(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        batched = ion_emissivity_batched(tiny_db, oxygen_h_like, hot_point, grid_small)
        scalar = ion_emissivity_scalar(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="qags"
        )
        nz = scalar != 0.0
        assert nz.any()
        rel = np.abs((batched[nz] - scalar[nz]) / scalar[nz])
        assert rel.max() < 1e-10

    def test_batched_romberg_matches_qags(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        batched = ion_emissivity_batched(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="romberg", k=7
        )
        scalar = ion_emissivity_scalar(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="qags"
        )
        nz = scalar != 0.0
        rel = np.abs((batched[nz] - scalar[nz]) / scalar[nz])
        assert rel.max() < 1e-9

    def test_scalar_simpson_matches_batched(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        scalar = ion_emissivity_scalar(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="simpson"
        )
        batched = ion_emissivity_batched(tiny_db, oxygen_h_like, hot_point, grid_small)
        nz = batched != 0.0
        assert np.allclose(scalar[nz], batched[nz], rtol=1e-12)

    def test_unknown_methods_rejected(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        with pytest.raises(ValueError):
            ion_emissivity_batched(
                tiny_db, oxygen_h_like, hot_point, grid_small, method="magic"
            )
        with pytest.raises(ValueError):
            ion_emissivity_scalar(
                tiny_db, oxygen_h_like, hot_point, grid_small, method="magic"
            )


class TestEmissivityPhysics:
    def test_exponential_suppression_far_above_edges(
        self, tiny_db, hot_point, oxygen_h_like
    ):
        """Many kT above the last edge the emission is exp-suppressed."""
        from repro.physics.spectrum import EnergyGrid

        ls = tiny_db.levels(oxygen_h_like)
        top_edge = float(ls.energy_kev.max())
        kt = hot_point.kt_kev
        width = 0.2  # keV, same width for both windows
        near = EnergyGrid.linear(top_edge, top_edge + width, 10)
        far = EnergyGrid.linear(top_edge + 30.0 * kt, top_edge + 30.0 * kt + width, 10)
        e_near = ion_emissivity_batched(tiny_db, oxygen_h_like, hot_point, near)
        e_far = ion_emissivity_batched(tiny_db, oxygen_h_like, hot_point, far)
        assert e_far.max() < e_near.max() * 1e-9

    def test_emissivity_scales_with_density_squared(self, tiny_db, grid_small, oxygen_h_like):
        p1 = GridPoint(temperature_k=1e7, ne_cm3=1.0)
        p2 = GridPoint(temperature_k=1e7, ne_cm3=2.0)
        e1 = ion_emissivity_batched(tiny_db, oxygen_h_like, p1, grid_small)
        e2 = ion_emissivity_batched(tiny_db, oxygen_h_like, p2, grid_small)
        nz = e1 != 0.0
        # n_e * n_ion ~ n_e^2 at fixed T.
        assert np.allclose(e2[nz] / e1[nz], 4.0, rtol=1e-10)

    def test_nonnegative(self, tiny_db, hot_point, grid_small):
        for ion in tiny_db.ions[::7]:
            out = ion_emissivity_batched(tiny_db, ion, hot_point, grid_small)
            assert np.all(out >= 0.0)


class TestSerialAPEC:
    def test_full_spectrum_accumulates_ions(self, tiny_db, hot_point, grid_small):
        apec = SerialAPEC(tiny_db, grid_small, method="simpson-batch")
        full = apec.compute(hot_point)
        partial = apec.compute(hot_point, ions=tiny_db.ions[:5])
        assert full.total() >= partial.total() > 0.0

    def test_spectrum_metadata(self, tiny_db, hot_point, grid_small):
        apec = SerialAPEC(tiny_db, grid_small, method="simpson-batch")
        spec = apec.compute(hot_point, ions=tiny_db.ions[:2])
        assert spec.meta["temperature_k"] == hot_point.temperature_k

    def test_unknown_method_rejected(self, tiny_db, grid_small):
        with pytest.raises(ValueError):
            SerialAPEC(tiny_db, grid_small, method="nope")

    def test_qags_reference_agrees_with_batch(self, tiny_db, hot_point):
        """End-to-end Fig. 7 style check at miniature scale."""
        from repro.physics.spectrum import EnergyGrid

        grid = EnergyGrid.from_wavelength(15.0, 40.0, 12)
        ions = tiny_db.ions[20:26]
        ref = SerialAPEC(tiny_db, grid, method="qags").compute(hot_point, ions=ions)
        fast = SerialAPEC(tiny_db, grid, method="simpson-batch").compute(
            hot_point, ions=ions
        )
        err = fast.relative_error_percent(ref)
        err = err[np.isfinite(err)]
        assert np.abs(err).max() < 1e-6  # percent


class TestGaussKernel:
    def test_gauss_matches_qags(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        gauss = ion_emissivity_batched(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="gauss"
        )
        scalar = ion_emissivity_scalar(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="qags"
        )
        nz = scalar != 0.0
        rel = np.abs((gauss[nz] - scalar[nz]) / scalar[nz])
        assert rel.max() < 1e-12

    def test_gauss_cheaper_than_simpson_per_accuracy(self, tiny_db, hot_point, grid_small, oxygen_h_like):
        """12 Gauss points beat 64 Simpson panels on the smooth RRC shape
        — the point of the pluggable-kernel interface."""
        scalar = ion_emissivity_scalar(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="qags"
        )
        gauss = ion_emissivity_batched(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="gauss", gl_points=12
        )
        simpson = ion_emissivity_batched(
            tiny_db, oxygen_h_like, hot_point, grid_small, method="simpson", pieces=64
        )
        nz = scalar != 0.0
        err_gauss = np.abs((gauss[nz] - scalar[nz]) / scalar[nz]).max()
        err_simpson = np.abs((simpson[nz] - scalar[nz]) / scalar[nz]).max()
        assert err_gauss <= err_simpson

    def test_serial_apec_gauss_method(self, tiny_db, hot_point, grid_small):
        spec = SerialAPEC(tiny_db, grid_small, method="gauss").compute(
            hot_point, ions=tiny_db.ions[:4]
        )
        ref = SerialAPEC(tiny_db, grid_small, method="simpson-batch").compute(
            hot_point, ions=tiny_db.ions[:4]
        )
        assert np.allclose(spec.values, ref.values, rtol=1e-8)
