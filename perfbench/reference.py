"""Reference outputs and the per-operation correctness check.

The reference path is the serial per-ion kernel at ``tail_tol=0``
(``workloads.make_reference_model``).  References of every pool member
are stored in ``refs/<workload>.npz``, keyed by the database and grid
fingerprints of :mod:`repro.physics.plan` and the reference-path
settings, so a stale file never matches a changed database or grid.  A
missing or stale entry is recomputed on demand and kept in ``.cache/``.

Rebuild the stored references (slow: minutes per workload) with::

    python3 perfbench/reference.py sweep_pruned sweep_exact_parallel fit_temperature
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "refs"
CACHE_DIR = HERE / ".cache"

#: Largest per-bin relative error a "close" check accepts.  Three orders
#: above the 1e-9 tail budget and nine above today's reassociation noise
#: (~1e-15): it admits any summation order, rejects any real defect.
CHECK_RTOL = 1e-6

#: Accepted |T_fit - T_ref| / T_ref: one final golden-section bracket
#: (``fit_temperature`` stops at a log10 T width of 1e-3).
FIT_T_RTOL = 10.0**1e-3 - 1.0


@dataclass(frozen=True)
class FitCase:
    """One stored fit problem and the reference path's answer to it."""

    t_true: float
    exposure: float
    observed: object  # np.ndarray of counts
    t_ref: float


class Recording:
    """Model wrapper recording each spectrum's temperature, values and
    wall seconds; ``fit_temperature`` only calls ``compute``."""

    def __init__(self, model) -> None:
        self.model = model
        self.outputs: list[tuple[float, object]] = []
        self.seconds: list[float] = []

    def compute(self, point):
        t0 = time.perf_counter()
        spectrum = self.model.compute(point)
        self.seconds.append(time.perf_counter() - t0)
        self.outputs.append((point.temperature_k, spectrum.values))
        return spectrum


def max_rel_err(values, ref) -> float:
    """Largest per-bin |values - ref| / |ref|; a bin zero in both is exact."""
    import numpy as np

    diff = np.abs(values - ref)
    scale = np.abs(ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    return float(rel.max()) if rel.size else 0.0


def check_spectrum(kind: str, values, ref) -> tuple[bool, float]:
    """Whether ``values`` pass the workload's check, and their error."""
    import numpy as np

    values = np.asarray(values)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return False, float("inf")
    err = max_rel_err(values, ref)
    if kind == "identical":
        return values.dtype == ref.dtype and values.tobytes() == ref.tobytes(), err
    if kind == "close":
        return err <= CHECK_RTOL, err
    raise ValueError(f"unknown check {kind!r}")


def corruptions(kind: str, values) -> list:
    """Copies of a correct spectrum that the check must reject: a NaN bin,
    and the peak bin moved by the smallest step the check resolves."""
    import numpy as np

    peak = int(np.argmax(np.abs(values)))
    nan = values.copy()
    nan[peak] = np.nan
    nudged = values.copy()
    if kind == "identical":
        nudged[peak] = np.nextafter(nudged[peak], np.inf)
    else:
        nudged[peak] *= 1.0 + 10.0 * CHECK_RTOL
    return [nan, nudged]


def self_check(kind: str, values, ref) -> bool:
    """True when every corrupted copy of ``values`` is counted as failed."""
    return all(not check_spectrum(kind, bad, ref)[0] for bad in corruptions(kind, values))


class ReferenceStore:
    """Reference spectra (by temperature) and fit cases of one workload."""

    def __init__(self, workload, db, grid) -> None:
        from repro.physics.plan import db_fingerprint, grid_fingerprint

        self.workload = workload
        self.db = db
        self.grid = grid
        self.key = {
            "db": db_fingerprint(db),
            "grid": grid_fingerprint(grid),
            "path": reference_path_id(workload),
        }
        self.spectra: dict[float, object] = {}
        self.cases: dict[int, FitCase] = {}
        self._dirty = False
        self._model = None
        self.cache_path = CACHE_DIR / (
            f"{workload.name}-{self.key['db'][:12]}-{self.key['grid'][:12]}.npz"
        )
        for path in (REF_DIR / f"{workload.name}.npz", self.cache_path):
            self._load(path)

    # -- storage -------------------------------------------------------
    def _load(self, path: Path) -> None:
        import numpy as np

        if not path.is_file():
            return
        with np.load(path) as data:
            if any(str(data[k]) != v for k, v in self.key.items()):
                print(f"perfbench: {path.name} is stale, ignoring it", file=sys.stderr)
                return
            for t, row in zip(data["temperatures"], data["spectra"]):
                self.spectra[float(t)] = row
            if "case_index" in data:
                for i, k in enumerate(data["case_index"]):
                    self.cases[int(k)] = FitCase(
                        t_true=float(data["case_t_true"][i]),
                        exposure=float(data["case_exposure"][i]),
                        observed=data["case_observed"][i],
                        t_ref=float(data["case_t_ref"][i]),
                    )

    def save(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        temps = sorted(self.spectra)
        arrays = {k: np.array(v) for k, v in self.key.items()}
        arrays["temperatures"] = np.array(temps)
        arrays["spectra"] = np.stack([self.spectra[t] for t in temps])
        if self.cases:
            idx = sorted(self.cases)
            arrays["case_index"] = np.array(idx)
            arrays["case_t_true"] = np.array([self.cases[k].t_true for k in idx])
            arrays["case_exposure"] = np.array([self.cases[k].exposure for k in idx])
            arrays["case_observed"] = np.stack([self.cases[k].observed for k in idx])
            arrays["case_t_ref"] = np.array([self.cases[k].t_ref for k in idx])
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez_compressed(tmp, **arrays)
        tmp.replace(path)

    def save_cache(self) -> None:
        """Keep references computed during this run for the next one."""
        if self._dirty:
            self.save(self.cache_path)
            self._dirty = False

    # -- lookups -------------------------------------------------------
    def _reference_model(self):
        from workloads import make_reference_model

        if self._model is None:
            self._model = make_reference_model(self.workload, self.db, self.grid)
        return self._model

    def spectrum(self, temperature_k: float):
        """Reference spectrum at one temperature (computed when absent)."""
        from workloads import grid_point

        t = float(temperature_k)
        if t not in self.spectra:
            print(f"perfbench: computing reference at T={t!r}", file=sys.stderr)
            values = self._reference_model().compute(grid_point(t)).values
            self.spectra[t] = values
            self._dirty = True
        return self.spectra[t]

    def fit_case(self, k: int) -> FitCase:
        """Stored fit problem ``k`` (built with the reference path when absent).

        The observation is Poisson noise (seeded per case) on the folded
        reference spectrum at the case's true temperature; ``t_ref`` is the
        reference path's own fit of it, whose every evaluation is stored as
        a reference spectrum.
        """
        import numpy as np
        from repro.physics.fitting import fit_temperature, mock_observation
        from workloads import (
            FIT_BRACKET_K, FIT_COUNTS, FIT_NOISE_SEED, NE_CM3,
            fit_true_temperatures, grid_point, make_response,
        )

        if k in self.cases:
            return self.cases[k]
        print(f"perfbench: computing reference fit case {k}", file=sys.stderr)
        model = self._reference_model()
        response = make_response(self.grid)
        t_true = float(fit_true_temperatures()[k])
        spec = model.compute(grid_point(t_true))
        exposure = FIT_COUNTS / float(response.apply(spec.values).sum())
        observed = mock_observation(
            spec, response, exposure, rng=np.random.default_rng(FIT_NOISE_SEED + k)
        )
        rec = Recording(model)
        result = fit_temperature(
            rec, observed, response, exposure, t_bounds=FIT_BRACKET_K, ne_cm3=NE_CM3
        )
        for t, values in rec.outputs:
            self.spectra[float(t)] = values
        self.cases[k] = FitCase(t_true, exposure, observed, result.temperature_k)
        self._dirty = True
        return self.cases[k]


def reference_path_id(workload) -> str:
    from workloads import FIT_BRACKET_K, FIT_COUNTS, FIT_FWHM_KEV, METHOD, NE_CM3

    text = (
        f"method={METHOD}|pieces=64|gaunt=1|tail_tol=0|backend=serial"
        f"|components={','.join(workload.components)}|ne={NE_CM3!r}"
    )
    if workload.name == "fit_temperature":
        text += f"|fwhm={FIT_FWHM_KEV!r}|counts={FIT_COUNTS!r}|bracket={FIT_BRACKET_K!r}"
    return text


def build(names: list[str]) -> None:
    """Compute and store the references of every pool member."""
    from repro.atomic.database import AtomicConfig, AtomicDatabase
    from workloads import FIT_CASES, WORKLOADS, make_grid, sweep_pool

    db = AtomicDatabase(AtomicConfig())
    for name in names:
        workload = WORKLOADS[name]
        store = ReferenceStore(workload, db, make_grid(workload))
        t0 = time.perf_counter()
        if name == "fit_temperature":
            for k in range(FIT_CASES):
                store.fit_case(k)
                store.save(REF_DIR / f"{name}.npz")
        else:
            for t in sweep_pool():
                store.spectrum(t)
                store.save(REF_DIR / f"{name}.npz")
        print(f"{name}: {len(store.spectra)} spectra in "
              f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    env.prepare()
    build(sys.argv[1:])
