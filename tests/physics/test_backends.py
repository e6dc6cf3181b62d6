"""Wall-clock backends through SerialAPEC: bit-determinism contracts.

The promises pinned here:

1. The shard path (any backend) is bit-identical to the in-process
   serial loop — per-ion partials are reduced in exact ion order by the
   parent.
2. Backend/shard configuration never leaks into *which* numbers are
   computed — only into wall-clock time.
"""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.physics.apec import GridPoint, SerialAPEC
from repro.physics.spectrum import EnergyGrid


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


@pytest.fixture(scope="module")
def grid() -> EnergyGrid:
    return EnergyGrid.from_wavelength(10.0, 45.0, 40)


@pytest.fixture(scope="module")
def point() -> GridPoint:
    return GridPoint(temperature_k=1.0e7, ne_cm3=1.0)


def _model(db, grid, **kw) -> SerialAPEC:
    return SerialAPEC(
        db, grid, method="simpson-batch", components=("rrc",),
        pieces=32, tail_tol=1.0e-9, **kw,
    )


@pytest.fixture(scope="module")
def serial_reference(db, grid, point) -> np.ndarray:
    return _model(db, grid).compute(point).values


class TestUnfusedDeterminism:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bit_identical_to_serial_loop(
        self, db, grid, point, serial_reference, backend
    ):
        with _model(db, grid, backend=backend, jobs=2, shards=4) as model:
            values = model.compute(point).values
        np.testing.assert_array_equal(values, serial_reference)

    def test_shard_count_does_not_change_bits(
        self, db, grid, point, serial_reference
    ):
        for shards in (1, 3, 8):
            with _model(db, grid, backend="thread", jobs=2, shards=shards) as m:
                np.testing.assert_array_equal(
                    m.compute(point).values, serial_reference
                )


class TestConfigurationValidation:
    def test_unknown_backend_rejected(self, db, grid):
        with pytest.raises(ValueError, match="backend"):
            _model(db, grid, backend="mpi")

    def test_shards_validated(self, db, grid):
        with pytest.raises(ValueError, match="shards"):
            _model(db, grid, shards=0)

    def test_context_manager_closes_pool(self, db, grid, point):
        with _model(db, grid, backend="thread", jobs=2) as model:
            model.compute(point)
            assert model._backend_obj is not None
        assert model._backend_obj is None
