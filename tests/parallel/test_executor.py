"""Execution backends: sharding and map-order contracts."""

import pytest

from repro.parallel.executor import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_jobs,
    get_backend,
    shard_items,
    shutdown_warm_pools,
)
from repro.quadrature.batch import KERNEL_COUNTERS


def _square(x: int) -> int:
    return x * x


class TestGetBackend:
    def test_names(self):
        assert get_backend("serial").name == "serial"
        assert get_backend("thread", 2).name == "thread"
        assert get_backend("process", 2).name == "process"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("mpi")

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            ThreadBackend(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
        assert get_backend("thread").jobs == default_jobs()
        assert get_backend("serial").jobs == 1


class TestMapOrder:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_results_in_submission_order(self, name):
        with get_backend(name, 2) as backend:
            assert backend.map(_square, list(range(17))) == [
                i * i for i in range(17)
            ]

    def test_close_is_idempotent_and_reusable(self):
        backend = ThreadBackend(2)
        assert backend.map(_square, [3]) == [9]
        backend.close()
        backend.close()
        # A closed backend lazily re-creates its pool on next use.
        assert backend.map(_square, [4]) == [16]
        backend.close()


class TestShardItems:
    def test_concatenation_preserves_order(self):
        items = list(range(23))
        shards = shard_items(items, 5)
        assert [x for s in shards for x in s] == items

    def test_near_equal_sizes(self):
        sizes = [len(s) for s in shard_items(list(range(23)), 5)]
        assert max(sizes) - min(sizes) <= 1

    def test_independent_of_backend_and_jobs(self):
        # The split is a pure function of (len(items), n_shards).
        a = shard_items(list(range(100)), 8)
        b = shard_items(list(range(100)), 8)
        assert a == b

    def test_more_shards_than_items(self):
        shards = shard_items([1, 2, 3], 8)
        assert len(shards) == 3
        assert all(len(s) == 1 for s in shards)

    def test_empty_items(self):
        assert shard_items([], 4) == []

    def test_zero_shards_raises(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_items([1], 0)


class TestProcessBackend:
    def test_module_level_function_roundtrip(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, [2, 3, 4]) == [4, 9, 16]

    def test_chunked_map_preserves_order(self):
        # Far more items than chunks: results must still arrive in
        # submission order after the chunk flatten.
        with ProcessBackend(2) as backend:
            assert backend.map(_square, list(range(53))) == [
                i * i for i in range(53)
            ]

    def test_chunked_map_books_counters(self):
        KERNEL_COUNTERS.reset()
        with ProcessBackend(2) as backend:
            backend.map(_square, list(range(23)))
        snap = KERNEL_COUNTERS.snapshot()
        # At most 4 x jobs chunks per call — one pickle round trip per
        # chunk, not per item.
        assert snap["map_items"] == 23
        assert 1 <= snap["map_chunks"] <= 8
        KERNEL_COUNTERS.reset()

    def test_empty_map_short_circuits(self):
        KERNEL_COUNTERS.reset()
        with ProcessBackend(2) as backend:
            assert backend.map(_square, []) == []
        snap = KERNEL_COUNTERS.snapshot()
        assert snap["map_chunks"] == 0 and snap["map_items"] == 0
        # No pool was created for the empty call.
        assert snap["pool_creates"] == 0
        KERNEL_COUNTERS.reset()


class TestWarmPools:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        shutdown_warm_pools()
        KERNEL_COUNTERS.reset()
        yield
        shutdown_warm_pools()
        KERNEL_COUNTERS.reset()

    def test_pool_survives_close_and_is_adopted(self):
        with ProcessBackend(1) as backend:
            assert backend.map(_square, [5]) == [25]
        # The workers are parked, not torn down: a second backend with
        # the same worker count adopts them instead of forking anew.
        with ProcessBackend(1) as backend:
            assert backend.map(_square, [6]) == [36]
        snap = KERNEL_COUNTERS.snapshot()
        assert snap["pool_creates"] == 1
        assert snap["pool_reuses"] == 1

    def test_different_worker_counts_get_distinct_pools(self):
        with ProcessBackend(1) as a:
            assert a.map(_square, [2]) == [4]
        with ProcessBackend(2) as b:
            assert b.map(_square, [3]) == [9]
        snap = KERNEL_COUNTERS.snapshot()
        assert snap["pool_creates"] == 2
        assert snap["pool_reuses"] == 0

    def test_shutdown_empties_registry(self):
        with ProcessBackend(1) as backend:
            assert backend.map(_square, [7]) == [49]
        shutdown_warm_pools()
        with ProcessBackend(1) as backend:
            assert backend.map(_square, [8]) == [64]
        assert KERNEL_COUNTERS.snapshot()["pool_creates"] == 2

    def test_thread_backend_unaffected(self):
        backend = ThreadBackend(2)
        assert backend.map(_square, [3]) == [9]
        backend.close()
        assert KERNEL_COUNTERS.snapshot()["pool_creates"] == 0
