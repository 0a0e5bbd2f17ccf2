"""Executor tests for the persistent pool, chunking, and transport.

The contracts under test:

* the worker pool is spawned once per session and reused by every
  subsequent batch (no new pool, no new worker processes);
* chunked work-stealing dispatch still assembles results bit-identical
  to the serial path, in input order, for any ``jobs``;
* the memo/disk/simulated counters and the new chunk/IPC counters
  account for every grid point exactly once;
* a poisoned grid point aborts the sweep promptly, cancelling the
  chunks that have not started instead of letting the batch drain.
"""

import pytest

from repro.core.config import paper_default_config
from repro.experiments import worker_pool
from repro.experiments.executor import (
    OVERSUBSCRIBE,
    SweepExecutionError,
    SweepExecutor,
    resolve_chunk_size,
)
from repro.experiments.result_cache import ResultCache


def tiny_config(algorithm="no_dc", think_time=30.0, seed=7):
    return paper_default_config(
        algorithm, think_time=think_time, seed=seed
    ).with_(duration=2.0, warmup=0.5).with_workload(
        num_terminals=4, think_time=think_time
    )


def small_grid(seed=7):
    return [
        tiny_config(algorithm, think_time, seed=seed)
        for algorithm in ("no_dc", "opt", "2pl")
        for think_time in (0.0, 30.0)
    ]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a live pool, so pool-size and
    generation observations cannot leak between tests."""
    worker_pool.shutdown_pool()
    yield
    worker_pool.shutdown_pool()


class TestChunkSizing:
    def test_computed_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK", raising=False)
        # 30 missing over 2 jobs * OVERSUBSCRIBE chunks.
        assert OVERSUBSCRIBE == 4
        assert resolve_chunk_size(30, 2) == 4
        assert resolve_chunk_size(8, 2) == 1
        assert resolve_chunk_size(1, 8) == 1
        assert resolve_chunk_size(1000, 4) == 63

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "9")
        assert resolve_chunk_size(30, 2, chunk=2) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "7")
        assert resolve_chunk_size(30, 2) == 7

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK", raising=False)
        with pytest.raises(ValueError):
            resolve_chunk_size(30, 2, chunk=0)
        monkeypatch.setenv("REPRO_CHUNK", "zero")
        with pytest.raises(ValueError):
            resolve_chunk_size(30, 2)


class TestPoolReuse:
    def test_two_batches_spawn_no_new_workers(self):
        """The acceptance check: consecutive ``run_many`` batches run
        on the same pool generation and the same worker processes."""
        executor = SweepExecutor(jobs=2)
        executor.run_many(small_grid(seed=7))
        generation = worker_pool.pool_generation()
        first_pids = set(executor.worker_pids)
        assert executor.stats.pool_batches == 1
        assert first_pids  # the pool really ran the chunks

        executor.run_many(small_grid(seed=8))
        assert worker_pool.pool_generation() == generation
        assert executor.stats.pool_batches == 2
        assert set(executor.worker_pids) == first_pids

    def test_pool_shared_across_executors(self):
        first = SweepExecutor(jobs=2)
        first.run_many(small_grid(seed=7)[:3])
        generation = worker_pool.pool_generation()
        second = SweepExecutor(jobs=2)
        second.run_many(small_grid(seed=9)[:3])
        assert worker_pool.pool_generation() == generation

    def test_pool_grows_but_never_shrinks(self):
        SweepExecutor(jobs=2).run_many(small_grid(seed=7)[:3])
        generation = worker_pool.pool_generation()
        assert worker_pool.pool_workers() == 2
        # More workers: one respawn.
        SweepExecutor(jobs=3).run_many(small_grid(seed=8)[:4])
        assert worker_pool.pool_generation() == generation + 1
        assert worker_pool.pool_workers() == 3
        # Fewer workers: the larger pool is reused as-is.
        SweepExecutor(jobs=2).run_many(small_grid(seed=9)[:3])
        assert worker_pool.pool_generation() == generation + 1
        assert worker_pool.pool_workers() == 3

    def test_shutdown_is_idempotent(self):
        worker_pool.shutdown_pool()
        worker_pool.shutdown_pool()
        assert worker_pool.pool_workers() == 0


class TestStatsUnderPool:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_bit_identical_and_fully_accounted(self, jobs, tmp_path):
        """Work-stealing completion order must not leak into results
        (input-order assembly) or the counters."""
        configs = small_grid()
        serial = SweepExecutor(jobs=1).run_many(configs)

        executor = SweepExecutor(
            jobs=jobs, cache=ResultCache(tmp_path / "cache")
        )
        results = executor.run_many(configs)
        assert [r.as_dict() for r in results] == [
            r.as_dict() for r in serial
        ]
        assert executor.stats.simulated == len(configs)
        assert executor.stats.memo_hits == 0
        assert executor.stats.disk_hits == 0
        if jobs > 1:
            assert executor.stats.pool_batches == 1
            assert executor.stats.chunks_dispatched > 0
            assert executor.stats.ipc_bytes > 0
            assert executor.stats.pool_wall_seconds > 0
            assert executor.stats.worker_compute_seconds > 0
        else:
            assert executor.stats.pool_batches == 0
            assert executor.stats.chunks_dispatched == 0
            assert executor.stats.ipc_bytes == 0
        # Workers wrote the disk entries either way.
        assert executor.cache.entry_count() == len(configs)

        # A repeat batch is all memo hits — no new chunks, no IPC.
        chunks_before = executor.stats.chunks_dispatched
        ipc_before = executor.stats.ipc_bytes
        again = executor.run_many(configs)
        assert [r.as_dict() for r in again] == [
            r.as_dict() for r in serial
        ]
        assert executor.stats.memo_hits == len(configs)
        assert executor.stats.chunks_dispatched == chunks_before
        assert executor.stats.ipc_bytes == ipc_before

    def test_cold_pool_sweep_counts_worker_stores(self, tmp_path):
        """Workers write the disk entries; the parent's cache stats
        must still count one store per distinct point."""
        configs = small_grid() + small_grid()[:2]  # 6 distinct points
        distinct = len(set(configs))
        executor = SweepExecutor(
            jobs=2, cache=ResultCache(tmp_path / "cache")
        )
        executor.run_many(configs)
        assert executor.stats.pool_batches == 1
        assert executor.cache.stats.stores == distinct
        assert executor.cache_stats()["disk"]["stores"] == distinct
        assert executor.cache.entry_count() == distinct

    def test_chunk_accounting_matches_grid(self):
        configs = small_grid()  # 6 distinct points
        executor = SweepExecutor(jobs=2, chunk=2)
        executor.run_many(configs)
        assert executor.stats.chunks_dispatched == 3
        assert executor.stats.chunks_cancelled == 0

    def test_duplicate_configs_deduplicated(self):
        config = tiny_config()
        executor = SweepExecutor(jobs=2)
        results = executor.run_many([config] * 50)
        assert executor.stats.simulated == 1
        assert len(results) == 50
        assert all(r == results[0] for r in results)


class TestFailureSemantics:
    def test_poisoned_point_aborts_promptly(self):
        """The first failure cancels the chunks that never started —
        the sweep must not drain the whole grid behind a dead point.

        The poison passes ``validate()`` but fails at simulation
        setup, so it dies in a worker almost instantly while the other
        chunks are real simulations; chunk size 1 with jobs=2 keeps at
        most two chunks in flight, leaving the rest cancellable.
        """
        poison = tiny_config().with_(cc_algorithm="bogus")
        grid = [poison] + [
            tiny_config("opt", think_time, seed=seed)
            for seed in (1, 2, 3, 4)
            for think_time in (0.0, 30.0)
        ]
        executor = SweepExecutor(jobs=2, chunk=1)
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run_many(grid)
        assert excinfo.value.config.cc_algorithm == "bogus"
        assert executor.stats.chunks_cancelled >= 1
        assert executor.stats.simulated < len(grid) - 1

    def test_serial_failure_still_carries_config(self):
        poison = tiny_config().with_(cc_algorithm="bogus")
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepExecutor(jobs=1).run_many([tiny_config(), poison])
        assert excinfo.value.config.cc_algorithm == "bogus"
