"""Broadcast protocol tests: refs, resident cache, and partial fallback.

The tentpole claim of the zero-copy runtime is "one fetch per worker per
object, zero per-shard database pickles".  These tests pin the pieces that
make it checkable: one parent-side pickle per object, digest-keyed
idempotence, hit/miss counting, LRU residency, no helper processes beside
the workers, and the two dispatch repairs that ride along — worker-cache
invalidation on pool discard and shard-exact serial fallback that never
re-executes a completed shard.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.separability import feature_pool
from repro.data.database import Database
from repro.exceptions import ReproError
from repro.runtime import (
    BroadcastRef,
    ParallelExecutor,
    SerialExecutor,
    preferred_start_method,
)
from repro.runtime import broadcast
from repro.runtime.executor import START_METHOD_ENV
from repro.runtime.tasks import evaluate_unary_queries
from repro.workloads.retail import retail_database

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def workload():
    training = retail_database(n_customers=6, seed=3)
    queries = feature_pool(training, 2)
    return training.database, queries


@pytest.fixture(autouse=True)
def _clean_resident():
    """Each test starts and ends with an empty parent resident cache."""
    broadcast.clear_resident()
    yield
    broadcast.clear_resident()


class TestResolve:
    def test_non_refs_pass_through(self, workload):
        database, _ = workload
        assert broadcast.resolve(database) is database
        assert broadcast.resolve(None) is None
        assert broadcast.resolve(("plain", "tuple")) == ("plain", "tuple")

    def test_seed_then_resolve_is_a_hit(self, workload):
        database, _ = workload
        ref = BroadcastRef(database.digest(), None)
        before = broadcast.snapshot()
        broadcast.seed(database.digest(), database)
        resolved = broadcast.resolve(ref)
        after = broadcast.snapshot()
        assert resolved is database
        assert after["broadcast_hits"] == before["broadcast_hits"] + 1
        assert after["broadcast_misses"] == before["broadcast_misses"]

    def test_miss_unpickles_bytes_once(self, workload):
        database, _ = workload
        ref = BroadcastRef(database.digest(), pickle.dumps(database))
        before = broadcast.snapshot()
        first = broadcast.resolve(ref)
        second = broadcast.resolve(ref)
        after = broadcast.snapshot()
        assert first.digest() == database.digest()
        assert second is first  # pinned: the second resolve is a hit
        assert after["broadcast_misses"] == before["broadcast_misses"] + 1
        assert after["broadcast_hits"] == before["broadcast_hits"] + 1

    def test_byteless_ref_is_an_error(self):
        ref = BroadcastRef("sha256:deadbeef", None)
        with pytest.raises(ReproError):
            broadcast.resolve(ref)

    def test_resident_cache_is_lru_capped(self):
        for i in range(broadcast.RESIDENT_CAP + 1):
            broadcast.seed(f"digest-{i}", object())
        digests = broadcast.resident_digests()
        assert len(digests) == broadcast.RESIDENT_CAP
        assert "digest-0" not in digests  # oldest evicted
        assert digests[-1] == f"digest-{broadcast.RESIDENT_CAP}"


class TestExecutorBroadcast:
    def test_serial_executor_passes_objects_through(self, workload):
        database, _ = workload
        assert SerialExecutor().broadcast(database) is database

    def test_ref_is_digest_keyed(self, workload):
        database, _ = workload
        with ParallelExecutor(WORKERS) as executor:
            ref = executor.broadcast(database)
            assert isinstance(ref, BroadcastRef)
            assert ref.digest == database.digest()
            assert pickle.loads(ref.data).digest() == database.digest()
            # Re-broadcasting the same object is free and idempotent.
            assert executor.broadcast(database) == ref
            info = executor.broadcast_info()
            assert info["objects"] == 1
            assert info["bytes"] == len(ref.data)
            assert info["digests"] == [database.digest()]

    def test_digestless_objects_key_on_content(self):
        payload = ("model", (1.0, 2.0), 0.5)
        with ParallelExecutor(WORKERS) as executor:
            first = executor.broadcast(payload)
            second = executor.broadcast(("model", (1.0, 2.0), 0.5))
            assert first == second
            assert executor.broadcast_info()["objects"] == 1

    def test_parent_pickles_each_database_once(self, workload, monkeypatch):
        database, queries = workload
        assert len(queries) >= 4  # enough items for 4+ shards per dispatch
        pickles = []
        getstate = Database.__getstate__

        def counting_getstate(self):
            pickles.append(self.digest())
            return getstate(self)

        monkeypatch.setattr(Database, "__getstate__", counting_getstate)
        serial = SerialExecutor().run(
            evaluate_unary_queries, queries,
            lambda chunk: (tuple(chunk), database),
        )
        with ParallelExecutor(WORKERS) as executor:
            target = executor.broadcast(database)
            payload = lambda chunk: (tuple(chunk), target)
            for _ in range(2):
                assert executor.run(
                    evaluate_unary_queries, queries, payload
                ) == serial
            assert executor.work_done()["broadcast_hits"] >= 2 * 4
        # Worker-side unpickles never call __getstate__; the parent's one
        # pickle is the ref's bytes, shared by every shard and dispatch.
        assert pickles == [database.digest()]

    @pytest.mark.skipif(not HAVE_FORK, reason="fork unavailable")
    def test_fork_dispatch_starts_no_resource_tracker(self):
        # A fresh interpreter: an earlier spawn pool in this test process
        # would already have started a tracker for its semaphores.
        script = r"""
import os
from repro.core.separability import feature_pool
from repro.runtime import ParallelExecutor
from repro.runtime.tasks import evaluate_unary_queries
from repro.workloads.retail import retail_database

training = retail_database(n_customers=6, seed=3)
queries = feature_pool(training, 2)
with ParallelExecutor(2, start_method="fork") as executor:
    target = executor.broadcast(training.database)
    executor.run(
        evaluate_unary_queries, queries, lambda chunk: (tuple(chunk), target)
    )
    assert executor.work_done()["broadcast_misses"] == 0
    # Forked workers share this process's command line; any helper the
    # runtime started would have exec'd a different one.
    def cmdline(pid):
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    pid = os.getpid()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            for child in handle.read().split():
                own = cmdline(child) == cmdline(pid)
                print("worker" if own else cmdline(child).decode("latin-1"))
"""
        if not Path(f"/proc/{os.getpid()}/task").is_dir():
            pytest.skip("needs /proc to list child processes")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop(START_METHOD_ENV, None)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        # The two workers and nothing else: no resource tracker.
        assert done.stdout.splitlines() == ["worker", "worker"]

    def test_dispatch_counts_hits_not_per_shard_misses(self, workload):
        database, queries = workload
        serial = SerialExecutor().run(
            evaluate_unary_queries, queries,
            lambda chunk: (tuple(chunk), database),
        )
        with ParallelExecutor(WORKERS) as executor:
            target = executor.broadcast(database)
            payload = lambda chunk: (tuple(chunk), target)
            first = executor.run(evaluate_unary_queries, queries, payload)
            assert first == serial
            work = executor.work_done()
            shards = executor.workers * 2  # DEFAULT_SHARDS_PER_WORKER
            # Zero per-shard pickles: misses are bounded by the worker
            # count (one fetch per worker), never by the shard count.
            assert work["broadcast_misses"] <= executor.workers
            assert (
                work["broadcast_hits"] + work["broadcast_misses"] >= shards
            )
            # A repeat dispatch adds only hits.
            assert executor.run(
                evaluate_unary_queries, queries, payload
            ) == serial
            again = executor.work_done()
            assert again["broadcast_misses"] == work["broadcast_misses"]
            assert again["broadcast_hits"] > work["broadcast_hits"]


class TestPoolRepairs:
    def test_discard_pool_clears_worker_caches(self, workload):
        database, queries = workload
        with ParallelExecutor(WORKERS) as executor:
            executor.run(
                evaluate_unary_queries, queries,
                lambda chunk: (tuple(chunk), database),
            )
            assert executor._worker_caches
            executor._discard_pool()
            assert executor._worker_caches == {}
            assert executor.effective_start_method is None

    def test_partial_fallback_reuses_completed_shards(self, workload):
        database, queries = workload
        plan_payloads = [
            (tuple(queries[:2]), database, None),
            (tuple(queries[2:4]), database, lambda: None),  # unpicklable
            (tuple(queries[4:]), database, None),
        ]
        expected = [
            evaluate_unary_queries((chunk, database))
            for chunk, _db, _marker in plan_payloads
        ]
        with ParallelExecutor(WORKERS) as executor:
            results = executor.map_shards(_marker_task, plan_payloads)
            assert results == expected
            # Exactly one fallback event, scoped to the bad shard: the
            # completed futures' outcomes were absorbed from worker pids
            # and the repaired shard ran in the parent.
            assert executor.fallbacks == 1
            assert "pickl" in executor.fallback_reason
            pids = set(executor._worker_caches)
            assert os.getpid() in pids  # the serial repair
            assert pids - {os.getpid()}  # and at least one real worker

    def test_whole_batch_fallback_counts_once(self, workload):
        database, queries = workload
        with ParallelExecutor(WORKERS) as executor:
            results = executor.map_shards(
                _marker_task,
                [(tuple(queries), database, lambda: None)],
            )
            assert results == [
                evaluate_unary_queries((tuple(queries), database))
            ]
            assert executor.fallbacks == 1


def _marker_task(payload):
    """Picklable task whose payload may carry an unpicklable marker."""
    chunk, database, _marker = payload
    return evaluate_unary_queries((chunk, database))


class TestStartMethodSelection:
    def test_preferred_is_fork_only_when_single_threaded(self):
        expected = "fork" if (
            HAVE_FORK and threading.active_count() == 1
        ) else "spawn"
        assert preferred_start_method() == expected

    def test_threads_force_spawn(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert preferred_start_method() == "spawn"
        finally:
            release.set()
            thread.join()

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ReproError):
            ParallelExecutor(WORKERS, start_method="threads")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        executor = ParallelExecutor(WORKERS)
        try:
            assert executor._resolve_start_method() == "spawn"
        finally:
            executor.close()

    def test_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        executor = ParallelExecutor(WORKERS, start_method="auto")
        try:
            assert executor._resolve_start_method() == "spawn"
        finally:
            executor.close()

    @pytest.mark.skipif(not HAVE_FORK, reason="fork unavailable")
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        executor = ParallelExecutor(WORKERS, start_method="fork")
        try:
            assert executor._resolve_start_method() == "fork"
        finally:
            executor.close()
