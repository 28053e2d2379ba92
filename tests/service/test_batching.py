"""Pool semantics: bit-identity under interleaving, batching, admission.

The load-bearing test is the property test: any interleaving of N
concurrent single requests through the worker processes must return
results — values *and* operation counters — bit-identical to the same
requests issued as one direct :meth:`repro.api.BloomDB.sample_many`
batch.  That is the serving layer's correctness contract.
"""

import os
import random
import signal
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import BackendCapabilityError, BloomDB, EngineConfig, SampleSpec
from repro.obs.metrics import export_snapshot
from repro.service import (
    AsyncReproServer,
    BatchPolicy,
    ProcessService,
    ProcessShardPool,
    ServiceOverloadedError,
)
from repro.service.client import encode_result


@pytest.fixture()
def served_dir(compiled_db, tmp_path):
    """A private serving directory: a pool owns its directory's state."""
    directory = tmp_path / "engine"
    compiled_db.save(directory)
    return directory


def sample(pool, name, rounds=2, seed=0, replacement=True):
    return pool.submit("sample", (name,), rounds=rounds,
                       replacement=replacement, seed=seed)


#: Pool shapes the property test sweeps: several workers, one worker,
#: no-delay opportunistic batching, and single-request batches
#: (max_batch=1 disables coalescing entirely — the degenerate case).
POLICIES = [
    dict(workers=2, max_batch=256, max_delay_ms=2.0),
    dict(workers=1, max_batch=256, max_delay_ms=2.0),
    dict(workers=2, max_batch=256, max_delay_ms=0.0),
    dict(workers=2, max_batch=1, max_delay_ms=1.0),
]


class TestInterleavingProperty:
    @pytest.mark.parametrize("knobs", POLICIES)
    def test_concurrent_singles_match_one_direct_batch(
            self, knobs, served_dir, compiled_db, workload):
        """N concurrent requests == one direct sample_many spec batch."""
        names = [name for name, _ in workload]
        specs = [
            SampleSpec(names[i % len(names)], rounds=1 + i % 5,
                       replacement=(i % 3 != 0), seed=10_000 + i,
                       key=str(i))
            for i in range(48)
        ]
        want = [encode_result(result)
                for result in compiled_db.sample_many(specs).ordered()]
        pool = ProcessShardPool(
            served_dir, knobs["workers"],
            policy=BatchPolicy(max_batch=knobs["max_batch"],
                               max_delay_ms=knobs["max_delay_ms"]))
        pool.start()
        try:
            for trial in range(3):  # three submission interleavings
                order = list(range(len(specs)))
                random.Random(trial).shuffle(order)
                futures: dict[int, object] = {}
                barrier = threading.Barrier(8)

                def submit_block(block, futures=futures, order=order,
                                 barrier=barrier):
                    barrier.wait()  # maximise submission concurrency
                    for i in order[block::8]:
                        spec = specs[i]
                        futures[i] = sample(pool, spec.name, spec.rounds,
                                            spec.seed, spec.replacement)

                with ThreadPoolExecutor(max_workers=8) as executor:
                    for handle in [executor.submit(submit_block, b)
                                   for b in range(8)]:
                        handle.result(30)
                got = [futures[i].result(30) for i in range(len(specs))]
                assert got == want, f"trial {trial} diverged under {knobs}"
        finally:
            pool.close()


@pytest.fixture(scope="module")
def service(compiled_db, tmp_path_factory):
    """One started two-worker pool shared by the tests below."""
    svc = ProcessService(ProcessShardPool.from_engine(
        compiled_db, tmp_path_factory.mktemp("batching") / "engine", 2,
        policy=BatchPolicy(max_delay_ms=1.0))).start()
    yield svc
    svc.close()


class TestDirectEquivalence:
    def test_reconstruction_matches_direct_calls(self, service, workload,
                                                 compiled_db):
        names = [name for name, _ in workload]
        futures = [service.pool.submit("reconstruct", (name,))
                   for name in names]
        for name, future in zip(names, futures):
            want = compiled_db.reconstruct(name)
            assert future.result(30)["elements"] == \
                [int(v) for v in want.elements]

    def test_contains_and_union_match_direct_calls(self, service, workload,
                                                   compiled_db):
        name, ids = workload[0]
        assert service.contains(name, int(ids[0]))["contains"] is True
        names = [w[0] for w in workload[:3]]
        got = service.sample_union(names, seed=77)
        want = compiled_db.store.sample_union(names, rng=77)
        assert got["value"] == want.value

    def test_intersection_matches_direct_call(self, service, workload,
                                              compiled_db):
        names = [w[0] for w in workload[2:5]]
        got = service.sample_intersection(names, seed=78)
        want = compiled_db.store.sample_intersection(names, rng=78)
        assert got == encode_result(want)

    def test_union_of_no_sets_is_rejected(self, service):
        with pytest.raises(ValueError, match="set name"):
            service.pool.submit("sample_union", (), seed=1).result(30)


class TestBatching:
    def test_coalescing_actually_happens(self, served_dir, workload):
        pool = ProcessShardPool(
            served_dir, 1, policy=BatchPolicy(max_batch=256,
                                              max_delay_ms=20.0))
        pool.start()
        try:
            futures = [sample(pool, workload[i % 8][0], seed=i)
                       for i in range(64)]
            for future in futures:
                future.result(30)
            batch = export_snapshot(
                pool.fleet_export())["histograms"]["batch_size"]
        finally:
            pool.close()
        assert batch["max"] > 1  # at least one multi-request dispatch

    def test_max_batch_one_still_serves(self, served_dir, workload):
        pool = ProcessShardPool(served_dir, 1,
                                policy=BatchPolicy(max_batch=1))
        service = ProcessService(pool).start()
        try:
            values = service.sample(workload[0][0], r=3, seed=5)["values"]
            batch = export_snapshot(
                pool.fleet_export())["histograms"]["batch_size"]
        finally:
            service.close()
        assert len(values) == 3
        assert batch["max"] == 1

    def test_batch_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_ms=-1)
        with pytest.raises(ValueError):
            BatchPolicy(queue_depth=0)


class TestAdmissionControl:
    def test_full_queue_rejects_with_503_and_retry_after(self, served_dir,
                                                         workload):
        """A frozen worker's queue fills; the next request is a 503."""
        pool = ProcessShardPool(served_dir, 1,
                                policy=BatchPolicy(queue_depth=4))
        server = AsyncReproServer(ProcessService(pool), port=0).start()
        name = workload[0][0]
        pid = pool.workers_info()[0]["pid"]
        os.kill(pid, signal.SIGSTOP)
        try:
            queued = [sample(pool, name, seed=i) for i in range(4)]
            with pytest.raises(ServiceOverloadedError):
                sample(pool, name, seed=9)
            request = urllib.request.Request(
                server.url + "/sample", method="POST",
                data=b'{"set": "set0", "r": 2, "seed": 1}')
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 503
            assert info.value.headers.get("Retry-After") == "1"
            assert pool.metrics.counter("rejected_total") == 2
        finally:
            os.kill(pid, signal.SIGCONT)
        try:
            for future in queued:
                assert len(future.result(30)["values"]) == 2
        finally:
            server.close()

    def test_unknown_set_fails_that_request_only(self, service, workload):
        errors = service.pool.metrics.counter("errors_total")
        bad = sample(service.pool, "no-such-set", seed=1)
        good = sample(service.pool, workload[0][0], seed=1)
        assert len(good.result(30)["values"]) == 2
        with pytest.raises(KeyError):
            bad.result(30)
        assert service.pool.metrics.counter("errors_total") == errors + 1

    def test_submit_after_stop_is_rejected(self, served_dir, workload):
        pool = ProcessShardPool(served_dir, 1)
        pool.start()
        try:
            pool.stop()
            with pytest.raises(RuntimeError, match="not started"):
                sample(pool, workload[0][0])
        finally:
            pool.close()

    def test_service_restarts_after_stop(self, served_dir, workload):
        pool = ProcessShardPool(served_dir, 1)
        pool.start()
        try:
            first = sample(pool, workload[0][0], 3, seed=4).result(30)
            pool.stop()
            pool.start()
            second = sample(pool, workload[0][0], 3, seed=4).result(30)
        finally:
            pool.close()
        assert first == second


class TestCancellation:
    def test_cancelled_future_does_not_kill_the_worker(self, service,
                                                       workload):
        doomed = sample(service.pool, workload[0][0], seed=1)
        doomed.cancel()  # may or may not win the race with the response
        # The worker must survive and keep serving either way.
        for i in range(5):
            values = service.sample(workload[1][0], r=2, seed=i)["values"]
            assert len(values) == 2


def dynamic_db(tree="dynamic", occupied_count=2_000) -> BloomDB:
    rng = np.random.default_rng(6)
    occupied = np.sort(rng.choice(16_000, occupied_count,
                                  replace=False).astype(np.uint64))
    db = BloomDB(EngineConfig(namespace_size=16_000, accuracy=0.9,
                              set_size=150, tree=tree, plan="compiled",
                              seed=3), occupied=occupied)
    if occupied_count:
        db.add_set("alpha", rng.choice(occupied, 150, replace=False))
        db.add_set("beta", rng.choice(occupied, 150, replace=False))
    return db


@pytest.fixture(scope="module")
def pruned_service(tmp_path_factory):
    """A started pool over an empty pruned-tree engine."""
    svc = ProcessService(ProcessShardPool.from_engine(
        dynamic_db(tree="pruned", occupied_count=0),
        tmp_path_factory.mktemp("pruned") / "engine", 2)).start()
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def dynamic_service(tmp_path_factory):
    """A started three-worker pool over a dynamic tree with many sets.

    Twelve sets spread over the consistent-hash ring, so every worker
    owns at least one and a write that missed a worker would show.
    """
    db = dynamic_db()
    rng = np.random.default_rng(11)
    for i in range(12):
        db.add_set(f"s{i}", rng.choice(np.array(db.occupied), 150,
                                       replace=False))
    svc = ProcessService(ProcessShardPool.from_engine(
        db, tmp_path_factory.mktemp("dynamic") / "engine", 3,
        policy=BatchPolicy(max_delay_ms=1.0))).start()
    yield svc
    svc.close()


def leader_answer(pool, name, rounds, seed):
    """The leader engine's direct answer to one seeded sample request."""
    spec = SampleSpec(name, rounds, seed=seed, key="0")
    return encode_result(pool.leader.sample_many([spec]).ordered()[0])


class TestServingSafeMutations:
    def test_add_set_while_serving(self, service):
        ids = np.arange(0, 500, 7, dtype=np.uint64)
        service.add_set("fresh", ids)
        values = service.sample("fresh", r=8, seed=3)["values"]
        assert values
        assert all(v % 7 == 0 for v in values)

    def test_extend_then_drop_while_serving(self, service):
        service.add_set("grow", np.arange(0, 300, 10, dtype=np.uint64))
        service.pool.extend_set("grow", np.arange(5, 300, 10,
                                                  dtype=np.uint64))
        values = service.sample("grow", r=16, seed=2)["values"]
        assert values and all(v % 5 == 0 for v in values)
        service.pool.drop_set("grow")
        with pytest.raises(KeyError, match="grow"):
            service.sample("grow", r=1, seed=2)

    def test_retire_on_static_raises(self, service):
        with pytest.raises(BackendCapabilityError):
            service.retire_ids([1, 2, 3])

    def test_failed_mutation_registers_no_occupancy(self, pruned_service):
        # extend_set of a nonexistent name must leave the occupancy
        # untouched and send nothing to the workers — matching the
        # direct engine path.
        pool = pruned_service.pool
        occupied = pool.leader.occupied
        size = 0 if occupied is None else occupied.size
        state = pool.epoch_state()
        with pytest.raises(KeyError):
            pool.extend_set("ghost", np.arange(50, dtype=np.uint64))
        occupied = pool.leader.occupied
        assert (0 if occupied is None else occupied.size) == size
        assert pool.epoch_state() == state

    def test_add_set_broadcasts_occupancy_on_pruned(self, pruned_service):
        ids = np.arange(100, 1_100, dtype=np.uint64)
        pruned_service.add_set("live", ids)
        assert np.isin(ids, pruned_service.pool.leader.occupied).all()
        values = pruned_service.sample("live", r=4, seed=1)["values"]
        assert values and set(values) <= set(ids.tolist())

    def test_retire_requires_remove_support(self, pruned_service):
        with pytest.raises(BackendCapabilityError):
            pruned_service.pool.retire_ids(np.arange(10, dtype=np.uint64))

    def test_insert_and_retire_while_serving(self, tmp_path):
        db = dynamic_db()
        occupied = np.array(db.occupied)
        free = np.setdiff1d(np.arange(16_000, dtype=np.uint64), occupied)
        pool = ProcessShardPool.from_engine(
            db, tmp_path / "engine", 2,
            policy=BatchPolicy(max_delay_ms=1.0))
        service = ProcessService(pool).start()
        errors = []
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                try:
                    service.sample("alpha" if i % 2 else "beta", r=4,
                                   seed=i)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            try:
                for cycle in range(6):
                    batch = free[cycle * 25:(cycle + 1) * 25]
                    service.insert_ids(batch)
                    service.retire_ids(batch)
            finally:
                stop.set()
                for reader in readers:
                    reader.join(10)
            assert not errors
            assert np.array_equal(pool.leader.occupied, occupied)
            # Workers replayed every write: a seeded read matches the
            # leader's direct answer.
            spec = SampleSpec("alpha", 6, seed=5, key="0")
            want = encode_result(pool.leader.sample_many([spec])
                                 .ordered()[0])
            assert service.sample("alpha", r=6, seed=5) == want
        finally:
            service.close()


class TestOccupancyWrites:
    def test_retire_broadcast_keeps_shards_identical(self, dynamic_service):
        pool = dynamic_service.pool
        names = [f"s{i}" for i in range(12)]
        assert {pool.shard_of(n) for n in names} == {0, 1, 2}
        occupied = np.array(pool.leader.occupied)
        victims = occupied[:300]
        dynamic_service.retire_ids(victims)
        assert pool.leader.occupied.size == occupied.size - 300
        assert not np.isin(victims, pool.leader.occupied).any()
        retired = set(victims.tolist())
        for i, name in enumerate(names):
            got = dynamic_service.sample(name, r=8, seed=50 + i)
            assert got == leader_answer(pool, name, 8, 50 + i)
            assert not retired & set(got["values"])

    def test_pool_compact_folds_all_shard_deltas(self, dynamic_service):
        pool = dynamic_service.pool
        dynamic_service.retire_ids(np.array(pool.leader.occupied)[:100])
        delta = pool.leader.current_epoch().delta
        assert delta is not None and not delta.is_empty
        assert pool.epoch_state()["wal_seq"] > 0
        names = [f"s{i}" for i in range(12)]
        before = [dynamic_service.sample(n, r=5, seed=70) for n in names]
        generation = pool.epoch_state()["gen"]
        dynamic_service.compact()
        delta = pool.leader.current_epoch().delta
        assert delta is None or delta.is_empty
        state = pool.epoch_state()
        assert state["gen"] == generation + 1
        assert state["wal_seq"] == 0
        # Every worker remapped the folded generation: seeded answers
        # are unchanged by the compaction.
        assert [dynamic_service.sample(n, r=5, seed=70)
                for n in names] == before

    def test_idle_service_applies_directly(self, tmp_path):
        db = dynamic_db()
        occupied = np.array(db.occupied)
        pool = ProcessShardPool.from_engine(db, tmp_path / "engine", 2)
        service = ProcessService(pool)
        try:
            service.retire_ids(occupied[:50])  # workers not started
            assert pool.leader.occupied.size == occupied.size - 50
            service.start()
            # The workers replay the write on attach.
            assert service.sample("alpha", r=6, seed=9) == \
                leader_answer(pool, "alpha", 6, 9)
        finally:
            service.close()
