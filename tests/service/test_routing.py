"""Process-pool routing, cross-worker algebra and lifecycle.

Every worker process attaches to the same promoted snapshot, so which
worker executes a request must be unobservable: a set's reads go to
its consistent-hash owner, and that owner's seeded answers — samples,
membership, union and intersection draws — equal the unsharded
engine's.  Construction from a live engine copies its sets, and the
write leader rejects what the engine rejects before anything reaches a
worker log.
"""

import numpy as np
import pytest

from repro.api import SampleSpec
from repro.core.store import DuplicateSetError
from repro.obs.prometheus import parse_exposition
from repro.service import ProcessService, ProcessShardPool
from repro.service.client import encode_result


@pytest.fixture(scope="module")
def service(compiled_db, tmp_path_factory):
    """One started three-worker pool over the static workload."""
    svc = ProcessService(ProcessShardPool.from_engine(
        compiled_db, tmp_path_factory.mktemp("routing") / "engine",
        3)).start()
    yield svc
    svc.close()


def served_by_worker(pool) -> dict[str, float]:
    """``requests_served`` per ``{worker="NN"}`` series, from a scrape."""
    families = parse_exposition(pool.metrics_text())
    family = families.get("requests_served_total", {"samples": []})
    return {labels["worker"]: value
            for _, labels, value in family["samples"] if labels}


class TestRouting:
    def test_every_set_lands_on_its_ring_shard(self, service, workload):
        pool = service.pool
        owners = set()
        for i, (name, _) in enumerate(workload):
            shard = pool.shard_of(name)
            assert 0 <= shard < pool.num_workers
            owners.add(shard)
            before = served_by_worker(pool)
            service.sample(name, r=1, seed=i)
            after = served_by_worker(pool)
            key = f"{shard:02d}"
            assert after.get(key, 0) == before.get(key, 0) + 1
            for other, value in after.items():
                if other != key:
                    assert value == before.get(other, 0)
        assert len(owners) > 1, "the workload spreads over several workers"

    def test_names_merge_across_shards(self, service, workload):
        pool = service.pool
        assert pool.leader.names() == sorted(n for n, _ in workload)
        assert pool.describe()["sets"] == len(workload)

    def test_contains_routes_to_owner(self, service, workload):
        for name, ids in workload:
            assert service.contains(name, int(ids[0]))["contains"] is True


class TestWorkerIndependence:
    def test_results_are_shard_independent(self, service, compiled_db,
                                           workload):
        """Every set's owning worker draws what the engine draws."""
        for i, (name, _) in enumerate(workload):
            want = compiled_db.sample_many(
                [SampleSpec(name, 6, seed=123 + i, key="0")]).ordered()[0]
            assert service.sample(name, r=6, seed=123 + i) == \
                encode_result(want)


class TestAlgebra:
    def test_union_filter_matches_unsharded_store(self, service,
                                                  compiled_db, workload):
        names = [n for n, _ in workload]
        for seed in range(6):
            group = names[seed:seed + 3]
            want = compiled_db.store.sample_union(group, rng=300 + seed)
            got = service.sample_union(group, seed=300 + seed)
            assert got["value"] == want.value

    def test_intersection_filter_matches_unsharded_store(
            self, service, compiled_db, workload):
        names = [n for n, _ in workload]
        for seed in range(6):
            group = names[seed:seed + 2]
            want = compiled_db.store.sample_intersection(group,
                                                         rng=400 + seed)
            got = service.sample_intersection(group, seed=400 + seed)
            assert got == encode_result(want)

    def test_empty_names_rejected(self, service):
        with pytest.raises(ValueError, match="set name"):
            service.pool.submit("sample_intersection", (),
                                seed=1).result(30)


class TestLifecycle:
    def test_from_engine_reshards_a_loaded_db(self, compiled_db, workload,
                                              tmp_path):
        pool = ProcessShardPool.from_engine(compiled_db,
                                            tmp_path / "engine", 3)
        try:
            assert pool.leader.names() == compiled_db.names()
            for name, _ in workload:
                want = compiled_db.filter(name)
                got = pool.leader.filter(name)
                assert np.array_equal(got.bits.words, want.bits.words)
                # Loaded, not aliased: pool writes leave the source alone.
                assert got is not want
        finally:
            pool.close()

    def test_install_rejects_duplicate_set_names(self, service, workload):
        name, ids = workload[0]
        pool = service.pool
        state = pool.epoch_state()
        with pytest.raises(DuplicateSetError):
            pool.add_set(name, np.arange(10, dtype=np.uint64))
        # Rejected on the leader: no record reached any worker log.
        assert pool.epoch_state() == state
        assert service.contains(name, int(ids[0]))["contains"] is True

    def test_cannot_remove_the_last_worker(self, compiled_db, tmp_path):
        pool = ProcessShardPool.from_engine(compiled_db,
                                            tmp_path / "engine", 1)
        try:
            with pytest.raises(ValueError, match="last worker"):
                pool.remove_worker()
            assert pool.num_workers == 1
        finally:
            pool.close()
