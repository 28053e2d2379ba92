"""Cross-process bit-identity: the tentpole correctness property.

The same seeded request batch must produce identical values *and*
operation counters through direct engine calls, a 1-process pool and a
4-process pool.  Identity holds because every stochastic request carries
its own seed, every path dispatches through the same batched kernels
over the same compiled plan, and worker processes replay the leader's
mutations through the recovery core — so batch composition and process
count are unobservable.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.service import BatchPolicy, ProcessService, ProcessShardPool
from repro.service.client import encode_result
from repro.service.procpool import (
    EPOCH_FILE,
    WORKER_WAL_DIR,
    read_epoch_state,
)

NAMESPACE = 8_000


@pytest.fixture(scope="module")
def compiled_config() -> EngineConfig:
    """Compiled plan + delta mutation: what process serving requires."""
    return EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                        set_size=150, seed=5, plan="compiled",
                        mutation="delta", tree="dynamic")


@pytest.fixture(scope="module")
def compiled_db(compiled_config, workload) -> BloomDB:
    db = BloomDB.from_config(compiled_config)
    for name, ids in workload:
        db.add_set(name, ids)
    return db


@pytest.fixture(scope="module")
def serving_dir(compiled_db, tmp_path_factory) -> pathlib.Path:
    directory = tmp_path_factory.mktemp("procpool") / "engine"
    compiled_db.save(directory)
    return directory


#: The seeded request batch every tier executes (mixed rounds,
#: replacement modes and seeds across all eight sets).
def request_plan(names):
    return [
        dict(name=names[i % len(names)], rounds=1 + i % 5,
             replacement=(i % 3 != 0), seed=20_000 + i)
        for i in range(48)
    ]


def run_direct(db, plan):
    specs = [SampleSpec(r["name"], r["rounds"], r["replacement"],
                        seed=r["seed"], key=str(i))
             for i, r in enumerate(plan)]
    return [encode_result(res) for res in db.sample_many(specs).ordered()]


def run_process_pool(serving_dir, workers, plan):
    pool = ProcessShardPool(serving_dir, workers,
                            policy=BatchPolicy(max_batch=64,
                                               max_delay_ms=1.0))
    pool.start()
    try:
        futures = [pool.submit("sample", (r["name"],), rounds=r["rounds"],
                               replacement=r["replacement"], seed=r["seed"])
                   for r in plan]
        return [f.result(60) for f in futures]
    finally:
        pool.close()


class TestCrossProcessBitIdentity:
    def test_one_and_four_process_pools_match_the_engine(
            self, compiled_db, workload, serving_dir):
        """Direct calls and both pool sizes: one answer — ops included."""
        names = [name for name, _ in workload]
        plan = request_plan(names)
        direct = run_direct(compiled_db, plan)
        single = run_process_pool(serving_dir, 1, plan)
        multi = run_process_pool(serving_dir, 4, plan)
        # Dict equality covers values, requested, shortfall AND the
        # OpCounter payload (intersections/memberships/nodes/backtracks).
        assert single == direct
        assert multi == direct

    def test_reconstruct_and_contains_match_direct(self, compiled_db,
                                                   workload, serving_dir):
        name, ids = workload[0]
        pool = ProcessShardPool(serving_dir, 2)
        service = ProcessService(pool).start()
        try:
            got = service.reconstruct(name, exhaustive=True)
            want = encode_result(
                compiled_db.store.reconstruct_many([name],
                                                   exhaustive=True)[0])
            assert got == want
            assert service.contains(name, int(ids[0]))["contains"] is True
        finally:
            service.close()


class TestServingDirectoryProtocol:
    def test_epoch_file_is_written_and_json(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 2)
        try:
            state = read_epoch_state(serving_dir)
            assert state == pool.epoch_state()
            for key in ("gen", "epoch", "wal_seq", "snapshot_epoch",
                        "plan", "sets", "workers"):
                assert key in state
            # The EPOCH names a generation pair that actually exists.
            assert (serving_dir / state["plan"]).exists()
            assert (serving_dir / state["sets"]).exists()
            raw = json.loads((serving_dir / EPOCH_FILE).read_text())
            assert raw == state
        finally:
            pool.close()

    def test_generation_pair_shares_inodes_with_canonical(self, serving_dir):
        """Promotion hardlinks — one physical snapshot, two names."""
        pool = ProcessShardPool(serving_dir, 2)
        try:
            state = pool.epoch_state()
            assert (serving_dir / state["plan"]).stat().st_ino == \
                (serving_dir / "plan.bst").stat().st_ino
            assert (serving_dir / state["sets"]).stat().st_ino == \
                (serving_dir / "sets.bst").stat().st_ino
        finally:
            pool.close()

    def test_promotion_bumps_generation_and_resets_worker_logs(
            self, serving_dir):
        pool = ProcessShardPool(serving_dir, 2)
        pool.start()
        try:
            before = pool.epoch_state()
            pool.insert_ids(np.array([7000, 7001], dtype=np.uint64))
            assert pool.epoch_state()["wal_seq"] == 1
            pool.compact()
            after = pool.epoch_state()
            assert after["gen"] == before["gen"] + 1
            assert after["wal_seq"] == 0
            assert after["plan"] != before["plan"]
            # Per-worker logs exist, one directory per worker process.
            wal_root = serving_dir / WORKER_WAL_DIR
            assert sorted(p.name for p in wal_root.iterdir()) == ["00", "01"]
        finally:
            pool.close()

    def test_membership_changes_preserve_results(self, serving_dir,
                                                 compiled_db, workload):
        """Grow then shrink the ring; seeded results never change."""
        names = [name for name, _ in workload]
        plan = request_plan(names)[:12]
        direct = run_direct(compiled_db, plan)

        pool = ProcessShardPool(serving_dir, 2)
        pool.start()
        try:
            def probe():
                futures = [pool.submit("sample", (r["name"],),
                                       rounds=r["rounds"],
                                       replacement=r["replacement"],
                                       seed=r["seed"]) for r in plan]
                return [f.result(60) for f in futures]

            assert probe() == direct
            assert pool.add_worker() == 3
            assert probe() == direct
            assert pool.remove_worker() == 2
            assert probe() == direct
        finally:
            pool.close()


class TestGuardRails:
    def test_from_engine_rejects_object_plans(self, tmp_path, workload):
        db = BloomDB(EngineConfig(namespace_size=NAMESPACE, seed=5))
        with pytest.raises(ValueError, match="compiled"):
            ProcessShardPool.from_engine(db, tmp_path / "nope")

    def test_load_rejects_object_plan_directories(self, tmp_path):
        db = BloomDB(EngineConfig(namespace_size=NAMESPACE, seed=5))
        db.add_set("s", np.arange(10, dtype=np.uint64))
        db.save(tmp_path / "objects")
        with pytest.raises(ValueError, match="compiled"):
            ProcessShardPool(tmp_path / "objects", 2)

    def test_needs_at_least_one_worker(self, serving_dir):
        with pytest.raises(ValueError, match="worker"):
            ProcessShardPool(serving_dir, 0)

    def test_submit_rejects_write_ops(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 1)
        pool.start()
        try:
            with pytest.raises(ValueError, match="unknown read op"):
                pool.submit("insert", ("set0",))
        finally:
            pool.close()

    def test_unknown_set_maps_to_keyerror(self, serving_dir):
        pool = ProcessShardPool(serving_dir, 1)
        service = ProcessService(pool).start()
        try:
            with pytest.raises(KeyError, match="no-such-set"):
                service.sample("no-such-set")
        finally:
            service.close()

    def test_checkpoint_requires_durable_pool(self, serving_dir):
        from repro.api import DurabilityError

        pool = ProcessShardPool(serving_dir, 1)
        try:
            with pytest.raises(DurabilityError, match="durable"):
                pool.checkpoint()
        finally:
            pool.close()

    def test_worker_boot_failure_fails_start_fast(self, compiled_db,
                                                  tmp_path):
        """A worker that dies while attaching is reported, not respawned."""
        import time

        directory = tmp_path / "engine"
        compiled_db.save(directory)
        pool = ProcessShardPool(directory, 2)
        (directory / pool.epoch_state()["plan"]).unlink()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code"):
            pool.start()
        assert time.monotonic() - started < 20.0
        assert pool.metrics.counter("worker_restarts") == 0
        assert not any(info["alive"] for info in pool.workers_info())
        pool.close()
