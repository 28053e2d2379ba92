"""Failure handling: promotion, hang detection, pipe recovery, quorum.

Every scenario here is the acceptance story in miniature: break one
member of a replicated ring under traffic and prove that (a) no
acknowledged write is lost, (b) seeded reads stay bit-identical to the
pre-fault answers, and (c) the ring heals back to ready.
"""

import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.durability.recovery import inspect_wal
from repro.faultinject import FaultInjector
from repro.obs.metrics import Metrics
from repro.replication import (
    ReplicatedShardPool,
    ReplicationLagError,
    Supervisor,
)
from repro.service import ServiceOverloadedError
from repro.service.aserver import status_for
from tests.replication.conftest import (
    counter_total,
    probe,
    reference,
    wait_until,
)


@pytest.fixture()
def pool(engine_dir):
    pool = ReplicatedShardPool(engine_dir, workers=2, replication=2,
                               heartbeat_s=0.05, hang_timeout_s=1.0)
    pool.start()
    yield pool
    pool.close()


def snapshot_reads(pool, workload, seed_base=123):
    return {name: probe(pool, name, seed=seed_base + i)
            for i, (name, _) in enumerate(workload)}


class TestSupervisorUnit:
    """Deterministic supervision passes against scripted handles.

    Real subprocesses (so the SIGKILL lands somewhere) but fake handle
    state, driven through one explicit ``check()`` — no background loop,
    no races.
    """

    def _handle(self, shard_id=0, *, ready=True, stale=False,
                pipe_torn=False, stop_requested=False):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])

        class _Process:
            pid = proc.pid

            @staticmethod
            def is_alive():
                return proc.poll() is None

        event = threading.Event()
        if ready:
            event.set()
        return types.SimpleNamespace(
            shard_id=shard_id, process=_Process, ready=event,
            stop_requested=stop_requested, pipe_torn=pipe_torn,
            last_heartbeat=time.monotonic() - (10.0 if stale else 0.0),
            _popen=proc)

    def _supervise(self, *handles):
        pool = types.SimpleNamespace(_workers=list(handles),
                                     _stopping=False, metrics=Metrics())
        return pool, Supervisor(pool, hang_timeout_s=2.0)

    def _reap(self, *handles):
        for handle in handles:
            handle._popen.kill()
            handle._popen.wait()

    def test_fresh_heartbeat_is_left_alone(self):
        handle = self._handle()
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)

    def test_stale_ready_worker_is_shot(self):
        handle = self._handle(stale=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == [0]
            handle._popen.wait(timeout=10)
            assert not handle.process.is_alive()
            assert counter_total(pool, "worker_hangs") == 1
        finally:
            self._reap(handle)

    def test_attaching_worker_is_not_a_hang(self):
        """A spawning member cannot heartbeat; silence there is not
        evidence — killing it would loop the respawn forever."""
        handle = self._handle(stale=True, ready=False)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)

    def test_torn_pipe_is_shot_even_with_fresh_heartbeat(self):
        handle = self._handle(pipe_torn=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == [0]
            handle._popen.wait(timeout=10)
            assert counter_total(pool, "worker_pipe_drops") == 1
        finally:
            self._reap(handle)

    def test_draining_worker_is_left_alone(self):
        handle = self._handle(stale=True, stop_requested=True)
        pool, supervisor = self._supervise(handle)
        try:
            assert supervisor.check() == []
            assert handle.process.is_alive()
        finally:
            self._reap(handle)


class TestLeaderFailover:
    def test_kill_leader_promotes_and_keeps_answers_bit_identical(
            self, pool, repl_workload):
        rng = np.random.default_rng(17)
        pool.add_set("acked", rng.choice(
            8_000, 100, replace=False).astype(np.uint64))
        pre = snapshot_reads(pool, repl_workload)
        pre["acked"] = probe(pool, "acked", seed=999)

        assert pool.leader_slot(0) == 0
        pid = pool.kill_leader(0)
        assert pid is not None

        wait_until(lambda: counter_total(pool, "replication_failovers") >= 1,
                   message="leader death never triggered promotion")
        assert pool.leader_slot(0) == 1
        # The promotion is durable: EPOCH names the new leader so a
        # restart (or another serving process) agrees on the topology.
        assert pool.epoch_state()["leaders"] == pool._leaders

        # Zero acknowledged-write loss, bit-identical seeded reads —
        # the promoted follower already held every acked record.
        post = snapshot_reads(pool, repl_workload)
        post["acked"] = probe(pool, "acked", seed=999)
        assert post == pre

        # The dead slot respawns as a follower and the ring heals.
        wait_until(lambda: pool.readyz()["ready"],
                   message="ring never became ready after failover")
        roles = {(w["shard"], w["slot"]): w["role"]
                 for w in pool.workers_info()}
        assert roles[(0, 1)] == "leader"
        assert roles[(0, 0)] == "follower"

    def test_kill_follower_does_not_change_leadership(
            self, pool, repl_workload):
        pre = snapshot_reads(pool, repl_workload)
        leaders_before = list(pool._leaders)
        failovers_before = counter_total(pool, "replication_failovers")

        pool.kill_follower(0)
        with pytest.raises(ValueError, match="leader"):
            pool.kill_follower(0, slot=pool.leader_slot(0))

        wait_until(lambda: pool.readyz()["ready"],
                   message="follower never rejoined")
        assert pool._leaders == leaders_before
        assert counter_total(pool,
                             "replication_failovers") == failovers_before
        assert snapshot_reads(pool, repl_workload) == pre


class TestHangDetection:
    def test_hung_leader_is_shot_and_replaced(self, pool, repl_workload):
        pre = snapshot_reads(pool, repl_workload)
        injector = FaultInjector(pool)
        injector.hang(0, pool.leader_slot(0))
        try:
            # SIGSTOP leaves the process alive, so only the heartbeat
            # supervisor can catch it: stale stamp -> SIGKILL -> the
            # normal death path (promotion + respawn) takes over.
            wait_until(lambda: counter_total(pool, "worker_hangs") >= 1,
                       message="the hang was never detected")
            wait_until(
                lambda: counter_total(pool, "replication_failovers") >= 1,
                message="the shot leader was never replaced")
            wait_until(lambda: pool.readyz()["ready"],
                       message="ring never healed after the hang")
            assert snapshot_reads(pool, repl_workload) == pre
        finally:
            injector.clear()


class TestPipeDropRecovery:
    def test_dropped_pipe_is_detected_and_member_respawned(
            self, pool, repl_workload):
        pre = snapshot_reads(pool, repl_workload)
        injector = FaultInjector(pool)
        victim = injector.pipe_drop(0, 1)
        assert pool._workers[victim].pipe_torn

        wait_until(lambda: counter_total(pool, "worker_pipe_drops") >= 1,
                   message="the torn pipe was never detected")
        wait_until(lambda: pool.readyz()["ready"],
                   message="member never rejoined after the pipe drop")
        assert not pool._workers[victim].pipe_torn  # fresh queues
        assert snapshot_reads(pool, repl_workload) == pre


class TestQuorumAcks:
    def test_lag_error_is_a_503(self):
        exc = ReplicationLagError("no quorum")
        assert isinstance(exc, ServiceOverloadedError)
        assert status_for(exc) == 503

    def test_quorum_blocks_without_majority_and_recovers(self, engine_dir):
        pool = ReplicatedShardPool(
            engine_dir, workers=1, replication=3, ack="quorum",
            ack_timeout_s=1.5, heartbeat_s=0.05, hang_timeout_s=60.0,
            read_fanout=False)
        pool.start()
        injector = FaultInjector(pool)
        try:
            rng = np.random.default_rng(23)
            ids_a = rng.choice(8_000, 90, replace=False).astype(np.uint64)
            ids_b = rng.choice(8_000, 90, replace=False).astype(np.uint64)

            # Healthy group: the majority confirms within a heartbeat.
            pool.add_set("healthy", ids_a)

            # Stop 2 of 3 replicas: alive but silent, so the quorum of 2
            # cannot form (the hang timeout is huge so the supervisor
            # does not bail the test out by shooting them).
            injector.hang(0, 1)
            injector.hang(0, 2)
            with pytest.raises(ReplicationLagError):
                pool.add_set("unacked", ids_b)

            # The write was refused an ack, not lost: it is durable in
            # the leader engine and in every shipped log.
            want = reference(pool, "unacked", seed=77)

            injector.resume()
            # The unacknowledged write is visible, bit-identical, from
            # the ring (members refresh to the log tail before serving)...
            assert probe(pool, "unacked", seed=77) == want
            # ...and once the followers catch up, acks flow again.
            pool.add_set("after", rng.choice(
                8_000, 50, replace=False).astype(np.uint64))
        finally:
            injector.clear()
            pool.close()


class TestCleanShutdownMarkers:
    def test_every_member_log_is_marked_clean_after_faults(
            self, repl_config, tmp_path):
        """Regression: a graceful stop must drain *followers* too.

        Before the replicated tier, ``close()`` only marked the leader's
        WAL clean; follower/worker logs were left unmarked, forcing a
        full rescan on the next boot.  Now every member log carries the
        CLEAN marker — even for members that were kill -9'd and
        respawned mid-run.
        """
        pool = ReplicatedShardPool(
            tmp_path / "durable", workers=2, replication=2, durable=True,
            config=repl_config, heartbeat_s=0.05, hang_timeout_s=1.0)
        pool.start()
        try:
            rng = np.random.default_rng(31)
            pool.add_set("a", rng.choice(
                8_000, 120, replace=False).astype(np.uint64))

            injector = FaultInjector(pool)
            restarts = pool.workers_info()[1]["restarts"]
            injector.kill9(0, 1)
            wait_until(
                lambda: (pool.workers_info()[1]["alive"]
                         and pool.workers_info()[1]["restarts"] > restarts),
                message="killed follower never respawned")
            wait_until(lambda: pool.readyz()["ready"],
                       message="ring never healed before shutdown")

            pool.add_set("b", rng.choice(
                8_000, 80, replace=False).astype(np.uint64))
        finally:
            pool.close()

        report = inspect_wal(tmp_path / "durable")
        assert report["clean_shutdown"], "leader WAL lost its CLEAN marker"
        logs = report["worker_logs"]
        assert len(logs) == 4
        for entry in logs:
            assert entry["clean_shutdown"], \
                f"member log {entry['worker']} missing its CLEAN marker"
            assert not entry["torn_tail"]
