"""The replicated process pool: replica groups over shipped WAL logs.

:class:`ReplicatedShardPool` extends
:class:`~repro.service.procpool.ProcessShardPool` so that each of the N
shards is served by a *replica group* of R worker processes instead of
one.  The layout and protocol are the base tier's, generalised:

* **Members.**  Worker index ``shard * R + slot`` is replica ``slot``
  of group ``shard``; slot assignments never move, only the *leader
  designation* within a group does.  Every member attaches the same
  promoted snapshot via ``np.memmap`` and tails its own shipped log in
  ``wal-workers/NN/``.
* **WAL shipping.**  The write leader (the parent process) journals
  every mutation to its durable WAL first (durable mode), then appends
  the record to *every member's log* and flushes before the ``EPOCH``
  bump that acknowledges the write — so an acknowledged record is
  durable in R + 1 logs before any caller sees the ack.  Followers
  replay their log tails through
  :func:`repro.durability.recovery.replay_records`, i.e. with
  recovery's exact epoch-alignment ("replay diverged") verification,
  at every batch boundary and on every idle heartbeat tick.
* **Ack policies.**  ``ack="leader"`` acknowledges once the records are
  flushed into every member log and the ``EPOCH`` bump landed (the base
  tier's guarantee).  ``ack="quorum"`` additionally blocks until a
  majority of each group's members report (via heartbeat) that they
  have *applied* the records — strictly stronger than follower
  durability.  A quorum that cannot form within ``ack_timeout_s``
  raises :class:`ReplicationLagError` (a 503): the write is durable at
  the leader but unacknowledged.
* **Read fan-out.**  Reads route to the owning group and round-robin
  across its live members.  Because every member refreshes to the log
  tail before executing a gathered batch, read-your-writes holds on
  followers exactly as on leaders, and per-request
  :class:`~repro.api.SampleSpec` seeds keep every answer (values *and*
  OpCounters) bit-identical across members.
* **Failover.**  When a group's designated leader dies (or is killed by
  the :class:`~repro.replication.Supervisor` for hanging), the most
  caught-up surviving member is promoted immediately — zero
  acknowledged-write loss by construction, since the ack already
  required the record in that member's log.  The dead member respawns
  as a follower of the same slot, replays its own log, and rejoins.

``/readyz`` reflects all of this: ready means every group has a live
leader, every member is attached, and the worst replication lag
(shipped minus applied records) is under ``lag_threshold``.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.logs import get_logger
from repro.obs.metrics import (
    Metrics,
    empty_export,
    merge_exports,
    relabel_export,
)
from repro.obs.runtime import RUNTIME
from repro.replication.supervisor import Supervisor
from repro.service.hashring import ConsistentHashRing
from repro.service.procpool import (
    BatchPolicy,
    ProcessShardPool,
    ServiceOverloadedError,
    write_epoch_state,
)

_log = get_logger("replication.pool")

#: Ack policies accepted by :class:`ReplicatedShardPool`.
ACK_POLICIES = ("leader", "quorum")


class ReplicationLagError(ServiceOverloadedError):
    """A quorum ack could not form before ``ack_timeout_s``.

    The write is durable in the leader's WAL and in every shipped log —
    it is not lost — but fewer than a majority of some replica group
    confirmed applying it, so under ``ack="quorum"`` it must not be
    acknowledged.  Maps to a 503 with ``Retry-After`` at the HTTP layer.
    """


class ReplicatedShardPool(ProcessShardPool):
    """A process pool serving each shard from an R-member replica group.

    ``workers`` is the number of shards (groups); ``replication`` the
    members per group; ``ack`` the acknowledgement policy; see the
    module docstring for the full protocol.  All remaining keyword
    arguments are the base pool's (``policy``, ``durable``, ``config``,
    ``sync``, ``start_method``, ``metrics``, and ``replicas`` for the
    consistent-hash ring's virtual nodes — unrelated to ``replication``).
    """

    def __init__(self, directory, workers: int = 2, *,
                 replication: int = 2, ack: str = "leader",
                 heartbeat_s: float = 0.25,
                 hang_timeout_s: float | None = None,
                 ack_timeout_s: float = 10.0,
                 read_fanout: bool = True,
                 lag_threshold: int | None = 1024,
                 policy: BatchPolicy | None = None, replicas: int = 64,
                 durable: bool = False, config=None,
                 sync: str | None = None, start_method: str = "spawn",
                 metrics: Metrics | None = None):
        if workers <= 0:
            raise ValueError("need at least one shard group")
        if replication <= 0:
            raise ValueError("replication factor must be >= 1")
        if ack not in ACK_POLICIES:
            raise ValueError(
                f"unknown ack policy {ack!r} (known: {ACK_POLICIES})")
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        # Subclass state first: the base __init__ ends in the initial
        # promotion, whose overrides below already need all of this.
        self._num_shards = int(workers)
        self.replication = int(replication)
        self.ack = ack
        self.heartbeat_s = float(heartbeat_s)
        self.hang_timeout_s = (float(hang_timeout_s)
                               if hang_timeout_s is not None
                               else max(10.0 * heartbeat_s, 2.0))
        self.ack_timeout_s = float(ack_timeout_s)
        self.read_fanout = bool(read_fanout)
        self.lag_threshold = (None if lag_threshold is None
                              else int(lag_threshold))
        self.ring_replicas = int(replicas)
        self._leaders = [0] * self._num_shards
        self._shipped = 0
        self._applied_cond = threading.Condition()
        self._rr_counters = [itertools.count()
                             for _ in range(self._num_shards)]
        self.supervisor = Supervisor(
            self, interval_s=min(self.heartbeat_s, 0.5),
            hang_timeout_s=self.hang_timeout_s)
        super().__init__(directory, workers * replication, policy=policy,
                         replicas=replicas, durable=durable, config=config,
                         sync=sync, start_method=start_method,
                         metrics=metrics)
        # The base class hashed keys across all R*N members; reads must
        # hash across *groups* (the member is picked per request).
        self.ring = ConsistentHashRing(self._num_shards, self.ring_replicas)
        for name in ("replication_failovers", "worker_hangs",
                     "worker_pipe_drops", "replication_records_shipped"):
            self.metrics.inc(name, 0)

    # -- topology -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of replica groups (the routing shards)."""
        return self._num_shards

    def member_index(self, shard: int, slot: int) -> int:
        """Flat worker index of replica ``slot`` in group ``shard``."""
        if not 0 <= shard < self._num_shards:
            raise ValueError(f"no shard group {shard}")
        if not 0 <= slot < self.replication:
            raise ValueError(f"no replica slot {slot}")
        return shard * self.replication + slot

    def leader_slot(self, shard: int) -> int:
        """The currently designated leader slot of one group."""
        return self._leaders[shard]

    def leader_member(self, shard: int) -> int:
        """Flat worker index of one group's current leader replica."""
        return self.member_index(shard, self._leaders[shard])

    def _member_alive(self, member: int) -> bool:
        handle = self._workers[member]
        return (handle.process is not None and handle.process.is_alive()
                and handle.ready.is_set() and not handle.pipe_torn)

    # -- worker spawning ------------------------------------------------------

    def _worker_args(self, handle) -> tuple:
        return (*super()._worker_args(handle), self.heartbeat_s)

    # -- routing (read fan-out) -----------------------------------------------

    def shard_of(self, name: str) -> int:
        """The replica *group* owning a routing key (consistent hash)."""
        return self.ring.shard_for(name)

    def _route(self, key: str) -> int:
        return self._pick_member(self.ring.shard_for(key))

    def _pick_member(self, shard: int) -> int:
        """Choose a live group member for one read.

        Round-robin over the group when ``read_fanout`` (scale-out),
        leader-first otherwise; falls back to the leader when nothing
        is live — the submit will then fail with the base tier's clean
        503 rather than hanging.
        """
        base = shard * self.replication
        leader = base + self._leaders[shard]
        if self.replication == 1:
            return leader
        if self.read_fanout:
            offset = next(self._rr_counters[shard])
            for i in range(self.replication):
                member = base + (offset + i) % self.replication
                if self._member_alive(member):
                    return member
        else:
            if self._member_alive(leader):
                return leader
            for slot in range(self.replication):
                if self._member_alive(base + slot):
                    return base + slot
        return leader

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ReplicatedShardPool":
        """Spawn every replica of every group, then start supervision."""
        super().start()
        self.supervisor.start()
        return self

    def stop(self) -> None:
        """Stop supervision first, then drain every replica."""
        self.supervisor.stop()
        super().stop()

    # -- shipping and acks ----------------------------------------------------

    def _reset_worker_wals(self, epoch: int, initial: bool) -> None:
        super()._reset_worker_wals(epoch, initial)
        # Each member log now holds exactly the checkpoint record.
        self._shipped = 1

    def _fanout(self, records: list[tuple]) -> None:
        super()._fanout(records)
        if records:
            self._shipped += len(records)
            self.metrics.inc("replication_records_shipped",
                             len(records) * len(self._wals))

    def _promote(self, initial: bool = False) -> dict:
        state = super()._promote(initial)
        with self._mutation_lock:
            self._state = dict(self._state, replication=self.replication,
                               leaders=list(self._leaders))
            write_epoch_state(self.directory, self._state)
            return dict(self._state)

    def _on_heartbeat(self, handle, payload: dict) -> None:
        super()._on_heartbeat(handle, payload)
        with self._applied_cond:
            self._applied_cond.notify_all()

    def _quorum(self) -> int:
        return self.replication // 2 + 1

    def _quorum_reached(self, target: int) -> bool:
        for shard in range(self._num_shards):
            base = shard * self.replication
            confirmed = sum(
                1 for slot in range(self.replication)
                if self._member_alive(base + slot)
                and self._workers[base + slot].applied_seq >= target)
            if confirmed < self._quorum():
                return False
        return True

    def _await_ack(self) -> None:
        """Block until the configured ack policy is satisfied.

        ``ack="leader"`` is already satisfied by the fanout (records
        flushed into every member log, ``EPOCH`` bumped).  For
        ``ack="quorum"`` this waits — outside the mutation lock, so
        failover can proceed meanwhile — until a majority of every
        group has applied up to the current shipped count, or raises
        :class:`ReplicationLagError` after ``ack_timeout_s``.  A
        promotion (which folds everything shipped into the snapshot all
        members remap to) also satisfies the wait.
        """
        if self.ack != "quorum" or not self._started:
            return
        target = self._shipped
        generation = self._state["gen"]
        deadline = time.monotonic() + self.ack_timeout_s
        with self._applied_cond:
            while True:
                if self._state["gen"] != generation:
                    return
                if self._quorum_reached(target):
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._applied_cond.wait(timeout=min(remaining,
                                                    self.heartbeat_s))
        raise ReplicationLagError(
            f"quorum ack did not form within {self.ack_timeout_s:.1f}s "
            f"(need {self._quorum()}/{self.replication} replicas per "
            f"group at record {target}); the write is durable at the "
            f"leader but unacknowledged — retry")

    # -- failover -------------------------------------------------------------

    def _on_worker_death(self, handle) -> None:
        """Promote before respawn when the dead member led its group."""
        shard, slot = divmod(handle.shard_id, self.replication)
        if not self._stopping and self._leaders[shard] == slot:
            self._promote_follower(shard, exclude_slot=slot)
        super()._on_worker_death(handle)

    def _promote_follower(self, shard: int, exclude_slot: int) -> bool:
        """Designate the most caught-up live member as the group leader.

        Ties break toward the lowest slot.  Returns ``False`` (leaving
        the designation in place for the respawn to reclaim) when no
        other member of the group is live.
        """
        base = shard * self.replication
        best: tuple[int, int] | None = None
        for slot in range(self.replication):
            if slot == exclude_slot:
                continue
            handle = self._workers[base + slot]
            if handle.process is None or not handle.process.is_alive() \
                    or not handle.ready.is_set():
                continue
            rank = (handle.applied_seq, -slot)
            if best is None or rank > best:
                best = rank
        if best is None:
            _log.warning("failover_no_candidate", shard=shard,
                         dead_slot=exclude_slot)
            return False
        new_slot = -best[1]
        self._leaders[shard] = new_slot
        self.metrics.inc("replication_failovers")
        with self._mutation_lock:
            self._state = dict(self._state, leaders=list(self._leaders))
            write_epoch_state(self.directory, self._state)
        _log.warning("follower_promoted", shard=shard, slot=new_slot,
                     dead_slot=exclude_slot, applied_seq=best[0])
        with self._applied_cond:
            self._applied_cond.notify_all()
        return True

    # -- fault-injection conveniences ----------------------------------------

    def kill_leader(self, shard: int) -> int:
        """SIGKILL one group's current leader replica; returns its pid."""
        return self.kill_worker(self.leader_member(shard))

    def kill_follower(self, shard: int, slot: int | None = None) -> int:
        """SIGKILL a non-leader replica of one group; returns its pid."""
        if slot is None:
            slot = next(s for s in range(self.replication)
                        if s != self._leaders[shard])
        if slot == self._leaders[shard]:
            raise ValueError(f"slot {slot} is shard {shard}'s leader")
        return self.kill_worker(self.member_index(shard, slot))

    # -- membership -----------------------------------------------------------

    def add_worker(self) -> int:
        raise NotImplementedError(
            "replica groups do not support online membership changes yet; "
            "restart the pool with a different workers/replication shape")

    def remove_worker(self) -> int:
        raise NotImplementedError(
            "replica groups do not support online membership changes yet; "
            "restart the pool with a different workers/replication shape")

    # -- introspection --------------------------------------------------------

    def member_lag(self, member: int) -> int:
        """Shipped-minus-applied records of one member (0 when caught up)."""
        return max(0, self._shipped - self._workers[member].applied_seq)

    def replication_status(self) -> dict:
        """Per-group leader / liveness / lag summary (drives ``/readyz``)."""
        shards = []
        lag_max = 0
        for shard in range(self._num_shards):
            base = shard * self.replication
            leader = base + self._leaders[shard]
            alive = [self._member_alive(base + slot)
                     for slot in range(self.replication)]
            lags = [self.member_lag(base + slot)
                    for slot in range(self.replication) if alive[slot]]
            lag = max(lags) if lags else self._shipped
            lag_max = max(lag_max, lag)
            ready = (self._started and self._member_alive(leader)
                     and all(alive))
            if self.lag_threshold is not None:
                ready = ready and lag <= self.lag_threshold
            shards.append({"shard": shard,
                           "leader": self._leaders[shard],
                           "alive": sum(alive), "lag": lag,
                           "ready": bool(ready)})
        return {"shards": shards, "lag_max": lag_max,
                "ready": bool(self._started
                              and all(s["ready"] for s in shards))}

    def readyz(self) -> dict:
        """Readiness: every group led, fully attached, lag under bound."""
        status = self.replication_status()
        return {"ready": status["ready"], "mode": "process",
                "workers": self._num_shards,
                "replication": self.replication, "ack": self.ack,
                "lag_max": status["lag_max"],
                "lag_threshold": self.lag_threshold,
                "shards": status["shards"]}

    def workers_info(self) -> list[dict]:
        """Role, liveness, pid, restarts and lag of every replica."""
        infos = []
        for shard in range(self._num_shards):
            for slot in range(self.replication):
                handle = self._workers[shard * self.replication + slot]
                role = ("leader" if self._leaders[shard] == slot
                        else "follower")
                infos.append({
                    "shard": shard, "slot": slot, "role": role,
                    "pid": (None if handle.process is None
                            else handle.process.pid),
                    "alive": (handle.process is not None
                              and handle.process.is_alive()),
                    "restarts": handle.restarts,
                    "applied_seq": handle.applied_seq,
                    "lag": self.member_lag(shard * self.replication + slot),
                })
        return infos

    def fleet_export(self) -> dict:
        """Fleet totals plus per-replica ``{worker=,replica=}`` series."""
        merged = merge_exports(empty_export(), self.metrics.export())
        merge_exports(merged, RUNTIME.export())
        with self._metrics_lock:
            for member in sorted(self._worker_exports):
                export = self._worker_exports[member]
                merge_exports(merged, export)
                shard, slot = divmod(member, self.replication)
                merge_exports(merged, relabel_export(
                    {"counters": export.get("counters", {})},
                    {"worker": f"{shard:02d}", "replica": str(slot)}))
        return merged

    def metrics_text(self) -> str:
        """The ``/metrics`` payload, with replication gauges refreshed."""
        status = self.replication_status()
        for entry in status["shards"]:
            self.metrics.set_gauge(
                "replication_lag", entry["lag"],
                labels={"shard": f"{entry['shard']:02d}"})
        self.metrics.set_gauge("replication_lag_max", status["lag_max"])
        self.metrics.set_gauge("replication_factor", self.replication)
        return super().metrics_text()

    def describe(self) -> dict:
        """Pool summary: engine config + replication topology."""
        info = super().describe()
        info.update(workers=self._num_shards,
                    replication=self.replication, ack=self.ack,
                    processes=len(self._workers),
                    leaders=list(self._leaders))
        return info

    def __repr__(self) -> str:
        return (f"ReplicatedShardPool(shards={self._num_shards}, "
                f"replication={self.replication}, ack={self.ack!r}, "
                f"dir={str(self.directory)!r}, durable={self.durable})")
