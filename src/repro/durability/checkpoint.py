"""Checkpoints: durable snapshots bound to promoted epoch ids.

A checkpoint is the durability subsystem's compaction: fold the live
tree into a fresh base plan, persist it (plus the packed set filters)
into the engine's durable directory, promote it as a clean epoch, and
truncate the WAL to a fresh segment stamped with that epoch.  The
sequence lives in :meth:`repro.api.BloomDB.checkpoint` (step ordering
and crash-window analysis documented there); a serving pool checkpoints
its leader the same way and then promotes the fresh snapshot to its
workers (:meth:`repro.service.ProcessShardPool.checkpoint`).
"""

from __future__ import annotations

from repro.api.engine import BloomDB


def checkpoint_engine(db: BloomDB) -> dict:
    """Checkpoint one durable engine (see :meth:`BloomDB.checkpoint`)."""
    return db.checkpoint()
