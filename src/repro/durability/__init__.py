"""Durability subsystem: WAL, checksummed snapshots and crash recovery.

PR 5's epoch-versioned mutation pipeline made occupancy writes cheap but
volatile: a crash between :meth:`~repro.api.BloomDB.compact` calls lost
every insert/retire since the last compaction.  This package turns the
serving layer from a cache into a database:

:mod:`repro.durability.wal`
    A per-shard append-only write-ahead log of insert/retire and
    set-mutation batches — length-prefixed, CRC-checksummed records,
    configurable fsync policy (``always`` / ``batch`` / ``off``),
    segment rotation and truncated-tail tolerance on replay.
:mod:`repro.durability.recovery`
    Cold-start recovery: load the last durable snapshot (the mmap blob
    of :mod:`repro.core.mmapio`), replay the WAL tail through the
    normal mutation pipeline, and restore the exact pre-crash epoch.
:mod:`repro.durability.checkpoint`
    Snapshots: ``compact(path=)`` plus WAL truncation bound to the
    promoted epoch id.

Entry points: :func:`open_durable` (create-or-recover one engine) and
:func:`recover_engine` (explicit recovery).  A durable serving pool
(``repro serve --durable DIR``) is one such engine directory: its leader
journals every write, and ``repro recover DIR`` opens it offline.  See
``docs/durability.md``.
"""

from repro.api.engine import DurabilityError
from repro.durability.checkpoint import checkpoint_engine
from repro.durability.recovery import (
    RecoveryReport,
    inspect_wal,
    open_durable,
    recover_engine,
    replay_records,
)
from repro.durability.wal import (
    CorruptWalError,
    WalRecord,
    WalScan,
    WriteAheadLog,
)

__all__ = [
    "CorruptWalError",
    "DurabilityError",
    "RecoveryReport",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "checkpoint_engine",
    "inspect_wal",
    "open_durable",
    "recover_engine",
    "replay_records",
]
