"""The serving subsystem: worker processes behind an asyncio HTTP edge.

The paper frames the BloomSampleTree as the shared index of a *database*
of Bloom-filter-encoded sets answering sampling and reconstruction
queries online.  This package is the layer between the batched engine
kernels and real traffic — it turns a stream of independent requests
into kernel-sized batches:

* :class:`ProcessShardPool` (:mod:`repro.service.procpool`) — one worker
  *process* per shard, attached read-only to the promoted ``plan.bst`` /
  ``sets.bst`` snapshot via ``np.memmap`` (one physical copy for every
  worker).  Set names route to workers by consistent hash; each worker
  coalesces its queue under a :class:`BatchPolicy` and dispatches whole
  batches through the engine's batched entry points.  Results are
  bit-identical to direct engine calls because every stochastic request
  carries its own seed (:func:`derive_seed`).  Writes route through the
  leader (the parent process) and fan out over per-worker WALs; epochs
  promote by atomic version-file swap; a killed worker is respawned and
  replays its log (:class:`WorkerDiedError` → HTTP 503 meanwhile).
  Admission control rejects with :class:`ServiceOverloadedError` when a
  worker queue is full.
* :class:`ProcessService` — the client-shaped facade over a pool, and
  :class:`AsyncReproServer` (:mod:`repro.service.aserver`) — the asyncio
  HTTP/JSON front end behind ``repro serve``.  The replicated tier on
  top of the pool (``--replicas R``) lives in :mod:`repro.replication`.
* :class:`HTTPServiceClient` — the stdlib client, which honours
  ``Retry-After`` on 503s when constructed with a :class:`RetryPolicy`
  (idempotent requests only).

``/healthz`` answers liveness, ``/readyz`` readiness (every worker
attached and alive; for replicated pools every shard group led with
replication lag under bound).

A pool needs a saved compiled-plan engine directory and a
``__main__`` guard (workers start with the ``spawn`` method)::

    db = BloomDB.plan(namespace_size=10_000, accuracy=0.9, seed=7,
                      plan="compiled")
    db.add_set("community", np.arange(0, 1_000, 3, dtype=np.uint64))
    pool = ProcessShardPool.from_engine(db, "served/", workers=2)
    with ProcessService(pool) as svc:
        svc.sample("community", r=5, seed=11)["values"]
"""

from repro.obs.metrics import Histogram, Metrics
from repro.service.client import HTTPServiceClient, RetryPolicy
from repro.service.hashring import ConsistentHashRing
from repro.service.procpool import (
    BatchPolicy,
    ProcessService,
    ProcessShardPool,
    ServiceOverloadedError,
    WorkerDiedError,
    derive_seed,
)
from repro.service.aserver import AsyncReproServer

__all__ = [
    "AsyncReproServer",
    "BatchPolicy",
    "ConsistentHashRing",
    "HTTPServiceClient",
    "Histogram",
    "Metrics",
    "ProcessService",
    "ProcessShardPool",
    "RetryPolicy",
    "ServiceOverloadedError",
    "WorkerDiedError",
    "derive_seed",
]
