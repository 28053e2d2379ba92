"""The engine facade: one config-driven entry point for the whole system.

This package is the recommended API surface.  Instead of hand-wiring
``plan_tree -> family_for_parameters -> BloomSampleTree.build ->
BloomFilter.from_items -> BSTSampler`` (the legacy flat exports, kept for
compatibility), build one :class:`BloomDB` and talk to it:

>>> import numpy as np
>>> from repro.api import BloomDB
>>> db = BloomDB.plan(namespace_size=10_000, accuracy=0.9, seed=7)
>>> ids = np.arange(0, 2_000, 4, dtype=np.uint64)
>>> db.add_set("even-ish", ids).sample("even-ish").value % 4
0

The tree variant is a config string (``tree="static" | "pruned" |
"dynamic"``) resolved through the :class:`~repro.core.backend.TreeBackend`
registry; batched entry points (:meth:`BloomDB.sample_many`,
:meth:`BloomDB.reconstruct_all`) amortise shared tree walks and report one
merged :class:`~repro.core.ops.OpCounter` per batch.
"""

from repro.api.batch import BatchReport, SampleSpec
from repro.api.config import DEFAULT_SET_SIZE, EngineConfig
from repro.api.engine import (
    BackendCapabilityError,
    BloomDB,
    DurabilityError,
    EngineEpoch,
)

__all__ = [
    "BackendCapabilityError",
    "BatchReport",
    "BloomDB",
    "DEFAULT_SET_SIZE",
    "DurabilityError",
    "EngineConfig",
    "EngineEpoch",
    "SampleSpec",
]
