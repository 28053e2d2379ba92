"""Shared fixtures for the serving-subsystem suite.

One small engine configuration used everywhere, a deterministic
eight-set workload so served results can be compared bit-for-bit
against a reference :class:`~repro.api.BloomDB` built the same way, and
a factory that serves an engine over HTTP from worker processes.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig
from repro.service import AsyncReproServer, ProcessService, ProcessShardPool

NAMESPACE = 8_000


@pytest.fixture(scope="session")
def engine_config() -> EngineConfig:
    """The engine knobs every service/pool/reference engine shares."""
    return EngineConfig(namespace_size=NAMESPACE, accuracy=0.9,
                        set_size=150, seed=5)


@pytest.fixture(scope="session")
def workload() -> list[tuple[str, np.ndarray]]:
    """The deterministic (name, ids) pairs every consumer loads."""
    rng = np.random.default_rng(42)
    return [
        (f"set{i}", rng.choice(NAMESPACE, 150,
                               replace=False).astype(np.uint64))
        for i in range(8)
    ]


@pytest.fixture(scope="session")
def reference_db(engine_config, workload) -> BloomDB:
    """The unsharded engine coalesced results must match bit-for-bit."""
    db = BloomDB.from_config(engine_config)
    for name, ids in workload:
        db.add_set(name, ids)
    return db


@pytest.fixture(scope="session")
def compiled_db(engine_config, workload) -> BloomDB:
    """The workload on a static compiled-plan engine (what pools serve)."""
    db = BloomDB.from_config(dataclasses.replace(
        engine_config, plan="compiled", mutation="delta"))
    for name, ids in workload:
        db.add_set(name, ids)
    return db


@pytest.fixture(scope="session")
def make_server(tmp_path_factory):
    """Factory: persist an engine, serve it, close the server on exit.

    ``make_server(db, workers=2, **pool_kwargs)`` is a context manager
    yielding a started :class:`~repro.service.AsyncReproServer` over a
    :class:`~repro.service.ProcessShardPool` of its own directory copy,
    so module-scoped servers never share serving state.
    """

    @contextlib.contextmanager
    def serving(db: BloomDB, workers: int = 2, **pool_kwargs):
        directory = tmp_path_factory.mktemp("served") / "engine"
        pool = ProcessShardPool.from_engine(db, directory, workers,
                                            **pool_kwargs)
        server = AsyncReproServer(ProcessService(pool), port=0).start()
        try:
            yield server
        finally:
            server.close()

    return serving
