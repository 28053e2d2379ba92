"""``churn_durable``: durable dynamic engine, closed loop, writes beside reads.

``open_durable`` over a 200k murmur3 namespace with a dynamic tree and
the ``batch`` WAL flush policy (write + flush per append, fsync on
flush, rotation, truncation and close).  40k ids are occupied at start
and 16 sets of 1000 are drawn from them.  Each step writes one batch of
8 fresh inserts and 4 retires of live ids, then runs a 4-request
``sample_many`` and one ``contains``; every 4th step adds a
``reconstruct`` and every 50th a ``checkpoint``.  ``core.delta`` (epochs,
frontier repair, auto-compaction) and ``durability.wal``/``checkpoint``
do the work here.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from common import (
    Checker,
    HostSpeed,
    OpTotals,
    RecallTally,
    Recorder,
    Result,
    RssProbe,
    Setups,
    api_layers,
    check_reconstruction,
    loop_figures,
    percentile_ms,
    quiesce,
    runtime_layers,
    tail_notes,
)
from gen import ChurnGen
from repro.api import EngineConfig
from repro.api.batch import SampleSpec
from repro.durability.recovery import open_durable
from repro.obs.metrics import diff_exports
from repro.obs.runtime import RUNTIME

NAMESPACE = 200_000
OCCUPIED = 40_000
NUM_SETS = 16
SET_SIZE = 1000
INSERTS = 8
RETIRES = 4
REQUESTS = 4
ROUNDS = 32
RECONSTRUCT_EVERY = 4
CHECKPOINT_EVERY = 50
WAL_SYNC = "batch"
#: Set-ups before and after the timed window.
SETUPS_BEFORE = 3
SETUPS_AFTER = 4
#: The peak resident memory is read after this many steps.
RSS_AT_STEP = 100


def _config() -> EngineConfig:
    return EngineConfig(namespace_size=NAMESPACE, set_size=SET_SIZE,
                        family="murmur3", tree="dynamic", plan="compiled",
                        wal_sync=WAL_SYNC)


def _build(gen: ChurnGen, directory):
    """Create, load and checkpoint a durable engine, then reopen it."""
    db, _ = open_durable(directory, _config())
    db.insert_ids(gen.initial)
    for name, ids in gen.sets.items():
        db.add_set(name, ids)
    db.checkpoint()
    db.wal.close()
    db, _ = open_durable(directory)
    names = sorted(gen.sets)
    db.sample_many([SampleSpec(name, ROUNDS, True, i)
                    for i, name in enumerate(names)])
    db.reconstruct(names[0])
    return db


def _discard(db) -> None:
    db.wal.close()
    shutil.rmtree(db.wal_directory, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool, work) -> Result:
    gen = ChurnGen(seed, namespace=NAMESPACE, occupied=OCCUPIED,
                   num_sets=NUM_SETS, set_size=SET_SIZE, inserts=INSERTS,
                   retires=RETIRES, requests=REQUESTS,
                   reconstruct_every=RECONSTRUCT_EVERY,
                   checkpoint_every=CHECKPOINT_EVERY)
    setups = Setups(lambda k: _build(gen, work / f"engine{k}"), _discard)
    db = setups.before(SETUPS_BEFORE)
    directory = db.wal_directory
    steps = gen.steps()
    live = gen.live.mask
    rec = Recorder(trace)
    check = Checker()
    ops = OpTotals()
    recall = RecallTally()
    writes = []
    completed = 0
    rss = RssProbe(RSS_AT_STEP)
    host = HostSpeed()

    quiesce()
    before = RUNTIME.export()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline or rss.pending():
        step_started = time.perf_counter()
        step = next(steps)
        rec.step = step.index
        rec.call("insert_ids", db.insert_ids, step.inserts)
        rec.call("retire_ids", db.retire_ids, step.retires)
        writes.append(rec.durations["insert_ids"][-1]
                      + rec.durations["retire_ids"][-1])
        specs = [SampleSpec(name, ROUNDS, True, s)
                 for name, s in step.requests]
        report = rec.call("sample_many", db.sample_many, specs)
        name, x, member = step.contains
        answer = rec.call("contains", db.contains, name, x)
        completed += 2 + len(specs)
        # Checked inside the loop because occupancy moves on each step.
        for spec, result in zip(specs, report.ordered()):
            ops.add(result.ops)
            values = np.asarray(result.values, dtype=np.uint64)
            check.expect(
                bool(db.filter(spec.name).contains_many(values).all())
                and bool(live[values.astype(np.int64)].all()),
                f"step {step.index}: {spec.name} sampled an id outside "
                "its filter or the occupied ids")
        expected = True if member else bool(db.filter(name).contains_many(
            np.array([x], dtype=np.uint64))[0])
        check.expect(answer == expected,
                     f"step {step.index}: contains({name}, {x}) = {answer}")
        check.count(1)  # the write batch, checked after the run
        if step.reconstruct is not None:
            result = rec.call("reconstruct", db.reconstruct,
                              step.reconstruct)
            truth = gen.sets[step.reconstruct]
            check_reconstruction(
                check, recall, step.reconstruct, result.elements,
                truth[live[truth.astype(np.int64)]],
                db.filter(step.reconstruct), live=live)
            completed += 1
        if step.checkpoint:
            rec.call("checkpoint", db.checkpoint)
            check.count(1)
            completed += 1
        rss.step(step.index)
        host.end_step(time.perf_counter() - step_started)
    wall = time.perf_counter() - started - host.spent
    end = RUNTIME.export()
    setups.after(SETUPS_AFTER)
    steps_run = rec.calls("insert_ids")

    # Untimed: reopen the directory as after a process death (the live
    # engine is not closed first) and confirm every acknowledged write.
    reopened, report = open_durable(directory)
    occupied = gen.live.occupied()
    check.expect(np.array_equal(np.sort(reopened.occupied), occupied),
                 "reopened occupancy differs from the acknowledged writes")
    for name in sorted(gen.sets):
        truth = gen.sets[name]
        check.expect(np.array_equal(reopened.reconstruct(name).elements,
                                    db.reconstruct(name).elements),
                     f"reopened reconstruct({name}) differs")
        exact = reopened.reconstruct(name, exhaustive=True).elements
        check.expect(bool(np.isin(truth[live[truth.astype(np.int64)]],
                                  exact).all())
                     and bool(live[exact.astype(np.int64)].all()),
                     f"reopened exact reconstruct({name}) differs from "
                     "the true ids still occupied")
    reopened.wal.close()
    db.wal.close()

    samples = rec.durations["sample_many"]
    gated, host_notes = loop_figures(host, setups, samples, completed)
    e2e = {
        **gated,
        "peak_rss_mb": rss.value,
    }
    layers = {
        **api_layers(rec, wall),
        **runtime_layers(diff_exports(end, before), end,
                         ids_written=steps_run * (INSERTS + RETIRES)),
        **ops.layers(),
        "core.reconstruct.returned_per_true": recall.returned_per_true(),
    }
    notes = {
        "contains_p50_ms": percentile_ms(rec.durations["contains"], 50),
        "reconstruct_p50_ms": percentile_ms(rec.durations["reconstruct"], 50),
        **tail_notes(samples),
        **host_notes,
        "samples": {"sample": len(samples), "write": len(writes),
                    "contains": rec.calls("contains"),
                    "reconstruct": rec.calls("reconstruct"),
                    "checkpoint": rec.calls("checkpoint")},
        "write_p50_ms": percentile_ms(writes, 50),
        "wal_sync": WAL_SYNC,
        "reconstruct_recall": recall.recall(),
        "recovery_records_replayed": report.records_replayed,
        **setups.notes(),
    }
    return Result(e2e, layers, check.attempted, check.failed, notes,
                  check.problems, rec.spans)
