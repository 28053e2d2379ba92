"""``engine_sample``: in-process compiled engine, closed loop, one caller.

Static MD5 engine over a 100k namespace holding 512 sets of 1000 ids.
Each call is one ``sample_many`` of 64 seeded 32-round requests on
Zipf-chosen sets plus one ``contains``; every 8th call adds one
``reconstruct``.  Descent and replay (``core.plan``, ``core.native``)
and MD5 leaf hashing do almost all the work; 512 sets overflow the
256-row frontier cache, so its hit ratio sits strictly between 0 and 1.
"""

from __future__ import annotations

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
from gen import draw_sets, engine_calls
from repro.api import BloomDB
from repro.api.batch import SampleSpec
from repro.obs.metrics import diff_exports
from repro.obs.runtime import RUNTIME

NAMESPACE = 100_000
NUM_SETS = 512
SET_SIZE = 1000
#: A request whose set misses the 256-row frontier cache costs some
#: 5-7 ms, a hit about 0.1 ms.  A call of 16 requests misses 0, 1 or 2+
#: times, so its latency falls into clusters near 2, 7 and 16+ ms and a
#: small shift in the share of calls per cluster moves the median by a
#: quarter.  A call of 64 requests misses about 5 times, so per-call
#: latency is one hump (about 30 ms) whose median and mean agree.
REQUESTS_PER_CALL = 64
ROUNDS = 32
#: A reconstruction takes about 0.2 s on MD5.  One per 512 sample
#: requests gives 35-45 of them in 24 s, some 7 s of measured work
#: spread over the window.
RECONSTRUCT_EVERY = 8
#: The peak resident memory is read after this many calls.
RSS_AT_CALL = 100
#: At exponent 1.2 over 512 sets the hottest 256 take most requests, so
#: the frontier cache hit ratio sits strictly between 0 and 1.
ZIPF_EXPONENT = 1.2
#: Set-ups before and after the timed window.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
WARM_CALLS = 12


def _build(sets, seed):
    db = BloomDB.plan(namespace_size=NAMESPACE, set_size=SET_SIZE,
                      family="md5", tree="static", plan="compiled")
    for name, ids in sets.items():
        db.add_set(name, ids)
    # Warm on a stream of its own so the timed calls are the same
    # whatever the warm-up drew.
    warm = engine_calls(seed, sets, NAMESPACE, stream=6,
                        requests_per_call=REQUESTS_PER_CALL,
                        reconstruct_every=RECONSTRUCT_EVERY,
                        zipf_exponent=ZIPF_EXPONENT)
    for _ in range(WARM_CALLS):
        call = next(warm)
        db.sample_many([SampleSpec(name, ROUNDS, True, s)
                        for name, s in call.requests])
        db.contains(*call.contains[:2])
    db.reconstruct(next(iter(sets)))
    return db


def run(seed: int, seconds: float, trace: bool, work) -> Result:
    sets = draw_sets(seed, NAMESPACE, NUM_SETS, SET_SIZE)
    setups = Setups(lambda k: _build(sets, seed), lambda db: None)
    db = setups.before(SETUPS_BEFORE)
    calls = engine_calls(seed, sets, NAMESPACE,
                         requests_per_call=REQUESTS_PER_CALL,
                         reconstruct_every=RECONSTRUCT_EVERY,
                         zipf_exponent=ZIPF_EXPONENT)
    rec = Recorder(trace)
    check = Checker()
    ops = OpTotals()
    sampled: dict[str, list] = {}
    probes, reconstructions = [], []
    rss = RssProbe(RSS_AT_CALL)
    host = HostSpeed()

    quiesce()
    before = RUNTIME.export()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline or rss.pending():
        step_started = time.perf_counter()
        call = next(calls)
        rec.step += 1
        specs = [SampleSpec(name, ROUNDS, True, s)
                 for name, s in call.requests]
        report = rec.call("sample_many", db.sample_many, specs)
        name, x, member = call.contains
        answer = rec.call("contains", db.contains, name, x)
        probes.append((name, x, member, answer))
        if call.reconstruct is not None:
            result = rec.call("reconstruct", db.reconstruct,
                              call.reconstruct)
            reconstructions.append((call.reconstruct, result.elements))
        for spec, result in zip(specs, report.ordered()):
            sampled.setdefault(spec.name, []).append(result.values)
            ops.add(result.ops)
        rss.step(rec.step)
        host.end_step(time.perf_counter() - step_started)
    wall = time.perf_counter() - started - host.spent
    end = RUNTIME.export()
    setups.after(SETUPS_AFTER)

    # Correctness, after the clock: every sampled id passes its set's
    # filter, members are found, non-member answers match the filter,
    # and every reconstruction is sound and keeps what exact recall
    # promises (see check_reconstruction).
    for name, groups in sampled.items():
        values = np.fromiter((v for g in groups for v in g),
                             dtype=np.uint64)
        passed = db.filter(name).contains_many(values)
        check.count(len(groups))
        if not passed.all():
            check.fail(f"{name}: {int((~passed).sum())} sampled ids fail "
                       "the set's filter", ops=len(groups))
    for name, x, member, answer in probes:
        expected = True if member else bool(
            db.filter(name).contains_many(np.array([x], dtype=np.uint64))[0])
        check.expect(answer == expected,
                     f"contains({name}, {x}) = {answer}, want {expected}")
    recall = RecallTally()
    exact = {}
    for name, elements in reconstructions:
        if name not in exact:
            exact[name] = db.reconstruct(name, exhaustive=True).elements
        check_reconstruction(check, recall, name, elements, sets[name],
                             db.filter(name), exact=exact[name])

    completed = rec.calls("sample_many") * REQUESTS_PER_CALL + \
        rec.calls("contains") + rec.calls("reconstruct")
    samples = rec.durations["sample_many"]
    gated, host_notes = loop_figures(host, setups, samples, completed)
    e2e = {
        **gated,
        "peak_rss_mb": rss.value,
    }
    layers = {
        **api_layers(rec, wall),
        **runtime_layers(diff_exports(end, before), end, ids_written=0),
        **ops.layers(),
        "core.reconstruct.returned_per_true": recall.returned_per_true(),
    }
    notes = {
        "contains_p50_ms": percentile_ms(rec.durations["contains"], 50),
        "reconstruct_p50_ms": percentile_ms(rec.durations["reconstruct"], 50),
        **tail_notes(samples),
        **host_notes,
        "samples": {"sample": len(samples),
                    "contains": rec.calls("contains"),
                    "reconstruct": rec.calls("reconstruct")},
        "reconstruct_recall": recall.recall(),
        **setups.notes(),
    }
    return Result(e2e, layers, check.attempted, check.failed, notes,
                  check.problems, rec.spans)
