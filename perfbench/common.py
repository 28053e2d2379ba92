"""Measurement helpers shared by the workloads.

Timing, percentiles, host-noise probes, host-speed scaling, peak memory,
the span recorder that wraps every call into a layer, the correctness
tally, and readers for the counters the in-process ``RUNTIME`` registry
already exports.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics every workload reports (``--trace 0``), with units.
E2E_UNITS = {
    "throughput_rps": "requests/s",
    "sample_p50_ms": "ms",
    "sample_mean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Latencies every workload reports in its run record only: over ten
#: runs their spread exceeds the 0.25 bound on a noisy host (README.md).
RECORD_MS = ("contains_p50_ms", "reconstruct_p50_ms")

#: Per-layer metrics of the traced run (``--trace 1``), with units.  A
#: layer a workload does not exercise reports 0.
LAYER_UNITS = {
    **{f"api.{op}.{kind}": unit
       for op in ("sample_many", "contains", "reconstruct", "insert_ids",
                  "retire_ids", "checkpoint")
       for kind, unit in (("busy_s", "s"), ("calls", "count"))},
    "api.loop_wall_s": "s",
    "api.residual_s": "s",
    "core.plan.descent_s": "s",
    "core.plan.intersections_per_req": "count",
    "core.plan.memberships_per_req": "count",
    "core.plan.nodes_per_req": "count",
    "core.plan.backtracks_per_req": "count",
    "core.plan.frontier_hit_ratio": "ratio",
    "core.plan.frontier_repairs": "count",
    "core.delta.epochs": "count",
    "core.delta.compactions": "count",
    "core.delta.compactions_noop": "count",
    "core.delta.density_end": "ratio",
    "core.reconstruct.returned_per_true": "ratio",
    "durability.wal.records": "count",
    "durability.wal.fsyncs": "count",
    "durability.wal.append_s": "s",
    "durability.wal.bytes_per_user_byte": "ratio",
    "service.queue_p50_ms": "ms",
    "service.batch_assembly_p50_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.batch_size_mean": "count",
    "service.rejected": "count",
    "service.failed": "count",
    "service.residual_p50_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.late_max_ms": "ms",
    "trace.throughput_rps": "requests/s",
    "trace.sample_p50_ms": "ms",
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)


class Checker:
    """Counts operations and the ones that failed or answered wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ops: int = 1) -> None:
        self.attempted += ops

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 10:
            self.problems.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """Record one checked operation."""
        self.count()
        if not ok:
            self.fail(message)


class RecallTally:
    """Ids a reconstruction returned, and how many true ids it found."""

    def __init__(self):
        self.returned = 0
        self.true = 0
        self.found = 0

    def add(self, elements: np.ndarray, truth: np.ndarray) -> None:
        self.returned += int(elements.size)
        self.true += int(truth.size)
        self.found += int(np.isin(truth, elements).sum())

    def returned_per_true(self) -> float:
        return self.returned / self.true if self.true else 0.0

    def recall(self) -> float:
        return self.found / self.true if self.true else 0.0


def check_reconstruction(check: Checker, recall: RecallTally, name: str,
                         elements: np.ndarray, truth: np.ndarray, bloom, *,
                         exact: np.ndarray | None = None,
                         live: np.ndarray | None = None) -> None:
    """Check one estimator-guided reconstruction of set ``name``.

    ``truth`` holds the set's true ids that are still occupied.  The
    estimator-guided default may prune a subtree whose signal sits below
    the noise floor, so it promises soundness, not full recall: every
    returned id passes the set's filter, is occupied (given the ``live``
    mask) and lies in ``exact``, the program's ``exhaustive=True``
    reconstruction at the same state, when given.  The exact result must
    hold every true id.  Recall of the default is tallied, not checked.
    """
    recall.add(elements, truth)
    sound = bool(bloom.contains_many(elements).all())
    if live is not None:
        sound = sound and bool(live[elements.astype(np.int64)].all())
    if exact is not None:
        sound = sound and bool(np.isin(elements, exact).all())
        check.expect(bool(np.isin(truth, exact).all()),
                     f"exact reconstruct({name}) misses true ids")
    check.expect(sound, f"reconstruct({name}) returned ids outside its "
                 "filter, the occupied ids or the exact result")


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of durations given in seconds, in ms."""
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def mean_ms(seconds) -> float:
    """Mean of durations given in seconds, in ms."""
    return float(np.mean(np.asarray(seconds, dtype=np.float64))) * 1e3


def tail_notes(samples) -> dict:
    """Sample-call p90, p95 and p99 for the run record, each only where
    at least ten samples lie beyond it."""
    return {f"sample_p{q}_ms": percentile_ms(samples, q)
            for q in (90, 95, 99) if len(samples) * (100 - q) / 100 >= 10}


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def quiesce() -> None:
    """Run before each timed phase: collect garbage now, not inside it.

    The collector stays enabled; this only empties it beforehand.
    """
    gc.collect()


class Setups:
    """Times repeated set-ups, some before the timed window, some after.

    ``build(k)`` makes the ``k``-th instance and ``discard`` disposes of
    one.  The host's speed drifts over tens of seconds, so set-ups on
    both sides of the window give a median that depends less on the
    moment the run started.  Each set-up time is also scaled to full
    host speed by the mean of the factors probed just before and just
    after it (:class:`HostSpeed`); ``raw`` keeps the unscaled times.
    """

    def __init__(self, build, discard):
        self.build = build
        self.discard = discard
        self.host = HostSpeed()
        self.times: list[float] = []
        self.raw: list[float] = []

    def _one(self):
        quiesce()
        factor = self.host.factor_now()
        started = time.perf_counter()
        instance = self.build(len(self.times))
        elapsed = time.perf_counter() - started
        factor = (factor + self.host.factor_now()) / 2
        self.raw.append(elapsed)
        self.times.append(elapsed / factor)
        return instance

    def before(self, repeats: int):
        """Set up ``repeats`` times; return the last instance, for the
        window, and discard each earlier one before the next starts."""
        instance = self._one()
        for _ in range(repeats - 1):
            self.discard(instance)
            instance = None  # let it be freed before the next build
            instance = self._one()
        return instance

    def after(self, repeats: int) -> None:
        """Set up and discard ``repeats`` more times."""
        for _ in range(repeats):
            self.discard(self._one())

    def median_s(self) -> float:
        return median(self.times)

    def notes(self) -> dict:
        return {"setup_runs_s": self.times, "setup_raw_s": self.raw}


# -- host noise ---------------------------------------------------------------

def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return median(times) * 1e3


#: Times of the three host-speed probe tasks, in ms, on the 2-vCPU VM
#: the benchmark was sized on while it ran at full speed.  They only set
#: the scale: a host-scaled time reads as that VM at full speed would
#: have measured it.
PROBE_NOMINAL_MS = (0.42, 0.25, 0.18)
#: Steps on each side of a step whose probes give its speed factor.
PROBE_HALF_WINDOW = 8


class HostSpeed:
    """Host speed, probed between the steps of a closed loop.

    The shared host runs the benchmark's vCPU at speeds that differ by
    up to 1.8x from one phase of a few seconds to the next, and the
    share of slow phases drifts over minutes, so the time a run spends
    on the same work moves by a quarter between runs of the same code.
    After each loop step, outside every timed call, ``end_step`` runs a
    fixed task of about 1 ms: a pure-Python loop, a NumPy pass and MD5
    digests, the three kinds of work the program does.  A step's speed
    factor is the median, over the steps around it, of the geometric
    mean of the three task times relative to ``PROBE_NOMINAL_MS``.
    Dividing a step's times by its factor gives the time the host would
    have taken at full speed.  The probe is the benchmark's own code, so
    a change to the program moves the step times and not the factors.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ints = rng.integers(0, 2**62, 20_000, dtype=np.int64)
        self._blobs = [i.to_bytes(8, "little") for i in range(300)]
        self._index: list[float] = []
        self.steps: list[float] = []
        self.spent = 0.0

    def _python(self) -> None:
        acc = 0
        for i in range(6000):
            acc = (acc + i * 7) & 0xFFFF

    def _numpy(self) -> None:
        x = self._ints
        for _ in range(4):
            x = np.bitwise_xor(x, x >> 3)
            np.sort(x[:4000])

    def _md5(self) -> None:
        for blob in self._blobs:
            hashlib.md5(blob).digest()

    def _probe(self) -> tuple[float, float]:
        """Run the three tasks once; return the speed index and the time
        the probe took."""
        log_ratio = spent = 0.0
        for task, nominal in zip((self._python, self._numpy, self._md5),
                                 PROBE_NOMINAL_MS):
            started = time.perf_counter()
            task()
            elapsed = time.perf_counter() - started
            spent += elapsed
            log_ratio += np.log(elapsed * 1e3 / nominal)
        return float(np.exp(log_ratio / len(PROBE_NOMINAL_MS))), spent

    def end_step(self, seconds: float) -> None:
        """Record a step that took ``seconds``, then probe the host."""
        self.steps.append(seconds)
        index, spent = self._probe()
        self._index.append(index)
        self.spent += spent

    def factor_now(self) -> float:
        """Speed factor at this moment: the median of five probes."""
        return median([self._probe()[0] for _ in range(5)])

    def factors(self) -> np.ndarray:
        """Speed factor of each step: 1 at full speed, 2 at half."""
        index = np.asarray(self._index)
        h = PROBE_HALF_WINDOW
        return np.array([np.median(index[max(0, i - h):i + h + 1])
                         for i in range(index.size)])

    def scaled(self, seconds) -> np.ndarray:
        """One duration per step, each divided by its step's factor."""
        return np.asarray(seconds, dtype=np.float64) / self.factors()

    def scaled_wall(self) -> float:
        """The loop's time at full speed, probes excluded."""
        return float(self.scaled(self.steps).sum())


def loop_figures(host: HostSpeed, setups: Setups, samples,
                 completed: int) -> tuple:
    """Gated timings of a closed loop, scaled to full host speed, and
    notes holding the unscaled ones for the run record.

    ``samples`` holds one sample-call duration per step; ``completed``
    counts the operations of every step.  Probe time is left out of both.
    """
    scaled = host.scaled(samples)
    gated = {
        "throughput_rps": completed / host.scaled_wall(),
        "sample_p50_ms": percentile_ms(scaled, 50),
        "sample_mean_ms": mean_ms(scaled),
        "setup_s": setups.median_s(),
    }
    raw = {
        "throughput_rps": completed / sum(host.steps),
        "sample_p50_ms": percentile_ms(samples, 50),
        "sample_mean_ms": mean_ms(samples),
        "setup_s": median(setups.raw),
    }
    return gated, {"raw": raw,
                   "host.speed_factor_p50": median(host.factors()),
                   "host.probe_s": host.spent}


def cpu_times() -> list[int] | None:
    """Aggregate ``/proc/stat`` CPU jiffies, or ``None`` off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:]]


def steal_fraction(before, after) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    if before is None or after is None or len(before) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


# -- memory -------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssProbe:
    """Peak resident memory read once, when the loop reaches step ``at``.

    A closed loop runs as many steps as the host allows, and the program
    and the benchmark's own records grow with each step, so a peak read
    at the end would track throughput.  Reading it at a fixed step makes
    the figure independent of loop speed; the loop runs on until that
    step even when the window ends first.
    """

    def __init__(self, at: int):
        self.at = at
        self.value: float | None = None

    def pending(self) -> bool:
        return self.value is None

    def step(self, index: int) -> None:
        if self.value is None and index + 1 >= self.at:
            self.value = self_peak_rss_mb()


# -- spans --------------------------------------------------------------------

class Recorder:
    """Times every call into a layer; keeps spans when tracing.

    ``call(layer, fn, *args)`` runs ``fn`` and appends its duration to
    ``durations[layer]``; those lists are the end-to-end latency samples
    and, summed, each layer's busy time.  With ``trace`` on, each call
    is also kept as a span ``(layer, start, end, parent)`` where
    ``parent`` is the loop step that caused it.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.durations: dict[str, list[float]] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.step = -1

    def call(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        ended = time.perf_counter()
        self.durations.setdefault(layer, []).append(ended - started)
        if self.trace:
            self.spans.append((layer, started, ended, self.step))
        return result

    def busy(self, layer: str) -> float:
        return float(sum(self.durations.get(layer, ())))

    def calls(self, layer: str) -> int:
        return len(self.durations.get(layer, ()))


# -- exported counters --------------------------------------------------------

def export_counter(export: dict, name: str) -> float:
    """Sum of every series of a counter in a ``Metrics.export()``."""
    return float(sum(export.get("counters", {}).get(name, {}).values()))


def export_hist_total(export: dict, name: str) -> float:
    """Sum of observations of a histogram in a ``Metrics.export()``."""
    return float(sum(series["total"] for series in
                     export.get("histograms", {}).get(name, {}).values()))


def export_gauge(export: dict, name: str) -> float:
    values = list(export.get("gauges", {}).get(name, {}).values())
    return float(values[0]) if values else 0.0


class OpTotals:
    """Exact per-request op counts summed from returned OpCounters."""

    FIELDS = ("intersections", "memberships", "nodes_visited", "backtracks")

    def __init__(self):
        self.requests = 0
        self.sums = dict.fromkeys(self.FIELDS, 0)

    def add(self, ops) -> None:
        """Count one request; ``ops`` is an OpCounter or its wire dict."""
        self.requests += 1
        for key in self.FIELDS:
            self.sums[key] += int(ops[key] if isinstance(ops, dict)
                                  else getattr(ops, key))

    def layers(self) -> dict[str, float]:
        n = max(self.requests, 1)
        return {
            "core.plan.intersections_per_req": self.sums["intersections"] / n,
            "core.plan.memberships_per_req": self.sums["memberships"] / n,
            "core.plan.nodes_per_req": self.sums["nodes_visited"] / n,
            "core.plan.backtracks_per_req": self.sums["backtracks"] / n,
        }


def runtime_layers(diff: dict, end: dict, *, ids_written: int) -> dict:
    """Per-layer counters from a ``RUNTIME`` export diff over the window.

    ``diff`` covers the timed window; ``end`` is the export at its end
    (for the delta-density gauge).
    """
    hits = export_counter(diff, "frontier_cache_hits")
    misses = export_counter(diff, "frontier_cache_misses")
    wal_bytes = export_counter(diff, "wal_bytes")
    return {
        "core.plan.descent_s": export_hist_total(diff, "stage.descent_s"),
        "core.plan.frontier_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "core.plan.frontier_repairs":
            export_counter(diff, "frontier_cache_repairs"),
        "core.delta.epochs": export_counter(diff, "epochs_minted"),
        "core.delta.compactions": export_counter(diff, "compactions"),
        "core.delta.compactions_noop":
            export_counter(diff, "compactions_noop"),
        "core.delta.density_end": export_gauge(end, "delta_density"),
        "durability.wal.records": export_counter(diff, "wal_records"),
        "durability.wal.fsyncs": export_counter(diff, "wal_fsyncs"),
        "durability.wal.append_s":
            export_hist_total(diff, "stage.wal_append_s"),
        "durability.wal.bytes_per_user_byte":
            wal_bytes / (8 * ids_written) if ids_written else 0.0,
    }


def api_layers(rec: Recorder, wall: float) -> dict:
    """Busy time and call count per ``BloomDB`` call, plus the residual
    of the closed-loop wall time no call accounts for."""
    out = {}
    busy = 0.0
    for op in ("sample_many", "contains", "reconstruct", "insert_ids",
               "retire_ids", "checkpoint"):
        out[f"api.{op}.busy_s"] = rec.busy(op)
        out[f"api.{op}.calls"] = rec.calls(op)
        busy += rec.busy(op)
    out["api.loop_wall_s"] = wall
    out["api.residual_s"] = wall - busy
    return out
