"""``serve_http``: ``repro serve --workers 1``, open loop at a fixed rate.

A saved murmur3 static engine (100k namespace, 32 sets of 1000 ids) is
served by ``repro serve --workers 1`` with default serve settings: the
asyncio front end (``service.aserver``) over one worker process
(``service.procpool``).  Requests go out on a fixed schedule of 30 per
second over two keep-alive connections, in a fixed block of 20: 80%
seeded ``/sample`` r=32, 15% ``/contains``, 5% ``/reconstruct``.  The
edge, the leader-to-worker pipe hop and batching dominate; descent is a
small share.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from common import (
    Checker,
    OpTotals,
    RecallTally,
    Result,
    Setups,
    check_reconstruction,
    mean_ms,
    median,
    percentile_ms,
    quiesce,
    self_peak_rss_mb,
    tail_notes,
)
from gen import draw_sets, http_requests, probe_requests
from openloop import run_open_loop
from repro.api import BloomDB
from repro.api.batch import SampleSpec
from repro.obs.prometheus import parse_exposition

NAMESPACE = 100_000
NUM_SETS = 32
SET_SIZE = 1000
ROUNDS = 32
#: 15% of the measured capacity for this mix (about 200/s on two
#: connections on a 2-vCPU VM), so a slow or stolen host does not
#: saturate the worker.
RATE = 30.0
CONNECTIONS = 2
#: One block of 20 scheduled requests: 80% /sample, 15% /contains and 5%
#: /reconstruct.  Requests are due every 33 ms and a reconstruction takes
#: about 40 ms, so only the sample right after it queues behind it (6% of
#: samples).  The slot after that holds a /contains, so the next sample
#: is due 100 ms after the reconstruction starts: a host running 2.5
#: times slower still delays one sample per block.  That queued sample
#: is the head-of-line blocking; ``sample_mean_ms`` carries it, and the
#: run record gives its own p50 (``hol_sample_p50_ms``).
PATTERN = "RSCSSSSCSSSSSCSSSSSS"
#: The slot of ``PATTERN`` that waits behind the reconstruction.
HOL_SLOT = 1
#: Set-ups before and after the timed window.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
WARM_REQUESTS = 100
PROBES = 16
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def descendants(pid: int) -> list[int]:
    """Every live descendant process id of ``pid`` (Linux ``/proc``)."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of another live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def scrape_samples(text: str) -> dict:
    """Fleet-wide samples of a ``/metrics`` page.

    Returns ``{(sample_name, le): value}`` for every series without a
    ``worker`` label (the unlabeled fleet totals); ``le`` is ``None``
    except on histogram buckets.
    """
    out = {}
    for family in parse_exposition(text).values():
        for sample, labels, value in family["samples"]:
            if "worker" in labels:
                continue
            le = labels.get("le")
            out[(sample, None if le is None else float(le))] = float(value)
    return out


def scrape_delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def scrape_value(samples: dict, name: str) -> float:
    return samples.get((name, None), 0.0)


def scrape_quantile(samples: dict, family: str, q: float) -> float:
    """Prometheus-style ``histogram_quantile`` over cumulative buckets."""
    buckets = sorted((le, count) for (name, le), count in samples.items()
                     if name == f"{family}_bucket")
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_edge, lower_count = 0.0, 0.0
    for edge, count in buckets:
        if count >= rank:
            if edge == float("inf"):
                return lower_edge
            span = count - lower_count
            fraction = (rank - lower_count) / span if span > 0 else 1.0
            return lower_edge + (edge - lower_edge) * fraction
        lower_edge, lower_count = edge, count
    return lower_edge


class HttpError(Exception):
    """A reply with a status other than 200."""


class Client:
    """One keep-alive connection; reconnects after any failure."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, route: str, body: dict | None = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=30)
        try:
            self.conn.request(
                method, route,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"})
            reply = self.conn.getresponse()
            data = reply.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if reply.status != 200:
            raise HttpError(f"{route}: HTTP {reply.status} {data[:200]!r}")
        return data

    def post(self, route: str, body: dict) -> dict:
        return json.loads(self.request("POST", route, body))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server:
    """A ``repro serve`` child process and its port."""

    def __init__(self, directory, log_path):
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(directory),
             "--workers", "1", "--port", "0"],
            stdout=self.log, stderr=subprocess.STDOUT, env=os.environ.copy())
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log_path.read_text().splitlines():
                if line.startswith("listening on http://"):
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server did not start:\n"
                           + self.log_path.read_text()[-2000:])

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and every descendant."""
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Stop the server and wait for it and its descendants to end."""
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:
            _reap(pid)
        self.log.close()


def _reap(pid: int) -> None:
    """Kill a leftover descendant and wait until it has gone."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while os.path.exists(f"/proc/{pid}"):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # exited; its parent reaps it
        except OSError:
            return
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)


def _build(sets) -> BloomDB:
    db = BloomDB.plan(namespace_size=NAMESPACE, set_size=SET_SIZE,
                      family="murmur3", tree="static", plan="compiled")
    for name, ids in sets.items():
        db.add_set(name, ids)
    return db


def _warm(client: Client, seed: int, sets) -> None:
    # A stream of its own, so the timed requests do not depend on it.
    for request in http_requests(seed, sets, NAMESPACE, rounds=ROUNDS,
                                 pattern=PATTERN, count=WARM_REQUESTS,
                                 stream=7):
        client.post(request.route, request.body)


def _start(k: int, work, sets, seed):
    """Build and save the engine, start the server, warm it."""
    directory = work / f"engine{k}"
    _build(sets).save(directory)
    server = Server(directory, work / f"serve{k}.log")
    client = Client(server.port)
    try:
        _warm(client, seed, sets)
    except Exception:
        server.stop()
        raise
    finally:
        client.close()
    return server


def run(seed: int, seconds: float, trace: bool, work) -> Result:
    sets = draw_sets(seed, NAMESPACE, NUM_SETS, SET_SIZE)
    db = _build(sets)  # the in-process reference the replies must match
    requests = http_requests(seed, sets, NAMESPACE, rounds=ROUNDS,
                             pattern=PATTERN, count=int(RATE * seconds))
    setups = Setups(lambda k: _start(k, work, sets, seed), Server.stop)
    server = setups.before(SETUPS_BEFORE)
    clients = [Client(server.port) for _ in range(CONNECTIONS)]
    try:
        scrape = Client(server.port)
        before = scrape_samples(
            scrape.request("GET", "/metrics").decode())

        def send(conn: int, request):
            return clients[conn].post(request.route, request.body)

        quiesce()
        outcomes, started = run_open_loop(requests, RATE, send,
                                          connections=CONNECTIONS)
        after = scrape_samples(
            scrape.request("GET", "/metrics").decode())
        probes = [(name, s, scrape.post("/sample", {
            "set": name, "r": ROUNDS, "seed": s}))
            for name, s in probe_requests(seed, list(sets), PROBES)]
        exact = {name: scrape.post("/reconstruct", {
            "set": name, "exhaustive": True})["elements"]
            for name in {r.body["set"] for r in requests
                         if r.route == "/reconstruct"}}
        server_rss = server.peak_rss_mb()
    finally:
        for client in (*clients, scrape):
            client.close()
        server.stop()
    setups.after(SETUPS_AFTER)

    check = Checker()
    ops = OpTotals()
    recall = RecallTally()
    latency: dict[str, list[float]] = {}
    service = []
    for outcome, request in zip(outcomes, requests):
        if outcome.error is not None:
            check.count()
            check.fail(f"{request.route}: {outcome.error}")
            continue
        latency.setdefault(request.route, []).append(outcome.latency)
        service.append(outcome.service)
        reply, name = outcome.reply, request.body["set"]
        if request.route == "/sample":
            ops.add(reply["ops"])
            values = np.asarray(reply["values"], dtype=np.uint64)
            check.expect(bool(db.filter(name).contains_many(values).all()),
                         f"/sample {name}: ids outside the set's filter")
        elif request.route == "/contains":
            expected = True if request.member else bool(
                db.filter(name).contains_many(
                    np.array([request.body["x"]], dtype=np.uint64))[0])
            check.expect(reply["contains"] == expected,
                         f"/contains {request.body}: {reply}")
        else:
            check_reconstruction(
                check, recall, name,
                np.asarray(reply["elements"], dtype=np.uint64), sets[name],
                db.filter(name),
                exact=np.asarray(exact[name], dtype=np.uint64))
    for name, s, reply in probes:
        want = db.sample_many([SampleSpec(name, ROUNDS, True, s)]).ordered()
        check.expect(reply["values"] == list(want[0].values),
                     f"/sample probe {name} seed {s} differs from the "
                     "in-process engine")

    done = [o.done for o in outcomes if o.error is None]
    wall = max(done) - started
    delta = scrape_delta(after, before)
    stage_p50 = {stage: scrape_quantile(delta, f"stage_{stage}_s", 0.5) * 1e3
                 for stage in ("queue", "batch_assembly", "execute")}
    hits = scrape_value(delta, "frontier_cache_hits_total")
    misses = scrape_value(delta, "frontier_cache_misses_total")
    batches = scrape_value(delta, "batch_size_count")
    late = [o.late for o in outcomes]
    hol = [o.latency for o in outcomes
           if o.index % len(PATTERN) == HOL_SLOT and o.error is None]
    samples = latency["/sample"]
    e2e = {
        "throughput_rps": len(done) / wall,
        "sample_p50_ms": percentile_ms(samples, 50),
        "sample_mean_ms": mean_ms(samples),
        "setup_s": setups.median_s(),
        "peak_rss_mb": self_peak_rss_mb() + server_rss,
    }
    layers = {
        "api.loop_wall_s": wall,
        "core.plan.descent_s": scrape_value(delta, "stage_descent_s_sum"),
        **ops.layers(),
        "core.plan.frontier_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "core.plan.frontier_repairs":
            scrape_value(delta, "frontier_cache_repairs_total"),
        "core.delta.epochs": scrape_value(delta, "epochs_minted_total"),
        "core.delta.compactions": scrape_value(delta, "compactions_total"),
        "core.delta.compactions_noop":
            scrape_value(delta, "compactions_noop_total"),
        "core.delta.density_end": scrape_value(after, "delta_density"),
        "core.reconstruct.returned_per_true": recall.returned_per_true(),
        "durability.wal.records": scrape_value(delta, "wal_records_total"),
        "durability.wal.fsyncs": scrape_value(delta, "wal_fsyncs_total"),
        "durability.wal.append_s":
            scrape_value(delta, "stage_wal_append_s_sum"),
        **{f"service.{stage}_p50_ms": value
           for stage, value in stage_p50.items()},
        "service.batch_size_mean": (
            scrape_value(delta, "batch_size_sum") / batches
            if batches else 0.0),
        "service.rejected": scrape_value(delta, "rejected_total"),
        "service.failed": scrape_value(delta, "errors_total")
        + scrape_value(delta, "requests_failed_total"),
        # The queue span ends when batch gathering ends, so it already
        # holds the assembly wait; the worker's share is queue + execute.
        "service.residual_p50_ms": percentile_ms(service, 50)
        - stage_p50["queue"] - stage_p50["execute"],
        "gen.late_p99_ms": percentile_ms(late, 99),
        "gen.late_max_ms": max(late) * 1e3,
    }
    notes = {
        "contains_p50_ms": percentile_ms(latency["/contains"], 50),
        "reconstruct_p50_ms": percentile_ms(latency["/reconstruct"], 50),
        **tail_notes(samples),
        "hol_sample_p50_ms": percentile_ms(hol, 50),
        "offered_rps": RATE,
        "connections": CONNECTIONS,
        "samples": {route: len(values) for route, values in latency.items()},
        "reconstruct_recall": recall.recall(),
        **setups.notes(),
        "raw": {"setup_s": median(setups.raw)},
    }
    spans = [(request.route, o.sent, o.done, o.index)
             for o, request in zip(outcomes, requests)] if trace else []
    return Result(e2e, layers, check.attempted, check.failed, notes,
                  check.problems, spans)
