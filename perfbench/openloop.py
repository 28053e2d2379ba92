"""Open-loop load generation, timed from each request's scheduled send.

Request ``i`` is due at ``start + i / rate`` whatever happened before it.
Up to ``connections`` threads, each owning one connection, take the next
due request from a shared counter, wait until it is due, send it and
block for the reply.  A stall on the server therefore delays the send
of the requests scheduled behind it, and because latency is measured
from the *scheduled* send, that delay is charged to them (the
coordinated-omission correction of wrk2).  ``late`` records how far
behind schedule each send went out.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Outcome:
    """One request's timeline (``time.perf_counter`` seconds) and reply."""

    index: int
    scheduled: float
    sent: float
    done: float
    reply: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        """Reply time measured from the scheduled send."""
        return self.done - self.scheduled

    @property
    def service(self) -> float:
        """Reply time measured from the actual send."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        """How long after its scheduled time the request went out."""
        return self.sent - self.scheduled


def run_open_loop(requests: Sequence, rate: float,
                  send: Callable[[int, object], object], *,
                  connections: int = 2) -> tuple[list[Outcome], float]:
    """Send ``requests`` at ``rate`` per second over ``connections``.

    ``send(connection_index, request)`` performs one blocking round trip
    and returns the reply; an exception it raises is recorded on the
    outcome, never propagated.  Returns the outcomes in request order
    and the schedule's start time.
    """
    if rate <= 0 or connections < 1:
        raise ValueError("rate and connections must be positive")
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    outcomes: list[Outcome | None] = [None] * len(requests)
    start = time.perf_counter() + 0.01

    def worker(conn: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            reply, error = None, None
            try:
                reply = send(conn, requests[index])
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = exc
            outcomes[index] = Outcome(index, due, sent, time.perf_counter(),
                                      reply, error)

    threads = [threading.Thread(target=worker, args=(k,), daemon=True)
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, start
