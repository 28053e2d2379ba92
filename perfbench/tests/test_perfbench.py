"""Tests of the benchmark's own code: generators, the open-loop timer and
the host-speed scaling.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from common import HostSpeed  # noqa: E402
from gen import (  # noqa: E402
    ChurnGen,
    LiveIds,
    draw_sets,
    engine_calls,
    http_requests,
)
from openloop import run_open_loop  # noqa: E402

NAMESPACE = 5_000


def _churn(seed: int) -> ChurnGen:
    return ChurnGen(seed, namespace=NAMESPACE, occupied=1_000, num_sets=4,
                    set_size=50, inserts=8, retires=4, requests=4,
                    reconstruct_every=4, checkpoint_every=50)


def _engine_ops(seed: int, count: int) -> list:
    sets = draw_sets(seed, NAMESPACE, 16, 50)
    calls = engine_calls(seed, sets, NAMESPACE, requests_per_call=16,
                         reconstruct_every=8, zipf_exponent=1.2)
    return [next(calls) for _ in range(count)]


def _churn_ops(seed: int, count: int) -> list:
    steps = _churn(seed).steps()
    return [next(steps) for _ in range(count)]


def _http_ops(seed: int, count: int) -> list:
    sets = draw_sets(seed, NAMESPACE, 8, 50)
    return http_requests(seed, sets, NAMESPACE, rounds=32,
                         pattern="RSCSSSSCSSSSSCSSSSSS", count=count)


def _normalise(op) -> tuple:
    """A comparable form of any generated operation."""
    items = op.__dict__.items()
    return tuple((k, v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in items)


@pytest.mark.parametrize("ops", [_engine_ops, _churn_ops, _http_ops])
def test_same_seed_gives_same_operation_sequence(ops):
    first = [_normalise(op) for op in ops(7, 200)]
    assert first == [_normalise(op) for op in ops(7, 200)]
    assert first != [_normalise(op) for op in ops(8, 200)]


def test_churn_never_retires_unoccupied_nor_inserts_live():
    gen = _churn(3)
    live = set(gen.initial.tolist())
    steps = gen.steps()
    for _ in range(400):  # 3200 of the 4000 never-occupied ids
        step = next(steps)
        inserts, retires = step.inserts.tolist(), step.retires.tolist()
        assert not live.intersection(inserts)
        assert live.issuperset(retires)
        assert len(set(inserts)) == len(inserts)
        assert len(set(retires)) == len(retires)
        live.update(inserts)
        live.difference_update(retires)
        assert gen.live.occupied().tolist() == sorted(live)


def test_live_ids_refuses_invalid_batches():
    rng = np.random.default_rng(0)
    live = LiveIds(100, np.arange(10, dtype=np.uint64), rng)
    with pytest.raises(ValueError):
        live.apply(np.array([3], dtype=np.uint64),
                   np.array([], dtype=np.uint64))
    with pytest.raises(ValueError):
        live.apply(np.array([], dtype=np.uint64),
                   np.array([50], dtype=np.uint64))
    assert len(live) == 10


def test_open_loop_charges_a_stall_to_requests_scheduled_behind_it():
    rate, stall_index, stall_s = 100.0, 5, 0.3

    def send(conn, index):
        if index == stall_index:
            time.sleep(stall_s)
        return index

    outcomes, start = run_open_loop(list(range(40)), rate, send,
                                    connections=1)
    assert [o.reply for o in outcomes] == list(range(40))
    stall_end = outcomes[stall_index].done
    behind = [o for o in outcomes[stall_index + 1:]
              if o.scheduled < stall_end]
    # Requests 6..34 fall due during the 0.3 s stall.
    assert len(behind) >= 20
    for o in behind:
        # Charged from the scheduled send: the wait for the stalled
        # connection counts, although the reply itself was immediate.
        assert o.latency >= stall_end - o.scheduled
        assert o.service < 0.05
        assert o.late >= stall_end - o.scheduled - 1e-3
    # The first one behind the stall waited nearly the whole stall.
    assert behind[0].latency > stall_s - 2 / rate
    # Requests due after the stall went out on time again.
    assert outcomes[-1].late < 0.05


def test_host_speed_divides_each_step_by_the_median_probe_around_it():
    host = HostSpeed()
    host.end_step(0.01)
    assert host.steps == [0.01] and host.spent > 0
    assert host.factors().shape == (1,)

    host = HostSpeed()
    # 20 steps at half speed, then 20 at full speed; one probe in each
    # half was hit by a spike.
    index = [2.0] * 20 + [1.0] * 20
    index[5] = index[30] = 9.0
    host._index = index
    host.steps = [0.2] * 20 + [0.1] * 20
    factors = host.factors()
    assert factors[:12].tolist() == [2.0] * 12
    assert factors[-12:].tolist() == [1.0] * 12
    scaled = host.scaled(host.steps)
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[-1] == pytest.approx(0.1)
    assert host.scaled_wall() == pytest.approx(scaled.sum())
