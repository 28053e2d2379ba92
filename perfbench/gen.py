"""Seeded input generators for the three benchmark workloads.

Every input the benchmark feeds the program comes from here and is a pure
function of the workload seed: the stored sets, the per-call request
mix, the churn write batches and the open-loop request schedule.  The
generators never look at the program's answers, so the same seed gives
the same operation sequence on every commit.

Only NumPy is needed here (no ``repro`` import), so the generator tests
run without the program on the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Largest seed handed to a seeded sample request (fits a uint64 JSON int).
_SEED_LIMIT = 2 ** 62


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent stream per (workload seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


def draw_sets(seed: int, namespace: int, count: int, size: int,
              population: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """``count`` named sets of ``size`` distinct ids, sorted uint64.

    Ids come from ``range(namespace)`` or, when given, from
    ``population`` (the occupied ids of a dynamic tree).
    """
    rng = _rng(seed, 0)
    sets = {}
    for i in range(count):
        if population is None:
            ids = rng.choice(namespace, size, replace=False)
        else:
            ids = rng.choice(population, size, replace=False)
        sets[f"set{i:03d}"] = np.sort(ids.astype(np.uint64))
    return sets


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights over ranks ``1..n``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _non_member(rng, ids: np.ndarray, namespace: int) -> int:
    """A uniformly drawn id of the namespace outside the sorted ``ids``."""
    while True:
        x = int(rng.integers(namespace))
        i = int(np.searchsorted(ids, x))
        if i == ids.size or int(ids[i]) != x:
            return x


def _contains_probe(rng, name: str, ids: np.ndarray, namespace: int,
                    member: bool) -> tuple[str, int, bool]:
    if member:
        return name, int(ids[int(rng.integers(ids.size))]), True
    return name, _non_member(rng, ids, namespace), False


# -- engine_sample ------------------------------------------------------------

@dataclass(frozen=True)
class EngineCall:
    """One closed-loop call of ``engine_sample``.

    ``requests`` holds ``(set, seed)`` pairs for one ``sample_many``;
    ``contains`` is ``(set, id, is_member)``; ``reconstruct`` names a set
    on every ``reconstruct_every``-th call (the first included), else
    ``None``.
    """

    requests: tuple[tuple[str, int], ...]
    contains: tuple[str, int, bool]
    reconstruct: str | None


def engine_calls(seed: int, sets: dict[str, np.ndarray], namespace: int,
                 *, requests_per_call: int, reconstruct_every: int,
                 zipf_exponent: float, stream: int = 1,
                 ) -> Iterator[EngineCall]:
    """Endless Zipf-skewed call stream over ``sets``.

    The hot sets are a seeded permutation of the names, so a different
    seed heats different sets.  ``stream`` selects an independent call
    sequence over the same hot sets (the warm-up uses its own).
    """
    names = sorted(sets)
    hot = [names[i] for i in _rng(seed, 8).permutation(len(names))]
    rng = _rng(seed, stream)
    weights = zipf_weights(len(hot), zipf_exponent)
    index = 0
    while True:
        picks = rng.choice(len(hot), requests_per_call, p=weights)
        requests = tuple((hot[j], int(rng.integers(_SEED_LIMIT)))
                         for j in picks)
        name = requests[0][0]
        contains = _contains_probe(rng, name, sets[name], namespace,
                                   member=index % 2 == 0)
        reconstruct = None
        if index % reconstruct_every == 0:
            reconstruct = hot[int(rng.choice(len(hot), p=weights))]
        yield EngineCall(requests, contains, reconstruct)
        index += 1


# -- serve_http ---------------------------------------------------------------

@dataclass(frozen=True)
class HttpRequest:
    """One open-loop request: route, JSON body and what to check."""

    route: str
    body: dict
    member: bool | None = None


def http_requests(seed: int, sets: dict[str, np.ndarray], namespace: int,
                  *, rounds: int, pattern: str, count: int,
                  stream: int = 2) -> list[HttpRequest]:
    """``count`` requests following the repeating route ``pattern``.

    ``pattern`` spells one block of routes: ``S`` a seeded ``/sample``,
    ``C`` a ``/contains`` (alternately a member and a non-member), ``R``
    a ``/reconstruct``.  A fixed block keeps the mix exact and the gap
    between reconstructions constant, so every run sees the same
    head-of-line blocking; the seed picks the sets, ids and sample seeds
    (uniformly over the sets).  ``stream`` is as in :func:`engine_calls`.
    """
    rng = _rng(seed, stream)
    names = sorted(sets)
    out = []
    contains = 0
    for index in range(count):
        name = names[int(rng.integers(len(names)))]
        route = pattern[index % len(pattern)]
        if route == "S":
            out.append(HttpRequest("/sample", {
                "set": name, "r": rounds,
                "seed": int(rng.integers(_SEED_LIMIT))}))
        elif route == "C":
            _, x, member = _contains_probe(rng, name, sets[name], namespace,
                                           member=contains % 2 == 0)
            contains += 1
            out.append(HttpRequest("/contains", {"set": name, "x": x},
                                   member))
        elif route == "R":
            out.append(HttpRequest("/reconstruct", {"set": name}))
        else:
            raise ValueError(f"unknown route letter {route!r}")
    return out


def probe_requests(seed: int, names: list[str],
                   count: int) -> list[tuple[str, int]]:
    """A fixed list of seeded ``(set, seed)`` sample probes."""
    rng = _rng(seed, 3)
    names = sorted(names)
    return [(names[int(rng.integers(len(names)))],
             int(rng.integers(_SEED_LIMIT))) for _ in range(count)]


# -- churn_durable ------------------------------------------------------------

class LiveIds:
    """The occupied ids of a dynamic namespace, as the generator sees them.

    Inserts are drawn from ids never occupied before; retires from the
    ids live right now.  :meth:`apply` refuses a batch that would insert
    a live id or retire one that is not live, so a generated step can
    never make the program raise.
    """

    def __init__(self, namespace: int, occupied: np.ndarray, rng):
        self.namespace = int(namespace)
        self.mask = np.zeros(self.namespace, dtype=bool)
        self.mask[occupied.astype(np.int64)] = True
        self._live = [int(x) for x in occupied]
        self._where = {x: i for i, x in enumerate(self._live)}
        never = np.flatnonzero(~self.mask).astype(np.uint64)
        self._fresh = never[rng.permutation(never.size)]
        self._next_fresh = 0

    def __len__(self) -> int:
        return len(self._live)

    def occupied(self) -> np.ndarray:
        """Sorted uint64 array of the live ids."""
        return np.flatnonzero(self.mask).astype(np.uint64)

    def draw_fresh(self, k: int) -> np.ndarray:
        """``k`` ids never occupied before (not yet applied)."""
        start = self._next_fresh
        if start + k > self._fresh.size:
            raise RuntimeError("churn generator ran out of fresh ids")
        self._next_fresh = start + k
        return self._fresh[start:start + k].copy()

    def draw_live(self, k: int, rng) -> np.ndarray:
        """``k`` distinct live ids (not yet applied)."""
        picks = rng.choice(len(self._live), k, replace=False)
        return np.array([self._live[i] for i in picks], dtype=np.uint64)

    def apply(self, inserts: np.ndarray, retires: np.ndarray) -> None:
        """Record one acknowledged write batch."""
        ins = inserts.astype(np.int64)
        ret = retires.astype(np.int64)
        if self.mask[ins].any() or np.unique(ins).size != ins.size:
            raise ValueError("insert batch holds a live or repeated id")
        if not self.mask[ret].all() or np.unique(ret).size != ret.size:
            raise ValueError("retire batch holds a dead or repeated id")
        for x in ins.tolist():
            self._where[x] = len(self._live)
            self._live.append(x)
        for x in ret.tolist():
            i = self._where.pop(x)
            last = self._live.pop()
            if last != x:
                self._live[i] = last
                self._where[last] = i
        self.mask[ins] = True
        self.mask[ret] = False


@dataclass(frozen=True)
class ChurnStep:
    """One closed-loop step of ``churn_durable``."""

    index: int
    inserts: np.ndarray
    retires: np.ndarray
    requests: tuple[tuple[str, int], ...]
    contains: tuple[str, int, bool]
    reconstruct: str | None
    checkpoint: bool


class ChurnGen:
    """Initial occupancy, the stored sets and an endless step stream.

    ``live`` always reflects every step yielded so far, so a caller that
    runs each step before asking for the next can check answers against
    it.
    """

    def __init__(self, seed: int, *, namespace: int, occupied: int,
                 num_sets: int, set_size: int, inserts: int, retires: int,
                 requests: int, reconstruct_every: int,
                 checkpoint_every: int):
        rng = _rng(seed, 4)
        self.namespace = namespace
        self.initial = np.sort(
            rng.choice(namespace, occupied, replace=False).astype(np.uint64))
        self.sets = draw_sets(seed, namespace, num_sets, set_size,
                              population=self.initial)
        self.live = LiveIds(namespace, self.initial, rng)
        self._rng = _rng(seed, 5)
        self._shape = (inserts, retires, requests, reconstruct_every,
                       checkpoint_every)

    def steps(self) -> Iterator[ChurnStep]:
        inserts, retires, requests, reconstruct_every, checkpoint_every = \
            self._shape
        rng = self._rng
        names = sorted(self.sets)
        index = 0
        while True:
            ins = self.live.draw_fresh(inserts)
            ret = self.live.draw_live(retires, rng)
            self.live.apply(ins, ret)
            picks = rng.integers(len(names), size=requests)
            reqs = tuple((names[j], int(rng.integers(_SEED_LIMIT)))
                         for j in picks)
            name = reqs[0][0]
            contains = _contains_probe(rng, name, self.sets[name],
                                       self.namespace,
                                       member=index % 2 == 0)
            reconstruct = (names[index // reconstruct_every % len(names)]
                           if index % reconstruct_every == 0 else None)
            yield ChurnStep(index, ins, ret, reqs, contains, reconstruct,
                            index % checkpoint_every == checkpoint_every - 1)
            index += 1
