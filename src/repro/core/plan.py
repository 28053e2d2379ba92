"""Compiled tree plans: the BloomSampleTree as structure-of-arrays.

The recursive sampler (:meth:`repro.core.sampling.BSTSampler.sample_many`)
walks a pointer-linked :class:`~repro.core.tree.TreeNode` graph one
element at a time: every visited (query, node) pair pays a numpy popcount
call, an estimator call and cache-lock round trips in Python.  This
module re-represents any tree backend as a :class:`CompiledTree` — flat
level-order arrays (node ranges ``lo``/``hi``, leaf flags, child slots)
plus every node filter packed into one contiguous ``uint64`` bit matrix —
and drives descent with :func:`descend_frontier`, which advances a whole
batch of sampling requests through the tree in three tiers:

* **frontier pass** (vectorised, RNG-free): one wavefront per tree
  generation fuses the popcount → intersection-estimate → threshold math
  of every reachable (query, node) pair into batched expressions over
  the contiguous bit matrix, plus one batched membership test per
  reachable leaf (leaf-candidate hashing is itself batched across
  leaves).  The estimates repeat the exact operation sequence of
  :func:`repro.core.cardinality.estimate_intersection_size`, so they are
  bit-identical floats;
* **descent program** (per unique query, cached): the frontier row is
  compiled into a :class:`_DescentProgram` — every *forced* one-sided
  walk chain is folded into a single entry carrying precomputed op
  increments, leaving only the slots where the recursive sampler draws
  randomness (binomial splits) or serves samples (leaves);
* **replay** (per request): the program is replayed against the
  request's RNG stream, either in Python or — when
  :mod:`repro.core.native` detects a working toolchain — by a compiled
  C kernel making the *same* libnpyrandom calls.  Random draws happen in
  exactly the recursive order, so given the same per-request RNG stream
  the returned samples — and the :class:`~repro.core.ops.OpCounter` —
  are bit-for-bit identical to
  :class:`~repro.core.sampling.BSTSampler` on every backend.

Plans persist through :meth:`CompiledTree.save` /
:meth:`CompiledTree.load` as a single raw buffer
(:mod:`repro.core.mmapio`) that loads via ``np.memmap``: cold start is
O(page table) instead of O(decompress + rebuild), and N serving shards
mapping the same file share one read-only copy of the tree.
:meth:`CompiledTree.prepare` additionally pays the per-plan descent
setup (hot-array lists, hoisted Section-5.3 constants, batched
leaf-position hashing) once at attach time, so serving workers do not
pay it on their first request.

A plan never mutates in place.  Occupancy churn is layered on top as a
:class:`~repro.core.delta.PlanDelta` — :func:`descend_frontier` accepts
either a :class:`CompiledTree` or the ``base ⊕ delta``
:class:`~repro.core.delta.DeltaPlanView`, which implements the same
read interface (``descent_lists`` / ``words_rows`` / ``candidates`` /
``positions`` / the frontier cache) with sparse patches resolved first.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import kernels, native
from repro.core.bitvector import BitVector
from repro.core.bloom import BloomFilter
from repro.core.hashing import create_family
from repro.core.mmapio import read_blob, write_blob
from repro.core.ops import OpCounter
from repro.obs.runtime import RUNTIME
from repro.obs.trace import record_stage
from repro.core.sampling import (
    DEFAULT_EMPTY_THRESHOLD,
    MultiSampleResult,
    _LeafServer,
)
from repro.utils.rng import ensure_rng

#: Version of the persisted plan layout.
PLAN_FORMAT = 1

#: Slot value marking a missing child.
NO_CHILD = -1

#: Default bound of the per-plan frontier cache (distinct query filters
#: whose estimates/leaf hits are kept; see CompiledTree).
DEFAULT_FRONTIER_CACHE = 256

#: Largest filter size for which the fused (vectorised) estimator path
#: is bit-exact: both int64 products in the Section 5.3 estimator are
#: bounded by m², and int64→float64 conversion is exact below 2**53,
#: so the gate is m ≤ floor(sqrt(2**53)).  Above it the frontier falls
#: back to per-pair Python-int arithmetic (identical floats, slower).
_VECTOR_EXACT_M = 94_906_265

#: Total leaf candidates under which :meth:`CompiledTree.prepare`
#: pre-hashes every leaf's positions in one batched pass.
_PREPARE_POSITION_BUDGET = 2_000_000


class FrontierRow:
    """One cached frontier evaluation for a (query bits, policy) key.

    ``estimates`` is a slot-indexed list of raw Section-5.3 intersection
    estimates (``None`` where the frontier never reached);
    ``leaf_hits`` maps leaf slot → the query's positive candidates
    there.  ``program`` is the lazily compiled :class:`_DescentProgram`
    replaying this row; it is dropped (``None``) whenever a delta epoch
    patches the row, and rebuilt on first use.  ``stale`` is either
    ``None`` (row is current) or the list of slots whose estimates a
    delta epoch dropped: the next :func:`descend_frontier` repairs the
    row in place with one fused popcount/estimate pass over exactly
    those slots (estimates are pure functions of the filter bits, so
    every surviving entry is still correct) before compiling a program.
    """

    __slots__ = ("estimates", "leaf_hits", "program", "stale")

    def __init__(self, estimates, leaf_hits, program=None, stale=None):
        self.estimates = estimates
        self.leaf_hits = leaf_hits
        self.program = program
        self.stale = stale


class _PlanScratch:
    """Grow-only preallocated work buffers shared through a try-lock.

    Plans (and their frontier state) can be shared across serving
    shards, so two threads may drive descent over one plan
    concurrently.  Buffers are handed out only to the thread that wins
    the non-blocking acquire; everyone else falls back to temporary
    allocations — correctness never depends on reuse, only the
    steady-state allocation rate does.
    """

    __slots__ = ("_lock", "_arrays")

    def __init__(self):
        self._lock = threading.Lock()
        self._arrays: dict[tuple, np.ndarray] = {}

    def acquire(self) -> bool:
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (name, np.dtype(dtype).str)
        arr = self._arrays.get(key)
        if arr is None or arr.size < size:
            arr = np.empty(max(size, 1), dtype=dtype)
            self._arrays[key] = arr
        return arr[:size].reshape(shape)


class CompiledTree:
    """One tree backend flattened into contiguous level-order arrays.

    Slot 0 is the root; a level's slots are contiguous and ordered by
    node index, so ascending slot order *is* level order.  ``words``
    holds every node's filter bits as one ``(num_nodes, W)`` ``uint64``
    matrix — the only bulk data, and the part that stays memory-mapped
    after :meth:`load`.

    A plan is an immutable snapshot: mutating the source tree (pruned /
    dynamic inserts) does not update it.  :class:`~repro.api.BloomDB`
    layers occupancy changes over it as a
    :class:`~repro.core.delta.PlanDelta` (the default ``mutation:
    delta`` pipeline) or recompiles lazily (``mutation: invalidate``).
    """

    def __init__(self, *, backend: str, namespace_size: int, depth: int,
                 family, level, index, lo, hi, leaf, left, right,
                 words, ones, occupied, cand_lo, cand_hi):
        self.backend = backend
        self.namespace_size = int(namespace_size)
        self.depth = int(depth)
        self.family = family
        self.level = level
        self.index = index
        self.lo = lo
        self.hi = hi
        self.leaf = leaf
        self.left = left
        self.right = right
        self.words = words
        self.ones = ones
        self.occupied = occupied
        self.cand_lo = cand_lo
        self.cand_hi = cand_hi
        # Lazy caches shared by every batch (and, for a shared static
        # plan, every serving shard).  All cached values are pure
        # functions of the immutable plan (plus, for the frontier cache,
        # of the query bits), so sharing them across threads and calls
        # cannot change any result — unlike the per-batch PositionCache
        # of the recursive path, they keep paying off across batches.
        self._candidates: dict[int, np.ndarray] = {}
        self._positions: dict[int, np.ndarray] = {}
        self._frontier_cache: "OrderedDict[tuple, FrontierRow]" = \
            OrderedDict()
        self.frontier_cache_size = DEFAULT_FRONTIER_CACHE
        self._cache_lock = threading.RLock()
        # Python-list mirrors of the hot descent arrays (built lazily):
        # per-slot indexing in the replay loop is several times faster on
        # lists than on numpy scalars.
        self._lists: tuple | None = None
        self._const: tuple | None = None
        self._scratch = _PlanScratch()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_tree(cls, tree) -> "CompiledTree":
        """Flatten any registered tree backend into a plan snapshot."""
        from repro.core.backend import backend_key_of

        backend = backend_key_of(tree)
        nodes = []
        if tree.root is not None:
            queue = deque([tree.root])
            while queue:
                node = queue.popleft()
                nodes.append(node)
                if node.left is not None:
                    queue.append(node.left)
                if node.right is not None:
                    queue.append(node.right)
        n = len(nodes)
        slot_of = {id(node): slot for slot, node in enumerate(nodes)}
        level = np.array([node.level for node in nodes], dtype=np.int32)
        index = np.array([node.index for node in nodes], dtype=np.int64)
        lo = np.array([node.lo for node in nodes], dtype=np.int64)
        hi = np.array([node.hi for node in nodes], dtype=np.int64)
        leaf = np.array([tree.is_leaf(node) for node in nodes], dtype=bool)
        left = np.array(
            [slot_of[id(node.left)] if node.left is not None else NO_CHILD
             for node in nodes], dtype=np.int32)
        right = np.array(
            [slot_of[id(node.right)] if node.right is not None else NO_CHILD
             for node in nodes], dtype=np.int32)
        if n:
            words = np.stack([node.bloom.bits.words for node in nodes])
            ones = np.bitwise_count(words).sum(axis=1).astype(np.int64)
        else:
            num_words = (tree.family.m + 63) // 64
            words = np.empty((0, num_words), dtype=np.uint64)
            ones = np.empty(0, dtype=np.int64)

        occupied = getattr(tree, "occupied", None)
        if occupied is not None:
            occupied = np.array(occupied, dtype=np.uint64)
            cand_lo = np.searchsorted(occupied, lo.astype(np.uint64),
                                      side="left").astype(np.int64)
            cand_hi = np.searchsorted(occupied, hi.astype(np.uint64),
                                      side="left").astype(np.int64)
        else:
            occupied = None
            cand_lo = lo
            cand_hi = hi
        return cls(
            backend=backend, namespace_size=tree.namespace_size,
            depth=tree.depth, family=tree.family, level=level, index=index,
            lo=lo, hi=hi, leaf=leaf, left=left, right=right, words=words,
            ones=ones, occupied=occupied, cand_lo=cand_lo, cand_hi=cand_hi,
        )

    # -- interface ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Materialised node count (0 for an empty pruned tree)."""
        return int(self.lo.shape[0])

    @property
    def m(self) -> int:
        """Filter size shared with every compatible query filter."""
        return self.family.m

    @property
    def k(self) -> int:
        """Hash functions per filter."""
        return self.family.k

    @property
    def nbytes(self) -> int:
        """Bytes of packed filter storage (the bit matrix)."""
        return int(self.words.nbytes)

    def check_query(self, query: BloomFilter) -> None:
        """Validate a query filter shares ``m`` and the hash family."""
        if not self.family.is_compatible_with(query.family):
            raise ValueError(
                "query Bloom filter is incompatible with this plan "
                "(m and the hash family must match, Definition 5.1)"
            )

    def candidate_count(self, slot: int) -> int:
        """Brute-force candidates a leaf slot covers."""
        return int(self.cand_hi[slot] - self.cand_lo[slot])

    def candidates(self, slot: int) -> np.ndarray:
        """The leaf slot's candidate elements (cached)."""
        with self._cache_lock:
            cached = self._candidates.get(slot)
            if cached is None:
                if self.occupied is None:
                    cached = np.arange(self.lo[slot], self.hi[slot],
                                       dtype=np.uint64)
                else:
                    cached = self.occupied[
                        int(self.cand_lo[slot]):int(self.cand_hi[slot])]
                self._candidates[slot] = cached
            return cached

    def positions(self, slot: int) -> np.ndarray:
        """Hashed bit positions of a leaf slot's candidates (cached)."""
        with self._cache_lock:
            cached = self._positions.get(slot)
            if cached is None:
                cached = self.family.positions_many(self.candidates(slot))
                self._positions[slot] = cached
            return cached

    def ensure_positions(self, slots) -> None:
        """Hash several leaf slots' candidate positions in one batch.

        One ``positions_many`` call over the concatenated candidates of
        every uncached slot, split back per leaf — identical values to
        per-slot hashing (the hash is elementwise), but the batch
        crosses the vectorised-kernel cutover that small per-leaf
        arrays miss.
        """
        with self._cache_lock:
            todo = [slot for slot in slots
                    if slot not in self._positions
                    and self.candidates(slot).size]
            if not todo:
                return
            chunks = [self._candidates[slot] for slot in todo]
            positions = self.family.positions_many(np.concatenate(chunks))
            offset = 0
            for slot, chunk in zip(todo, chunks):
                self._positions[slot] = positions[offset:offset + chunk.size]
                offset += chunk.size

    def words_rows(self, slots: np.ndarray, out=None) -> np.ndarray:
        """Gather filter rows for an array of slots (into ``out``)."""
        return np.take(self.words, slots, axis=0, out=out)

    def descent_lists(self) -> tuple:
        """Python-list views of the hot descent arrays (cached).

        ``(leaf, left, right, caps, ones, cand_counts)`` — per-slot
        indexing on plain lists is what keeps the replay loop cheap.
        """
        lists = self._lists
        if lists is None:
            with self._cache_lock:
                if self._lists is None:
                    self._lists = (
                        self.leaf.tolist(),
                        self.left.tolist(),
                        self.right.tolist(),
                        (self.hi - self.lo).astype(float).tolist(),
                        self.ones.tolist(),
                        (self.cand_hi - self.cand_lo).tolist(),
                    )
                lists = self._lists
        return lists

    def _descent_const(self) -> tuple:
        """Hoisted Section-5.3 estimator constants: ``(m, k, log m,
        k·log1p(-1/m), vectorised-exactness flag)``."""
        const = self._const
        if const is None:
            m, k = self.m, self.k
            const = (m, k, math.log(m), k * math.log1p(-1.0 / m),
                     m <= _VECTOR_EXACT_M)
            self._const = const
        return const

    def prepare(self, positions: bool | None = None) -> "CompiledTree":
        """Pay the per-plan descent setup up front (returns ``self``).

        Builds the hot-array list mirrors and the hoisted estimator
        constants, and — unless the plan covers more than
        ``_PREPARE_POSITION_BUDGET`` leaf candidates (or ``positions``
        forces it) — pre-hashes every leaf's candidate positions in one
        batched pass.  Serving workers call this once at attach
        (:meth:`repro.api.BloomDB.load`), so the first request does not
        pay cold-start setup.
        """
        self.descent_lists()
        self._descent_const()
        if self.num_nodes:
            leaf_slots = np.flatnonzero(self.leaf)
            counts = (self.cand_hi[leaf_slots]
                      - self.cand_lo[leaf_slots]).astype(np.int64)
            if positions is None:
                positions = int(counts.sum()) <= _PREPARE_POSITION_BUDGET
            if positions:
                self.ensure_positions(
                    np.asarray(leaf_slots)[counts > 0].tolist())
        return self

    def frontier_get(self, key: tuple):
        """A cached :class:`FrontierRow` for (query bits, threshold,
        descent)."""
        with self._cache_lock:
            entry = self._frontier_cache.get(key)
            if entry is not None:
                self._frontier_cache.move_to_end(key)
            return entry

    def frontier_put(self, key: tuple, entry: "FrontierRow") -> None:
        """Store a frontier row (LRU-bounded by ``frontier_cache_size``)."""
        with self._cache_lock:
            self._frontier_cache[key] = entry
            self._frontier_cache.move_to_end(key)
            while len(self._frontier_cache) > self.frontier_cache_size:
                self._frontier_cache.popitem(last=False)

    def adopt_caches(self, other: "CompiledTree") -> None:
        """Inherit another plan's warm caches (same logical plan).

        Used when a no-op compact or checkpoint republishes the same
        logical plan under a new object (e.g. after a save → mmap-reload
        round-trip).  Slot numbering is construction-order
        deterministic, so cached candidates, positions and frontier
        rows — all pure functions of (plan bits, query bits) — remain
        valid verbatim; adopting them keeps serving traffic warm across
        the swap instead of cold-missing the whole frontier cache.
        """
        with other._cache_lock:
            candidates = dict(other._candidates)
            positions = dict(other._positions)
            frontier = list(other._frontier_cache.items())
        with self._cache_lock:
            self._candidates.update(candidates)
            self._positions.update(positions)
            for key, row in frontier:
                self._frontier_cache[key] = row
                self._frontier_cache.move_to_end(key)
            while len(self._frontier_cache) > self.frontier_cache_size:
                self._frontier_cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop the lazy candidate/position/frontier caches."""
        with self._cache_lock:
            self._candidates.clear()
            self._positions.clear()
            self._frontier_cache.clear()

    def sample_many(
        self,
        query: BloomFilter,
        r: int,
        replacement: bool = True,
        rng=None,
        empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
        descent: str = "threshold",
        backend: str | None = None,
    ) -> MultiSampleResult:
        """One-pass multi-sample over the plan (single-request form).

        Bit-identical to
        :meth:`repro.core.sampling.BSTSampler.sample_many` on the source
        tree given the same RNG stream and policy knobs.
        """
        return descend_frontier(
            self, [DescentRequest(query, r, replacement, rng)],
            empty_threshold=empty_threshold, descent=descent,
            backend=backend,
        )[0]

    # -- materialisation ------------------------------------------------------

    def to_tree(self, writable: bool = False):
        """Rebuild the object-graph tree this plan was compiled from.

        For ``static`` and ``pruned`` backends the node filters wrap
        *views* of the plan's bit matrix — zero-copy over a memory-mapped
        plan — unless ``writable=True``, which copies each row so the
        tree can be mutated (pruned inserts).  The ``dynamic`` backend
        stores per-bit counters that a plain bit matrix cannot express,
        so it is rebuilt from the occupancy instead.
        """
        from repro.core.dynamic import DynamicBloomSampleTree
        from repro.core.pruned import PrunedBloomSampleTree
        from repro.core.tree import BloomSampleTree, TreeNode

        if self.backend == "dynamic":
            occupied = (np.empty(0, dtype=np.uint64)
                        if self.occupied is None else
                        np.array(self.occupied, dtype=np.uint64))
            return DynamicBloomSampleTree.build(
                occupied, self.namespace_size, self.depth, self.family)

        nodes: list[TreeNode] = []
        for slot in range(self.num_nodes):
            row = self.words[slot]
            if writable:
                row = np.array(row, dtype=np.uint64)
            bloom = BloomFilter(self.family, BitVector(self.family.m, row))
            nodes.append(TreeNode(int(self.level[slot]),
                                  int(self.index[slot]),
                                  int(self.lo[slot]), int(self.hi[slot]),
                                  bloom))
        for slot, node in enumerate(nodes):
            if int(self.left[slot]) != NO_CHILD:
                node.left = nodes[int(self.left[slot])]
            if int(self.right[slot]) != NO_CHILD:
                node.right = nodes[int(self.right[slot])]
        root = nodes[0] if nodes else None
        if self.backend == "static":
            if root is None:
                raise ValueError("compiled static plan holds no nodes")
            return BloomSampleTree(self.namespace_size, self.depth,
                                   self.family, root)
        if self.backend == "pruned":
            occupied = (np.empty(0, dtype=np.uint64)
                        if self.occupied is None else
                        np.array(self.occupied, dtype=np.uint64))
            return PrunedBloomSampleTree(self.namespace_size, self.depth,
                                         self.family, root, occupied)
        raise ValueError(f"unknown compiled backend {self.backend!r}")

    # -- persistence ----------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        """Persist the plan as one raw mappable buffer.

        ``extra_meta`` entries ride along in the blob header (the
        durability subsystem stores the checkpointed epoch id this way,
        so the snapshot and its WAL-truncation bound are written in one
        atomic rename); they must not shadow the plan's own keys.
        """
        from repro.core.serialization import _family_spec

        name, seed = _family_spec(self.family)
        meta = {
            "format": PLAN_FORMAT,
            "kind": "tree-plan",
            "backend": self.backend,
            "namespace_size": self.namespace_size,
            "depth": self.depth,
            "family_name": name,
            "family_seed": seed,
            "k": self.family.k,
            "m": self.family.m,
            "has_occupied": self.occupied is not None,
        }
        if extra_meta:
            overlap = set(extra_meta) & set(meta)
            if overlap:
                raise ValueError(
                    f"extra_meta shadows plan keys: {sorted(overlap)}")
            meta.update(extra_meta)
        arrays = {
            "level": self.level, "index": self.index,
            "lo": self.lo, "hi": self.hi,
            "leaf": self.leaf.astype(np.uint8),
            "left": self.left, "right": self.right,
            "words": self.words, "ones": self.ones,
            "cand_lo": self.cand_lo, "cand_hi": self.cand_hi,
            "occupied": (self.occupied if self.occupied is not None
                         else np.empty(0, dtype=np.uint64)),
        }
        write_blob(path, meta, arrays)

    @classmethod
    def load(cls, path, mmap: bool = True) -> "CompiledTree":
        """Load a saved plan; ``mmap=True`` keeps the bit matrix on disk."""
        meta, arrays = read_blob(path, mmap=mmap)
        if meta.get("kind") != "tree-plan":
            raise ValueError(f"{path} is not a compiled tree plan")
        if int(meta.get("format", -1)) != PLAN_FORMAT:
            raise ValueError(
                f"unsupported plan format {meta.get('format')!r}")
        family = create_family(
            meta["family_name"], int(meta["k"]), int(meta["m"]),
            namespace_size=int(meta["namespace_size"]),
            seed=int(meta["family_seed"]),
        )
        return cls(
            backend=meta["backend"],
            namespace_size=int(meta["namespace_size"]),
            depth=int(meta["depth"]),
            family=family,
            level=arrays["level"], index=arrays["index"],
            lo=arrays["lo"], hi=arrays["hi"],
            leaf=arrays["leaf"].astype(bool),
            left=arrays["left"], right=arrays["right"],
            words=arrays["words"], ones=arrays["ones"],
            occupied=(arrays["occupied"] if meta["has_occupied"] else None),
            cand_lo=arrays["cand_lo"], cand_hi=arrays["cand_hi"],
        )

    def __repr__(self) -> str:
        return (f"CompiledTree(backend={self.backend!r}, "
                f"M={self.namespace_size}, depth={self.depth}, "
                f"nodes={self.num_nodes}, m={self.family.m})")


@dataclass
class DescentRequest:
    """One sampling request inside a :func:`descend_frontier` batch.

    ``rng`` is the request's own random stream (a seed, a generator or
    ``None`` for a fresh nondeterministic one); draws are consumed in
    exactly the recursive sampler's order, which is what makes the result
    bit-identical to :meth:`~repro.core.sampling.BSTSampler.sample_many`
    fed the same stream.
    """

    query: BloomFilter
    rounds: int
    replacement: bool = True
    rng: "int | np.random.Generator | None" = None


class _DescentProgram:
    """A frontier row compiled into chain-compacted replay entries.

    Entries start at the root or at a split child.  Each entry folds
    the *forced* part of the walk from its start slot — the one-sided
    descents the recursive sampler performs without drawing randomness
    — into precomputed op increments (``nodes_add``/``inter_add``) and
    one endpoint:

    * kind 0 — dead end (both effective child estimates ≤ 0);
    * kind 1 — leaf (``leaf_ix`` into the leaf table: positives array +
      the membership charge paid on a request's first visit);
    * kind 2 — binomial split (``p_left`` plus the child entries).

    The entry graph is static per (query, policy, plan) and therefore
    cached on the :class:`FrontierRow`; deficit retries re-enter the
    same entries and re-charge their increments, exactly like the
    recursive sampler re-walking the same nodes.
    """

    __slots__ = ("kinds", "nodes_add", "inter_add", "p_left", "left_e",
                 "right_e", "leaf_ix", "leaf_positives", "leaf_cand",
                 "_native", "_native_lock")

    def __init__(self, kinds, nodes_add, inter_add, p_left, left_e,
                 right_e, leaf_ix, leaf_positives, leaf_cand):
        self.kinds = kinds
        self.nodes_add = nodes_add
        self.inter_add = inter_add
        self.p_left = p_left
        self.left_e = left_e
        self.right_e = right_e
        self.leaf_ix = leaf_ix
        self.leaf_positives = leaf_positives
        self.leaf_cand = leaf_cand
        self._native = None
        self._native_lock = threading.Lock()


def _build_program(plan, row: FrontierRow, query_words, t1, threshold,
                   descent) -> _DescentProgram:
    """Compile one frontier row into a :class:`_DescentProgram`.

    The effective child estimates (threshold floor + capacity cap
    applied to the raw Section-5.3 value) are computed here once, with
    the recursive sampler's exact float operations; pairs the frontier
    pruned (or a delta epoch dropped) are recomputed from the plan
    on demand, writing back into the row — the same defensive fallback
    the replay loop used to carry per request.
    """
    estimates = row.estimates
    leaf_hits = row.leaf_hits
    leaf, left, right, caps, ones, cand_counts = plan.descent_lists()
    m, k = plan.m, plan.k
    floor_value = threshold if descent == "floored" else 0.0

    def effective(child: int) -> float:
        raw = estimates[child]
        if raw is None:
            t_and = int(np.bitwise_count(
                query_words & plan.words[child]).sum())
            raw = kernels.intersection_estimate(
                t1, int(ones[child]), t_and, m, k)
            estimates[child] = raw
        if raw < threshold:
            return floor_value
        cap = caps[child]
        return raw if raw < cap else cap

    kinds: list[int] = []
    nodes_add: list[int] = []
    inter_add: list[int] = []
    p_left: list[float] = []
    left_e: list[int] = []
    right_e: list[int] = []
    leaf_ix: list[int] = []
    leaf_positives: list[np.ndarray] = []
    leaf_cand: list[int] = []
    entry_of: dict[int, int] = {}

    def build(slot: int) -> int:
        entry = entry_of.get(slot)
        if entry is not None:
            return entry
        entry = len(kinds)
        entry_of[slot] = entry
        kinds.append(0)
        nodes_add.append(0)
        inter_add.append(0)
        p_left.append(0.0)
        left_e.append(-1)
        right_e.append(-1)
        leaf_ix.append(-1)
        nodes = inter = 0
        cur = slot
        while True:
            nodes += 1
            if leaf[cur]:
                positives = leaf_hits.get(cur)
                if positives is None:
                    candidates = plan.candidates(cur)
                    if candidates.size:
                        positives = candidates[kernels.membership(
                            query_words, plan.positions(cur))]
                    else:
                        positives = candidates
                    leaf_hits[cur] = positives
                kinds[entry] = 1
                leaf_ix[entry] = len(leaf_positives)
                leaf_positives.append(positives)
                leaf_cand.append(cand_counts[cur])
                break
            left_child = left[cur]
            right_child = right[cur]
            if left_child < 0:
                left_eff = 0.0
            else:
                inter += 1
                left_eff = effective(left_child)
            if right_child < 0:
                right_eff = 0.0
            else:
                inter += 1
                right_eff = effective(right_child)
            if left_eff <= 0.0 and right_eff <= 0.0:
                break  # kind stays 0: dead end
            if right_eff <= 0.0:
                cur = left_child
                continue
            if left_eff <= 0.0:
                cur = right_child
                continue
            kinds[entry] = 2
            p_left[entry] = left_eff / (left_eff + right_eff)
            nodes_add[entry] = nodes
            inter_add[entry] = inter
            left_e[entry] = build(left_child)
            right_e[entry] = build(right_child)
            return entry
        nodes_add[entry] = nodes
        inter_add[entry] = inter
        return entry

    try:
        build(0)
    finally:
        # ``build`` reaches itself through its closure cell; without the
        # del that cycle would pin ``plan`` (an epoch's view and its
        # whole delta chain) until the cyclic collector runs.
        del build
    return _DescentProgram(kinds, nodes_add, inter_add, p_left, left_e,
                           right_e, leaf_ix, leaf_positives, leaf_cand)


def _run_program(program: _DescentProgram, request: DescentRequest,
                 rng) -> MultiSampleResult:
    """Replay a descent program in pure Python (the golden reference).

    The recursive sampler's control flow over the compacted entry
    graph: binomial splits, leaf serving (with or without replacement),
    backtracking on shortfall and the deficit retry — every RNG draw
    and op increment at the same point, in the same order, as
    :meth:`~repro.core.sampling.BSTSampler.sample_many`.
    """
    replacement = request.replacement
    kinds = program.kinds
    nodes_add = program.nodes_add
    inter_add = program.inter_add
    p_left = program.p_left
    left_e = program.left_e
    right_e = program.right_e
    leaf_ix = program.leaf_ix
    leaf_positives = program.leaf_positives
    leaf_cand = program.leaf_cand
    num_leaves = len(leaf_positives)
    visited = [False] * num_leaves
    orders: list = [None] * num_leaves
    served = [0] * num_leaves
    binomial = rng.binomial
    integers = rng.integers
    permutation = rng.permutation
    counters = [0, 0, 0, 0]  # intersections, memberships, nodes, backtracks

    def run(entry: int, count: int) -> list[int]:
        if count <= 0:
            return []
        counters[2] += nodes_add[entry]
        counters[0] += inter_add[entry]
        kind = kinds[entry]
        if kind == 0:
            return []
        if kind == 1:
            li = leaf_ix[entry]
            if not visited[li]:
                visited[li] = True
                counters[1] += leaf_cand[li]
            positives = leaf_positives[li]
            if positives.size == 0:
                return []
            if replacement:
                picks = integers(0, positives.size, size=count)
                return [int(v) for v in positives[picks]]
            order = orders[li]
            if order is None:
                order = permutation(positives)
                orders[li] = order
            start = served[li]
            take = order[start:start + count]
            served[li] = start + len(take)
            return [int(v) for v in take]
        n_left = int(binomial(count, p_left[entry]))
        got_left = run(left_e[entry], n_left)
        if len(got_left) < n_left:
            counters[3] += 1
        got_right = run(right_e[entry], count - len(got_left))
        deficit = count - len(got_left) - len(got_right)
        if deficit > 0 and len(got_left) == n_left and n_left > 0:
            counters[3] += 1
            got_left += run(left_e[entry], deficit)
        return got_left + got_right

    values = run(0, request.rounds)
    ops = OpCounter(intersections=counters[0], memberships=counters[1],
                    nodes_visited=counters[2], backtracks=counters[3])
    return MultiSampleResult(values, request.rounds, ops)


def descend_frontier(
    plan: CompiledTree,
    requests,
    *,
    empty_threshold: float = DEFAULT_EMPTY_THRESHOLD,
    descent: str = "threshold",
    backend: str | None = None,
) -> list[MultiSampleResult]:
    """Run a batch of multi-sample requests through a compiled plan.

    Three tiers: a level-synchronous *frontier* pass computes, per tree
    generation, fused vectorised popcounts and exact intersection
    estimates for every (query, node) pair any request could reach, and
    one batched membership test per reachable leaf; the row is compiled
    into a cached *descent program* (forced walk chains folded away);
    and a *replay* pass runs the program per request, consuming the
    request's RNG stream in the recursive order — in Python, or in the
    compiled :mod:`repro.core.native` kernel when ``backend`` resolves
    to ``"native"``.  Results and op counts are bit-for-bit identical to
    running :meth:`~repro.core.sampling.BSTSampler.sample_many` per
    request with the same streams on every backend (the frontier's
    extra evaluated pairs are *not* charged to any request's ops,
    matching the recursive accounting).

    Requests sharing a query filter share one frontier evaluation.
    ``backend`` is ``"numpy"``, ``"native"`` or ``None`` (resolve the
    engine default, honouring ``REPRO_DESCENT_BACKEND`` and falling
    back to numpy when the native tier is unavailable).
    """
    if descent not in ("threshold", "floored"):
        raise ValueError(f"unknown descent policy {descent!r}")
    descent_started = perf_counter()
    requests = list(requests)
    for request in requests:
        if request.rounds <= 0:
            raise ValueError("rounds must be positive")
        plan.check_query(request.query)
    if not requests:
        return []
    if plan.num_nodes == 0:  # empty pruned/dynamic tree
        return [MultiSampleResult([], request.rounds, OpCounter())
                for request in requests]
    backend = native.resolve_backend(backend)

    # Deduplicate by filter content: estimates and leaf hits are pure
    # functions of the bits, so requests over the same stored set share
    # one frontier row — within this batch and, through the plan's LRU
    # frontier cache, across batches (serving traffic keeps hitting the
    # same stored sets).
    threshold = float(empty_threshold)
    uniq_index: dict[bytes, int] = {}
    uniq_queries: list[BloomFilter] = []
    uniq_keys: list[bytes] = []
    request_uniq: list[int] = []
    for request in requests:
        key = request.query.bits.words.tobytes()
        slot = uniq_index.get(key)
        if slot is None:
            slot = len(uniq_queries)
            uniq_index[key] = slot
            uniq_queries.append(request.query)
            uniq_keys.append(key)
        request_uniq.append(slot)

    num_uniq = len(uniq_queries)
    t1s = [query.bits.count_ones() for query in uniq_queries]
    rows: list[FrontierRow | None] = [None] * num_uniq
    missing = []
    repairs = 0
    for u, key in enumerate(uniq_keys):
        cached = plan.frontier_get((key, threshold, descent))
        if cached is None:
            missing.append(u)
            continue
        if cached.stale:
            # A stale row (inherited across a delta epoch, dirty slots
            # dropped) is repaired in place: one fused popcount/estimate
            # pass over exactly the punched holes — no wavefront walk,
            # because estimates are pure functions of the current bits
            # and every surviving entry is therefore still correct.
            _repair_row(plan, cached, uniq_queries[u].bits.words, t1s[u])
            cached.stale = None
            repairs += 1
        rows[u] = cached
    if num_uniq - len(missing):
        RUNTIME.inc("frontier_cache_hits", num_uniq - len(missing))
    if repairs:
        RUNTIME.inc("frontier_cache_repairs", repairs)
    if missing:
        RUNTIME.inc("frontier_cache_misses", len(missing))
        fresh_est, fresh_hits = _frontier(
            plan, [uniq_queries[u] for u in missing],
            [t1s[u] for u in missing], threshold, descent)
        for i, u in enumerate(missing):
            row = FrontierRow(fresh_est[i], fresh_hits[i])
            rows[u] = row
            plan.frontier_put((uniq_keys[u], threshold, descent), row)

    results = []
    for request, u in zip(requests, request_uniq):
        row = rows[u]
        program = row.program
        if program is None:
            program = _build_program(
                plan, row, uniq_queries[u].bits.words, t1s[u], threshold,
                descent)
            row.program = program
        rng = ensure_rng(request.rng)
        if backend == "native":
            results.append(native.replay(program, request, rng))
        else:
            results.append(_run_program(program, request, rng))
    record_stage("descent", perf_counter() - descent_started)
    return results


def _frontier(plan, queries, t1s, threshold, descent):
    """Wavefront evaluation of every reachable (query, node) pair.

    Returns ``(estimates, leaf_hits)``: per unique query, a
    slot-indexed list of raw intersection estimates (``None`` where the
    frontier never reached) and a dict mapping leaf slot to the query's
    positive candidates there.  Each generation fuses the popcount →
    estimate-argument math of *all* of its surviving (query, child)
    pairs into batched array expressions (gathers land in the plan's
    preallocated scratch); only the final ``log`` and the survival
    decision stay scalar, because ``math.log`` is the operation
    :func:`~repro.core.cardinality.estimate_intersection_size` uses and
    SIMD ``np.log`` is not guaranteed to round identically.
    """
    num_queries = len(queries)
    num_nodes = plan.num_nodes
    words_stack = np.stack([query.bits.words for query in queries])
    width = words_stack.shape[1]
    m, k, log_m, log_factor, vector_exact = plan._descent_const()
    log = math.log
    inf = math.inf
    floored = descent == "floored"
    estimates: list[list] = [
        [None] * num_nodes for _ in range(num_queries)]
    leaf_hits: list[dict[int, np.ndarray]] = [
        {} for _ in range(num_queries)]

    leaf, left, right, _, ones, _ = plan.descent_lists()
    t1_arr = np.asarray(t1s, dtype=np.int64)
    ones_arr = np.asarray(ones, dtype=np.int64)

    scratch = plan._scratch
    owned = scratch.acquire()
    if not owned:
        scratch = _PlanScratch()
    try:
        wave: list[tuple[int, list[int]]] = [(0, list(range(num_queries)))]
        while wave:
            leaves = [(slot, qs) for slot, qs in wave if leaf[slot]]
            if leaves:
                plan.ensure_positions([slot for slot, _ in leaves])
                for slot, qs in leaves:
                    candidates = plan.candidates(slot)
                    if candidates.size == 0:
                        for q in qs:
                            leaf_hits[q][slot] = candidates
                        continue
                    hits = kernels.membership_many(words_stack[qs],
                                                   plan.positions(slot))
                    for row, q in enumerate(qs):
                        leaf_hits[q][slot] = candidates[hits[row]]

            # One fused popcount/estimate pass over every (query, child)
            # pair of this generation, regardless of which parent the
            # pair came from.
            pair_q: list[int] = []
            pair_child: list[int] = []
            spans: list[tuple[int, int, int]] = []
            for slot, qs in wave:
                if leaf[slot]:
                    continue
                for child in (left[slot], right[slot]):
                    if child == NO_CHILD:
                        continue
                    start = len(pair_q)
                    pair_q.extend(qs)
                    pair_child.extend([child] * len(qs))
                    spans.append((child, start, len(pair_q)))
            wave = []
            if not pair_q:
                continue
            pairs = len(pair_q)
            q_ix = np.asarray(pair_q, dtype=np.intp)
            c_ix = np.asarray(pair_child, dtype=np.intp)
            lhs = scratch.get("pair_lhs", (pairs, width), np.uint64)
            rhs = scratch.get("pair_rhs", (pairs, width), np.uint64)
            np.take(words_stack, q_ix, axis=0, out=lhs)
            plan.words_rows(c_ix, out=rhs)
            np.bitwise_and(lhs, rhs, out=lhs)
            counts = scratch.get("pair_cnt", (pairs, width), np.uint8)
            np.bitwise_count(lhs, out=counts)
            t_ands = counts.sum(axis=1, dtype=np.int64)
            t_list = t_ands.tolist()
            if vector_exact:
                # int64→float64 is exact below 2**53 (guaranteed by
                # the _VECTOR_EXACT_M gate), so the fused quotient
                # rounds identically to the scalar estimator's
                # int/int division.
                t2s = ones_arr[c_ix]
                den = m - t1_arr[q_ix] - t2s + t_ands
                num = t_ands * m - t1_arr[q_ix] * t2s
                with np.errstate(divide="ignore", invalid="ignore"):
                    args = m - np.true_divide(num, den)
                den_list = den.tolist()
                arg_list = args.tolist()
            for child, start, stop in spans:
                t2 = ones[child]
                survivors: list[int] = []
                for ix in range(start, stop):
                    q = pair_q[ix]
                    t_and = t_list[ix]
                    if t_and == 0:
                        estimate = 0.0
                    elif vector_exact:
                        if den_list[ix] <= 0:
                            estimate = inf
                        else:
                            argument = arg_list[ix]
                            if argument <= 0:
                                estimate = inf
                            else:
                                estimate = max(
                                    0.0,
                                    (log(argument) - log_m) / log_factor)
                    else:
                        t1 = t1s[q]
                        denominator = m - t1 - t2 + t_and
                        if denominator <= 0:
                            estimate = inf
                        else:
                            argument = m - (t_and * m
                                            - t1 * t2) / denominator
                            if argument <= 0:
                                estimate = inf
                            else:
                                estimate = max(
                                    0.0,
                                    (log(argument) - log_m) / log_factor)
                    estimates[q][child] = estimate
                    if estimate < threshold:
                        alive = floored and threshold > 0.0
                    else:
                        alive = estimate > 0.0
                    if alive:
                        survivors.append(q)
                if survivors:
                    # Each slot has exactly one parent, so assignment
                    # (not merge) is safe.
                    wave.append((child, survivors))
    finally:
        if owned:
            plan._scratch.release()
    return estimates, leaf_hits


def _repair_row(plan, row: FrontierRow, query_words, t1) -> None:
    """Recompute a stale row's dropped estimates in one fused pass.

    ``row.stale`` holds the slots a delta epoch dirtied *and* the row
    had evaluated; everything else in the row is still exact (estimates
    are pure functions of the filter bits), so repairing those slots —
    one batched popcount + the scalar-``log`` estimate discipline of
    :func:`_frontier` — restores the whole row without re-walking the
    wavefront.  Entries the new topology can reach but the old walk
    never evaluated stay ``None``; :func:`_build_program`'s defensive
    fallback computes them on demand, bit-identically.
    """
    slots = row.stale
    if not slots:
        return
    m, k, log_m, log_factor, vector_exact = plan._descent_const()
    _, _, _, _, ones, _ = plan.descent_lists()
    log = math.log
    inf = math.inf
    estimates = row.estimates
    c_ix = np.asarray(slots, dtype=np.intp)
    rhs = plan.words_rows(c_ix)
    t_ands = np.bitwise_count(query_words[None, :] & rhs).sum(
        axis=1, dtype=np.int64)
    t_list = t_ands.tolist()
    if vector_exact:
        t2s = np.asarray([ones[slot] for slot in slots], dtype=np.int64)
        den = m - t1 - t2s + t_ands
        num = t_ands * m - t1 * t2s
        with np.errstate(divide="ignore", invalid="ignore"):
            args = m - np.true_divide(num, den)
        den_list = den.tolist()
        arg_list = args.tolist()
    for ix, slot in enumerate(slots):
        t_and = t_list[ix]
        if t_and == 0:
            estimate = 0.0
        elif vector_exact:
            if den_list[ix] <= 0:
                estimate = inf
            else:
                argument = arg_list[ix]
                if argument <= 0:
                    estimate = inf
                else:
                    estimate = max(
                        0.0, (log(argument) - log_m) / log_factor)
        else:
            t2 = ones[slot]
            denominator = m - t1 - t2 + t_and
            if denominator <= 0:
                estimate = inf
            else:
                argument = m - (t_and * m - t1 * t2) / denominator
                if argument <= 0:
                    estimate = inf
                else:
                    estimate = max(
                        0.0, (log(argument) - log_m) / log_factor)
        estimates[slot] = estimate
