"""Delta overlays: mutations applied on top of an immutable compiled plan.

:class:`~repro.core.plan.CompiledTree` is a snapshot — flat arrays plus
one packed bit matrix, possibly memory-mapped read-only.  Before this
module, any occupancy mutation (``insert_ids`` / ``retire_ids``) forced
the engine to throw the plan away and pay a full recompile before the
next compiled batch.  A :class:`PlanDelta` records the mutation as a
sparse copy-on-write layer instead:

* **dirty filter words** — for every node on a mutated root-to-leaf
  path, the node's new filter row (copied out of the authoritative
  object tree, whose incremental maintenance is bit-exact);
* **leaf membership patches** — the new candidate id array of every
  touched leaf;
* **structural patches** — children materialised by inserts are
  *appended* as new slots (parents always get lower slot numbers, so the
  level-synchronous frontier scan stays topological); subtrees emptied
  by removals are detached with a child-link patch.

``base ⊕ delta`` is exposed as a :class:`DeltaPlanView`, which
implements the exact plan interface
:func:`~repro.core.plan.descend_frontier` consumes — descent over the
view is bit-identical to descent over a freshly recompiled plan of the
mutated tree (same topology, same rows, same candidates; slot numbering
is irrelevant to the replay).  Deltas are immutable once published:
:meth:`PlanDelta.extend` returns a *new* delta sharing unchanged
entries, so an in-flight reader pinned to an older epoch never observes
a torn overlay.

When the overlay grows past the engine's ``compact_threshold``,
:meth:`repro.api.BloomDB.compact` folds it back into a fresh base plan
(off the read path; promoted by one atomic reference swap, and — when
persisted — by the atomic rename of :mod:`repro.core.mmapio`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.plan import (
    NO_CHILD,
    CompiledTree,
    DescentRequest,
    FrontierRow,
    _PlanScratch,
    descend_frontier,
)
from repro.core.sampling import DEFAULT_EMPTY_THRESHOLD, MultiSampleResult


class DeltaCompactionNeeded(RuntimeError):
    """A structural change the sparse overlay cannot express.

    Raised by :meth:`PlanDelta.extend` when the mutated tree has no root
    any more (every id retired) or the base plan holds no nodes the
    overlay could anchor to; the caller recompiles a fresh plan instead.
    """


#: Epochs a delta chain may span before the engine folds it regardless
#: of density.  Density alone cannot bound the chain: churn that keeps
#: re-dirtying the *same* slots (hot ids) never raises it, yet every
#: epoch retains its predecessor's frontier state through
#: ``parent_frontier`` — without this cap a long-running service under
#: localized churn would leak every historical delta and eventually
#: overflow the inheritance recursion.
MAX_EPOCH_CHAIN = 64


class PlanDelta:
    """A sparse copy-on-write mutation layer over one compiled base plan.

    Instances are immutable once published to readers: every mutation
    goes through :meth:`extend`, which clones the (dict-level) state and
    patches only the slots the mutation touched.  All arrays stored in a
    delta are private copies — they never alias the live object tree.
    """

    def __init__(self, base: CompiledTree):
        self.base = base
        #: slot -> new uint64 filter row (dirty words, appended slots too)
        self.words: dict[int, np.ndarray] = {}
        #: slot -> popcount of the patched row
        self.ones: dict[int, int] = {}
        #: slot -> (left, right) patched child links
        self.links: dict[int, tuple[int, int]] = {}
        #: leaf slot -> patched candidate id array (sorted uint64)
        self.leaf_candidates: dict[int, np.ndarray] = {}
        #: geometry of appended slots: (level, index, lo, hi, is_leaf)
        self.appended: list[tuple[int, int, int, int, bool]] = []
        #: replacement occupied array (None until the first mutation)
        self.occupied: np.ndarray | None = None
        #: ids applied through this delta chain (telemetry)
        self.applied_ids: int = 0
        #: where inherited frontier rows come from: the base plan, or the
        #: predecessor delta's view (forming a chain back to the base)
        self.parent_frontier = base
        #: slots dirtied by the *last* extend — the only entries an
        #: inherited frontier row must drop (appended slots need nothing:
        #: no ancestor ever cached a value for them)
        self.fresh_dirty: frozenset = frozenset()
        #: epochs since the base plan was compiled (chain-bound metric)
        self.chain_length: int = 0
        #: weak: the owning epoch holds the view strongly, so a view
        #: never keeps its own delta alive through a reference cycle
        self._view_ref: "weakref.ref[DeltaPlanView] | None" = None

    # -- introspection ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Effective node count of ``base ⊕ delta``."""
        return self.base.num_nodes + len(self.appended)

    @property
    def is_empty(self) -> bool:
        """Whether the overlay patches nothing."""
        return not (self.words or self.links or self.leaf_candidates
                    or self.appended)

    @property
    def density(self) -> float:
        """Dirty-node fraction — the auto-compaction trigger metric."""
        return len(self.words) / max(1, self.num_nodes)

    @property
    def nbytes(self) -> int:
        """Bytes of patched rows and candidate arrays held by the delta."""
        return (sum(row.nbytes for row in self.words.values())
                + sum(c.nbytes for c in self.leaf_candidates.values()))

    # -- mutation ---------------------------------------------------------------

    def extend(self, tree, ids) -> "PlanDelta":
        """A new delta with ``ids``' root-to-leaf paths re-synchronised.

        ``tree`` is the authoritative object tree *after* the mutation
        was applied to it; ``ids`` are the inserted/retired identifiers.
        Only nodes whose range contains a touched id are copied, so the
        cost is O(depth · distinct paths), not O(tree).
        """
        ids = np.unique(np.asarray(ids, dtype=np.uint64))
        new = self._clone()
        new.applied_ids += int(ids.size)
        if tree.root is None:
            raise DeltaCompactionNeeded("tree emptied: no root to overlay")
        if new.num_nodes == 0:
            raise DeltaCompactionNeeded(
                "base plan holds no nodes: recompile instead of overlaying")
        new.parent_frontier = self.base if self.is_empty else self.view()
        new.chain_length = self.chain_length + 1
        new._touched = set()
        new._sync_node(tree, tree.root, 0, ids)
        new.fresh_dirty = frozenset(new._touched)
        del new._touched
        occupied = getattr(tree, "occupied", None)
        if occupied is not None:
            new.occupied = np.array(occupied, dtype=np.uint64)
        return new

    def _clone(self) -> "PlanDelta":
        new = PlanDelta(self.base)
        new.words = dict(self.words)
        new.ones = dict(self.ones)
        new.links = dict(self.links)
        new.leaf_candidates = dict(self.leaf_candidates)
        new.appended = list(self.appended)
        new.occupied = self.occupied
        new.applied_ids = self.applied_ids
        return new

    # -- effective topology helpers ----------------------------------------------

    def _child_links(self, slot: int) -> tuple[int, int]:
        pair = self.links.get(slot)
        if pair is not None:
            return pair
        base = self.base
        if slot < base.num_nodes:
            return int(base.left[slot]), int(base.right[slot])
        return NO_CHILD, NO_CHILD  # appended slots always carry links

    def _is_leaf(self, slot: int) -> bool:
        base = self.base
        if slot < base.num_nodes:
            return bool(base.leaf[slot])
        return self.appended[slot - base.num_nodes][4]

    # -- synchronisation walk ------------------------------------------------------

    def _record_node(self, tree, node, slot: int) -> None:
        """Copy one dirty node's row (and candidates, for leaves)."""
        row = np.array(node.bloom.bits.words, dtype=np.uint64)
        self.words[slot] = row
        self.ones[slot] = int(np.bitwise_count(row).sum())
        self._touched.add(slot)
        if tree.is_leaf(node):
            self.leaf_candidates[slot] = np.array(
                tree.candidate_elements(node), dtype=np.uint64)

    def _sync_node(self, tree, node, slot: int, ids: np.ndarray) -> None:
        """Re-copy the dirty region under ``(node, slot)``.

        The caller guarantees ``node``'s range contains at least one
        touched id (trivially true at the root).  Children are recursed
        only when their range is touched; children materialised by the
        mutation are appended, children pruned by it are detached.
        """
        self._record_node(tree, node, slot)
        if tree.is_leaf(node):
            return
        left_slot, right_slot = self._child_links(slot)
        patched = [left_slot, right_slot]
        for side, (child, child_slot) in enumerate(
                ((node.left, left_slot), (node.right, right_slot))):
            if child is None:
                if child_slot != NO_CHILD:
                    patched[side] = NO_CHILD  # subtree emptied: detach
                continue
            if child_slot == NO_CHILD:
                patched[side] = self._append_subtree(tree, child)
                continue
            lo_i = int(np.searchsorted(ids, np.uint64(child.lo)))
            hi_i = int(np.searchsorted(ids, np.uint64(child.hi)))
            if hi_i > lo_i:
                self._sync_node(tree, child, child_slot, ids)
        if (patched[0], patched[1]) != (left_slot, right_slot):
            self.links[slot] = (patched[0], patched[1])

    def _append_subtree(self, tree, node) -> int:
        """Append a newly materialised subtree; returns its root slot.

        Depth-first pre-order keeps every parent at a lower slot than
        its children, preserving the topological-scan invariant of
        :func:`~repro.core.plan._frontier`.
        """
        slot = self.base.num_nodes + len(self.appended)
        is_leaf = tree.is_leaf(node)
        self.appended.append(
            (int(node.level), int(node.index), int(node.lo), int(node.hi),
             bool(is_leaf)))
        self._record_node(tree, node, slot)
        if is_leaf:
            self.links[slot] = (NO_CHILD, NO_CHILD)
            return slot
        left = (self._append_subtree(tree, node.left)
                if node.left is not None else NO_CHILD)
        right = (self._append_subtree(tree, node.right)
                 if node.right is not None else NO_CHILD)
        self.links[slot] = (left, right)
        return slot

    # -- reading -----------------------------------------------------------------

    def view(self) -> "DeltaPlanView":
        """The effective ``base ⊕ delta`` plan (shared while it lives).

        The delta keeps only a weak reference: the
        :class:`~repro.api.EngineEpoch` that publishes this delta owns
        the view, and successor deltas reach it through
        ``parent_frontier``.
        """
        view = None if self._view_ref is None else self._view_ref()
        if view is None:
            view = DeltaPlanView(self)
            self._view_ref = weakref.ref(view)
        return view

    def __repr__(self) -> str:
        return (f"PlanDelta(base_nodes={self.base.num_nodes}, "
                f"dirty={len(self.words)}, appended={len(self.appended)}, "
                f"density={self.density:.3f})")


class _WordsOverlay:
    """Row-indexable ``words`` facade: delta patches over the base matrix."""

    __slots__ = ("_base", "_patch")

    def __init__(self, base: np.ndarray, patch: dict[int, np.ndarray]):
        self._base = base
        self._patch = patch

    def __getitem__(self, slot: int) -> np.ndarray:
        row = self._patch.get(slot)
        if row is not None:
            return row
        return self._base[slot]


class DeltaPlanView:
    """``base ⊕ delta`` exposed through the compiled-plan read interface.

    Everything :func:`~repro.core.plan.descend_frontier` touches —
    ``descent_lists``, ``words`` rows, ``ones``, leaf candidates and
    hashed positions, the frontier cache — resolves patched slots from
    the delta and falls through to the (possibly memory-mapped) base
    otherwise.  Clean leaves keep hitting the *base* plan's shared
    candidate/position caches, so an overlay does not forfeit the warm
    state serving traffic built up.
    """

    def __init__(self, delta: PlanDelta):
        self.delta = delta
        self.base = delta.base
        self.backend = self.base.backend
        self.namespace_size = self.base.namespace_size
        self.depth = self.base.depth
        self.family = self.base.family
        self.words = _WordsOverlay(self.base.words, delta.words)
        self.frontier_cache_size = self.base.frontier_cache_size
        self._cache_lock = threading.RLock()
        self._lists: tuple | None = None
        self._ones: list | None = None
        self._positions: dict[int, np.ndarray] = {}
        self._frontier_cache: "OrderedDict[tuple, FrontierRow]" = \
            OrderedDict()
        self._scratch = _PlanScratch()

    # -- plan interface ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Effective node count (base plus appended slots)."""
        return self.delta.num_nodes

    @property
    def m(self) -> int:
        """Filter size shared with every compatible query filter."""
        return self.family.m

    @property
    def k(self) -> int:
        """Hash functions per filter."""
        return self.family.k

    @property
    def ones(self) -> list:
        """Per-slot set-bit counts with delta patches applied."""
        self.descent_lists()
        return self._ones

    def check_query(self, query: BloomFilter) -> None:
        """Validate a query filter shares ``m`` and the hash family."""
        self.base.check_query(query)

    def descent_lists(self) -> tuple:
        """Patched Python-list views of the hot descent arrays.

        Same shape as :meth:`~repro.core.plan.CompiledTree.descent_lists`:
        ``(leaf, left, right, caps, ones, cand_counts)`` extended with
        the delta's appended slots.
        """
        lists = self._lists
        if lists is None:
            with self._cache_lock:
                if self._lists is None:
                    self._lists = self._build_lists()
                lists = self._lists
        return lists

    def _build_lists(self) -> tuple:
        base, delta = self.base, self.delta
        parent = delta.parent_frontier
        if isinstance(parent, DeltaPlanView):
            # Incremental path: copy the predecessor view's lists (a
            # cheap shallow copy) and re-patch only the slots this
            # delta's extend touched — O(delta), not O(tree), which is
            # what keeps per-mutation cost at the advertised
            # O(depth · batch) on large plans.
            p_leaf, p_left, p_right, p_caps, p_ones, p_cand = \
                parent.descent_lists()
            leaf, left, right = list(p_leaf), list(p_left), list(p_right)
            caps, ones, cand_counts = (list(p_caps), list(p_ones),
                                       list(p_cand))
            fresh_appended = delta.appended[len(leaf) - base.num_nodes:]
            patch_slots = delta.fresh_dirty
        else:
            leaf = base.leaf.tolist()
            left = base.left.tolist()
            right = base.right.tolist()
            caps = (base.hi - base.lo).astype(float).tolist()
            ones = base.ones.tolist()
            cand_counts = (base.cand_hi - base.cand_lo).tolist()
            fresh_appended = delta.appended
            patch_slots = delta.words.keys()
        for level, index, lo, hi, is_leaf in fresh_appended:
            leaf.append(is_leaf)
            left.append(NO_CHILD)
            right.append(NO_CHILD)
            caps.append(float(hi - lo))
            ones.append(0)
            cand_counts.append(0)
        # Every slot whose links/ones/candidates changed was also
        # recorded in the patch set (dirty paths and appended subtrees
        # alike), so patching those slots from the cumulative dicts
        # brings the copied lists fully up to date.
        links = delta.links
        delta_ones = delta.ones
        leaf_candidates = delta.leaf_candidates
        for slot in patch_slots:
            pair = links.get(slot)
            if pair is not None:
                left[slot], right[slot] = pair
            count = delta_ones.get(slot)
            if count is not None:
                ones[slot] = count
            candidates = leaf_candidates.get(slot)
            if candidates is not None:
                cand_counts[slot] = int(candidates.size)
        self._ones = ones
        return leaf, left, right, caps, ones, cand_counts

    def candidates(self, slot: int) -> np.ndarray:
        """The leaf slot's candidate elements (patched or base-cached)."""
        patched = self.delta.leaf_candidates.get(slot)
        if patched is not None:
            return patched
        return self.base.candidates(slot)

    def candidate_count(self, slot: int) -> int:
        """Brute-force candidates a leaf slot covers."""
        patched = self.delta.leaf_candidates.get(slot)
        if patched is not None:
            return int(patched.size)
        return self.base.candidate_count(slot)

    def positions(self, slot: int) -> np.ndarray:
        """Hashed bit positions of a leaf slot's candidates.

        Clean leaves delegate to the base plan's shared cache; patched
        leaves are hashed once per delta and cached on the view.
        """
        if slot not in self.delta.leaf_candidates:
            return self.base.positions(slot)
        with self._cache_lock:
            cached = self._positions.get(slot)
            if cached is None:
                cached = self.family.positions_many(self.candidates(slot))
                self._positions[slot] = cached
            return cached

    def ensure_positions(self, slots) -> None:
        """Batch-hash several leaf slots' positions (clean via the base).

        Clean slots go through the base plan's single batched
        ``positions_many`` call; patched slots (few, by construction)
        hash individually into the view cache.
        """
        patched = self.delta.leaf_candidates
        clean = [slot for slot in slots if slot not in patched]
        if clean:
            self.base.ensure_positions(clean)
        for slot in slots:
            if slot in patched and self.candidates(slot).size:
                self.positions(slot)

    def words_rows(self, slots: np.ndarray, out=None) -> np.ndarray:
        """Gather filter rows for an array of slots, patches resolved.

        Base rows come from one vectorised ``take`` (indices past the
        base matrix — appended slots — are clamped and then always
        overwritten, because every appended slot carries a patch row);
        the few dirty rows are patched in a scalar pass.
        """
        base = self.base
        base_nodes = base.num_nodes
        patch = self.delta.words
        slots = np.asarray(slots, dtype=np.intp)
        safe = np.where(slots < base_nodes, slots, 0)
        rows = np.take(base.words, safe, axis=0, out=out)
        if patch:
            for i, slot in enumerate(slots.tolist()):
                row = patch.get(slot)
                if row is not None:
                    rows[i] = row
        return rows

    def _descent_const(self) -> tuple:
        """Hoisted estimator constants (shared with the base plan)."""
        return self.base._descent_const()

    def frontier_get(self, key: tuple):
        """A cached frontier row, inherited warm across epochs.

        Misses fall through to the predecessor epoch's frontier (the
        base plan, or the previous delta's view — the chain bottoms out
        at the base).  An inherited row is *patched*: entries at slots
        this delta dirtied are dropped, which is sound because a
        frontier row is a pure cache —
        :func:`~repro.core.plan._build_program` recomputes any missing
        (query, slot) value on demand through its defensive fallbacks,
        bit-identically.  This is what keeps serving traffic warm
        through churn: only the mutated paths are re-evaluated, not the
        whole frontier.  The inherited row's compiled descent program is
        dropped (it was built against the predecessor's topology) and
        rebuilt lazily against this view.
        """
        with self._cache_lock:
            entry = self._frontier_cache.get(key)
            if entry is not None:
                self._frontier_cache.move_to_end(key)
                return entry
        inherited = self.delta.parent_frontier.frontier_get(key)
        if inherited is None:
            return None
        estimates = list(inherited.estimates)
        estimates.extend([None] * (self.num_nodes - len(estimates)))
        dirty = self.delta.fresh_dirty
        # Holes the predecessor epoch punched but never repaired (the
        # row was not descended in between) carry forward into this
        # epoch's fused repair pass.
        repair: list[int] = list(inherited.stale or ())
        for slot in dirty:
            if slot < len(estimates) and estimates[slot] is not None:
                estimates[slot] = None
                repair.append(slot)
        leaf_hits = {}
        dropped_leaf = False
        for slot, hits in inherited.leaf_hits.items():
            if slot in dirty:
                dropped_leaf = True
            else:
                leaf_hits[slot] = hits
        if repair or dropped_leaf:
            # ``stale`` lists the punched holes; the next descent
            # repairs exactly those slots in one fused vectorised pass
            # before compiling a fresh program.
            entry = FrontierRow(estimates, leaf_hits,
                                stale=repair or None)
        else:
            # The epoch dirtied nothing this query's walk ever
            # evaluated, so the walk — and with it the compiled
            # descent program — is unchanged: inherit it outright.
            entry = FrontierRow(estimates, leaf_hits,
                                program=inherited.program)
        self.frontier_put(key, entry)
        return entry

    def frontier_put(self, key: tuple, entry: "FrontierRow") -> None:
        """Store a frontier row (LRU-bounded like the base plan's cache)."""
        with self._cache_lock:
            self._frontier_cache[key] = entry
            self._frontier_cache.move_to_end(key)
            while len(self._frontier_cache) > self.frontier_cache_size:
                self._frontier_cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop the view-local caches (the base plan's are untouched)."""
        with self._cache_lock:
            self._positions.clear()
            self._frontier_cache.clear()
            self._lists = None
            self._ones = None

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
        """One-pass multi-sample over ``base ⊕ delta`` (single request).

        Bit-identical to compiling a fresh plan from the mutated tree
        and sampling it with the same RNG stream.
        """
        return descend_frontier(
            self, [DescentRequest(query, r, replacement, rng)],
            empty_threshold=empty_threshold, descent=descent,
            backend=backend,
        )[0]

    def __repr__(self) -> str:
        return (f"DeltaPlanView(backend={self.backend!r}, "
                f"nodes={self.num_nodes}, dirty={len(self.delta.words)}, "
                f"appended={len(self.delta.appended)})")
