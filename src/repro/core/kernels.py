"""Vectorized kernels for the hot paths of sampling and reconstruction.

The paper's headline claims are throughput claims (Figs. 3-15): sampling
and reconstruction must beat brute force by orders of magnitude.  The
reference implementations of those hot paths are element-at-a-time Python
loops — one :func:`hashlib.md5` call per (element, salt) pair, one
Python-int modular product per element for the large-prime Simple family,
one full tree descent per query.  This module batches them into
array-shaped operations:

* :func:`md5_positions` — a NumPy implementation of single-block MD5 that
  digests a whole batch of 8-byte keys in 64 vectorised rounds (bit-exact
  with :func:`hashlib.md5`; the scalar loop survives as
  :func:`md5_positions_scalar` for golden-equivalence tests).
* :func:`simple_positions` — ``((a*x + b) mod p) mod m`` over a batch,
  with three exact regimes: plain ``uint64`` products while ``p < 2^32``,
  a vectorised shift-and-add ``mulmod`` while ``p < 2^63`` (every
  intermediate stays below ``2^64``), and object-dtype Python-int
  arithmetic beyond that.
* :func:`murmur3_positions` / :func:`murmur3_32` — the vectorised
  MurmurHash3 kernel (moved here from :mod:`repro.core.hashing` so all
  three families' kernels live side by side).
* membership kernels (:func:`membership`, :func:`membership_many`) and
  :class:`PositionCache` — one hashing pass over a leaf's candidates
  shared by every query filter in a batch.
* :func:`reconstruct_frontier` — a single level-synchronous pass over a
  BloomSampleTree serving many query filters at once: per node, one
  vectorised popcount yields every active query's intersection estimate.

A module-level switch (:func:`scalar_kernels`) forces the legacy scalar
paths so tests and benchmarks can prove the vectorised kernels bit-exact
and measure their speedup against the same code the paper's evaluation
describes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.core.bitvector import bits_at
from repro.core.cardinality import estimate_intersection_size

# --------------------------------------------------------------------------
# Kernel mode switch
# --------------------------------------------------------------------------

VECTORIZED = "vectorized"
SCALAR = "scalar"

#: Context-local so a ``scalar_kernels()`` block in one thread (a
#: benchmark baseline, a golden test) can never flip the kernels under
#: concurrently serving threads: each thread/context reads its own value
#: and falls back to the vectorized default.
_MODE: ContextVar[str] = ContextVar("repro_kernel_mode", default=VECTORIZED)


def kernel_mode() -> str:
    """The active kernel mode (``"vectorized"`` or ``"scalar"``)."""
    return _MODE.get()


def set_kernel_mode(mode: str) -> None:
    """Select the kernel implementations hash families dispatch to.

    The selection is scoped to the current thread/context (it is stored
    in a :class:`contextvars.ContextVar`); other threads — e.g. serving
    shard workers — keep their own mode.
    """
    if mode not in (VECTORIZED, SCALAR):
        raise ValueError(f"unknown kernel mode {mode!r}")
    _MODE.set(mode)


@contextmanager
def scalar_kernels():
    """Run a block with the legacy element-at-a-time kernels.

    Used by the golden-equivalence tests (vectorized vs. scalar must be
    bit-for-bit identical) and by the benchmark harness's scalar baseline.
    Context-local: concurrent threads outside the block keep the
    vectorized kernels.
    """
    token = _MODE.set(SCALAR)
    try:
        yield
    finally:
        _MODE.reset(token)


# --------------------------------------------------------------------------
# MD5: vectorised single-block digests
# --------------------------------------------------------------------------

# Round constants floor(abs(sin(i+1)) * 2^32) and per-round rotations of
# the reference algorithm (RFC 1321).
_MD5_K = np.array([
    0xD76AA478, 0xE8C7B756, 0x242070DB, 0xC1BDCEEE,
    0xF57C0FAF, 0x4787C62A, 0xA8304613, 0xFD469501,
    0x698098D8, 0x8B44F7AF, 0xFFFF5BB1, 0x895CD7BE,
    0x6B901122, 0xFD987193, 0xA679438E, 0x49B40821,
    0xF61E2562, 0xC040B340, 0x265E5A51, 0xE9B6C7AA,
    0xD62F105D, 0x02441453, 0xD8A1E681, 0xE7D3FBC8,
    0x21E1CDE6, 0xC33707D6, 0xF4D50D87, 0x455A14ED,
    0xA9E3E905, 0xFCEFA3F8, 0x676F02D9, 0x8D2A4C8A,
    0xFFFA3942, 0x8771F681, 0x6D9D6122, 0xFDE5380C,
    0xA4BEEA44, 0x4BDECFA9, 0xF6BB4B60, 0xBEBFBC70,
    0x289B7EC6, 0xEAA127FA, 0xD4EF3085, 0x04881D05,
    0xD9D4D039, 0xE6DB99E5, 0x1FA27CF8, 0xC4AC5665,
    0xF4292244, 0x432AFF97, 0xAB9423A7, 0xFC93A039,
    0x655B59C3, 0x8F0CCC92, 0xFFEFF47D, 0x85845DD1,
    0x6FA87E4F, 0xFE2CE6E0, 0xA3014314, 0x4E0811A1,
    0xF7537E82, 0xBD3AF235, 0x2AD7D2BB, 0xEB86D391,
], dtype=np.uint32)

_MD5_S = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

_MD5_A0 = np.uint32(0x67452301)
_MD5_B0 = np.uint32(0xEFCDAB89)
_MD5_C0 = np.uint32(0x98BADCFE)
_MD5_D0 = np.uint32(0x10325476)


def _rotl32(x: np.ndarray, r: int) -> np.ndarray:
    r32 = np.uint32(r)
    return (x << r32) | (x >> np.uint32(32 - r))


def md5_first_word(xs: np.ndarray, salt: bytes) -> np.ndarray:
    """First digest word of ``md5(salt || x)`` for a batch of keys.

    ``salt`` is 8 bytes and each key is ``int(x).to_bytes(8, "little")``,
    so every message is exactly 16 bytes — one padded 64-byte MD5 block.
    The returned uint32 array equals
    ``int.from_bytes(hashlib.md5(salt + key).digest()[:4], "little")``
    element-wise (the little-endian ``A`` register after the final add).
    """
    if len(salt) != 8:
        raise ValueError("salt must be 8 bytes")
    xs = np.asarray(xs, dtype=np.uint64)
    zero = np.uint32(0)
    # 64-byte block as sixteen little-endian uint32 words: the salt, the
    # key, the 0x80 padding byte, and the 128-bit message length.
    msg = [
        np.uint32(int.from_bytes(salt[0:4], "little")),
        np.uint32(int.from_bytes(salt[4:8], "little")),
        (xs & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (xs >> np.uint64(32)).astype(np.uint32),
        np.uint32(0x80),
        zero, zero, zero, zero, zero, zero, zero, zero, zero,
        np.uint32(16 * 8),
        zero,
    ]
    a = np.full(xs.shape, _MD5_A0, dtype=np.uint32)
    b = np.full(xs.shape, _MD5_B0, dtype=np.uint32)
    c = np.full(xs.shape, _MD5_C0, dtype=np.uint32)
    d = np.full(xs.shape, _MD5_D0, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
                g = i
            elif i < 32:
                f = (d & b) | (~d & c)
                g = (5 * i + 1) % 16
            elif i < 48:
                f = b ^ c ^ d
                g = (3 * i + 5) % 16
            else:
                f = c ^ (b | ~d)
                g = (7 * i) % 16
            f = f + a + _MD5_K[i] + msg[g]
            a, d, c = d, c, b
            b = b + _rotl32(f, _MD5_S[i])
        return a + _MD5_A0


#: Below this batch size the 64-round NumPy MD5 loses to the C digest
#: loop (array-op overhead dominates); both paths are bit-exact, so the
#: dispatch is purely a performance cutover (measured crossover ~400).
_MD5_VECTOR_MIN = 384


def md5_positions(xs: np.ndarray, salts: list[bytes], m: int) -> np.ndarray:
    """Vectorised MD5 bit positions: shape ``(len(xs), len(salts))``."""
    xs = np.asarray(xs, dtype=np.uint64)
    if len(xs) < _MD5_VECTOR_MIN:
        return md5_positions_scalar(xs, salts, m)
    out = np.empty((len(xs), len(salts)), dtype=np.uint64)
    m64 = np.uint64(m)
    for i, salt in enumerate(salts):
        out[:, i] = md5_first_word(xs, salt).astype(np.uint64) % m64
    return out


def md5_positions_scalar(xs: np.ndarray, salts: list[bytes],
                         m: int) -> np.ndarray:
    """Legacy scalar path: one :func:`hashlib.md5` call per (x, salt)."""
    xs = np.asarray(xs, dtype=np.uint64)
    out = np.empty((len(xs), len(salts)), dtype=np.uint64)
    for j, x in enumerate(xs.tolist()):
        key = int(x).to_bytes(8, "little")
        for i, salt in enumerate(salts):
            digest = hashlib.md5(salt + key).digest()
            out[j, i] = int.from_bytes(digest[:4], "little") % m
    return out


# --------------------------------------------------------------------------
# Simple family: exact batched modular hashing across three size regimes
# --------------------------------------------------------------------------

def _mulmod_shift_add(multiplier: int, xs: np.ndarray, p: int) -> np.ndarray:
    """``multiplier * xs mod p`` for ``p < 2^63``, all in ``uint64``.

    Classic shift-and-add: with every operand reduced mod ``p`` first,
    sums stay below ``2p < 2^64``, so no intermediate overflows.
    """
    p64 = np.uint64(p)
    result = np.zeros(xs.shape, dtype=np.uint64)
    addend = np.asarray(xs, dtype=np.uint64) % p64
    multiplier = int(multiplier) % p
    while multiplier:
        if multiplier & 1:
            result = (result + addend) % p64
        addend = (addend + addend) % p64
        multiplier >>= 1
    return result


def simple_positions(xs: np.ndarray, a: np.ndarray, b: np.ndarray,
                     p: int, m: int) -> np.ndarray:
    """Batched ``((a_i * x + b_i) mod p) mod m`` for every ``x`` and ``i``.

    Exact for any ``p``; picks the cheapest regime that cannot overflow.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    k = len(a)
    out = np.empty((len(xs), k), dtype=np.uint64)
    p64 = np.uint64(p)
    m64 = np.uint64(m)
    if p < (1 << 32):
        # After reducing x mod p both factors sit below 2^32, so the
        # product fits in uint64 directly (and the reduction is a no-op
        # on namespace elements, which are < p by construction).
        xs_mod = xs % p64
        for i in range(k):
            out[:, i] = ((np.uint64(int(a[i])) * xs_mod
                          + np.uint64(int(b[i]))) % p64) % m64
        return out
    if p < (1 << 63):
        for i in range(k):
            prod = _mulmod_shift_add(int(a[i]), xs, p)
            out[:, i] = ((prod + np.uint64(int(b[i]) % p)) % p64) % m64
        return out
    # Arbitrary precision via object dtype (Python ints, exact).
    xs_obj = xs.astype(object)
    for i in range(k):
        vals = ((int(a[i]) * xs_obj + int(b[i])) % p) % m
        out[:, i] = vals.astype(np.uint64)
    return out


def simple_positions_scalar(xs: np.ndarray, a: np.ndarray, b: np.ndarray,
                            p: int, m: int) -> np.ndarray:
    """Legacy scalar path: Python-int arithmetic, one element at a time."""
    xs = np.asarray(xs, dtype=np.uint64)
    out = np.empty((len(xs), len(a)), dtype=np.uint64)
    for j, x in enumerate(xs.tolist()):
        for i in range(len(a)):
            out[j, i] = ((int(a[i]) * x + int(b[i])) % p) % m
    return out


# --------------------------------------------------------------------------
# Murmur3: vectorised 32-bit hashing of 8-byte keys
# --------------------------------------------------------------------------

_C1 = np.uint32(0xCC9E2D51)
_C2 = np.uint32(0x1B873593)


def _fmix32(h: np.ndarray) -> np.ndarray:
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h


def murmur3_32(xs: np.ndarray, seed: int) -> np.ndarray:
    """Vectorised MurmurHash3 (x86, 32-bit) of 8-byte little-endian keys.

    Matches the reference implementation digest for
    ``int(x).to_bytes(8, "little")`` with the given seed.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k1 = (xs & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        k2 = (xs >> np.uint64(32)).astype(np.uint32)
        h = np.full(xs.shape, np.uint32(seed & 0xFFFFFFFF), dtype=np.uint32)
        for block in (k1, k2):
            kb = block * _C1
            kb = _rotl32(kb, 15)
            kb = kb * _C2
            h ^= kb
            h = _rotl32(h, 13)
            h = h * np.uint32(5) + np.uint32(0xE6546B64)
        h ^= np.uint32(8)  # total key length in bytes
        h = _fmix32(h)
    return h


def murmur3_32_int(x: int, seed: int) -> int:
    """:func:`murmur3_32` of one key, in plain Python integers.

    One element through the vectorised kernel costs dozens of NumPy
    calls per seed; single-element membership (``x in bloom_filter``)
    takes this path instead, bit-identical to the array kernel.
    """
    mask = 0xFFFFFFFF
    h = seed & mask
    for block in (x & mask, (x >> 32) & mask):
        k = (block * 0xCC9E2D51) & mask
        k = ((k << 15) | (k >> 17)) & mask
        k = (k * 0x1B873593) & mask
        h ^= k
        h = ((h << 13) | (h >> 19)) & mask
        h = (h * 5 + 0xE6546B64) & mask
    h ^= 8  # total key length in bytes
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & mask
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & mask
    h ^= h >> 16
    return h


def murmur3_positions(xs: np.ndarray, seeds: np.ndarray,
                      m: int) -> np.ndarray:
    """Vectorised Murmur3 bit positions: shape ``(len(xs), len(seeds))``."""
    xs = np.asarray(xs, dtype=np.uint64)
    out = np.empty((len(xs), len(seeds)), dtype=np.uint64)
    m64 = np.uint64(m)
    for i, seed in enumerate(seeds):
        out[:, i] = murmur3_32(xs, int(seed)).astype(np.uint64) % m64
    return out


def murmur3_positions_scalar(xs: np.ndarray, seeds: np.ndarray,
                             m: int) -> np.ndarray:
    """Scalar baseline: the same kernel driven one element at a time."""
    xs = np.asarray(xs, dtype=np.uint64)
    out = np.empty((len(xs), len(seeds)), dtype=np.uint64)
    one = np.empty(1, dtype=np.uint64)
    for j in range(len(xs)):
        one[0] = xs[j]
        for i, seed in enumerate(seeds):
            out[j, i] = int(murmur3_32(one, int(seed))[0]) % m
    return out


# --------------------------------------------------------------------------
# Membership kernels: shared hashing across batches of query filters
# --------------------------------------------------------------------------

def test_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Boolean array, same shape as ``positions``: is each bit set?"""
    return bits_at(words, positions)


def membership(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Per-element membership: every one of the ``k`` row bits set.

    ``positions`` has shape ``(n, k)`` (one hashed row per candidate);
    the result is the ``(n,)`` boolean membership vector for the filter
    whose bit words are ``words``.
    """
    if positions.size == 0:
        return np.zeros(positions.shape[0], dtype=bool)
    return test_bits(words, positions).all(axis=1)


def membership_many(words_stack: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
    """Membership of ``n`` candidates in ``Q`` filters at once.

    ``words_stack`` has shape ``(Q, W)`` (one filter's words per row) and
    ``positions`` shape ``(n, k)`` — the candidates are hashed *once* and
    tested against every filter, returning a ``(Q, n)`` boolean matrix.
    """
    if positions.size == 0:
        return np.zeros((words_stack.shape[0], positions.shape[0]),
                        dtype=bool)
    pos = np.asarray(positions, dtype=np.uint64)
    # Stacked-gather form of bitvector.bits_at: one word lookup per
    # (filter, candidate, hash) without materialising per-filter calls.
    w = words_stack[:, (pos >> np.uint64(6))]        # (Q, n, k)
    bits = (w >> (pos & np.uint64(63))) & np.uint64(1)
    return bits.astype(bool).all(axis=2)


def intersection_counts(words_stack: np.ndarray,
                        node_words: np.ndarray) -> np.ndarray:
    """Popcount of ``words_stack[q] & node_words`` for every row ``q``."""
    return np.bitwise_count(words_stack & node_words[None, :]).sum(
        axis=1, dtype=np.int64)


def intersection_estimate(t1: int, t2: int, t_and: int, m: int,
                          k: int) -> float:
    """The sampler's per-node estimate from precomputed popcounts.

    Identical semantics to
    :meth:`repro.core.bloom.BloomFilter.estimate_intersection`, but with
    ``t1`` (query popcount) and ``t2`` (node popcount) computed once per
    batch instead of once per node visit.
    """
    if t_and == 0:
        return 0.0
    return estimate_intersection_size(t1, t2, int(t_and), m, k)


#: Default bound of the (query, node) estimate memo below.  64k entries
#: of ~100 bytes each keeps the memo under ~10 MB per cache.
DEFAULT_ESTIMATE_CAP = 64 * 1024


class PositionCache:
    """Per-batch cache of leaf candidate positions and node popcounts.

    A batch of query filters descending the same tree brute-forces the
    same leaves; hashing a leaf's candidates is the dominant cost and is
    identical for every query.  One ``PositionCache`` shared across the
    batch pays it once per leaf.  The cache is ephemeral — create one per
    batched call; do not reuse across tree mutations.

    The (query, node) intersection-estimate memo is bounded: once it
    holds ``max_estimates`` entries the least recently used are evicted,
    so a cache kept alive under long-running serving traffic cannot grow
    without bound (the leaf caches are naturally bounded by the tree).

    Concurrent readers (shard workers that happen to share one cache)
    are safe: each get-or-compute holds an internal lock, so an entry is
    computed once and a partially-written dict is never observed.  The
    cached values themselves are deterministic, so even a racy duplicate
    computation could only ever produce the identical array.
    """

    def __init__(self, tree, max_estimates: int = DEFAULT_ESTIMATE_CAP):
        if max_estimates <= 0:
            raise ValueError("max_estimates must be positive")
        self.tree = tree
        self.max_estimates = int(max_estimates)
        self._candidates: dict[int, np.ndarray] = {}
        self._positions: dict[int, np.ndarray] = {}
        self._ones: dict[int, int] = {}
        self._estimates: OrderedDict[tuple[int, int], float] = OrderedDict()
        # Re-entrant: positions() computes via candidates() under the lock.
        self._lock = threading.RLock()

    def candidates(self, node) -> np.ndarray:
        """The leaf's candidate elements (cached)."""
        key = id(node)
        with self._lock:
            cached = self._candidates.get(key)
            if cached is None:
                cached = self.tree.candidate_elements(node)
                self._candidates[key] = cached
            return cached

    def positions(self, node) -> np.ndarray:
        """Hashed bit positions of the leaf's candidates (cached)."""
        key = id(node)
        with self._lock:
            cached = self._positions.get(key)
            if cached is None:
                cached = self.tree.family.positions_many(
                    self.candidates(node))
                self._positions[key] = cached
            return cached

    def ones(self, node) -> int:
        """Popcount of the node's Bloom filter (cached)."""
        key = id(node)
        with self._lock:
            cached = self._ones.get(key)
            if cached is None:
                cached = node.bloom.bits.count_ones()
                self._ones[key] = cached
            return cached

    def child_estimate(self, query, node) -> float | None:
        """A cached raw intersection estimate for (query, node), if any.

        The estimate is a pure function of the two filters, so requests
        that share a query filter (a serving batch holds many per set)
        can reuse it; thresholding/flooring policy is applied by the
        caller, per sampler.
        """
        key = (id(query), id(node))
        with self._lock:
            estimate = self._estimates.get(key)
            if estimate is not None:
                self._estimates.move_to_end(key)
            return estimate

    def set_child_estimate(self, query, node, estimate: float) -> None:
        """Store a raw intersection estimate for (query, node) (LRU-bounded)."""
        with self._lock:
            self._estimates[(id(query), id(node))] = float(estimate)
            self._estimates.move_to_end((id(query), id(node)))
            while len(self._estimates) > self.max_estimates:
                self._estimates.popitem(last=False)


# --------------------------------------------------------------------------
# Batched tree descent: one pass over the tree for many query filters
# --------------------------------------------------------------------------

def reconstruct_frontier(
    tree,
    queries,
    empty_threshold: float,
    exhaustive: bool = False,
    cache: PositionCache | None = None,
):
    """Reconstruct many query filters in one pass over the tree.

    Returns ``(parts, ops)`` where ``parts[q]`` is the list of positive
    arrays recovered for query ``q`` and ``ops[q]`` its
    :class:`~repro.core.ops.OpCounter`.  Per query, the visited-node set,
    the estimates and therefore the op counts are *identical* to running
    :class:`~repro.core.reconstruct.BSTReconstructor` sequentially — the
    pass is shared, the decisions are not.
    """
    from repro.core.ops import OpCounter

    n_queries = len(queries)
    parts: list[list[np.ndarray]] = [[] for _ in range(n_queries)]
    ops = [OpCounter() for _ in range(n_queries)]
    root = tree.root
    if root is None or n_queries == 0:
        return parts, ops

    if cache is None:
        cache = PositionCache(tree)
    words_stack = np.stack([q.bits.words for q in queries])
    t1s = [q.bits.count_ones() for q in queries]
    m = tree.family.m
    k = tree.family.k

    # Depth-first with explicit stack; each entry carries the indices of
    # the queries still active (i.e. not pruned at any ancestor).
    stack: list[tuple[object, np.ndarray]] = [
        (root, np.arange(n_queries))
    ]
    while stack:
        node, active = stack.pop()
        for q in active:
            ops[q].nodes_visited += 1
        if not exhaustive:
            t2 = cache.ones(node)
            t_ands = intersection_counts(words_stack[active],
                                         node.bloom.bits.words)
            survivors = []
            for q, t_and in zip(active, t_ands):
                ops[q].intersections += 1
                estimate = intersection_estimate(t1s[q], t2, t_and, m, k)
                if estimate >= empty_threshold:
                    survivors.append(q)
            if not survivors:
                continue
            active = np.asarray(survivors)
        if tree.is_leaf(node):
            candidates = cache.candidates(node)
            for q in active:
                ops[q].memberships += int(candidates.size)
            if candidates.size:
                hits = membership_many(words_stack[active],
                                       cache.positions(node))
                for row, q in enumerate(active):
                    positives = candidates[hits[row]]
                    if positives.size:
                        parts[q].append(positives)
            continue
        # Mirror the sequential visit order (left before right) so any
        # order-sensitive accounting matches; push right first.
        if node.right is not None:
            stack.append((node.right, active))
        if node.left is not None:
            stack.append((node.left, active))
    return parts, ops
