"""Hash families for Bloom filters: Simple, Murmur3 and MD5.

These are the three families evaluated in the paper (Table 1 / Fig. 7).
Each family bundles ``k`` independent hash functions mapping namespace
elements (non-negative integers) to bit positions in ``[0, m)``.

The *Simple* family, ``h(x) = ((a*x + b) mod p) mod m`` with ``p`` prime,
is **weakly invertible** in the paper's sense (Section 4): given a bit
position ``s`` one can enumerate every ``x`` in the namespace with
``h(x) = s`` in ``O(p / m)`` time.  This is what powers the HashInvert
baseline.  Murmur3 and MD5 are not invertible; asking them to invert raises
:class:`NotInvertibleError`.

All families provide both scalar (``positions``) and vectorised
(``positions_many``) evaluation; the vectorised paths are what make
Dictionary Attack and leaf brute-force searches tractable in pure Python.
The batch kernels themselves live in :mod:`repro.core.kernels` (which
also keeps the legacy element-at-a-time loops for golden-equivalence
testing); families dispatch according to the active kernel mode.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core import kernels
from repro.core.kernels import murmur3_32  # noqa: F401  (re-export)
from repro.utils.primes import mod_inverse, next_prime
from repro.utils.rng import ensure_rng


class NotInvertibleError(TypeError):
    """Raised when weak inversion is requested from a one-way hash family."""


class HashFamily(ABC):
    """``k`` hash functions from integers to bit positions in ``[0, m)``.

    Implementations must be deterministic given their construction
    parameters so that Bloom filters built by different components (query
    filters, tree nodes) agree bit-for-bit — the paper requires the tree and
    the query filters to share ``m`` and ``H`` (Definition 5.1).
    """

    #: short name used in experiment configs ("simple", "murmur3", "md5")
    name: str = "abstract"

    def __init__(self, k: int, m: int):
        if k <= 0:
            raise ValueError("k must be positive")
        if m <= 0:
            raise ValueError("m must be positive")
        self.k = int(k)
        self.m = int(m)

    # -- evaluation ---------------------------------------------------------

    def positions(self, x: int) -> np.ndarray:
        """The ``k`` bit positions of element ``x`` (shape ``(k,)``)."""
        return self.positions_many(np.asarray([x], dtype=np.uint64))[0]

    @abstractmethod
    def positions_many(self, xs: np.ndarray) -> np.ndarray:
        """Bit positions for a batch: shape ``(len(xs), k)`` uint64 array."""

    # -- weak inversion -------------------------------------------------------

    @property
    def invertible(self) -> bool:
        """Whether :meth:`invert` is supported."""
        return False

    def invert(self, func_index: int, position: int, namespace_size: int) -> np.ndarray:
        """All ``x < namespace_size`` with ``h_i(x) == position``.

        Only meaningful for weakly invertible families; the default raises.
        """
        raise NotInvertibleError(
            f"{type(self).__name__} hash functions cannot be inverted"
        )

    # -- plumbing -------------------------------------------------------------

    @abstractmethod
    def with_range(self, m: int) -> "HashFamily":
        """The same underlying functions re-targeted at ``m`` bit positions.

        Used by the parameter planner when it re-sizes filters: the random
        seeds/coefficients are preserved so results stay reproducible.
        """

    def is_compatible_with(self, other: "HashFamily") -> bool:
        """Whether two filters built with these families may be combined."""
        return (
            type(self) is type(other)
            and self.k == other.k
            and self.m == other.m
            and self._identity() == other._identity()
        )

    @abstractmethod
    def _identity(self) -> tuple:
        """Hashable description of the concrete functions (for equality)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, m={self.m})"


class SimpleHashFamily(HashFamily):
    """``h_i(x) = ((a_i * x + b_i) mod p) mod m`` with ``p`` prime.

    The coefficients ``a_i`` (non-zero) and ``b_i`` are drawn from a seeded
    RNG.  ``p`` is the smallest prime >= max(namespace_size, m), so that the
    map ``x -> (a*x + b) mod p`` is a bijection on ``[0, p)`` and inversion
    is exact.
    """

    name = "simple"

    def __init__(self, k: int, m: int, namespace_size: int, seed: int = 0):
        super().__init__(k, m)
        if namespace_size <= 0:
            raise ValueError("namespace_size must be positive")
        self.namespace_size = int(namespace_size)
        self.seed = int(seed)
        self.p = next_prime(max(self.namespace_size, self.m, 2))
        rng = ensure_rng(self.seed)
        self._a = rng.integers(1, self.p, size=self.k, dtype=np.int64)
        self._b = rng.integers(0, self.p, size=self.k, dtype=np.int64)
        self._a_inv = np.array(
            [mod_inverse(int(a), self.p) for a in self._a], dtype=np.int64
        )

    def positions_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.uint64)
        if kernels.kernel_mode() == kernels.SCALAR:
            return kernels.simple_positions_scalar(
                xs, self._a, self._b, self.p, self.m)
        return kernels.simple_positions(xs, self._a, self._b, self.p, self.m)

    def _positions_many_bigint(self, xs: np.ndarray) -> np.ndarray:
        """Exact element-at-a-time fallback (legacy scalar reference)."""
        return kernels.simple_positions_scalar(
            np.asarray(xs, dtype=np.uint64), self._a, self._b, self.p, self.m)

    @property
    def invertible(self) -> bool:
        return True

    def invert(self, func_index: int, position: int, namespace_size: int) -> np.ndarray:
        """Preimage of bit ``position`` under ``h_i`` within the namespace.

        ``h(x) = s`` iff ``(a*x + b) mod p in {s, s+m, s+2m, ...} < p``; each
        residue ``r`` gives ``x = a^{-1} (r - b) mod p``, kept when
        ``x < namespace_size``.  Cost ``O(p/m)``, matching the paper's
        ``O(M/m)`` bound.
        """
        if not 0 <= func_index < self.k:
            raise IndexError(func_index)
        if not 0 <= position < self.m:
            raise IndexError(position)
        a_inv = int(self._a_inv[func_index])
        b = int(self._b[func_index])
        if self.p < (1 << 32):
            # Vectorised: every intermediate fits in uint64 when p < 2^32.
            p64 = np.uint64(self.p)
            residues = np.arange(position, self.p, self.m, dtype=np.uint64)
            diff = (residues + p64 - np.uint64(b)) % p64
            xs = (np.uint64(a_inv) * diff) % p64
            xs = xs[xs < namespace_size]
            xs.sort()
            return xs
        residues = range(position, self.p, self.m)
        values = [(a_inv * (r - b)) % self.p for r in residues]
        xs = np.array([x for x in values if x < namespace_size], dtype=np.uint64)
        xs.sort()
        return xs

    def with_range(self, m: int) -> "SimpleHashFamily":
        return SimpleHashFamily(self.k, m, self.namespace_size, self.seed)

    def _identity(self) -> tuple:
        return ("simple", self.p, tuple(self._a.tolist()), tuple(self._b.tolist()))


class Murmur3HashFamily(HashFamily):
    """``k`` MurmurHash3_x86_32 functions with distinct seeds.

    Fast and well mixed; used as the mid-cost family in Fig. 7.  Not
    invertible.
    """

    name = "murmur3"

    def __init__(self, k: int, m: int, seed: int = 0):
        super().__init__(k, m)
        self.seed = int(seed)
        rng = ensure_rng(self.seed)
        self._seeds = rng.integers(0, 1 << 32, size=self.k, dtype=np.uint64)

    def positions(self, x: int) -> np.ndarray:
        x = int(x) & 0xFFFFFFFFFFFFFFFF
        return np.array([kernels.murmur3_32_int(x, int(seed)) % self.m
                         for seed in self._seeds], dtype=np.uint64)

    def positions_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.uint64)
        if kernels.kernel_mode() == kernels.SCALAR:
            return kernels.murmur3_positions_scalar(xs, self._seeds, self.m)
        return kernels.murmur3_positions(xs, self._seeds, self.m)

    def with_range(self, m: int) -> "Murmur3HashFamily":
        return Murmur3HashFamily(self.k, m, self.seed)

    def _identity(self) -> tuple:
        return ("murmur3", tuple(self._seeds.tolist()))


class MD5HashFamily(HashFamily):
    """``k`` hash functions carved out of salted MD5 digests.

    Each function ``i`` takes 4 bytes of ``md5(salt_i || x)`` modulo ``m``.
    Deliberately expensive — this is the slow family of Fig. 7 that makes
    Dictionary Attack collapse.  Not invertible.
    """

    name = "md5"

    def __init__(self, k: int, m: int, seed: int = 0):
        super().__init__(k, m)
        self.seed = int(seed)
        # One digest yields four 4-byte words; salt with the function index
        # block so any k is supported.
        self._salts = [
            (self.seed + (i << 8)).to_bytes(8, "little") for i in range(self.k)
        ]

    def positions_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.uint64)
        if kernels.kernel_mode() == kernels.SCALAR:
            return kernels.md5_positions_scalar(xs, self._salts, self.m)
        return kernels.md5_positions(xs, self._salts, self.m)

    def with_range(self, m: int) -> "MD5HashFamily":
        return MD5HashFamily(self.k, m, self.seed)

    def _identity(self) -> tuple:
        return ("md5", self.seed)


#: Names accepted by :func:`create_family` — the single source of truth
#: consumed by :class:`repro.api.config.EngineConfig` and the CLI.
FAMILY_NAMES = ("simple", "murmur3", "md5")


def create_family(
    name: str,
    k: int,
    m: int,
    namespace_size: int | None = None,
    seed: int = 0,
) -> HashFamily:
    """Factory over the family names used in experiment configs.

    ``namespace_size`` is required for the ``simple`` family (its prime
    modulus must cover the namespace) and ignored by the others.
    """
    key = name.lower()
    if key == "simple":
        if namespace_size is None:
            raise ValueError("simple hash family needs namespace_size")
        return SimpleHashFamily(k, m, namespace_size, seed)
    if key == "murmur3":
        return Murmur3HashFamily(k, m, seed)
    if key == "md5":
        return MD5HashFamily(k, m, seed)
    raise ValueError(
        f"unknown hash family {name!r} (known: {FAMILY_NAMES})")
