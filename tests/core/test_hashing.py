"""Tests for the three hash families, including weak inversion."""

import hashlib

import numpy as np
import pytest

from repro.core.hashing import (
    MD5HashFamily,
    Murmur3HashFamily,
    NotInvertibleError,
    SimpleHashFamily,
    create_family,
    murmur3_32,
)
from repro.core.kernels import murmur3_32_int

M = 1_024
NAMESPACE = 10_000


def reference_murmur3_32(key: bytes, seed: int) -> int:
    """Straight-line reference MurmurHash3 x86_32 for cross-checking."""
    c1, c2 = 0xCC9E2D51, 0x1B873593
    mask = 0xFFFFFFFF
    h = seed & mask
    assert len(key) % 4 == 0
    for i in range(0, len(key), 4):
        k = int.from_bytes(key[i:i + 4], "little")
        k = (k * c1) & mask
        k = ((k << 15) | (k >> 17)) & mask
        k = (k * c2) & mask
        h ^= k
        h = ((h << 13) | (h >> 19)) & mask
        h = (h * 5 + 0xE6546B64) & mask
    h ^= len(key)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & mask
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & mask
    h ^= h >> 16
    return h


class TestMurmurReference:
    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF])
    def test_matches_reference(self, seed):
        xs = np.array([0, 1, 2, 12345, 2 ** 40 + 17, 2 ** 63], dtype=np.uint64)
        ours = murmur3_32(xs, seed)
        for x, h in zip(xs.tolist(), ours.tolist()):
            expected = reference_murmur3_32(int(x).to_bytes(8, "little"), seed)
            assert h == expected, (x, seed)
            assert murmur3_32_int(int(x), seed) == expected, (x, seed)


class TestFamilyBasics:
    @pytest.mark.parametrize("name", ["simple", "murmur3", "md5"])
    def test_positions_in_range(self, name):
        family = create_family(name, 3, M, namespace_size=NAMESPACE, seed=1)
        xs = np.arange(0, 200, dtype=np.uint64)
        positions = family.positions_many(xs)
        assert positions.shape == (200, 3)
        assert positions.max() < M

    @pytest.mark.parametrize("name", ["simple", "murmur3", "md5"])
    def test_scalar_matches_batch(self, name):
        family = create_family(name, 3, M, namespace_size=NAMESPACE, seed=1)
        xs = np.array([7, 99, 12345 % NAMESPACE], dtype=np.uint64)
        batch = family.positions_many(xs)
        for i, x in enumerate(xs.tolist()):
            np.testing.assert_array_equal(family.positions(int(x)), batch[i])

    @pytest.mark.parametrize("name", ["simple", "murmur3", "md5"])
    def test_deterministic_across_instances(self, name):
        a = create_family(name, 3, M, namespace_size=NAMESPACE, seed=5)
        b = create_family(name, 3, M, namespace_size=NAMESPACE, seed=5)
        xs = np.arange(50, dtype=np.uint64)
        np.testing.assert_array_equal(a.positions_many(xs),
                                      b.positions_many(xs))
        assert a.is_compatible_with(b)

    @pytest.mark.parametrize("name", ["simple", "murmur3", "md5"])
    def test_seeds_differ(self, name):
        a = create_family(name, 3, M, namespace_size=NAMESPACE, seed=1)
        b = create_family(name, 3, M, namespace_size=NAMESPACE, seed=2)
        xs = np.arange(50, dtype=np.uint64)
        assert not np.array_equal(a.positions_many(xs), b.positions_many(xs))
        assert not a.is_compatible_with(b)

    def test_with_range_preserves_functions(self):
        family = create_family("simple", 3, M, namespace_size=NAMESPACE, seed=3)
        wider = family.with_range(4 * M)
        assert wider.m == 4 * M
        assert wider.k == family.k
        # Same coefficients: re-narrowing gives back an equal family.
        again = wider.with_range(M)
        assert family.is_compatible_with(again)

    def test_functions_are_distinct(self):
        family = create_family("murmur3", 3, M, namespace_size=NAMESPACE,
                               seed=0)
        xs = np.arange(100, dtype=np.uint64)
        pos = family.positions_many(xs)
        assert not np.array_equal(pos[:, 0], pos[:, 1])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            create_family("simple", 0, M, namespace_size=NAMESPACE)
        with pytest.raises(ValueError):
            create_family("murmur3", 3, 0)
        with pytest.raises(ValueError):
            create_family("nope", 3, M)
        with pytest.raises(ValueError):
            create_family("simple", 3, M)  # namespace_size missing


class TestSimpleInversion:
    def test_inversion_is_exact_preimage(self):
        family = SimpleHashFamily(3, M, NAMESPACE, seed=11)
        xs = np.arange(NAMESPACE, dtype=np.uint64)
        positions = family.positions_many(xs)
        for i in range(family.k):
            for target in [0, 1, M // 2, M - 1]:
                expected = np.flatnonzero(positions[:, i] == target)
                got = family.invert(i, target, NAMESPACE)
                np.testing.assert_array_equal(got, expected.astype(np.uint64))

    def test_inversion_respects_namespace_bound(self):
        family = SimpleHashFamily(2, 64, 1000, seed=2)
        preimage = family.invert(0, 10, 100)
        assert (preimage < 100).all()

    def test_inversion_bounds_checked(self):
        family = SimpleHashFamily(2, 64, 1000, seed=2)
        with pytest.raises(IndexError):
            family.invert(2, 0, 1000)
        with pytest.raises(IndexError):
            family.invert(0, 64, 1000)

    def test_invertible_flags(self):
        assert SimpleHashFamily(2, 64, 100).invertible
        assert not Murmur3HashFamily(2, 64).invertible
        assert not MD5HashFamily(2, 64).invertible

    def test_one_way_families_raise(self):
        with pytest.raises(NotInvertibleError):
            Murmur3HashFamily(2, 64).invert(0, 1, 100)
        with pytest.raises(NotInvertibleError):
            MD5HashFamily(2, 64).invert(0, 1, 100)

    def test_bigint_path_matches_small(self):
        """The object-dtype fallback must agree with the uint64 fast path."""
        family = SimpleHashFamily(3, M, NAMESPACE, seed=4)
        xs = np.arange(0, 500, dtype=np.uint64)
        fast = family.positions_many(xs)
        slow = family._positions_many_bigint(xs)
        np.testing.assert_array_equal(fast, slow)


class TestMD5:
    def test_md5_uses_real_digests(self):
        family = MD5HashFamily(2, M, seed=0)
        x = 12345
        positions = family.positions(x)
        for i in range(2):
            salt = (0 + (i << 8)).to_bytes(8, "little")
            digest = hashlib.md5(salt + x.to_bytes(8, "little")).digest()
            expected = int.from_bytes(digest[:4], "little") % M
            assert positions[i] == expected

    def test_md5_supports_many_functions(self):
        family = MD5HashFamily(6, M, seed=1)
        pos = family.positions(99)
        assert len(pos) == 6
        assert len(set(pos.tolist())) > 1
