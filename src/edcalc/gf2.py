"""Exact linear algebra over GF(2) on vectors packed into Python ints, of any length."""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator

from ._record import _Record, _setattr
from .caps import DEFAULT_ENUM_CAP


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimensions."""


class EnumerationTooLargeError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def rref_bits(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of int bitsets; the pivot of a row is its lowest set bit."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & (b & -b):
                row ^= b
        if row:
            pivot = row & -row
            basis = [b ^ row if b & pivot else b for b in basis]
            basis.append(row)
            basis.sort(key=lambda b: b & -b)
    return basis


def reduce_bits(row: int, basis: Iterable[int]) -> int:
    """Reduce an int bitset by RREF rows; zero iff the row lies in their span."""
    for b in basis:
        if row & (b & -b):
            row ^= b
    return row


class BitVec(_Record):
    """Vector in GF(2)^m packed into a single int; coordinate i sits at bit i."""

    __slots__ = ("m", "bits")
    m: int
    bits: int

    # written out, not _fill: 320 vs 565 ns (CPython 3.11); compute_ed builds about d + k
    def __init__(self, m: int, bits: int = 0) -> None:
        _setattr(self, "m", m)
        _setattr(self, "bits", bits)
        # type(x) is not int rejects bools, as the spec documents do: True >= 1 holds
        if type(m) is not int or m < 1:
            raise ValueError(f"ambient dimension must be an integer >= 1, got {m!r}")
        if type(bits) is not int or bits < 0 or bits >> m:
            raise ValueError("coordinates must be an integer inside the ambient dimension")

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> BitVec:
        """Build from a 0/1 coordinate sequence."""
        coords = list(coords)
        if any(c not in (0, 1) for c in coords):
            raise ValueError("coordinates must be 0 or 1")
        bits = 0
        for i, c in enumerate(coords):
            bits |= c << i
        return cls(len(coords), bits)

    @classmethod
    def unit(cls, m: int, i: int) -> BitVec:
        """Standard basis vector with a 1 in coordinate i (0-based)."""
        if not 0 <= i < m:
            raise ValueError(f"coordinate {i} outside 0..{m - 1}")
        return cls(m, 1 << i)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.m))

    def support(self) -> tuple[int, ...]:
        """0-based positions of the nonzero coordinates, ascending."""
        return tuple(i for i in range(self.m) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        # the m-digit binary numeral lists coordinate m-1 first, so reverse it
        return "(" + ",".join(f"{self.bits:0{self.m}b}"[::-1]) + ")"


class SubspaceF2(_Record):
    """Subspace of GF(2)^m held as a canonical RREF basis with ascending pivots."""

    __slots__ = ("m", "basis")
    m: int
    basis: tuple[BitVec, ...]

    def __init__(self, m: int, basis: Iterable[BitVec]) -> None:
        self._fill(m, tuple(basis))
        rows = [v.bits for v in self.basis]
        if any(v.m != m for v in self.basis):
            raise DimensionMismatchError("basis vectors outside the ambient space")
        if rows != rref_bits(rows):
            raise ValueError("basis is not in reduced row echelon form")

    @classmethod
    def _from_rref(cls, m: int, rows: Iterable[int]) -> SubspaceF2:
        """Build from rows already in reduced row echelon form, without checking them."""
        space = object.__new__(cls)
        space._fill(m, tuple(BitVec(m, r) for r in rows))
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple((v.bits & -v.bits).bit_length() - 1 for v in self.basis)

    def contains(self, v: BitVec) -> bool:
        if v.m != self.m:
            raise DimensionMismatchError(f"vector of length {v.m} in space of dimension {self.m}")
        return reduce_bits(v.bits, (b.bits for b in self.basis)) == 0

    def __contains__(self, v: BitVec) -> bool:
        return self.contains(v)


def rref(vectors: Iterable[BitVec], m: int | None = None) -> SubspaceF2:
    """Canonical subspace spanned by the given vectors; m is required when they are empty."""
    vectors = list(vectors)
    if m is None:
        if not vectors:
            raise ValueError("ambient dimension required for an empty spanning set")
        m = vectors[0].m
    if any(v.m != m for v in vectors):
        raise DimensionMismatchError("spanning vectors of mixed lengths")
    return SubspaceF2._from_rref(m, rref_bits(v.bits for v in vectors))


def annihilator(space: SubspaceF2) -> SubspaceF2:
    """Orthogonal complement under the mod-2 dot pairing."""
    pivots = set(space.pivots())
    rows = [v.bits for v in space.basis]
    out: list[int] = []
    for f in range(space.m):
        if f in pivots:
            continue
        # free coordinate f: set it to 1 and solve the pivot coordinates
        bits = 1 << f
        for r in rows:
            if (r >> f) & 1:
                bits |= r & -r
        out.append(bits)
    return SubspaceF2._from_rref(space.m, rref_bits(out))


def count_bases(k: int) -> int:
    """Number of unordered bases of a k-dimensional space over GF(2)."""
    ordered = orderings = 1
    for i in range(k):
        ordered *= (1 << k) - (1 << i)
        orderings *= i + 1
    assert ordered % orderings == 0
    return ordered // orderings


def check_basis_count(k: int, cap: int) -> None:
    """Refuse a search over the bases of a k-dimensional space when they number more than cap."""
    total = count_bases(k)
    if total > cap:
        # a count of more than 4096 bits (k >= 67) is named by the power of two at or
        # below it: str() refuses its decimal from k = 123 on, past Python's default
        # limit of 4300 digits, and over a thousand digits tell a reader no more
        count = total if total.bit_length() <= 4096 else f"at least 2^{total.bit_length() - 1}"
        raise EnumerationTooLargeError(f"{count} bases exceed the cap of {cap}")


def enumerate_bases(
    space: SubspaceF2, cap: int = DEFAULT_ENUM_CAP, keep: Callable[[int], object] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield once, as ascending packed ints, each unordered basis of the subspace whose every
    element keep accepts (with no keep, every basis); refuses a space of more than cap bases."""
    k = space.dim
    check_basis_count(k, cap)
    # the cap bounds k: any cap below 10^23 admits k <= 9, at most 511 elements
    elems = [0]
    for v in space.basis:
        elems += [x ^ v.bits for x in elems]
    elems = sorted(filter(keep, elems[1:]))
    # index tuples come in lexicographic order; the k-subsets of full rank are the bases
    for chosen in combinations(elems, k):
        if len(rref_bits(chosen)) == k:
            yield chosen
