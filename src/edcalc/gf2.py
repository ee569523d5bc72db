"""Exact linear algebra over GF(2) on vectors packed into Python ints, of any length."""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from ._record import _Record, _setattr


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimensions."""


class EnumerationTooLargeError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def rref_bits(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of int bitsets, pivot = lowest set bit; one final sort by pivot."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & (b & -b):
                row ^= b
        if row:
            pivot = row & -row
            basis = [b ^ row if b & pivot else b for b in basis]
            basis.append(row)
    basis.sort(key=lambda b: b & -b)  # the reduction above reads the pivots in any order
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

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.m))

    def __str__(self) -> str:
        # the m-digit binary numeral lists coordinate m-1 first, so reverse it
        return "(" + ",".join(f"{self.bits:0{self.m}b}"[::-1]) + ")"


def annihilator_bits(rows: Sequence[int], m: int) -> list[int]:
    """A basis of the orthogonal complement in GF(2)^m of the span of RREF rows, not
    reduced: one vector per free coordinate f, with f set and the pivots solved for it."""
    pivots = [(r & -r, r) for r in rows]
    free = (1 << m) - 1 - sum([p for p, _ in pivots])
    out = []
    while free:
        f = free & -free
        free ^= f
        bits = f
        for p, r in pivots:
            if r & f:
                bits |= p
        out.append(bits)
    return out


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
    # the count is 2^(k(k-1)/2) times the product of (2^j - 1)/j over j = 1..k, so at least
    # that power, which refuses a cap below it without the product: seconds once k is in the
    # thousands.  From k = 67 on the count has over 4096 bits and is named by a power of two
    # at or below it: str() refuses its decimal from k = 123 on, past Python's default
    # limit of 4300 digits, and over a thousand digits tell a reader no more
    power = k * (k - 1) // 2
    if k > 66 and cap.bit_length() <= power:
        raise EnumerationTooLargeError(f"at least 2^{power} bases exceed the cap of {cap}")
    total = count_bases(k)
    if total > cap:
        count = total if k <= 66 else f"at least 2^{total.bit_length() - 1}"
        raise EnumerationTooLargeError(f"{count} bases exceed the cap of {cap}")


def bases_bits(rows: Sequence[int], cap: int, keep: Callable | None) -> Iterator[tuple]:
    """Yield once, as ascending packed ints, each unordered basis of the span of independent
    rows whose every element keep accepts (with no keep, every basis); refuses over cap bases."""
    k = len(rows)
    check_basis_count(k, cap)
    # the cap bounds k: any cap below 10^23 admits k <= 9, at most 511 elements
    elems = [0]
    for r in rows:
        elems += [x ^ r for x in elems]
    elems = sorted(filter(keep, elems[1:]))
    # index tuples come in lexicographic order; the k-subsets of full rank are the bases
    for chosen in combinations(elems, k):
        if len(rref_bits(chosen)) == k:
            yield chosen
