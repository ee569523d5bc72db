"""The greedy minimal basis as it was before it sorted one int key per pattern.

Kept as a test oracle: the greedy's keys, `core._greedy_keys`, must give the same
basis, in the same order, and the same total as `reference_greedy_min_basis` on
every dual subspace, given by its reduced rows and its number m of factors.
Elements are `BitVec`s sorted on (weight exponent, coordinate tuple);
`weight_exponent`, which the package no longer needs, lives here.
`reference_greedy_keys` lists the int key of every pattern of the dual in
sorted order: the key stream the greedy read before it walked sets of factors.
"""

from __future__ import annotations

from typing import Sequence

from edcalc.gf2 import (
    BitVec,
    DimensionMismatchError,
    EnumerationTooLargeError,
    reduce_bits,
    rref_bits,
)
from records_reference import support

# largest dimension enumerated by default: the package's cap of 2^24 patterns,
# written out here so that the oracle reads nothing of the code it checks
DIM_CAP = 24


def weight_exponent(r: BitVec, n: Sequence[int]) -> int:
    """Sum of the factor ranks over the support of r; the weight of r is 2 to this."""
    return sum(n[i] for i in support(r))


def reference_enumerate_elements(rows: list[int], m: int, dim_cap: int = DIM_CAP) -> list[BitVec]:
    """All nonzero elements of the span of independent rows in GF(2)^m; refuses when
    the rows number more than dim_cap."""
    k = len(rows)
    if k > dim_cap:
        raise EnumerationTooLargeError(
            f"subspace of dimension {k} has 2^{k} - 1 nonzero elements, cap is 2^{dim_cap}"
        )
    out: list[BitVec] = []
    cur = 0
    for counter in range(1, 1 << k):
        # Gray-code walk: one basis vector toggles per step
        cur ^= rows[(counter & -counter).bit_length() - 1]
        out.append(BitVec(m, cur))
    return out


def reference_greedy_min_basis(
    dual: list[int], m: int, n: Sequence[int], dim_cap: int = DIM_CAP
) -> tuple[tuple[BitVec, ...], int]:
    """Minimal-total-weight basis by matroid greedy; ties broken by coordinate tuple."""
    if len(n) != m:
        raise DimensionMismatchError("rank list does not match the ambient dimension")
    elems = reference_enumerate_elements(dual, m, dim_cap)
    elems.sort(key=lambda v: (weight_exponent(v, n), v.coords()))
    echelon: list[int] = []
    chosen: list[BitVec] = []
    total = 0
    for v in elems:
        if len(chosen) == len(dual):
            break
        if reduce_bits(v.bits, echelon) == 0:
            continue
        echelon = rref_bits(echelon + [v.bits])
        chosen.append(v)
        total += 1 << weight_exponent(v, n)
    return tuple(chosen), total


def reference_greedy_keys(
    dual: list[int], m: int, n: Sequence[int], dim_cap: int = DIM_CAP
) -> list[int]:
    """Greedy keys of every nonzero pattern of the dual, ascending.

    A key is the weight exponent << m plus the pattern bit-reversed (coordinate
    i at bit m-1-i), so integer order is (weight exponent, coordinate tuple).
    """
    return sorted(
        weight_exponent(v, n) << m | sum(1 << (m - 1 - i) for i in support(v))
        for v in reference_enumerate_elements(dual, m, dim_cap)
    )
