"""The exhaustive basis search as it was before it became one loop over combinations.

Kept as a test oracle: `gf2.bases_bits` must yield the same bases, in the same
order, as `reference_enumerate_bases` on every subspace, given by its reduced rows,
and filter.  This recursion extends an echelon form one element at a time and
prunes each prefix that is already dependent.
"""

from __future__ import annotations

from typing import Callable, Iterator

from edcalc.caps import DEFAULT_ENUM_CAP
from edcalc.gf2 import (
    EnumerationTooLargeError,
    count_bases,
    reduce_bits,
    rref_bits,
)
from greedy_reference import reference_enumerate_elements


def reference_enumerate_bases(
    rows: list[int],
    m: int,
    cap: int = DEFAULT_ENUM_CAP,
    keep: Callable[[int], object] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield once each unordered basis of the span of independent rows in GF(2)^m, as
    ascending packed ints, on whose every element keep is true (with no keep, every basis);
    refuses when the count of all bases exceeds cap."""
    k = len(rows)
    total = count_bases(k)
    if total > cap:
        raise EnumerationTooLargeError(f"{total} bases exceed the cap of {cap}")
    if k == 0:
        yield ()
        return
    elems = sorted(filter(keep, (v.bits for v in reference_enumerate_elements(rows, m, k))))

    def rec(start: int, echelon: list[int], chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for idx in range(start, len(elems)):
            v = elems[idx]
            if reduce_bits(v, echelon) == 0:
                continue
            yield from rec(idx + 1, rref_bits(echelon + [v]), chosen + [v])

    yield from rec(0, [], [])
