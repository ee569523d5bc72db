"""Subgroup closure as computed before elements were packed into one int each.

Kept as a test oracle: `_closure_packed` must return the same element set,
packed, and raise at the same cap, on every list of generators.  This breadth-first search
multiplies `CliffordTuple` objects with the object oracle `tuple_product`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from edcalc import CliffordTuple, CliffordUnit, DimensionMismatchError, EnumerationTooLargeError

from clifford_reference import tuple_product


def reference_closure(generators: Iterable[CliffordTuple], cap: int) -> frozenset[CliffordTuple]:
    """Subgroup generated by the tuples, by breadth-first multiplication."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    dims = gens[0].dims
    if any(g.dims != dims for g in gens):
        raise DimensionMismatchError("generators from different products")
    identity = CliffordTuple(tuple(CliffordUnit(d, 0) for d in dims))
    seen = {identity}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple_product(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise EnumerationTooLargeError(f"closure exceeds the cap of {cap} elements")
                seen.add(y)
                queue.append(y)
    return frozenset(seen)
