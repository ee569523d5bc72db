"""Subgroup closure as computed before elements were packed into one int each.

Kept as a test oracle: `_closure_packed` must return the same element set,
as words, and raise at the same cap, on every list of generators.  This breadth-first search
multiplies `CliffordTuple` objects with the object oracle `tuple_product`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from edcalc import EnumerationTooLargeError

from clifford_reference import CliffordTuple, CliffordUnit, tuple_product


def reference_closure(generators: Iterable[CliffordTuple], cap: int) -> frozenset[CliffordTuple]:
    """Subgroup generated by the tuples, by breadth-first multiplication."""
    # tuple_product refuses a generator of another product
    gens = list(generators)
    identity = CliffordTuple(CliffordUnit(d, 0) for d in gens[0].dims)
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
