"""Order and rank of a quotient image as computed before cosets were named by
reduced sign patterns.

Kept as a test oracle: `_quotient_rank_packed` must return the same order and
rank on every finite subgroup whose image modulo mu is abelian.  Each class modulo the
unit classes (the scalars of the subgroup with signs in mu) is named by the
least encoding of its elements, found by multiplying out every unit class.
"""

from __future__ import annotations

from typing import Iterable

from clifford_reference import CliffordTuple, sign_vector, tuple_product
from records_reference import in_span


def _encode(x: CliffordTuple) -> tuple:
    return tuple((0 if c.sign > 0 else 1, c.mask) for c in x.components)


def reference_quotient_rank(
    elements: Iterable[CliffordTuple], mu: list[int]
) -> tuple[int, int]:
    """Order and rank of the image of a finite subgroup in the quotient by mu, given by
    its reduced rows.

    The image must be abelian; this oracle does not check it.
    """
    elems = list(set(elements))
    scalars = [t for t in elems if not any(c.mask for c in t.components)]
    unit_classes = [t for t in scalars if in_span(sign_vector(t), mu)]
    order_h, rem = divmod(len(elems), len(unit_classes))
    if rem:
        raise ValueError("elements do not form a subgroup compatible with mu")

    def canon(x: CliffordTuple) -> tuple:
        return min(_encode(tuple_product(x, u)) for u in unit_classes)

    classes = {canon(x) for x in elems}
    if len(classes) != order_h:
        raise ValueError("elements do not form a subgroup compatible with mu")
    squares = {canon(tuple_product(x, x)) for x in elems}
    quotient, rem = divmod(order_h, len(squares))
    if rem or quotient & (quotient - 1):
        raise ValueError("image order divided by squares is not a power of two")
    return order_h, quotient.bit_length() - 1
