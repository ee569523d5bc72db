"""Object arithmetic in the sign groups, as computed before the certificate
checks moved onto packed ints.

Kept as a test oracle: the packed product, square and commutator laws, the
pair check of `verify_certificate`, its failure text and its centralizer test
must agree with these functions, which work one `CliffordUnit` at a time.
`sign_vector` reads a tuple's signs as a `BitVec`, and `indices` and
`unit_text` read a unit's index set and its notation, which only the oracles need.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from edcalc import BitVec, Certificate, CliffordTuple, CliffordUnit, DimensionMismatchError
from edcalc.gf2 import rref_bits

from records_reference import in_span


def indices(u: CliffordUnit) -> tuple[int, ...]:
    """The 1-based indices of a unit's index set, ascending."""
    return tuple(i + 1 for i in range(u.dim) if (u.mask >> i) & 1)


def unit_text(u: CliffordUnit) -> str:
    """A unit in the notation of the certificate notes: -c(1,3), or 1 and -1 for scalars."""
    body = "c(" + ",".join(map(str, indices(u))) + ")" if u.mask else "1"
    return ("-" if u.sign < 0 else "") + body


def _inversions(a_mask: int, b_mask: int) -> int:
    """Number of pairs (i in A, j in B) with i > j."""
    count = 0
    b = b_mask
    while b:
        low = b & -b
        count += (a_mask >> low.bit_length()).bit_count()
        b ^= low
    return count


def unit_product(a: CliffordUnit, b: CliffordUnit) -> CliffordUnit:
    """Product of two signed even products in the same Spin(dim)."""
    if a.dim != b.dim:
        raise DimensionMismatchError("units from different ambient dimensions")
    # moving each generator of b past the larger-index generators of a costs
    # one sign flip per inversion; colliding pairs square to -1
    flips = _inversions(a.mask, b.mask)
    flips += (a.mask & b.mask).bit_count()
    sign = a.sign * b.sign * (-1 if flips % 2 else 1)
    return CliffordUnit(a.dim, a.mask ^ b.mask, sign)


def tuple_product(a: CliffordTuple, b: CliffordTuple) -> CliffordTuple:
    """Componentwise product of two tuples from the same product of sign groups."""
    if a.dims != b.dims:
        raise DimensionMismatchError("tuples from different products")
    return CliffordTuple(tuple(unit_product(x, y) for x, y in zip(a.components, b.components)))


def sign_vector(t: CliffordTuple) -> BitVec:
    """Sign pattern as a GF(2) vector: coordinate i is 1 iff component i is negative."""
    bits = 0
    for i, c in enumerate(t.components):
        if c.sign < 0:
            bits |= 1 << i
    return BitVec(len(t.components), bits)


def commutator_sign_vector(a: CliffordTuple, b: CliffordTuple) -> BitVec:
    """Sign pattern of the commutator [a, b]; depends only on the index masks."""
    bits = 0
    for i, (x, y) in enumerate(zip(a.components, b.components)):
        if (x.mask & y.mask).bit_count() % 2:
            bits |= 1 << i
    return BitVec(len(a.components), bits)


def vector_image(u: CliffordUnit) -> frozenset[int]:
    """Index set of the image in the orthogonal group; the sign is forgotten."""
    return frozenset(indices(u))


def reference_pair_failure(cert: Certificate) -> str | None:
    """The failure reason of the first generator pair whose commutator leaves mu, or None."""
    mu = rref_bits(cert.spec.mu_gens)
    for (i, a), (j, b) in combinations(enumerate(cert.generators), 2):
        sv = commutator_sign_vector(a, b)
        if not in_span(sv, mu):
            return (
                f"NonAbelianQuotient: generators {i + 1} and {j + 1} have commutator"
                f" sign pattern {sv}, outside mu"
            )
    return None


def reference_centralizer_finite(tuples: Sequence[CliffordTuple], dims: Sequence[int]) -> bool:
    """Whether the vector images, refined as frozensets of coordinates, leave only singletons."""
    for f, d in enumerate(dims):
        blocks = [frozenset(range(1, d + 1))]
        for t in tuples:
            if t.dims[f] != d:
                raise DimensionMismatchError("tuple does not match the ambient dimensions")
            image = vector_image(t.components[f])
            refined = []
            for b in blocks:
                inside, outside = b & image, b - image
                if inside:
                    refined.append(inside)
                if outside:
                    refined.append(outside)
            blocks = refined
        if any(len(b) > 1 for b in blocks):
            return False
    return True
