"""The record paths that `compute_ed` and `verify_certificate` ran before they
moved to int rows.

Kept as test oracles: `validate` must give the rows, or raise the error, of
`reference_validate`, which reads mu off the `SubspaceF2` and `BitVec` records;
and the dual that `annihilator_bits` spans must reduce to the rows of
`reference_annihilator`, which solves the free coordinates from the record's
pivots.  `support` and `in_span` read a vector's coordinates and a subspace's
members, which the records no longer do.
"""

from __future__ import annotations

from edcalc.gf2 import BitVec, rref_bits
from edcalc.spec import EmptySpecError, GroupSpecB, NotReducedError
from edcalc.subspace import SubspaceF2, mu_subspace, rref


def support(v: BitVec) -> tuple[int, ...]:
    """0-based positions of the nonzero coordinates of v, ascending."""
    return tuple(i for i in range(v.m) if v.bits >> i & 1)


def in_span(v: BitVec, space: SubspaceF2) -> bool:
    """Whether v lies in the subspace: adding it to the basis leaves the dimension."""
    return rref([*space.basis, v], space.m).dim == space.dim


def reference_validate(spec: GroupSpecB) -> SubspaceF2:
    """Reject empty specs and non-reduced groups; returns mu, mu_subspace(spec)."""
    if spec.m == 0:
        raise EmptySpecError("spec has no factors")
    mu = mu_subspace(spec)
    for v in mu.basis:
        if v.bits.bit_count() == 1:
            raise NotReducedError(v.bits.bit_length())
    return mu


def reference_annihilator(space: SubspaceF2) -> SubspaceF2:
    """Orthogonal complement under the mod-2 dot pairing."""
    pivots = {(v.bits & -v.bits).bit_length() - 1 for v in space.basis}
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
