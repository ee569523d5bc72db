"""The record paths that `compute_ed` and `verify_certificate` ran before they
moved to int rows.

Kept as test oracles: `validate` must give the rows, or raise the error, of
`reference_validate`, which tests mu's reduced rows one at a time; and the dual
that `annihilator_bits` spans must reduce to the rows of `reference_annihilator`,
which solves the free coordinates one coordinate at a time.  `support` and
`in_span` read a vector's coordinates and whether it lies in the span of reduced
rows, which the records no longer do.
"""

from __future__ import annotations

from edcalc.gf2 import BitVec, rref_bits
from edcalc.spec import EmptySpecError, GroupSpecB, NotReducedError


def support(v: BitVec) -> tuple[int, ...]:
    """0-based positions of the nonzero coordinates of v, ascending."""
    return tuple(i for i in range(v.m) if v.bits >> i & 1)


def in_span(v: BitVec, rows: list[int]) -> bool:
    """Whether v lies in the span of reduced rows: adding it leaves their number."""
    return len(rref_bits([*rows, v.bits])) == len(rows)


def reference_validate(spec: GroupSpecB) -> list[int]:
    """Reject empty specs and non-reduced groups; returns mu's reduced rows."""
    if spec.m == 0:
        raise EmptySpecError("spec has no factors")
    mu = rref_bits(spec.mu_gens)
    for r in mu:
        if r.bit_count() == 1:
            raise NotReducedError(r.bit_length())
    return mu


def reference_annihilator(rows: list[int], m: int) -> list[int]:
    """Reduced rows of the orthogonal complement of the span of reduced rows in GF(2)^m."""
    pivots = {(r & -r).bit_length() - 1 for r in rows}
    out: list[int] = []
    for f in range(m):
        if f in pivots:
            continue
        # free coordinate f: set it to 1 and solve the pivot coordinates
        bits = 1 << f
        for r in rows:
            if (r >> f) & 1:
                bits |= r & -r
        out.append(bits)
    return rref_bits(out)
