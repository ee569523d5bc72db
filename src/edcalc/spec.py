"""Group specs: the factor ranks and central subgroup of a quotient of odd spin groups.

A spec names factor ranks n = (n_1, ..., n_m), one per Spin(2*n_i + 1) factor,
and generators of a central subgroup mu of the product of the factor centers,
as sign patterns in GF(2)^m.  This module holds the spec record, its checks,
its JSON document form, and the diagonal and maximal choices of mu.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import _Record
from .gf2 import BitVec, DimensionMismatchError, SubspaceF2, annihilator, rref, rref_bits


class SpecFormatError(ValueError):
    """A spec or certificate document is structurally malformed."""


class EmptySpecError(ValueError):
    """The spec has no factors at all."""


class NotReducedError(ValueError):
    """Some factor is split off by mu, so the group is not reduced."""

    def __init__(self, factor: int):
        self.factor = factor
        super().__init__(
            f"factor {factor} splits off as a direct factor"
            " (its unit sign pattern lies in the span of the mu generators)"
        )


class GroupSpecB(_Record):
    """Quotient of a product of odd spin groups Spin(2*n_i + 1) by a central 2-group."""

    __slots__ = ("n", "mu_gens")
    n: tuple[int, ...]
    mu_gens: tuple[BitVec, ...]

    def __init__(self, n: Sequence[int], mu_gens: Sequence[BitVec] = ()) -> None:
        self._fill(tuple(n), tuple(mu_gens))
        if any(not isinstance(r, int) or isinstance(r, bool) or r < 1 for r in self.n):
            raise ValueError("factor ranks must be integers >= 1")
        if any(v.m != self.m for v in self.mu_gens):
            raise DimensionMismatchError("mu generators must have one coordinate per factor")

    @classmethod
    def from_mu_rows(cls, n: Sequence[int], rows: Iterable[Sequence[int]]) -> GroupSpecB:
        """Build from 0/1 coordinate rows generating mu."""
        n = tuple(n)
        return cls(n, tuple(BitVec.from_coords(pad_row(row, len(n))) for row in rows))

    @classmethod
    def from_dual_rows(cls, n: Sequence[int], rows: Iterable[Sequence[int]]) -> GroupSpecB:
        """Build from 0/1 coordinate rows generating the dual subspace; mu is its annihilator."""
        n = tuple(n)
        dual = rref([BitVec.from_coords(pad_row(row, len(n))) for row in rows], len(n))
        return cls(n, annihilator(dual).basis)

    @property
    def m(self) -> int:
        return len(self.n)

    def mu_subspace(self) -> SubspaceF2:
        return rref(self.mu_gens, self.m)

    def dual_subspace(self) -> SubspaceF2:
        """Sign-character patterns orthogonal to mu under the mod-2 dot pairing."""
        return annihilator(self.mu_subspace())


def pad_row(row: Sequence[int], m: int) -> Sequence[int]:
    if len(row) != m:
        raise DimensionMismatchError(f"row of length {len(row)} for {m} factors")
    return row


def validate(spec: GroupSpecB) -> list[int]:
    """Reject empty specs and non-reduced groups; returns the int rows of spec.mu_subspace()."""
    if spec.m == 0:
        raise EmptySpecError("spec has no factors")
    rows = rref_bits([v.bits for v in spec.mu_gens])
    # a unit pattern lies in mu iff it is one of mu's reduced rows, and the rows
    # come in pivot order, so the first unit row names the lowest such factor
    for r in rows:
        if not r & r - 1:
            raise NotReducedError(r.bit_length())
    return rows


def diagonal_mu(m: int) -> SubspaceF2:
    """Central subgroup generated by the simultaneous sign flip of all factors."""
    return rref([BitVec(m, (1 << m) - 1)])


def maximal_mu(m: int) -> SubspaceF2:
    """Kernel of the product-of-signs character: all even sign patterns."""
    return annihilator(diagonal_mu(m))


def spec_to_doc(spec: GroupSpecB) -> dict:
    """JSON-ready document for a group spec."""
    return {
        "type": "B",
        "n": list(spec.n),
        "mu_generators": [list(v.coords()) for v in spec.mu_gens],
    }


def spec_from_doc(doc: object) -> GroupSpecB:
    """Parse a spec document; raises SpecFormatError on malformed input.

    Exactly one of 'mu_generators' and 'r_generators' may be present; the
    latter gives generators of the dual subspace instead of mu.  With neither,
    mu is trivial.
    """
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be an object")
    if doc.get("type") != "B":
        raise SpecFormatError("spec document must have type 'B'")
    unknown = set(doc) - {"type", "n", "mu_generators", "r_generators"}
    if unknown:
        raise SpecFormatError(f"unknown spec fields: {sorted(unknown)}")
    n = doc.get("n")
    if not isinstance(n, list) or any(not isinstance(r, int) or isinstance(r, bool) for r in n):
        raise SpecFormatError("'n' must be a list of integers")
    if "mu_generators" in doc and "r_generators" in doc:
        raise SpecFormatError("'mu_generators' and 'r_generators' are mutually exclusive")

    def rows_of(key: str) -> list[list[int]]:
        rows = doc.get(key, [])
        if not isinstance(rows, list) or any(
            not isinstance(row, list)
            or len(row) != len(n)
            # type(c) is int rejects bools and floats: 1.0 in (0, 1) holds
            or any(type(c) is not int or c not in (0, 1) for c in row)
            for row in rows
        ):
            raise SpecFormatError(f"'{key}' must be a list of 0/1 rows of length {len(n)}")
        return rows

    if "r_generators" in doc:
        return GroupSpecB.from_dual_rows(n, rows_of("r_generators"))
    return GroupSpecB.from_mu_rows(n, rows_of("mu_generators"))
