"""Group specs: the factor ranks and central subgroup of a quotient of odd spin groups.

A spec names factor ranks n = (n_1, ..., n_m), one per Spin(2*n_i + 1) factor,
and generators of a central subgroup mu of the product of the factor centers,
as sign patterns in GF(2)^m.  This module holds the spec record, its checks
and its reader from a JSON document.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import _Record
from .gf2 import DimensionMismatchError, annihilator_bits, rref_bits


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
    mu_gens: tuple[int, ...]  # as given, not reduced: sign patterns, coordinate i at bit i

    def __init__(self, n: Sequence[int], mu_gens: Sequence[int] = ()) -> None:
        self._fill(tuple(n), tuple(mu_gens))
        if any(not isinstance(r, int) or isinstance(r, bool) or r < 1 for r in self.n):
            raise ValueError("factor ranks must be integers >= 1")
        if any(type(g) is not int or g < 0 or g >> self.m for g in self.mu_gens):
            raise DimensionMismatchError("mu generators must be int patterns of one bit per factor")

    @classmethod
    def from_mu_rows(cls, n: Sequence[int], rows: Iterable[Sequence[int]]) -> GroupSpecB:
        """Build from 0/1 coordinate rows generating mu; with no factors no row is read."""
        n = tuple(n)
        gens = []
        for row in rows if n else ():
            if len(row) != len(n):
                raise DimensionMismatchError(f"row of length {len(row)} for {len(n)} factors")
            if any(c not in (0, 1) for c in row):
                raise ValueError("coordinates must be 0 or 1")
            gens.append(sum(c << i for i, c in enumerate(row)))
        return cls(n, gens)

    @classmethod
    def from_dual_rows(cls, n: Sequence[int], rows: Iterable[Sequence[int]]) -> GroupSpecB:
        """Build from 0/1 coordinate rows generating the dual subspace; mu is its annihilator."""
        n = tuple(n)
        dual = rref_bits(cls.from_mu_rows(n, rows).mu_gens)
        return cls(n, rref_bits(annihilator_bits(dual, len(n))))

    @property
    def m(self) -> int:
        return len(self.n)


def validate(spec: GroupSpecB) -> list[int]:
    """Reject empty specs and non-reduced groups; returns mu's reduced int rows."""
    if spec.m == 0:
        raise EmptySpecError("spec has no factors")
    rows = rref_bits(spec.mu_gens)
    # a unit pattern lies in mu iff it is one of mu's reduced rows, and the rows
    # come in pivot order, so the first unit row names the lowest such factor
    for r in rows:
        if not r & r - 1:
            raise NotReducedError(r.bit_length())
    return rows


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
