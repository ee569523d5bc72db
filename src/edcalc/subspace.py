"""Subspaces of GF(2)^m as records, for library callers: no command builds one.

The algorithms read a central subgroup mu and its dual as reduced int rows
(`gf2.rref_bits`, `gf2.annihilator_bits`); this module builds the same spaces
as `SubspaceF2` records of `BitVec`s, among them mu and the dual of a spec and
the diagonal and maximal mu.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ._record import _Record
from .gf2 import BitVec, DimensionMismatchError, annihilator_bits, rref_bits

if TYPE_CHECKING:
    from .spec import GroupSpecB


class SubspaceF2(_Record):
    """Subspace of GF(2)^m held as a canonical RREF basis with ascending pivots."""

    __slots__ = ("m", "basis")
    m: int
    basis: tuple[BitVec, ...]

    def __init__(self, m: int, basis: Iterable[BitVec]) -> None:
        self._fill(m, tuple(basis))
        rows = [v.bits for v in self.basis]
        if any(v.m != m for v in self.basis):
            raise DimensionMismatchError("basis vectors outside the ambient space")
        if rows != rref_bits(rows):
            raise ValueError("basis is not in reduced row echelon form")

    @classmethod
    def _from_rref(cls, m: int, rows: Iterable[int]) -> SubspaceF2:
        """Build from rows already in reduced row echelon form, without checking them."""
        space = object.__new__(cls)
        space._fill(m, tuple(BitVec(m, r) for r in rows))
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)


def rref(vectors: Iterable[BitVec], m: int | None = None) -> SubspaceF2:
    """Canonical subspace spanned by the given vectors; m is required when they are empty."""
    vectors = list(vectors)
    if m is None:
        if not vectors:
            raise ValueError("ambient dimension required for an empty spanning set")
        m = vectors[0].m
    if any(v.m != m for v in vectors):
        raise DimensionMismatchError("spanning vectors of mixed lengths")
    return SubspaceF2._from_rref(m, rref_bits(v.bits for v in vectors))


def annihilator(space: SubspaceF2) -> SubspaceF2:
    """Orthogonal complement under the mod-2 dot pairing."""
    rows = annihilator_bits([v.bits for v in space.basis], space.m)
    return SubspaceF2._from_rref(space.m, rref_bits(rows))


def mu_subspace(spec: GroupSpecB) -> SubspaceF2:
    """The central subgroup mu of a spec; its rows are the ones `validate` returns."""
    return rref(spec.mu_gens, spec.m)


def dual_subspace(spec: GroupSpecB) -> SubspaceF2:
    """Sign-character patterns orthogonal to mu under the mod-2 dot pairing."""
    return annihilator(mu_subspace(spec))


def diagonal_mu(m: int) -> SubspaceF2:
    """Central subgroup generated by the simultaneous sign flip of all factors."""
    return rref([BitVec(m, (1 << m) - 1)])


def maximal_mu(m: int) -> SubspaceF2:
    """Kernel of the product-of-signs character: all even sign patterns."""
    return annihilator(diagonal_mu(m))
