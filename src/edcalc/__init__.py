"""Exact essential-dimension calculator for quotients of products of odd spin groups."""

from .core import (
    STATUS_BOUNDS,
    STATUS_EXACT,
    EdResult,
    EmptySpecError,
    GroupSpecB,
    KnownCase,
    NotReducedError,
    SpecFormatError,
    TraceEntry,
    compute_ed,
    diagonal_mu,
    greedy_min_basis,
    group_dim,
    is_small_product,
    known_cases,
    maximal_mu,
    spec_from_doc,
    spec_to_doc,
    validate,
)
from .gf2 import (
    BitVec,
    DimensionMismatchError,
    EnumerationTooLargeError,
    SubspaceF2,
    annihilator,
    count_bases,
    enumerate_bases,
    enumerate_elements,
    rref,
)

__version__ = "0.1.0"

__all__ = [
    "BitVec",
    "Certificate",
    "CertReport",
    "CliffordTuple",
    "CliffordUnit",
    "DimensionMismatchError",
    "EdResult",
    "EmptySpecError",
    "EnumerationTooLargeError",
    "GroupSpecB",
    "KnownCase",
    "NonAbelianQuotientError",
    "NotReducedError",
    "SpecFormatError",
    "STATUS_BOUNDS",
    "STATUS_EXACT",
    "SubspaceF2",
    "TraceEntry",
    "annihilator",
    "builtin_certificate",
    "centralizer_finite",
    "certificate_from_doc",
    "certificate_to_doc",
    "closure",
    "compute_ed",
    "count_bases",
    "diagonal_mu",
    "enumerate_bases",
    "enumerate_elements",
    "greedy_min_basis",
    "group_dim",
    "is_small_product",
    "known_cases",
    "maximal_mu",
    "quotient_rank",
    "rref",
    "spec_from_doc",
    "spec_to_doc",
    "validate",
    "verify_certificate",
]

# names of the certificate layer, resolved on first access so that importing the
# package, and the compute, table and batch commands, never load that module
_CERTIFICATE_NAMES = (
    "Certificate",
    "CertReport",
    "CliffordTuple",
    "CliffordUnit",
    "NonAbelianQuotientError",
    "builtin_certificate",
    "centralizer_finite",
    "certificate_from_doc",
    "certificate_to_doc",
    "closure",
    "quotient_rank",
    "verify_certificate",
)


def __getattr__(name: str) -> object:
    if name not in _CERTIFICATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import extraspecial

    # bind every name at once: later lookups, and tools that patch the
    # package namespace, then see plain module attributes
    for lazy in _CERTIFICATE_NAMES:
        globals()[lazy] = getattr(extraspecial, lazy)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_CERTIFICATE_NAMES))
