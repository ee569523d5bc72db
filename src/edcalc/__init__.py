"""Exact essential-dimension calculator for quotients of products of odd spin groups.

Importing the package loads none of its modules.  Each public name is resolved
on first access from the module that defines it, so a command, or a caller
that needs only the ledger, never loads the rest.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "gf2": (
        "BitVec",
        "DimensionMismatchError",
        "EnumerationTooLargeError",
        "SubspaceF2",
        "annihilator",
        "count_bases",
        "rref",
    ),
    "spec": (
        "EmptySpecError",
        "GroupSpecB",
        "NotReducedError",
        "SpecFormatError",
        "diagonal_mu",
        "maximal_mu",
        "spec_from_doc",
        "spec_to_doc",
        "validate",
    ),
    "ledger": ("KnownCase", "is_small_product"),
    "core": (
        "STATUS_BOUNDS",
        "STATUS_EXACT",
        "EdResult",
        "TraceEntry",
        "compute_ed",
        "group_dim",
    ),
    "extraspecial": (
        "Certificate",
        "CertReport",
        "CliffordTuple",
        "CliffordUnit",
        "builtin_certificate",
        "certificate_from_doc",
        "certificate_to_doc",
        "verify_certificate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{module_name}", __name__)
    # bind every name of the module at once: later lookups, and tools that
    # patch the package namespace, then see plain module attributes
    for lazy in _EXPORTS[module_name]:
        globals()[lazy] = getattr(module, lazy)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
