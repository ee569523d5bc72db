"""Exact essential-dimension calculator for quotients of products of odd spin groups.

Importing the package loads none of its modules.  Each public name is resolved
on first access from the module that defines it, so a command, or a caller
that needs only the ledger, never loads the rest.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name, in the order of __all__, and the module that defines it
_MODULE_OF = {
    "BitVec": "gf2",
    "DimensionMismatchError": "gf2",
    "EnumerationTooLargeError": "gf2",
    "count_bases": "gf2",
    "EmptySpecError": "spec",
    "GroupSpecB": "spec",
    "NotReducedError": "spec",
    "SpecFormatError": "spec",
    "spec_from_doc": "spec",
    "spec_to_doc": "documents",
    "validate": "spec",
    "KnownCase": "ledger",
    "is_small_product": "ledger",
    "STATUS_BOUNDS": "core",
    "STATUS_EXACT": "core",
    "EdResult": "core",
    "TraceEntry": "core",
    "compute_ed": "core",
    "group_dim": "core",
    "Certificate": "extraspecial",
    "CertReport": "extraspecial",
    "CliffordTuple": "extraspecial",
    "CliffordUnit": "extraspecial",
    "builtin_certificate": "extraspecial",
    "certificate_from_doc": "extraspecial",
    "certificate_to_doc": "documents",
    "verify_certificate": "extraspecial",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{module_name}", __name__)
    # bind every name of the module at once: later lookups, and tools that
    # patch the package namespace, then see plain module attributes
    for lazy, defined_in in _MODULE_OF.items():
        if defined_in == module_name:
            globals()[lazy] = getattr(module, lazy)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
