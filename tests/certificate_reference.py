"""Certificates built as they were before the built-ins became trusted tables
and the document reader stopped building each unit through the checked
constructor.

Kept as a test oracle: `builtin_certificate` and `certificate_from_doc` must give
certificates equal to these, and the reader the same error for every document.
The reader names a spec with no factors before any generator, as
`certificate_from_doc` has done since that check moved in front.
Every unit goes through `CliffordUnit.from_indices`, every tuple through the
test-side encoder `to_word`, every certificate through its checked constructor,
and the built-in specs from the all-ones row, as mu or as its dual.
`reference_report` is the report `verify_certificate` must give, computed from
the object oracles alone.
"""

from __future__ import annotations

from edcalc import (
    CertReport,
    Certificate,
    EmptySpecError,
    GroupSpecB,
    SpecFormatError,
    spec_from_doc,
)
from edcalc.caps import DEFAULT_ENUM_CAP
from edcalc.gf2 import rref_bits
from edcalc.ledger import ledger_family

from clifford_reference import (
    CliffordTuple,
    CliffordUnit,
    reference_centralizer_finite,
    reference_pair_failure,
    sign_vector,
    to_word,
    tuple_product,
    tuples_of,
)
from closure_reference import reference_closure
from quotient_reference import reference_quotient_rank

NOT_SEPARATED = (
    "centralizer not certified finite: some coordinates are not separated by the vector images"
)


def _unit(dim: int, *indices: int, sign: int = 1) -> CliffordUnit:
    return CliffordUnit.from_indices(dim, indices, sign)


def reference_diagonal_certificate(rank: int, copies: int) -> Certificate:
    n, m = rank, copies
    if ledger_family("diagonal:<n>:<m>").value_for((n,) * m) is None:
        raise ValueError(f"no built-in diagonal certificate for {m} copies of rank {n}")
    spec = GroupSpecB.from_mu_rows((n,) * m, [[1] * m])
    dim = 2 * n + 1
    gens = [
        CliffordTuple(tuple(_unit(dim, i, i + 1) for _ in range(m))) for i in range(1, 2 * n + 1)
    ]
    for l in range(m - 1):
        signs = tuple(CliffordUnit(dim, 0, -1 if k == l else 1) for k in range(m))
        gens.append(CliffordTuple(signs))
    return Certificate(spec, map(to_word, gens))


def reference_pair_certificate(n1: int, n2: int) -> Certificate:
    if (n1, n2) not in ledger_family("pair:<n1>:<n2>").table:
        raise ValueError(f"no built-in pair certificate for ranks ({n1}, {n2})")
    spec = GroupSpecB.from_mu_rows((n1, n2), [[1, 1]])
    d1, d2 = 2 * n1 + 1, 2 * n2 + 1

    def odd_run(n: int) -> tuple[int, ...]:
        return tuple(range(1, 4 * ((n + 1) // 2), 2))

    second = [odd_run(n2)] + [(2 * i - 3, 2 * i - 2) for i in range(2, n2 + 2)]
    first = [odd_run(n1)]
    for k in range(2, n2 - n1 + 2):
        first.append((1, 2))
    for i in range(n2 - n1 + 2, n2 + 2):
        j = i + n1 - n2
        first.append((2 * j - 3, 2 * j - 2))
    gens = [CliffordTuple((_unit(d1, *a), _unit(d2, *b))) for a, b in zip(first, second)]
    # the square of the first generator, by the object product
    if sign_vector(tuple_product(gens[0], gens[0])).bits in (0, 0b11):
        gens.append(CliffordTuple((CliffordUnit(d1, 0), CliffordUnit(d2, 0, -1))))
    note = ""
    if (n1, n2) == (2, 3):
        gens.append(CliffordTuple((_unit(d1, 4, 5), _unit(d2, 5, 7))))
        note = (
            "extra generator (c(4,5), c(5,7)) found by search over sign-compatible elements;"
            " it raises the rank to 5"
        )
    return Certificate(spec, map(to_word, gens), note)


def reference_small_triple_certificate(third_rank: int) -> Certificate:
    v = third_rank
    if (1, 1, v) not in ledger_family("small3:<v>").table:
        raise ValueError(f"no built-in small3 certificate for third factor rank {v}")
    spec = GroupSpecB.from_dual_rows((1, 1, v), [[1, 1, 1]])
    d = 2 * v + 1
    if v == 1:
        rows = [
            (_unit(3, 1, 3), _unit(3, 1, 3), _unit(3, 1, 3)),
            (_unit(3, 1, 2), _unit(3, 1, 2), CliffordUnit(3, 0)),
            (_unit(3, 1, 2), CliffordUnit(3, 0), _unit(3, 1, 2)),
        ]
    elif v == 2:
        rows = [
            (_unit(3, 1, 2), _unit(3, 1, 2), _unit(d, 2, 4)),
            (_unit(3, 1, 3), CliffordUnit(3, 0), _unit(d, 1, 2)),
            (CliffordUnit(3, 0), _unit(3, 1, 3), _unit(d, 3, 4)),
            (_unit(3, 1, 3), _unit(3, 1, 3), CliffordUnit(d, 0)),
        ]
    else:
        rows = [
            (_unit(3, 1, 2), _unit(3, 1, 3), _unit(d, 1, 2)),
            (_unit(3, 1, 2), _unit(3, 1, 2), _unit(d, 1, 3, 5, 7)),
            (CliffordUnit(3, 0), _unit(3, 1, 3), _unit(d, 3, 4)),
            (_unit(3, 1, 2), _unit(3, 1, 3), _unit(d, 5, 6)),
            (_unit(3, 1, 3), CliffordUnit(3, 0), _unit(d, 2, 5)),
        ]
    return Certificate(spec, (to_word(CliffordTuple(r)) for r in rows))


def reference_small_quadruple_certificate() -> Certificate:
    spec = GroupSpecB.from_dual_rows((1, 1, 1, 1), [[1, 1, 1, 1]])
    one = CliffordUnit(3, 0)
    c12 = _unit(3, 1, 2)
    c13 = _unit(3, 1, 3)
    rows = [
        (c12, c12, one, one),
        (c12, one, c12, one),
        (c12, one, one, c12),
        (CliffordUnit(3, 0, -1), one, one, one),
        (c13, c13, c13, c13),
    ]
    return Certificate(spec, (to_word(CliffordTuple(r)) for r in rows))


def reference_builtin_certificate(key: str) -> Certificate:
    """The certificate of a valid built-in key; the key's syntax is not checked here."""
    kind, *numbers = key.split(":")
    builder = {
        "diagonal": reference_diagonal_certificate,
        "pair": reference_pair_certificate,
        "small3": reference_small_triple_certificate,
        "small4": reference_small_quadruple_certificate,
    }[kind]
    return builder(*map(int, numbers))


def reference_certificate_from_doc(doc: dict) -> Certificate:
    """Parse a certificate document, checking one entry at a time through the constructors."""
    if not isinstance(doc, dict):
        raise SpecFormatError("certificate document must be an object")
    if "spec" not in doc or "generators" not in doc:
        raise SpecFormatError("certificate document needs 'spec' and 'generators'")
    unknown = set(doc) - {"spec", "generators", "note"}
    if unknown:
        raise SpecFormatError(f"unknown certificate fields: {sorted(unknown)}")
    spec = spec_from_doc(doc["spec"])
    if not spec.n:
        raise EmptySpecError("spec has no factors")
    dims = tuple(2 * r + 1 for r in spec.n)
    raw_gens = doc["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise SpecFormatError("'generators' must be a non-empty list")
    gens = []
    for g in raw_gens:
        if not isinstance(g, list) or len(g) != len(dims):
            raise SpecFormatError("each generator needs one entry per factor")
        comps = []
        for entry, dim in zip(g, dims):
            if not isinstance(entry, dict) or set(entry) - {"sign", "indices"}:
                raise SpecFormatError("generator entries must be {sign, indices} objects")
            sign = entry.get("sign", 1)
            indices = entry.get("indices", [])
            if (
                type(sign) is not int
                or sign not in (1, -1)
                or not isinstance(indices, list)
                or any(type(i) is not int for i in indices)
            ):
                raise SpecFormatError(
                    "generator entries must be {sign, indices} objects with integer values"
                )
            try:
                comps.append(CliffordUnit.from_indices(dim, indices, sign))
            except ValueError as exc:
                raise SpecFormatError(f"bad generator component: {exc}") from exc
        gens.append(CliffordTuple(comps))
    note = doc.get("note", "")
    if not isinstance(note, str):
        raise SpecFormatError("'note' must be a string")
    return Certificate(spec, map(to_word, gens), note)


def reference_report(cert: Certificate) -> CertReport:
    """The verdict on a certificate of a valid spec, by the object oracles."""
    reason = reference_pair_failure(cert)
    tuples = tuples_of(cert)
    abelian = reason is None
    order = rank = 0
    if abelian:
        group = reference_closure(tuples, DEFAULT_ENUM_CAP)
        mu = rref_bits(cert.spec.mu_gens)
        order, rank = reference_quotient_rank(group, mu)
    finite = reference_centralizer_finite(tuples, tuples[0].dims)
    if abelian and not finite:
        reason = NOT_SEPARATED
    return CertReport(
        abelian, order, rank, finite, rank if reason is None else None, reason,
        (cert.note,) if cert.note else (),
    )
