"""The known-case ledger registry: same answers as the hand-written rules, and
every declared lower bound is the verified rank of its built-in certificate."""

from __future__ import annotations

from itertools import product
from random import Random

import pytest

from edcalc import GroupSpecB, builtin_certificate, verify_certificate
from edcalc.ledger import LEDGER, known_case_of_rows

from helpers import mu_rows
from ledger_reference import reference_known_cases


def known_case(spec):
    """The ledger's entry for a spec, read off the reduced rows of its mu, split or not."""
    return known_case_of_rows(mu_rows(spec), spec.m, spec.n)


def grid_specs():
    """Ranks 1..6 on up to four factors, under trivial, diagonal and maximal mu."""
    for m in range(1, 5):
        for n in product(range(1, 7), repeat=m):
            yield GroupSpecB(n)
            yield GroupSpecB.from_mu_rows(n, [[1] * m])
            yield GroupSpecB.from_dual_rows(n, [[1] * m])


def random_specs(count: int, seed: int):
    """Small ranks and random mu generators, some of them redundant."""
    rng = Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        n = tuple(rng.randint(1, 4) for _ in range(m))
        yield GroupSpecB(n, [rng.getrandbits(m) for _ in range(rng.randint(0, m + 1))])


def test_registry_matches_reference_rules_on_grid():
    specs = list(grid_specs())
    assert len(specs) == 3 * sum(6**m for m in range(1, 5))
    matched = 0
    for spec in specs:
        expected = reference_known_cases(spec)
        assert known_case(spec) == expected, spec
        matched += expected is not None
    assert matched > 50


def test_registry_matches_reference_rules_on_random_mu():
    matched = 0
    for spec in random_specs(3000, seed=31337):
        expected = reference_known_cases(spec)
        assert known_case(spec) == expected, spec
        matched += expected is not None
    assert matched > 40


def test_registry_reaches_every_tag():
    cases = (known_case(spec) for spec in grid_specs())
    tags = {case.tag for case in cases if case is not None}
    assert tags == {fam.tag for fam in LEDGER}


def certificate_claims():
    """(built-in key, declared value) for every lower family of the registry.

    Table families name one certificate per rank tuple.  The diagonal formula
    family is checked for every certificate of order at most 2^8.
    """
    for fam in LEDGER:
        if fam.kind != "lower":
            continue
        assert fam.certificate
        if not fam.table:
            for n, m in product(range(1, 5), range(2, 9)):
                value = fam.value_for((n,) * m)
                if value is not None and value <= 8:
                    key = fam.certificate.replace("<n>", str(n)).replace("<m>", str(m))
                    yield key, value
            continue
        for ranks, value in fam.table.items():
            key = fam.certificate
            for name, r in (("<n1>", ranks[0]), ("<n2>", ranks[-1]), ("<v>", ranks[-1])):
                key = key.replace(name, str(r))
            yield key, value


CLAIMS = list(certificate_claims())


def test_claims_cover_every_builtin_key():
    keys = {key for key, _ in CLAIMS}
    assert {"pair:1:2", "pair:1:3", "pair:1:4", "pair:1:5", "pair:2:3"} <= keys
    assert {"small3:1", "small3:2", "small3:3", "small4"} <= keys
    assert {"diagonal:1:2", "diagonal:1:7", "diagonal:2:5", "diagonal:3:3"} <= keys


@pytest.mark.parametrize("key,value", CLAIMS)
def test_declared_lower_bound_is_certificate_rank(key, value):
    cert = builtin_certificate(key)
    report = verify_certificate(cert)
    assert report.rank == report.lower_bound == value
    # the certificate is for a spec the family itself matches
    case = known_case(cert.spec)
    assert case is not None and case.value >= value
