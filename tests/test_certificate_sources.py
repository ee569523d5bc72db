"""The two certificate sources, built-in keys and documents, against the object-built oracle.

Each built-in and each parsed document must equal the certificate the checked
constructors build (`certificate_reference`), `verify_certificate` must give the
report the object oracles give, and every malformed document must raise
`SpecFormatError` with the oracle reader's text.
"""

from __future__ import annotations

import copy
import json
from random import Random

import pytest

from edcalc import (
    SpecFormatError,
    builtin_certificate,
    certificate_from_doc,
    certificate_to_doc,
    verify_certificate,
)
from edcalc.ledger import ledger_family

from certificate_reference import (
    reference_builtin_certificate,
    reference_certificate_from_doc,
    reference_report,
)
from helpers import bench_workloads, random_certificate

TABLE_KEYS = [f"pair:{n1}:{n2}" for n1, n2 in ledger_family("pair:<n1>:<n2>").table]
TABLE_KEYS += [f"small3:{v}" for _, _, v in ledger_family("small3:<v>").table] + ["small4"]
DIAGONAL_KEYS = [f"diagonal:{n}:{m}" for n in range(1, 5) for m in range(2, 5)]


def assert_same_as_oracle(cert, expected):
    """Equal certificates, unit for unit, and equal reports from the packed and object checks."""
    assert cert == expected
    units = [c for g in cert.generators for c in g.components]
    assert all(type(c.dim) is type(c.mask) is type(c.sign) is int for c in units)
    assert verify_certificate(cert) == reference_report(expected)


@pytest.mark.parametrize("key", TABLE_KEYS + DIAGONAL_KEYS)
def test_builtin_certificates_equal_the_object_built_ones(key):
    assert_same_as_oracle(builtin_certificate(key), reference_builtin_certificate(key))


def test_benchmark_certificates_equal_the_object_built_ones():
    workloads = bench_workloads()
    pool = workloads.build_pool("certify", 0, workloads.load_refs())
    keys = [op["key"] for op in pool if op["op"] == "builtin"]
    texts = [op["text"] for op in pool if op["op"] == "certdoc"]
    assert len(keys) == len(texts) == 21
    for key in keys:
        assert_same_as_oracle(builtin_certificate(key), reference_builtin_certificate(key))
    for text in texts:
        cert = certificate_from_doc(json.loads(text))
        assert_same_as_oracle(cert, reference_certificate_from_doc(json.loads(text)))


def test_random_certificates_read_back_as_the_object_built_ones():
    # the seeded random certificates of test_extraspecial, through their documents
    rng = Random(1111)
    for k in range(180):
        cert = random_certificate(rng, filtered=k % 3 == 0)
        doc = certificate_to_doc(cert)
        assert reference_certificate_from_doc(doc) == cert
        assert_same_as_oracle(certificate_from_doc(doc), cert)


# the reason each of these keys is refused with, worded as the key parser has always worded it
BAD_KEYS = {
    "pair:1:6": "no built-in pair certificate for ranks (1, 6)",
    "pair:0:1": "no built-in pair certificate for ranks (0, 1)",
    "small3:4": "no built-in small3 certificate for third factor rank 4",
    "diagonal:1:1": "no built-in diagonal certificate for 1 copies of rank 1",
    "diagonal:2:0": "no built-in diagonal certificate for 0 copies of rank 2",
    "diagonal:0:2": "factor ranks must be integers >= 1",
    "pair:01:2": "'01' is not a number in canonical decimal",
}


@pytest.mark.parametrize("key", list(BAD_KEYS) + ["small4:1", "pair:1:2:3"])
def test_bad_builtin_keys_keep_their_error_text(key):
    if key in BAD_KEYS:
        expected = f"bad built-in certificate key {key!r}: {BAD_KEYS[key]}"
    else:
        expected = f"unknown built-in certificate key {key!r}"
    with pytest.raises(ValueError) as err:
        builtin_certificate(key)
    assert type(err.value) is ValueError and str(err.value) == expected


# ---- a seeded fuzz of the document reader ----


def _entry(rng, doc):
    """A random generator entry of the document and the dimension of its factor."""
    g = rng.randrange(len(doc["generators"]))
    f = rng.randrange(len(doc["generators"][g]))
    return doc["generators"][g][f], 2 * doc["spec"]["n"][f] + 1


def bad_sign(rng, doc):
    entry, _ = _entry(rng, doc)
    entry["sign"] = rng.choice([True, False, 1.0, -1.0, 2, 0, "1", None])


def bad_index_type(rng, doc):
    entry, _ = _entry(rng, doc)
    indices = entry["indices"]
    indices.insert(rng.randint(0, len(indices)), rng.choice([True, False, 1.0, 2.0, "1", None]))


def repeated_index(rng, doc):
    entry, _ = _entry(rng, doc)
    indices = entry["indices"] or [1]
    indices.insert(rng.randint(0, len(indices)), rng.choice(indices))
    entry["indices"] = indices


def index_out_of_range(rng, doc):
    entry, dim = _entry(rng, doc)
    value = rng.choice([0, -1, -rng.randint(2, 9), dim + 1, dim + rng.randint(2, 40), 1 << 70])
    entry["indices"].insert(rng.randint(0, len(entry["indices"])), value)


def odd_index_set(rng, doc):
    entry, dim = _entry(rng, doc)
    indices = entry["indices"]
    if indices and rng.getrandbits(1):
        indices.pop(rng.randrange(len(indices)))
    else:
        indices.append(rng.randint(1, dim))


def wrong_entry_count(rng, doc):
    gen = rng.choice(doc["generators"])
    if rng.getrandbits(1):
        gen.pop(rng.randrange(len(gen)))
    else:
        gen.append(copy.deepcopy(rng.choice(gen)))


def extra_key(rng, doc):
    choice = rng.randrange(4)
    if choice == 0:
        doc[rng.choice(["extra", "rank", "Note"])] = 1
    elif choice == 1:
        _entry(rng, doc)[0][rng.choice(["weight", "dim", "Sign"])] = 1
    elif choice == 2:
        del doc[rng.choice(["spec", "generators"])]
    else:
        gen = rng.choice(doc["generators"])
        gen[rng.randrange(len(gen))] = rng.choice([[1, 2], "c(1,2)", None, 1])


def non_list_generators(rng, doc):
    if rng.getrandbits(1):
        doc["generators"] = rng.choice([{}, "x", None, [], 3, {"sign": 1}])
    else:
        g = rng.randrange(len(doc["generators"]))
        doc["generators"][g] = rng.choice([{}, "x", None, 3, {"sign": 1, "indices": [1, 2]}])


def bad_note(rng, doc):
    doc["note"] = rng.choice([3, None, ["x"], {"text": "x"}, True, 1.5])


# up to two entry mutations, then at most one shape mutation, which may remove entries
ENTRY_MUTATIONS = (bad_sign, bad_index_type, repeated_index, index_out_of_range, odd_index_set)
SHAPE_MUTATIONS = (wrong_entry_count, extra_key, non_list_generators, bad_note)

# each kind of text the fuzz must meet: a whole text, or a prefix where it ends in '[' or '..'
EXPECTED_KINDS = (
    "generator entries must be {sign, indices} objects with integer values",
    "bad generator component: repeated index in [",
    "bad generator component: index 0 outside 1..",
    "bad generator component: index -1 outside 1..",
    "bad generator component: index 1180591620717411303424 outside 1..",
    "bad generator component: index set must have even cardinality",
    "each generator needs one entry per factor",
    "unknown certificate fields: [",
    "generator entries must be {sign, indices} objects",
    "certificate document needs 'spec' and 'generators'",
    "'generators' must be a non-empty list",
    "'note' must be a string",
)


def read(reader, doc):
    """The certificate a reader gives for the document, or the type and text of its error."""
    try:
        return reader(copy.deepcopy(doc))
    except Exception as exc:  # the comparison covers every exception the oracle raises
        return type(exc), str(exc)


SPEC = {"type": "B", "n": [1, 2], "mu_generators": [[1, 1]]}
EDGE_DOCS = [
    {"spec": {"type": "B", "n": []}, "generators": [[]]},  # no factors: ValueError
    {"spec": {"type": "B", "n": []}, "generators": [[], 3]},
    {"spec": {"type": "B", "n": []}, "generators": [3, []]},
    {"spec": SPEC, "generators": [[{}, {"sign": -1}]]},  # both fields may be left out
    {"spec": SPEC, "generators": [[{"indices": [3, 1]}, {"indices": [5, 2, 1, 4]}]], "note": ""},
    {"spec": SPEC, "generators": [[{"indices": [1, 2]}, {"indices": [1, 2, 2, 9]}]]},
    {"spec": SPEC, "generators": [[{"indices": [1, 2]}, {"indices": [9, 2, 7]}]]},
    {"spec": SPEC, "generators": [[{"indices": [1, 2]}, {"indices": [9, 2, 1.0]}]]},
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_edge_documents_read_as_the_oracle_reads_them(doc):
    assert read(certificate_from_doc, doc) == read(reference_certificate_from_doc, doc)


def test_malformed_documents_keep_the_readers_error_text():
    rng = Random(2929)
    keys = TABLE_KEYS + ["diagonal:1:2", "diagonal:2:3", "diagonal:3:2"]
    bases = [certificate_to_doc(reference_builtin_certificate(key)) for key in keys]
    seen = set()
    for _ in range(1500):
        doc = copy.deepcopy(rng.choice(bases))
        mutations = rng.sample(ENTRY_MUTATIONS, rng.randint(0, 2))
        mutations += rng.sample(SHAPE_MUTATIONS, 1 if not mutations else rng.randint(0, 1))
        for mutate in mutations:
            mutate(rng, doc)
        with pytest.raises(SpecFormatError) as expected:
            reference_certificate_from_doc(copy.deepcopy(doc))
        with pytest.raises(SpecFormatError) as got:
            certificate_from_doc(doc)
        assert type(got.value) is SpecFormatError
        assert str(got.value) == str(expected.value), doc
        seen.add(str(got.value))
    prefix = ("[", "..")
    missing = [
        kind for kind in EXPECTED_KINDS
        if not any(m.startswith(kind) if kind.endswith(prefix) else m == kind for m in seen)
    ]  # fmt: skip
    assert not missing, missing
