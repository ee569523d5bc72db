"""The package's record classes: immutable values with equality, hashing, repr,
copying and the constructor checks they had as frozen dataclasses.  The sign-group
records of the test oracles, built on the same base, are sampled too: the oracles
keep them in sets and compare them."""

from __future__ import annotations

import copy
import pickle
from itertools import combinations

import pytest

import clifford_reference
import edcalc
from edcalc import (
    BitVec,
    Certificate,
    CertReport,
    DimensionMismatchError,
    EdResult,
    GroupSpecB,
    KnownCase,
    TraceEntry,
)

from clifford_reference import CliffordTuple, CliffordUnit

# c(1,2) in Spin(3) and -c(3,4) in Spin(5): masks 3 and 12 at offsets 0 and 3 above
# W = 8 bits, and the suffix parities of the signs, 1 at both offsets, below
SPEC, WORD = GroupSpecB((1, 2), (3,)), (3 | 12 << 3) << 8 | 0b1001

# each builder makes a new record, equal to but not the same object as the last
SAMPLES = {
    "BitVec": lambda: BitVec(3, 5),
    "GroupSpecB": lambda: GroupSpecB((1, 2), (3,)),
    "KnownCase": lambda: KnownCase("exact", 4, "spin3-spin5-diagonal", "Spin(3) x Spin(5)"),
    "TraceEntry": lambda: TraceEntry("dual-subspace", "dimension 1"),
    "EdResult": lambda: EdResult(
        "exact", 4, 4, (BitVec(2, 1),), 8, 13, (TraceEntry("minimal-basis-exact", "ok"),)
    ),
    "CliffordUnit": lambda: CliffordUnit(3, 3, -1),
    "CliffordTuple": lambda: CliffordTuple((CliffordUnit(3, 3), CliffordUnit(5, 12, -1))),
    "Certificate": lambda: Certificate(SPEC, (WORD,), "a note"),
    "CertReport": lambda: CertReport(True, 8, 3, True, 3, None, ("a note",)),
}

# the repr of each sample as the frozen dataclasses printed it
DATACLASS_REPR = {
    "BitVec": "BitVec(m=3, bits=5)",
    "GroupSpecB": "GroupSpecB(n=(1, 2), mu_gens=(3,))",
    "KnownCase": "KnownCase(kind='exact', value=4, tag='spin3-spin5-diagonal',"
    " description='Spin(3) x Spin(5)')",
    "TraceEntry": "TraceEntry(rule='dual-subspace', citation='dimension 1')",
    "EdResult": "EdResult(status='exact', lower=4, upper=4, minimal_basis=(BitVec(m=2, bits=1),),"
    " basis_total_weight=8, group_dim=13,"
    " trace=(TraceEntry(rule='minimal-basis-exact', citation='ok'),), warnings=())",
    "CliffordUnit": "CliffordUnit(dim=3, mask=3, sign=-1)",
    "CliffordTuple": "CliffordTuple(components=(CliffordUnit(dim=3, mask=3, sign=1),"
    " CliffordUnit(dim=5, mask=12, sign=-1)))",
    "Certificate": "Certificate(spec=GroupSpecB(n=(1, 2), mu_gens=(3,)),"
    " generators=(25353,), note='a note')",
    "CertReport": "CertReport(abelian_in_quotient=True, subgroup_order=8, rank=3,"
    " centralizer_finite=True, lower_bound=3, failure_reason=None, notes=('a note',))",
}

NAMES = list(SAMPLES)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_every_record_class_is_sampled():
    assert set(SAMPLES) == set(DATACLASS_REPR)
    assert all(type(SAMPLES[name]()).__name__ == name for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_hash_equal(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_record_never_equals_its_field_tuple(name):
    record = SAMPLES[name]()
    assert record != fields(record)
    assert fields(record) != record


def test_records_of_different_classes_differ():
    assert BitVec(2, 1) != (2, 1)
    assert (2, 1) != BitVec(2, 1)
    for a, b in combinations(NAMES, 2):
        assert SAMPLES[a]() != SAMPLES[b](), (a, b)


def test_equality_looks_at_every_field():
    assert BitVec(3, 5) != BitVec(4, 5)
    assert BitVec(3, 5) != BitVec(3, 4)
    assert TraceEntry("a", "b") != TraceEntry("a", "c")


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    record = SAMPLES[name]()
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert record == SAMPLES[name]()


# each certificate the word checks refuse, and the class of the error
WORD_CASES = {
    lambda: Certificate(SPEC, (True,)): DimensionMismatchError,
    lambda: Certificate(SPEC, (3.0,)): DimensionMismatchError,
    lambda: Certificate(SPEC, (-1,)): DimensionMismatchError,
    lambda: Certificate(SPEC, (1 << 16,)): DimensionMismatchError,  # at 2^(2W)
    lambda: Certificate(SPEC, (WORD | 0b10,)): DimensionMismatchError,  # a sign bit off the offsets
    lambda: Certificate(SPEC, (WORD, BitVec(16, WORD))): DimensionMismatchError,  # an int word
    lambda: Certificate(SPEC, (SAMPLES["CliffordTuple"](),)): DimensionMismatchError,  # no record
    lambda: Certificate(SPEC, (1 << 8,)): ValueError,  # index set {1} in the first factor
    lambda: Certificate(SPEC, (1 << 8 + 3 + 1,)): ValueError,  # index set {2} in the second factor
    lambda: Certificate(SPEC, ((1 | 1 << 3) << 8,)): ValueError,  # {1} in each: even in all
    lambda: Certificate(GroupSpecB((1,)), ()): ValueError,
}


@pytest.mark.parametrize(
    "build",
    [
        lambda: BitVec(2, 4),
        lambda: BitVec(2, -1),
        lambda: BitVec(0),
        lambda: BitVec(65, 1 << 65),
        lambda: GroupSpecB((1, 2), (4,)),
        lambda: GroupSpecB((0,)),
        lambda: EdResult("exact", 4, 5, (), 0, 0, ()),
        lambda: EdResult("exact", 4, None, (), 0, 0, ()),
        lambda: EdResult("bounds-only", 5, 4, (), 0, 0, ()),
        lambda: EdResult("bounds-only", -1, None, (), 0, 0, ()),
        lambda: EdResult("guess", 4, 4, (), 0, 0, ()),
        # bools and floats, which the spec and certificate documents reject too
        lambda: GroupSpecB((True, 2)),
        lambda: BitVec(True, True),
        lambda: BitVec(2, True),
        lambda: BitVec(True),
        lambda: BitVec(2.0, 1),
        lambda: GroupSpecB((1, 2), (True,)),
        lambda: GroupSpecB((1, 2), (BitVec(2, 3),)),  # a generator is an int pattern
        *WORD_CASES,
    ],
)
def test_constructor_checks_still_reject(build):
    with pytest.raises(WORD_CASES.get(build, ValueError)) as err:
        build()
    assert build not in WORD_CASES or type(err.value) is WORD_CASES[build]


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_text(name):
    record = SAMPLES[name]()
    assert repr(record) == DATACLASS_REPR[name]
    # the repr is also a keyword call of the constructor
    assert eval(repr(record), {**vars(edcalc), **vars(clifford_reference)}) == record


def test_defaults_and_keywords_match_the_dataclasses():
    assert BitVec(3) == BitVec(m=3, bits=0)
    assert GroupSpecB((1,)).mu_gens == ()
    assert CliffordUnit(3, 3).sign == 1
    assert EdResult("exact", 1, 1, (), 0, 0, ()).warnings == ()
    report = CertReport(False, 0, 0, False, None)
    assert (report.failure_reason, report.notes) == (None, ())
    assert Certificate(*fields(SAMPLES["Certificate"]())[:2]).note == ""


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_records(name, clone):
    record = SAMPLES[name]()
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(twin, type(twin).__slots__[0], 0)


# each pair builds one record from lists and from tuples
LIST_BUILT = {
    "GroupSpecB": (
        lambda: GroupSpecB([1, 2], [3]),
        lambda: GroupSpecB((1, 2), (3,)),
    ),
    "EdResult": (
        lambda: EdResult("bounds-only", 0, None, [BitVec(2, 1)], 4, 13, [], ["w"]),
        lambda: EdResult("bounds-only", 0, None, (BitVec(2, 1),), 4, 13, (), ("w",)),
    ),
    "CliffordTuple": (
        lambda: CliffordTuple([CliffordUnit(3, 3), CliffordUnit(3, 3)]),
        lambda: CliffordTuple((CliffordUnit(3, 3), CliffordUnit(3, 3))),
    ),
    "Certificate": (
        lambda: Certificate(GroupSpecB([1, 2], [3]), [WORD, 0]),
        lambda: Certificate(SPEC, (WORD, 0)),
    ),
    "CertReport": (
        lambda: CertReport(True, 8, 3, True, 3, None, ["a note"]),
        lambda: CertReport(True, 8, 3, True, 3, None, ("a note",)),
    ),
}


@pytest.mark.parametrize("name", list(LIST_BUILT))
def test_sequence_fields_are_stored_as_tuples(name):
    from_lists, from_tuples = (build() for build in LIST_BUILT[name])
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    for value in fields(from_lists):
        assert not isinstance(value, list)
    assert repr(from_lists) == repr(from_tuples)


def test_sequence_fields_accept_generators():
    assert GroupSpecB(r for r in (1, 2)).n == (1, 2)
    assert Certificate(SPEC, (g for g in (WORD, 0))).generators == (WORD, 0)
    with pytest.raises(ValueError):
        Certificate(GroupSpecB((1,)), (g for g in ()))
