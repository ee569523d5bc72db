"""Exact arithmetic in the finite 2-subgroups of odd spin groups spanned by
signed even products of Clifford generators, and certificate verification.

A certificate names finitely many elements of a product of these groups.  When
their images in the quotient by the central subgroup mu generate a finite
abelian 2-group whose vector images have a finite common centralizer, the rank
of that abelian group is a lower bound for the essential dimension of the
quotient group described by the spec.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from ._record import _Record
from .caps import DEFAULT_ENUM_CAP
from .gf2 import BitVec, DimensionMismatchError, EnumerationTooLargeError, reduce_bits, rref_bits
from .ledger import ledger_family
from .spec import EmptySpecError, GroupSpecB, SpecFormatError, spec_from_doc, validate


class CliffordUnit(_Record):
    """Signed even product of Clifford generators: +/- c(I) inside Spin(dim).

    Indices are 1-based; index i is stored at bit i - 1 of mask.  The defining
    relations are c(i)^2 = -1 and c(i)c(j) = -c(j)c(i) for i != j, so a product
    over an even index set I is determined by I and a sign.
    """

    __slots__ = ("dim", "mask", "sign")
    dim: int
    mask: int
    sign: int

    def __init__(self, dim: int, mask: int, sign: int = 1) -> None:
        self._fill(dim, mask, sign)
        # type(x) is not int rejects bools and floats: True in (1, -1) holds
        if type(dim) is not int or dim < 1:
            raise ValueError("ambient dimension must be an integer >= 1")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if type(mask) is not int or mask < 0 or mask >> dim:
            raise ValueError("index mask must be an integer inside the ambient dimension")
        if mask.bit_count() % 2:
            raise ValueError("index set must have even cardinality")

    @classmethod
    def from_indices(cls, dim: int, indices: Iterable[int], sign: int = 1) -> CliffordUnit:
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated index in {indices}")
        mask = 0
        for i in indices:
            if not 1 <= i <= dim:
                raise ValueError(f"index {i} outside 1..{dim}")
            mask |= 1 << (i - 1)
        return cls(dim, mask, sign)


class CliffordTuple(_Record):
    """Element of a product of the sign groups, one unit per spin factor."""

    __slots__ = ("components",)
    components: tuple[CliffordUnit, ...]

    def __init__(self, components: Sequence[CliffordUnit]) -> None:
        self._fill(tuple(components))
        if not self.components:
            raise ValueError("a tuple needs at least one component")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)


# Records of fields known to be valid, set by slot setters without the constructors' checks:
# a unit takes 0.37 us against 1.06 us checked (CPython 3.11), and a certify op builds 10-40
_set_dim, _set_mask, _set_sign = (getattr(CliffordUnit, f).__set__ for f in CliffordUnit.__slots__)
_set_components = CliffordTuple.components.__set__


def _unit(dim: int, mask: int, sign: int) -> CliffordUnit:
    unit = object.__new__(CliffordUnit)
    _set_dim(unit, dim)
    _set_mask(unit, mask)
    _set_sign(unit, sign)
    return unit


def _tuple(units: tuple[CliffordUnit, ...]) -> CliffordTuple:
    t = object.__new__(CliffordTuple)
    _set_components(t, units)
    return t


class _Packing:
    """One int per element of a product of the sign groups with fixed dimensions.

    Factor i owns mask bits [o_i, o_i + d_i) of a word of W = d_0 + ... + d_{m-1}
    bits, where o_i = d_0 + ... + d_{i-1}.  Signs are kept cumulatively at the
    offsets: bit o_i of the sign word sigma is the parity of the negative signs of
    factors i, i + 1, ..., m - 1.  An element is packed as A << W | sigma.

    With S(x) the suffix parity (bit j of S(x) is the parity of the bits of x at
    j and above) and OFF the bits at the offsets, the sign laws read:

    - (A, sa) * (B, sb) = (A ^ B, sa ^ sb ^ (S(B & S(A)) & OFF));
    - the square of (A, sa) is the scalar S(A & S(A)) & OFF;
    - the commutator of (A, sa) and (B, sb) is the scalar S(A & B) & OFF.

    Moving c(j) of B past the generators of A at indices >= j costs one flip each
    (a collision squares to -1), and every factor's index set has even size, so the
    bits that higher factors contribute to S(A) cancel.
    """

    __slots__ = ("dims", "offsets", "width", "off", "prefixes", "shifts")

    def __init__(self, dims: Sequence[int]) -> None:
        self.dims = tuple(dims)
        self.offsets = tuple(accumulate(self.dims, initial=0))[:-1]
        self.width = sum(self.dims)
        self.off = sum(1 << o for o in self.offsets)
        # the sign word of a lone sign flip of factor i: the bits at offsets o_0..o_i
        self.prefixes = tuple(accumulate(1 << o for o in self.offsets))
        # x ^= x >> s for these s leaves at bit j the parity of the W bits from j up
        self.shifts = tuple(1 << i for i in range(max(self.width - 1, 0).bit_length()))

    def suffix_parity(self, x: int) -> int:
        for s in self.shifts:
            x ^= x >> s
        return x

    def square(self, a: int) -> int:
        """Sign word of the square of an element with index masks a."""
        return self.suffix_parity(a & self.suffix_parity(a)) & self.off

    def commutator(self, a: int, b: int) -> int:
        """Sign word of the commutator of elements with index masks a and b."""
        return self.suffix_parity(a & b) & self.off

    def sign_code(self, pattern: int) -> int:
        """Sign word of a sign pattern whose bit i is set when factor i is negative."""
        code = 0
        for i, prefix in enumerate(self.prefixes):
            if pattern >> i & 1:
                code ^= prefix
        return code

    def sign_pattern(self, code: int) -> int:
        """Sign pattern of a sign word: bit i is set when factor i is negative."""
        ends = self.offsets[1:] + (self.width,)
        pattern = 0
        for i, (o, end) in enumerate(zip(self.offsets, ends)):
            pattern |= ((code >> o ^ code >> end) & 1) << i
        return pattern

    def pack(self, t: CliffordTuple) -> int:
        masks = code = 0
        for c, o, prefix in zip(t.components, self.offsets, self.prefixes):
            masks |= c.mask << o
            if c.sign < 0:
                code ^= prefix
        return masks << self.width | code


def _order_bound_log2(gens: Sequence[int], packing: _Packing, commutators: Iterable[int]) -> int:
    """Exponent e with 2^e at most the order of the subgroup H the packed elements generate.

    Index masks multiply by XOR, so H maps onto the span M of the generator masks
    with the scalars of H as kernel.  The generators' squares, their commutators
    and the generators with empty masks are scalars of H, so |H| is at least
    2^(rank M + rank S0), S0 the span of their sign words.
    """
    masks = [g >> packing.width for g in gens]
    scalars = [packing.square(a) for a in masks]
    scalars += [g for g, a in zip(gens, masks) if not a]
    scalars += commutators
    return len(rref_bits(masks)) + len(rref_bits(scalars))


def _closure_packed(
    gens: Sequence[int], packing: _Packing, cap: int, commutators: Iterable[int]
) -> set[int]:
    """Subgroup generated by packed elements, by breadth-first multiplication.

    commutators holds the sign words of the generators' pairwise commutators (the
    zero ones may be left out); with them a subgroup provably larger than the cap
    is refused before the search.
    """
    # |H| <= 2^(generators + factors), so only a larger count can need the bound
    too_many = 1 << (len(gens) + len(packing.dims)) > cap
    if too_many and 1 << _order_bound_log2(gens, packing, commutators) > cap:
        raise EnumerationTooLargeError(f"closure exceeds the cap of {cap} elements")
    width, off, shifts = packing.width, packing.off, packing.shifts
    moves = [(g, g >> width) for g in gens]
    seen = {0}
    queue = deque([0])
    # the product law with a = S(A) and t = S(B & a); the suffix parities are
    # written out, not called, because this loop runs once per element and generator
    while queue:
        x = queue.popleft()
        a = x >> width
        for s in shifts:
            a ^= a >> s
        for g, b in moves:
            t = b & a
            for s in shifts:
                t ^= t >> s
            y = x ^ g ^ (t & off)
            if y not in seen:
                if len(seen) >= cap:
                    raise EnumerationTooLargeError(f"closure exceeds the cap of {cap} elements")
                seen.add(y)
                queue.append(y)
    return seen


def _quotient_rank_packed(
    elements: set[int], packing: _Packing, mu_rows: Sequence[int], masks: Iterable[int]
) -> tuple[int, int]:
    """Order and rank of the image of a packed finite subgroup in the quotient by mu.

    mu_rows is the RREF of mu's basis mapped into sign words, and masks are the
    index masks of generators of the subgroup.  The image must be abelian; the
    one caller, verify_certificate, checks that on the generators.
    """
    # the image's order is |H| over the units, the scalars of H with signs in mu;
    # a scalar is an element with an empty mask, and the rows reduce signs only
    scalar_end = 1 << packing.width
    units = sum(1 for x in elements if x < scalar_end and not reduce_bits(x, mu_rows))
    if not units or len(elements) % units:
        raise ValueError("elements do not form a subgroup compatible with mu")
    order_h = len(elements) // units
    # squaring is a homomorphism of the abelian image, so the image's squares are
    # the span of the generators' squares, which are scalars, modulo mu
    squares = rref_bits([*mu_rows, *(packing.square(a) for a in masks)])
    quotient, rem = divmod(order_h, 1 << len(squares) - len(mu_rows))
    if rem or quotient & (quotient - 1):
        raise ValueError("image order divided by squares is not a power of two")
    return order_h, quotient.bit_length() - 1


def _separated(masks: Iterable[int], blocks: list[int]) -> bool:
    """Whether the masks split each block of coordinate bits into single bits: with one block
    per factor and the generators' index masks, whether the common centralizer of the vector
    images is finite, since it is a product of orthogonal groups, one per block that the
    index sets cut out of the coordinates."""
    size = sum(b.bit_count() for b in blocks)
    for a in masks:
        split = []
        for b in blocks:
            inside = b & a
            if inside and inside != b:
                split.append(inside)
                b ^= inside
            split.append(b)
        blocks = split
    return len(blocks) == size


class Certificate(_Record):
    """Finite abelian subgroup data for a lower bound on the essential dimension."""

    __slots__ = ("spec", "generators", "note")
    spec: GroupSpecB
    generators: tuple[CliffordTuple, ...]
    note: str

    def __init__(
        self, spec: GroupSpecB, generators: Sequence[CliffordTuple], note: str = ""
    ) -> None:
        self._fill(spec, tuple(generators), note)
        if not self.generators:
            raise ValueError("a certificate needs at least one generator")
        dims = tuple(2 * r + 1 for r in spec.n)
        if any(g.dims != dims for g in self.generators):
            raise DimensionMismatchError("generator shape does not match the spec factors")


class CertReport(_Record):
    __slots__ = (
        "abelian_in_quotient",
        "subgroup_order",
        "rank",
        "centralizer_finite",
        "lower_bound",
        "failure_reason",
        "notes",
    )
    abelian_in_quotient: bool
    subgroup_order: int
    rank: int
    centralizer_finite: bool
    lower_bound: int | None
    failure_reason: str | None
    notes: tuple[str, ...]

    def __init__(
        self,
        abelian_in_quotient: bool,
        subgroup_order: int,
        rank: int,
        centralizer_finite: bool,
        lower_bound: int | None,
        failure_reason: str | None = None,
        notes: Sequence[str] = (),
    ) -> None:
        self._fill(
            abelian_in_quotient,
            subgroup_order,
            rank,
            centralizer_finite,
            lower_bound,
            failure_reason,
            tuple(notes),
        )


def verify_certificate(cert: Certificate, *, enum_cap: int = DEFAULT_ENUM_CAP) -> CertReport:
    """Check a certificate from scratch and report the lower bound it proves."""
    mu_patterns = validate(cert.spec)
    packing = _Packing(2 * r + 1 for r in cert.spec.n)
    gens = [packing.pack(g) for g in cert.generators]
    masks = [g >> packing.width for g in gens]
    mu_rows = rref_bits([packing.sign_code(r) for r in mu_patterns])

    reason = None
    commutators = []
    for (i, a), (j, b) in combinations(enumerate(masks), 2):
        commutator = packing.commutator(a, b)
        if reduce_bits(commutator, mu_rows):
            pattern = BitVec(len(packing.dims), packing.sign_pattern(commutator))
            reason = (
                f"NonAbelianQuotient: generators {i + 1} and {j + 1} have commutator"
                f" sign pattern {pattern}, outside mu"
            )
            break
        if commutator:
            commutators.append(commutator)

    abelian = reason is None
    order = rank = 0
    if abelian:
        subgroup = _closure_packed(gens, packing, enum_cap, commutators)
        order, rank = _quotient_rank_packed(subgroup, packing, mu_rows, masks)
    # the generators match the spec's dims, so every factor's block is split at once
    finite = _separated(masks, [(1 << d) - 1 << o for d, o in zip(packing.dims, packing.offsets)])
    if abelian and not finite:
        reason = (
            "centralizer not certified finite: some coordinates are not separated"
            " by the vector images"
        )
    notes = (cert.note,) if cert.note else ()
    return CertReport(abelian, order, rank, finite, rank if reason is None else None, reason, notes)


def _mask(*indices: int) -> int:
    """Index mask of distinct indices in 1..dim: index i at bit i - 1."""
    return sum(1 << i for i in indices) >> 1


def _certificate(spec: GroupSpecB, gens: tuple[CliffordTuple, ...], note: str) -> Certificate:
    cert = object.__new__(Certificate)
    cert._fill(spec, gens, note)
    return cert


def _builtin(n: tuple[int, ...], mu_rows: Sequence[int], rows: list, note: str = "") -> Certificate:
    """A built-in certificate from trusted tables: mu's RREF rows as ints, and per generator
    one code per factor, the index mask of a positive unit or ~mask of a negative one.
    """
    spec = GroupSpecB(n, mu_rows)
    dims = [2 * r + 1 for r in n]
    gens = tuple(
        _tuple(tuple([_unit(d, c, 1) if c >= 0 else _unit(d, ~c, -1) for d, c in zip(dims, row)]))
        for row in rows
    )
    return _certificate(spec, gens, note)


def diagonal_certificate(rank: int, copies: int) -> Certificate:
    """Certificate for m equal factors modulo the diagonal sign: rank m + 2n - 1."""
    n, m = rank, copies
    if ledger_family("diagonal:<n>:<m>").value_for((n,) * m) is None:
        raise ValueError(f"no built-in diagonal certificate for {m} copies of rank {n}")
    # c(i, i+1) in every factor for i = 1..2n, then a lone sign flip of each factor but the last
    rows = [[3 << i] * m for i in range(2 * n)]
    rows += [[-1 if k == l else 0 for k in range(m)] for l in range(m - 1)]
    return _builtin((n,) * m, [(1 << m) - 1], rows)


def pair_certificate(n1: int, n2: int) -> Certificate:
    """Certificate for Spin(2*n1+1) x Spin(2*n2+1) modulo the diagonal sign."""
    if (n1, n2) not in ledger_family("pair:<n1>:<n2>").table:
        raise ValueError(f"no built-in pair certificate for ranks ({n1}, {n2})")
    # in index masks, the odd run c(1, 3, ..., 4k - 1), k = ceil(n / 2), is 0b0101...01 and
    # c(2i + 1, 2i + 2) is 3 << 2i; the first factor pads its list with n2 - n1 more c(1, 2)
    run1, run2 = (((1 << 4 * ((n + 1) // 2)) - 1) // 3 for n in (n1, n2))
    first = [run1] + [3] * (n2 - n1) + [3 << 2 * i for i in range(n1)]
    rows = [[a, b] for a, b in zip(first, [run2] + [3 << 2 * i for i in range(n2)])]
    # c(I)^2 = -1 exactly when |I| = 2 mod 4, and an odd run of rank n has 2 * ceil(n / 2)
    # indices: when both or neither of the first generator's units square to -1, its
    # square lies in the diagonal mu, so the lone sign flip adds an independent order-2 element
    if (n1 + 1) // 2 % 2 == (n2 + 1) // 2 % 2:
        rows.append([0, -1])
    note = ""
    if (n1, n2) == (2, 3):
        # the generic pattern gives rank 4 here; this sign-compatible element, the
        # first hit of a search by support size that the tests rerun, raises it to 5
        rows.append([_mask(4, 5), _mask(5, 7)])
        note = (
            "extra generator (c(4,5), c(5,7)) found by search over sign-compatible elements;"
            " it raises the rank to 5"
        )
    return _builtin((n1, n2), [0b11], rows, note)


C12, C13 = _mask(1, 2), _mask(1, 3)
# the rows of Spin(3) x Spin(3) x Spin(2v+1), by v, in the codes of _builtin
SMALL3_ROWS = {
    1: [[C13, C13, C13], [C12, C12, 0], [C12, 0, C12]],
    2: [[C12, C12, _mask(2, 4)], [C13, 0, C12], [0, C13, _mask(3, 4)], [C13, C13, 0]],
    3: [[C12, C13, C12], [C12, C12, _mask(1, 3, 5, 7)], [0, C13, _mask(3, 4)],
        [C12, C13, _mask(5, 6)], [C13, 0, _mask(2, 5)]],
}  # fmt: skip


def small_triple_certificate(third_rank: int) -> Certificate:
    """Certificate for Spin(3) x Spin(3) x Spin(2*v+1) modulo all even sign patterns."""
    v = third_rank
    if (1, 1, v) not in ledger_family("small3:<v>").table:
        raise ValueError(f"no built-in small3 certificate for third factor rank {v}")
    return _builtin((1, 1, v), [0b101, 0b110], SMALL3_ROWS[v])  # all even patterns, reduced


def small_quadruple_certificate() -> Certificate:
    """Certificate for four Spin(3) factors modulo all even sign patterns."""
    rows = [[C12, C12, 0, 0], [C12, 0, C12, 0], [C12, 0, 0, C12], [-1, 0, 0, 0], [C13] * 4]
    return _builtin((1, 1, 1, 1), [0b1001, 0b1010, 0b1100], rows)  # all even patterns, reduced


def _key_number(text: str) -> int:
    """A number of a built-in key in canonical decimal: ASCII digits, no leading zero.

    int() would also read ' 1', '01', '1_0' and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError(f"{text!r} is not a number in canonical decimal")
    return int(text)


def builtin_certificate(key: str) -> Certificate:
    """Resolve a built-in certificate key such as 'diagonal:2:3' or 'small4'."""
    parts = key.split(":")
    try:
        if parts[0] == "diagonal" and len(parts) == 3:
            return diagonal_certificate(_key_number(parts[1]), _key_number(parts[2]))
        if parts[0] == "pair" and len(parts) == 3:
            return pair_certificate(_key_number(parts[1]), _key_number(parts[2]))
        if parts[0] == "small3" and len(parts) == 2:
            return small_triple_certificate(_key_number(parts[1]))
        if parts[0] == "small4" and len(parts) == 1:
            return small_quadruple_certificate()
    except ValueError as exc:
        raise ValueError(f"bad built-in certificate key {key!r}: {exc}") from exc
    raise ValueError(f"unknown built-in certificate key {key!r}")


def _doc_unit(entry: object, dim: int) -> CliffordUnit:
    """The unit a generator entry names; raises SpecFormatError naming the first fault."""
    if not isinstance(entry, dict) or not entry.keys() <= {"sign", "indices"}:
        raise SpecFormatError("generator entries must be {sign, indices} objects")
    sign = entry.get("sign", 1)
    indices = entry.get("indices", [])
    if type(sign) is int and sign in (1, -1) and isinstance(indices, list):
        mask = 0
        for i in indices:
            if type(i) is not int or not 0 < i <= dim:
                break
            mask |= 1 << i
        else:
            if mask.bit_count() == len(indices) and not len(indices) & 1:
                return _unit(dim, mask >> 1, sign)
        # an index out of range or repeated, or an odd count: from_indices names the fault
        if all(type(i) is int for i in indices):
            try:
                return CliffordUnit.from_indices(dim, indices, sign)
            except ValueError as exc:
                raise SpecFormatError(f"bad generator component: {exc}") from exc
    raise SpecFormatError("generator entries must be {sign, indices} objects with integer values")


def certificate_from_doc(doc: dict) -> Certificate:
    """Parse a certificate document; raises SpecFormatError on malformed input."""
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
        gens.append(_tuple(tuple([_doc_unit(e, d) for e, d in zip(g, dims)])))
    note = doc.get("note", "")
    if not isinstance(note, str):
        raise SpecFormatError("'note' must be a string")
    return _certificate(spec, tuple(gens), note)
