"""Seeded inputs, stored reference answers and answer checks for the edcalc benchmark.

Inputs depend only on the seed and on data stored in ``refs.json``; the
program under test receives the generated spec and certificate documents and
nothing else.  The compute workloads draw one base pool of specs (seed
``BASE_SEED``) and the run's seed relabels it: it permutes the factors and
recombines the mu generators, which changes the documents but not the answers
or the amount of work, so every seed costs about the same.  Every op has a
known answer: the stored reference of its base spec, or for cli specs a stored
reference when the spec was generated by one of ``REF_SEEDS`` and otherwise the
invariants in ``check_compute_invariants``.  The certify workload's derived
documents are likewise fixed and the seed reorders their generators; their
answers follow from the built-in certificate each is derived from.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_PATH = BENCH_DIR / "refs.json"

WORKLOADS = ("compute-large", "compute-small-bounds", "certify", "cli")
REF_SEEDS = range(20)
BASE_SEED = 0
CAP_WARNINGS = frozenset({"element-cap-exceeded", "basis-cap-exceeded"})

C1_DOC = {"type": "B", "n": [1, 2, 3, 7], "mu_generators": [[1, 1, 0, 0], [1, 0, 1, 0]]}

# compute-large: (dual dimension k, mu dimension d); factor ranks 7..12 keep every
# answer exact.  The counts per k put p50 in the middle of the k = 13 group and
# p90 in the middle of the k = 15 group, and d varies least in those two groups,
# so both percentiles stay away from a jump; the other slots spread d over 0..10.
LARGE_SHAPES = (
    (11, 0), (11, 5), (11, 10),
    (12, 2), (12, 6), (12, 9),
    (13, 3), (13, 4), (13, 4), (13, 5), (13, 5), (13, 6), (13, 6), (13, 7),
    (14, 0), (14, 5), (14, 10),
    (15, 6), (15, 6),
    (16, 4),
)  # fmt: skip

# compute-small-bounds: (mu kind, factors m, dual dimension k, copies); ranks 1..3.
# Dual dimension 5 costs about 2 s of exhaustive basis search, dimension 6 is
# refused by the basis cap, dimensions <= 4 cost at most tens of milliseconds.
# The cheap and middle groups hold p50, the dimension-4 group holds p90, and the
# two dimension-5 specs hold most of the time.
SMALL_SHAPES = (
    ("maximal", 3, 1, 3), ("maximal", 4, 1, 2), ("diagonal", 2, 1, 2),
    ("diagonal", 3, 2, 1), ("random", 3, 2, 2),
    ("diagonal", 4, 3, 8), ("random", 4, 3, 12), ("random", 5, 3, 10),
    ("diagonal", 7, 6, 4), ("random", 7, 6, 6),
    ("diagonal", 5, 4, 3), ("random", 5, 4, 5),
    ("diagonal", 6, 5, 1), ("random", 6, 5, 1),
)  # fmt: skip

# certify: built-in keys, each also the base of one derived document.  The
# diagonal keys reach image order 2^10; every pair, small3 and small4 key is here.
CERT_KEYS = (
    "diagonal:1:2", "diagonal:1:3", "diagonal:1:5", "diagonal:1:7",
    "diagonal:2:2", "diagonal:2:3", "diagonal:2:5",
    "diagonal:3:2", "diagonal:3:3", "diagonal:3:4",
    "diagonal:4:2", "diagonal:4:3",
    "pair:1:2", "pair:1:3", "pair:1:4", "pair:1:5", "pair:2:3",
    "small3:1", "small3:2", "small3:3", "small4",
)  # fmt: skip
# derived document kind by base index; fixed so that a pass costs the same for every seed
DOC_KINDS = ("equivalent", "non-abelian", "equivalent", "infinite-centralizer")

CLI_CERT_KEYS = ("small3:1", "pair:1:3", "diagonal:1:3")
CLI_BATCH_FILES = 4


# ---- GF(2) elimination on int rows, independent of the package ----


def span_basis(rows) -> list[int]:
    """Independent rows spanning the same space, with distinct leading bits, descending."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def reduce_row(r: int, basis: list[int]) -> int:
    for b in basis:
        r = min(r, r ^ b)
    return r


def is_reduced(m: int, mu_rows) -> bool:
    """No unit sign pattern lies in mu: the check ``edcalc.validate`` makes."""
    basis = span_basis(mu_rows)
    return m > 0 and all(reduce_row(1 << i, basis) for i in range(m))


def bits_of(coords) -> int:
    return sum(c << i for i, c in enumerate(coords))


def coords_of(bits: int, m: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(m)]


def spec_doc(n, mu_rows) -> dict:
    return {"type": "B", "n": list(n), "mu_generators": [coords_of(r, len(n)) for r in mu_rows]}


def spec_key(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dual_dim(doc: dict) -> int:
    return len(doc["n"]) - len(span_basis(bits_of(r) for r in doc["mu_generators"]))


# ---- seeded, reduced-only spec generators ----


def random_mu(rng: Random, m: int, d: int) -> list[int]:
    rows: list[int] = []
    basis: list[int] = []
    while len(rows) < d:
        r = rng.getrandbits(m)
        if reduce_row(r, basis):
            rows.append(r)
            basis = span_basis(rows)
    return rows


def large_spec(rng: Random, k: int, d: int) -> dict:
    m = k + d
    while True:
        n = [rng.randint(7, 12) for _ in range(m)]
        mu = random_mu(rng, m, d)
        if is_reduced(m, mu):
            return spec_doc(n, mu)


def small_spec(rng: Random, kind: str, m: int, k: int) -> dict:
    """Reduced spec with ranks 1..3 whose minimal basis needs the upper-bound search.

    Random mu leaves some rank-1 factor orthogonal to mu, and diagonal mu has two
    rank-1 factors and another rank; either way the first greedy vector has a
    small factor product and no exact ledger rule applies, so the search (or the
    basis cap) always runs.  Two-factor diagonal and maximal specs stay as drawn.
    """
    full = (1 << m) - 1
    while True:
        n = [rng.randint(1, 3) for _ in range(m)]
        if kind == "diagonal":
            mu = [full]
            forced = m == 2 or (n.count(1) >= 2 and n.count(1) < m)
        elif kind == "maximal":
            mu = [1 | (1 << i) for i in range(1, m)]
            forced = True
        else:
            mu = random_mu(rng, m, m - k)
            used = 0
            for r in mu:
                used |= r
            forced = any(n[i] == 1 and not (used >> i) & 1 for i in range(m))
        if forced and is_reduced(m, mu):
            return spec_doc(n, mu)


def cli_spec(rng: Random) -> dict:
    """Cheap reduced spec for one CLI op: at most 8 factors, dual dimension at most 3."""
    while True:
        m = rng.randint(2, 8)
        k = rng.randint(1, min(3, m))
        n = [rng.randint(1, 9) for _ in range(m)]
        mu = random_mu(rng, m, m - k)
        if is_reduced(m, mu):
            return spec_doc(n, mu)


def workload_rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


def relabel(rng: Random, doc: dict) -> dict:
    """The same group with its factors permuted and its mu generators recombined.

    The answer keeps its status, bounds and total weight; the minimal basis is
    permuted, or another one of the same total where weights tie.  The work is
    the same up to the order in which elements and bases are visited.
    """
    n = doc["n"]
    perm = list(range(len(n)))
    rng.shuffle(perm)
    rows = [bits_of(r) for r in doc["mu_generators"]]
    rows = [sum(((r >> p) & 1) << j for j, p in enumerate(perm)) for r in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and rng.getrandbits(1):
                rows[i] ^= rows[j]
    rng.shuffle(rows)
    return spec_doc([n[p] for p in perm], rows)


# ---- certificate documents derived from built-ins ----


def _unit_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Product of signed even Clifford products (sign, mask): one flip per inversion or collision."""
    (sa, ma), (sb, mb) = a, b
    flips = (ma & mb).bit_count()
    rest = mb
    while rest:
        low = rest & -rest
        flips += (ma >> low.bit_length()).bit_count()
        rest ^= low
    return sa * sb * (-1 if flips & 1 else 1), ma ^ mb


def _to_units(gen: list[dict]) -> list[tuple[int, int]]:
    return [(e["sign"], sum(1 << (i - 1) for i in e["indices"])) for e in gen]


def _from_units(units: list[tuple[int, int]]) -> list[dict]:
    return [
        {"sign": s, "indices": [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]}
        for s, mask in units
    ]


def derive_certificate(rng: Random, base: dict, kind: str) -> dict:
    """A document whose verdict follows from the base certificate's.

    equivalent: generators permuted, one replaced by its product with another,
    and one multiplied by a sign pattern in mu; the image in the quotient is the
    same group.  non-abelian: one generator appended whose commutator with an
    existing one is a unit sign pattern, outside mu because the spec is reduced.
    infinite-centralizer: one factor's rank raised by one, so two new coordinates
    are never separated while the group itself is unchanged.
    """
    spec = json.loads(json.dumps(base["spec"]))
    gens = [_to_units(g) for g in base["generators"]]
    m = len(spec["n"])
    if kind == "equivalent":
        rng.shuffle(gens)
        if len(gens) > 1:
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = [_unit_mul(a, b) for a, b in zip(gens[i], gens[j])]
        mu_rows = [bits_of(r) for r in spec["mu_generators"]]
        flip = 0
        while mu_rows and not flip:
            for r in mu_rows:
                if rng.getrandbits(1):
                    flip ^= r
        i = rng.randrange(len(gens))
        gens[i] = [(-s if (flip >> f) & 1 else s, mask) for f, (s, mask) in enumerate(gens[i])]
    elif kind == "non-abelian":
        choices = [(g, f) for g in range(len(gens)) for f in range(m) if gens[g][f][1]]
        g, f = rng.choice(choices)
        mask = gens[g][f][1]
        dim = 2 * spec["n"][f] + 1
        inside = [i for i in range(dim) if (mask >> i) & 1]
        outside = [i for i in range(dim) if not (mask >> i) & 1]
        extra = [(1, 0)] * m
        extra[f] = (1, (1 << rng.choice(inside)) | (1 << rng.choice(outside)))
        gens.insert(rng.randrange(len(gens) + 1), extra)
    elif kind == "infinite-centralizer":
        spec["n"][rng.randrange(m)] += 1
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    return {"spec": spec, "generators": [_from_units(g) for g in gens]}


def expected_for(kind: str, base_report: dict) -> dict:
    if kind == "equivalent":
        return dict(base_report)
    if kind == "non-abelian":
        return {"abelian": False, "finite": base_report["finite"], "lower_bound": None}
    return {**base_report, "finite": False, "lower_bound": None}


# ---- pools: one pass of ops, in a seed-determined order ----


def base_specs(workload: str) -> list[dict]:
    """The compute workload's specs before relabelling; the same for every seed."""
    rng = workload_rng(workload, BASE_SEED)
    if workload == "compute-large":
        return [large_spec(rng, k, d) for k, d in LARGE_SHAPES]
    return [
        small_spec(rng, kind, m, k) for kind, m, k, copies in SMALL_SHAPES for _ in range(copies)
    ]


def build_pool(workload: str, seed: int, refs: dict) -> list[dict]:
    rng = workload_rng(workload, seed)
    if workload in ("compute-large", "compute-small-bounds"):
        return [
            {"op": "compute", "doc": relabel(rng, base), "base": base}
            for base in base_specs(workload)
        ]
    if workload == "certify":
        # derived documents are fixed, like the compute base specs, because their
        # closures differ in size; the seed only reorders their generators
        base_rng = workload_rng(workload, BASE_SEED)
        pool = []
        for i, key in enumerate(CERT_KEYS):
            report = refs["builtins"][key]["report"]
            pool.append({"op": "builtin", "key": key, "label": key, "expect": report})
            kind = DOC_KINDS[i % len(DOC_KINDS)]
            doc = derive_certificate(base_rng, refs["builtins"][key]["doc"], kind)
            rng.shuffle(doc["generators"])
            pool.append(
                {"op": "certdoc", "label": f"{kind}<{key}>", "text": json.dumps(doc),
                 "expect": expected_for(kind, report)}
            )  # fmt: skip
        return pool
    if workload == "cli":
        return cli_pool(rng, refs)
    raise ValueError(f"unknown workload {workload!r}")


def cli_pool(rng: Random, refs: dict) -> list[dict]:
    """One process per op; each 'doc' and 'batch' is written to a temporary directory before timing.

    A compute op reads its spec from the file its last argument names.
    """
    specs = [cli_spec(rng) for _ in range(3)]
    batch = {f"spec{i}.json": cli_spec(rng) for i in range(CLI_BATCH_FILES)}
    ops = [
        {"args": ["compute", "--json", "c1.json"], "check": "compute-json", "doc": C1_DOC},
        {"args": ["compute", "c1.json"], "check": "compute-text", "doc": C1_DOC},
        {"args": ["compute", "--json", "s0.json"], "check": "compute-json", "doc": specs[0]},
        {"args": ["compute", "s1.json"], "check": "compute-text", "doc": specs[1]},
        {"args": ["compute", "--json", "s2.json"], "check": "compute-json", "doc": specs[2]},
        {"args": ["table", "--json"], "check": "table-json"},
        {"args": ["batch", "--json", "batch"], "check": "batch-json", "batch": batch},
    ]
    for i, key in enumerate(CLI_CERT_KEYS):
        fmt = ["--json"] if i % 2 == 0 else []
        ops.append(
            {"args": ["certify", *fmt, f"builtin:{key}"],
             "check": "certify-json" if fmt else "certify-text",
             "expect": refs["builtins"][key]["report"]}
        )  # fmt: skip
    for op in ops:
        op["op"] = "cli"
    return ops


def compute_docs(workload: str, seed: int, refs: dict) -> list[dict]:
    """Every spec document the workload computes, for reference generation."""
    pool = build_pool(workload, seed, refs)
    docs = [op.get("base", op.get("doc")) for op in pool if "doc" in op]
    for op in pool:
        docs.extend(op.get("batch", {}).values())
    return docs


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---- answers and checks ----


def answer_from_doc(doc: dict) -> dict:
    """Answer fields of a compute report (``--json`` form); trace text is ignored."""
    return {
        "status": doc["status"],
        "lower": doc["lower"],
        "upper": doc["upper"],
        "basis": [bits_of(v) for v in doc["minimal_basis"]],
        "total": doc["basis_total_weight"],
        "group_dim": doc["group_dim"],
        "capped": bool(CAP_WARNINGS & set(doc["warnings"])),
    }


def answer_from_result(result) -> dict:
    """Answer fields of an in-process ``EdResult``."""
    return {
        "status": result.status,
        "lower": result.lower,
        "upper": result.upper,
        "basis": [v.bits for v in result.minimal_basis],
        "total": result.basis_total_weight,
        "group_dim": result.group_dim,
        "capped": bool(CAP_WARNINGS & set(result.warnings)),
    }


def answer_from_text(text: str) -> dict:
    """Answer fields parsed from the default text report of ``edcalc compute``."""
    fields: dict[str, str] = {}
    warnings = []
    for line in text.splitlines():
        if line.startswith("warning: "):
            warnings.append(line[len("warning: ") :])
        elif not line.startswith(" ") and ": " in line:
            key, _, value = line.partition(": ")
            fields.setdefault(key, value)
    basis_text = fields["minimal basis"]
    basis = []
    if basis_text != "(not computed)":
        for vec in basis_text.split("), ("):
            basis.append(bits_of(int(c) for c in vec.strip("()").split(",")))
    upper = fields["upper bound"]
    return {
        "status": fields["status"].split(",")[0],
        "lower": int(fields["lower bound"]),
        "upper": None if upper == "unknown" else int(upper),
        "basis": basis,
        "total": int(fields["basis total weight"]),
        "group_dim": int(fields["group dimension"]),
        "capped": bool(CAP_WARNINGS & set(warnings)),
    }


def report_answer(report) -> dict:
    """Verdict fields of a certificate report, from a ``CertReport`` or its JSON form."""
    get = report.get if isinstance(report, dict) else lambda k: getattr(report, k)
    return {
        "abelian": get("abelian_in_quotient"),
        "order": get("subgroup_order"),
        "rank": get("rank"),
        "finite": get("centralizer_finite"),
        "lower_bound": get("lower_bound"),
    }


def report_from_text(text: str) -> dict:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    lower = next((ln for ln in text.splitlines() if ln.startswith("lower bound ")), None)
    return {
        "abelian": fields["abelian in quotient"] == "yes",
        "order": int(fields["subgroup order"]),
        "rank": int(fields["rank"]),
        "finite": fields["centralizer finite"] == "yes",
        "lower_bound": int(lower.split()[-1]) if lower else None,
    }


def check_certificate(got: dict, expect: dict) -> str | None:
    """None when the verdict matches; order and rank only count for abelian images."""
    keys = ("abelian", "finite", "lower_bound") + (("order", "rank") if expect["abelian"] else ())
    bad = [k for k in keys if got.get(k) != expect[k]]
    return f"certificate verdict differs on {bad}: got {got}, expected {expect}" if bad else None


def check_compute_invariants(doc: dict, ans: dict) -> str | None:
    """Checks that need no reference: bounds order, the basis and its weight."""
    n = doc["n"]
    m = len(n)
    gdim = sum(2 * r * r + r for r in n)
    if ans["status"] not in ("exact", "bounds-only"):
        return f"unknown status {ans['status']!r}"
    if ans["group_dim"] != gdim:
        return f"group dimension {ans['group_dim']} != {gdim}"
    if ans["lower"] < 0 or (ans["upper"] is not None and ans["upper"] < ans["lower"]):
        return f"bounds out of order: {ans['lower']} .. {ans['upper']}"
    if ans["status"] == "exact" and ans["upper"] != ans["lower"]:
        return "exact answer with unequal bounds"
    basis = ans["basis"]
    if not basis:
        return None if ans["capped"] else "empty basis without a cap warning"
    mu = [bits_of(r) for r in doc["mu_generators"]]
    if len(basis) != m - len(span_basis(mu)) or len(span_basis(basis)) != len(basis):
        return "minimal basis is not a basis of the dual subspace"
    if any((v & r).bit_count() & 1 for v in basis for r in mu):
        return "minimal basis vector not orthogonal to mu"
    total = sum(1 << sum(n[i] for i in range(m) if (v >> i) & 1) for v in basis)
    if ans["total"] != total:
        return f"basis total weight {ans['total']} != {total}"
    if ans["lower"] < max(0, total - gdim):
        return "lower bound below the weight-formula bound"
    return None


def check_compute(doc: dict, ans: dict, refs: dict, base: dict | None = None) -> str | None:
    """None when the answer agrees with the stored reference, or with the invariants if none.

    ``base`` is the spec ``doc`` was relabelled from; its reference holds for
    ``doc`` except for the basis, which the invariants check instead.  Exact
    references must match exactly.  Bounds-only answers may tighten: the lower
    bound may rise and the upper bound may fall or appear.
    """
    problem = check_compute_invariants(doc, ans)
    if problem is not None:
        return problem
    base = doc if base is None else base
    ref = refs["specs"].get(spec_key(base))
    if ref is None:
        return None
    same = ("total", "group_dim") + (("basis",) if base == doc else ())
    if ref["status"] == "exact":
        same += ("status", "lower", "upper")
    bad = [k for k in same if ans[k] != ref[k]]
    if ans["lower"] < ref["lower"]:
        bad.append("lower")
    if ref["upper"] is not None and (ans["upper"] is None or ans["upper"] > ref["upper"]):
        bad.append("upper")
    return f"answer differs from reference on {bad}: got {ans}, expected {ref}" if bad else None


def table_answer(doc: dict) -> dict:
    """Answer fields of ``edcalc table --json``: the lists and values, not their prose."""
    return {
        "small_products": doc["small_products"],
        "known_cases": sorted([row["tag"], row["kind"], row["value"]] for row in doc["known_cases"]),
        "builtin_keys": sorted(row["key"] for row in doc["builtin_certificates"]),
    }
