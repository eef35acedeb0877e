"""Seeded request generators for the four benchmark workloads.

A workload is a fixed list of request classes with a fixed count each; a seed
draws one instance per slot.  The requests depend only on ``(workload, seed)``,
so the same seed always yields byte-identical documents, and every seed has
the same class mix, which keeps the percentiles inside a class rather than on
a class boundary.

Families with a known closed-form answer are drawn freshly from the seed and
carry what the checker needs in ``expect``.  Families without one (non-generic
Fuchsian tuples of rank >= 3, most unramified tuples, the rigidity table) are
drawn from fixed pools whose verdict bytes are recorded in ``refs.json``; the
seed only picks which pool entries a run uses.

This module imports nothing from ``dskit``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Callable

SCHEMA = "ds-kit/1"
BUDGET_CAP = 3  # node budget of the budget-capped requests


# ---------------------------------------------------------------------------
# Requests and canonical JSON.
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One CLI invocation.  ``argv`` holds ``{doc}`` and ``{out}`` placeholders
    for the document file and the DOT output file the worker assigns."""

    command: str
    argv: list[str]
    doc: dict[str, Any] | None
    payload: dict[str, Any]  # canonical inputs the verdict digest covers
    family: str  # selects the checker
    series: str  # scaling-series class label
    expect: dict[str, Any] = field(default_factory=dict)
    reference: str = "independent"  # or "regression"

    def ref_key(self) -> str:
        """Key of the recorded verdict for this request without ``--budget``."""
        args = []
        skip = False
        for a in self.argv:
            if skip:
                skip = False
                continue
            if a == "--budget":
                skip = True
                continue
            args.append(a)
        blob = canonical({"argv": args, "doc": self.doc})
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> dict[str, Any]:
        d = asdict(self)
        d["ref_key"] = self.ref_key()
        return d


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 over the canonical serialization, as the ds-kit/1 schema defines."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def sc(re: Fraction | int, im: Fraction | int = 0) -> list[int]:
    re, im = Fraction(re), Fraction(im)
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def orbit(n: int, blocks: list[tuple[tuple[Fraction, Fraction], tuple[int, ...]]]) -> dict:
    """Orbit document with blocks sorted by (re, im), the canonical order."""
    blocks = sorted(blocks, key=lambda b: b[0])
    return {
        "n": n,
        "blocks": [{"eig": sc(*e), "partition": list(p)} for e, p in blocks],
    }


def semisimple(eigs: list[tuple[Fraction, Fraction]]) -> dict:
    return orbit(len(eigs), [(e, (1,)) for e in eigs])


def _is_int(x: tuple[Fraction, Fraction]) -> bool:
    return x[0].denominator == 1 and x[1] == 0


def _nonresonant(eigs: list[tuple[Fraction, Fraction]]) -> bool:
    for a, b in itertools.combinations(eigs, 2):
        d = (a[0] - b[0], a[1] - b[1])
        if d == (0, 0) or _is_int(d):
            return False
    return True


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csum(xs):
    t = (Fraction(0), Fraction(0))
    for x in xs:
        t = _add(t, x)
    return t


# ---------------------------------------------------------------------------
# Fuchsian tuples.
# ---------------------------------------------------------------------------


def _draw_eig(rng: random.Random, den: int = 17, im_share: float = 0.2):
    re = Fraction(rng.randrange(-2 * den, 2 * den + 1), den)
    im = Fraction(rng.randrange(-3, 4), den) if rng.random() < im_share else Fraction(0)
    return (re, im)


def subset_sums_vanish(tuple_eigs: list[list[tuple[Fraction, Fraction]]]) -> bool:
    """Whether some choice of m eigenvalues from every orbit, 1 <= m < n, sums to 0."""
    n = len(tuple_eigs[0])
    for m in range(1, n):
        per_orbit = [
            [_csum(s) for s in itertools.combinations(eigs, m)] for eigs in tuple_eigs
        ]
        for combo in itertools.product(*per_orbit):
            if _csum(combo) == (0, 0):
                return True
    return False


def generic_expectation(n: int, k: int) -> str:
    """Verdict for k generic regular-semisimple orbits of gl_n at trace sum 0."""
    d = k * (n * n - n) - 2 * (n * n - 1)
    if d < 0:
        return "Empty"
    return "RigidSingleton" if d == 0 else "Infinite"


def _trace_zero_tuple(rng, n, k):
    """k lists of n distinct nonresonant eigenvalues with total sum zero."""
    while True:
        eigs = [[_draw_eig(rng) for _ in range(n)] for _ in range(k)]
        s = _csum(e for orb in eigs for e in orb)
        eigs[-1][-1] = (eigs[-1][-1][0] - s[0], eigs[-1][-1][1] - s[1])
        if all(_nonresonant(orb) for orb in eigs):
            return eigs


def generic_tuple(rng: random.Random, n: int, k: int) -> Request:
    while True:
        eigs = _trace_zero_tuple(rng, n, k)
        if not subset_sums_vanish(eigs):
            break
    doc = {"orbits": [semisimple(e) for e in eigs]}
    rig = generic_expectation(n, k)
    return Request(
        "fuchsian-ds", ["fuchsian-ds", "--input", "{doc}"], doc, doc,
        "fuchsian-generic", f"rank={n} poles={k}",
        {"rigidity": rig, "exists": rig != "Empty"},
    )


def rank2_triple(rng: random.Random, force_trace: bool) -> Request:
    """Criterion 1's draw: denominator-7 eigenvalues, sometimes complex."""

    def draw():
        re = Fraction(rng.randrange(-10, 11), 7)
        im = Fraction(rng.randrange(-2, 3), 7) if rng.random() < 0.3 else Fraction(0)
        return (re, im)

    while True:
        eigs = []
        for _ in range(3):
            while True:
                x, y = draw(), draw()
                if _nonresonant([x, y]):
                    break
            eigs.append([x, y])
        if force_trace:
            x = eigs[2][0]
            c2 = _csum([eigs[0][0], eigs[0][1], eigs[1][0], eigs[1][1], x])
            c2 = (-c2[0], -c2[1])
            if not _nonresonant([x, c2]):
                continue
            eigs[2] = [x, c2]
        break
    trace_zero = _csum(e for orb in eigs for e in orb) == (0, 0)
    cross_ok = all(_csum(t) != (0, 0) for t in itertools.product(*eigs))
    exists = trace_zero and cross_ok
    doc = {"orbits": [semisimple(e) for e in eigs]}
    return Request(
        "fuchsian-ds", ["fuchsian-ds", "--input", "{doc}"], doc, doc,
        "fuchsian-rank2-triple", "rank=2 poles=3",
        {"exists": exists, "rigidity": "RigidSingleton" if exists else "Empty"},
    )


def nongeneric_tuple(rng: random.Random, n: int, k: int, kinds: int = 3) -> dict:
    """A trace-zero tuple with lambda-orthogonal sub-roots: kind 0 has one
    eigenvalue from each orbit summing to zero, kinds 1 and 2 give one orbit a
    repeated eigenvalue (semisimple or a Jordan block), which shrinks the
    box; `kinds` = 1 keeps to kind 0."""
    while True:
        kind = rng.randrange(kinds)
        if kind == 0:  # a vanishing 1-subset sum, all regular semisimple
            eigs = [[_draw_eig(rng) for _ in range(n)] for _ in range(k)]
            s = _csum(orb[0] for orb in eigs[:-1])
            eigs[-1][0] = (-s[0], -s[1])
            rest = _csum(e for orb in eigs for e in orb)
            last = eigs[-1][-1]
            eigs[-1][-1] = (last[0] - rest[0], last[1] - rest[1])
            if not all(_nonresonant(o) for o in eigs):
                continue
            orbits = [semisimple(e) for e in eigs]
        else:  # one orbit with a repeated eigenvalue
            eigs = _trace_zero_tuple(rng, n, k)
            j = rng.randrange(k)
            e0, e1 = eigs[j][0], eigs[j][1]
            mid = ((e0[0] + e1[0]) / 2, (e0[1] + e1[1]) / 2)
            part = (1, 1) if kind == 1 else (2,)
            blocks = [(mid, part)] + [(e, (1,)) for e in eigs[j][2:]]
            if not _nonresonant([b[0] for b in blocks]):
                continue
            orbits = [semisimple(e) for e in eigs]
            orbits[j] = orbit(n, blocks)
        return {"orbits": orbits}


def pooled_fuchsian(doc: dict, n: int, k: int) -> Request:
    return Request(
        "fuchsian-ds", ["fuchsian-ds", "--input", "{doc}"], doc, doc, "regression",
        f"rank={n} poles={k}", {}, "regression",
    )


def min_poly_degree(orb: dict) -> int:
    return sum(b["partition"][0] for b in orb["blocks"])


def quiver_of_orbits(doc: dict, series: str) -> Request:
    """quiver-export on an orbits document: the star has 1 + sum(deg - 1) vertices."""
    vertices = 1 + sum(min_poly_degree(o) - 1 for o in doc["orbits"])
    return Request(
        "quiver-export", ["quiver-export", "--input", "{doc}", "--out", "{out}"],
        doc, doc, "quiver", series, {"vertices": vertices},
    )


# ---------------------------------------------------------------------------
# Unramified formal types.
# ---------------------------------------------------------------------------


def unram_tuple(rng: random.Random, n: int, ell0: int, qdeg: int, regular: int,
                trace_zero: bool = True, merge: float = 0.4) -> dict:
    """Type 0 irregular with ell0 blocks and q of degree up to qdeg, plus
    `regular` regular-singular types.  Residues are regular semisimple, except
    that a share `merge` of draws give the first regular residue a repeated
    eigenvalue, which shrinks the lattice box."""
    while True:
        cuts = sorted(rng.sample(range(1, n), ell0 - 1))
        dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        qs = set()
        while len(qs) < ell0:
            deg = rng.randint(1, qdeg)
            q = [sc(rng.randrange(-3, 4)) for _ in range(deg - 1)] + [sc(rng.choice([-2, -1, 1, 2]))]
            qs.add(json.dumps(q))
        qs = [json.loads(q) for q in sorted(qs)]
        den = rng.choice([3, 5, 17])  # small denominators make sub-sums vanish
        res0 = [[_draw_eig(rng, den, 0.0) for _ in range(d)] for d in dims]
        regs = [[_draw_eig(rng, den, 0.0) for _ in range(n)] for _ in range(regular)]
        all_eigs = [e for r in res0 for e in r] + [e for r in regs for e in r]
        s = _csum(all_eigs)
        if trace_zero:
            target = regs[-1] if regs else res0[-1]
            target[-1] = (target[-1][0] - s[0], target[-1][1] - s[1])
        elif s == (0, 0):
            continue
        if not all(_nonresonant(r) for r in res0 + regs):
            continue
        reg_orbits = [semisimple(r) for r in regs]
        if regs and rng.random() < merge:
            # merge two eigenvalues of one regular residue into a repeated one
            # (semisimple or a Jordan block) at the same trace
            r = regs[0]
            mid = ((r[0][0] + r[1][0]) / 2, Fraction(0))
            blocks = [(mid, rng.choice([(1, 1), (2,)]))] + [(e, (1,)) for e in r[2:]]
            if not _nonresonant([b[0] for b in blocks]):
                continue
            reg_orbits[0] = orbit(n, blocks)
        t0 = {"blocks": [
            {"q": q, "dim": d, "residue": semisimple(r)}
            for q, d, r in zip(qs, dims, res0)
        ]}
        types = [t0] + [
            {"blocks": [{"q": [], "dim": n, "residue": o}]} for o in reg_orbits
        ]
        return {"types": types}


def unram_request(doc: dict, series: str, reference: str, expect: dict) -> Request:
    return Request(
        "unramified-ds", ["unramified-ds", "--input", "{doc}"], doc, doc,
        "unramified" if reference == "independent" else "unramified-regression",
        series, expect, reference,
    )


def quiver_of_types(doc: dict, series: str) -> Request:
    """Base vertices: all blocks of type 0 and of every type with >= 2 blocks;
    path vertices: deg(min poly of the residue) - 1 per block."""
    vertices = 0
    for i, t in enumerate(doc["types"]):
        if i == 0 or len(t["blocks"]) >= 2:
            vertices += len(t["blocks"])
        vertices += sum(min_poly_degree(b["residue"]) - 1 for b in t["blocks"])
    return Request(
        "quiver-export", ["quiver-export", "--input", "{doc}", "--out", "{out}"],
        doc, doc, "quiver", series, {"vertices": vertices},
    )


def _leading_pair(c: Fraction, d: Fraction) -> dict:
    return {"blocks": [
        {"q": [sc(1)], "dim": 1, "residue": orbit(1, [((c, Fraction(0)), (1,))])},
        {"q": [sc(-1)], "dim": 1, "residue": orbit(1, [((d, Fraction(0)), (1,))])},
    ]}


def _rr(x):
    return (Fraction(x), Fraction(0))


def count_rank2_rows() -> list[tuple[dict, dict, int]]:
    """Criterion 4: the worked rank-2 slope-1 moduli counts."""
    t = _leading_pair(Fraction(1, 3), Fraction(2, 3))
    teq = _leading_pair(Fraction(1, 2), Fraction(1, 2))
    res = [(_rr(Fraction(1, 3)), (1,)), (_rr(Fraction(1, 5)), (1,))]
    t1 = {"blocks": [{"q": [sc(1)], "dim": 2, "residue": orbit(2, res)}]}
    neg = [((-e[0], -e[1]), p) for e, p in res]
    return [
        (t, orbit(2, [(_rr(Fraction(-1, 3)), (1,)), (_rr(Fraction(-2, 3)), (1,))]), 3),
        (teq, orbit(2, [(_rr(Fraction(-1, 2)), (2,))]), 2),
        (t, orbit(2, [(_rr(Fraction(-1, 5)), (1,)), (_rr(Fraction(-4, 5)), (1,))]), 1),
        (teq, orbit(2, [(_rr(Fraction(-1, 2)), (1, 1))]), 1),
        (t, orbit(2, [(_rr(0), (1,)), (_rr(Fraction(1, 3)), (1,))]), 0),
        (t1, orbit(2, neg), 1),
        (t1, orbit(2, res), 0),
    ]


def count_rank2(rng: random.Random) -> Request:
    ftype, orb, count = rng.choice(count_rank2_rows())
    doc = {"formal_type": ftype, "orbit": orb}
    return Request(
        "count-rank2", ["count-rank2", "--input", "{doc}"], doc, doc,
        "count-rank2", "count-rank2", {"count": count},
    )


# ---------------------------------------------------------------------------
# Laurent matrices: slope certification and gauge normalization.
# ---------------------------------------------------------------------------


def laurent(n: int, terms: dict[int, list[list[list[int]]]]) -> dict:
    """Canonical Laurent-matrix document: nonzero terms in increasing degree,
    no truncation."""
    zero = sc(0)
    out = []
    for deg in sorted(terms):
        entries = terms[deg]
        if any(c != zero for row in entries for c in row):
            out.append({"deg": deg, "entries": entries})
    return {"n": n, "trunc": None, "terms": out}


def _zeros(n):
    return [[sc(0) for _ in range(n)] for _ in range(n)]


def omega_power_doc(n: int, k: int) -> dict:
    """omega_n^k: ones on the s-th superdiagonal at z^q and z in the corner."""
    q, s = divmod(k, n)
    low, high = _zeros(n), _zeros(n)
    for i in range(1, n - s + 1):
        low[i - 1][i + s - 1] = sc(1)
    for i in range(1, s + 1):
        high[n - s + i - 1][i - 1] = sc(1)
    return laurent(n, {q: low, q + 1: high})


def slope_request(m: dict, series: str, expect: dict) -> Request:
    return Request(
        "slope", ["slope", "--matrix", "{doc}"], {"matrix": m}, {"matrix": m},
        "slope", series, expect,
    )


def omega_slope(n: int, k: int) -> Request:
    return slope_request(
        omega_power_doc(n, -k), f"n={n}",
        {"kind": "CertifiedSlope", "slope": str(Fraction(k, n))},
    )


def diagonal_slope(r: int) -> Request:
    """Criterion 5's rows: diag(1,2,3) z^-r + E_12 z^(1-r), slope r at J = (0,)."""
    lead = _zeros(3)
    for i in range(3):
        lead[i][i] = sc(i + 1)
    nxt = _zeros(3)
    nxt[0][1] = sc(1)
    return slope_request(
        laurent(3, {-r: lead, 1 - r: nxt}), "n=3",
        {"kind": "CertifiedSlope", "slope": str(r), "witness_parahoric": [0]},
    )


def nilpotent_slope(n: int) -> Request:
    """E_1n z^-1: nilpotent at every standard parahoric, so only a bound."""
    m = _zeros(n)
    m[0][n - 1] = sc(1)
    return slope_request(
        laurent(n, {-1: m}), f"n={n}", {"kind": "UpperBoundOnly"},
    )


def sparse_slope(rng: random.Random, n: int, pole: int) -> Request:
    """Sparse Laurent matrix with pole order `pole` whose leading coefficient
    has a nonzero trace.  So it is not nilpotent and certifies slope `pole` at
    the first parahoric J = (0,); a nilpotent one would scan further and cost
    up to twice as much, so a seeded share of them would move the median."""
    terms = {}
    for deg in range(-pole, 2):
        m = _zeros(n)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.3:
                    m[i][j] = sc(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([0, 0, 0, 1]))
        terms[deg] = m
    lead = terms[-pole]
    while sum(Fraction(lead[i][i][0], lead[i][i][1]) for i in range(n)) == 0:
        i = rng.randrange(n)
        lead[i][i] = sc(rng.choice([-3, -2, -1, 1, 2, 3]))
    return slope_request(laurent(n, terms), f"n={n}", {"pole": pole})


def gauge_request(rng: random.Random, n: int, order: int) -> Request:
    """Criterion 6's draw: upper-triangular B_0 with eigenvalues
    1/7, ..., n/7 (so non-resonant) and random entries above the diagonal,
    then dense nonzero integer coefficients at every z^k below the order.
    Every draw has the same shape, spectrum and sparsity (zero entries would
    make some draws up to 30% cheaper), so the cost of a class varies little
    from seed to seed."""
    diag = [Fraction(i, 7) for i in range(1, n + 1)]
    b0 = _zeros(n)
    for i in range(n):
        b0[i][i] = sc(diag[i])
        for j in range(i + 1, n):
            b0[i][j] = sc(rng.choice([-2, -1, 1, 2]))
    terms = {0: b0}
    for k in range(1, order):
        terms[k] = [[sc(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)] for _ in range(n)]
    m = laurent(n, terms)
    return Request(
        "normalize-regsing",
        ["normalize-regsing", "--matrix", "{doc}", "--order", str(order)],
        {"matrix": m}, {"matrix": m, "order": order},
        "gauge", f"n={n} order={order}", {"order": order},
    )


# ---------------------------------------------------------------------------
# Closed-form Coxeter requests.
# ---------------------------------------------------------------------------


def balanced_partition(r: int, m: int) -> tuple[int, ...]:
    k, rp = divmod(m, r)
    return tuple(x for x in (k + 1,) * rp + (k,) * (r - rp) if x > 0)


def _partitions(m: int, top: int | None = None):
    if m == 0:
        yield ()
        return
    for first in range(min(m, top or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def coxeter_request(rng: random.Random) -> Request:
    """coxeter-ds: exists iff n p0 + tr O = 0 and every eigenvalue has <= r blocks."""
    n = rng.randint(2, 5)
    r = rng.choice([x for x in range(1, n + 2) if gcd(x, n) == 1])
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        nums = rng.sample(range(0, 13), len(mults))  # distinct mod 13: nonresonant
        eigs = [_rr(Fraction(x, 13)) for x in nums]
        blocks = [(e, rng.choice(list(_partitions(m)))) for e, m in zip(eigs, mults)]
        break
    tr = sum(e[0] * sum(p) for e, p in blocks)
    p0 = -tr / n if rng.random() < 0.6 else Fraction(rng.randrange(-5, 6), 3)
    orb = orbit(n, blocks)
    exists = n * p0 + tr == 0 and all(len(p) <= r for _, p in blocks)
    doc = {"orbit": orb}
    payload = {"n": n, "r": r, "p0": sc(p0), "orbit": orb}
    return Request(
        "coxeter-ds",
        ["coxeter-ds", "--n", str(n), "--r", str(r), f"--p0={p0}", "--orbit", "{doc}"],
        doc, payload, "coxeter-ds", "coxeter", {"exists": exists},
    )


def rigidity_request(rng: random.Random) -> Request:
    """Criterion 8: a nilpotent orbit with <= r blocks is rigid iff it is the
    balanced one and r divides n - 1 or n + 1."""
    n = rng.randint(2, 12)
    r = rng.choice([x for x in range(1, n + 2) if gcd(x, n) == 1])
    minimal = balanced_partition(r, n)
    choices = [p for p in _partitions(n) if len(p) <= r]
    part = minimal if rng.random() < 0.5 else rng.choice(choices)
    rigid = part == minimal and ((n - 1) % r == 0 or (n + 1) % r == 0)
    orb = orbit(n, [(_rr(0), part)])
    return Request(
        "rigidity", ["rigidity", "--n", str(n), "--r", str(r), "--orbit", "{doc}"],
        {"orbit": orb}, {"n": n, "r": r, "orbit": orb}, "rigidity", "rigidity",
        {"rigid": rigid},
    )


def _table_rows() -> list[tuple[str, int, int]]:
    cox = {"A": lambda n: n, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2}
    rows = []
    for fam, h_of in cox.items():
        for rank in range(2 if fam != "D" else 3, 9):
            h = h_of(rank)
            rows += [(fam, rank, r) for r in range(1, h + 3) if gcd(r, h) == 1]
    rows += [("E7", 7, r) for r in range(1, 21) if gcd(r, 18) == 1]
    return rows


def rigidity_table_request(row: tuple[str, int, int]) -> Request:
    fam, rank, r = row
    return Request(
        "rigidity-table",
        ["rigidity-table", "--type", fam, "--rank", str(rank), "--r", str(r)],
        None, {"family": fam, "rank": rank, "r": r}, "regression", "rigidity-table",
        {}, "regression",
    )


# ---------------------------------------------------------------------------
# Pools of regression-reference instances.
# ---------------------------------------------------------------------------

POOL_SIZE = 24


def _pool_rng(name: str, i: int) -> random.Random:
    return random.Random(f"pool:{name}:{i}")


# name -> builder(rng) -> Request; entry i uses _pool_rng(name, i).
POOLS: dict[str, Callable[[random.Random], Request]] = {
    "fuchsian-r2q": lambda rng: pooled_fuchsian(nongeneric_tuple(rng, 2, 4), 2, 4),
    # kind 0 only: the same box as the generic tuples, so a similar cost
    "fuchsian-r3t": lambda rng: pooled_fuchsian(nongeneric_tuple(rng, 3, 3, 1), 3, 3),
    "fuchsian-r3q": lambda rng: pooled_fuchsian(nongeneric_tuple(rng, 3, 4, 1), 3, 4),
    # one block structure per pool, so that instances of a class cost alike
    "unram-n2": lambda rng: unram_request(
        unram_tuple(rng, 2, 2, rng.randint(1, 2), 1), "n=2", "regression", {}),
    "unram-n3": lambda rng: unram_request(
        unram_tuple(rng, 3, 3, rng.randint(1, 2), 1), "n=3 ell=3", "regression", {}),
    "unram-n3r2": lambda rng: unram_request(
        unram_tuple(rng, 3, 2, rng.randint(1, 2), 2, merge=0.0), "n=3 ell=2", "regression", {}),
    "unram-n4": lambda rng: unram_request(
        unram_tuple(rng, 4, 2, 1, 1, merge=0.0), "n=4 ell=2", "regression", {}),
}

TABLE_ROWS = _table_rows()


def pool_entry(name: str, i: int) -> Request:
    return POOLS[name](_pool_rng(name, i))


def all_pool_requests() -> list[Request]:
    """Every request whose verdict is a regression reference, unbudgeted."""
    reqs = [pool_entry(name, i) for name in POOLS for i in range(POOL_SIZE)]
    reqs += [rigidity_table_request(row) for row in TABLE_ROWS]
    return reqs


# ---------------------------------------------------------------------------
# Workload plans: (count, builder(rng)) per class of requests.
# ---------------------------------------------------------------------------


def _from_pool(name: str, budget: int | None = None):
    """A random entry of the pool; with a budget, capped by `--budget`."""

    def build(rng: random.Random) -> Request:
        req = pool_entry(name, rng.randrange(POOL_SIZE))
        if budget is not None:
            req.argv = req.argv + ["--budget", str(budget)]
            req.family = "fuchsian-budget"
        return req
    return build


def _quiver_from_pool(name: str):
    def build(rng):
        base = pool_entry(name, rng.randrange(POOL_SIZE))
        if "types" in base.doc:
            return quiver_of_types(base.doc, "quiver")
        return quiver_of_orbits(base.doc, "quiver")
    return build


# Counts are chosen so that the median and the 90th percentile fall inside
# classes of many similar instances, not on a boundary between classes; every
# workload has 100 to 120 requests.
PLANS: dict[str, list[tuple[int, Callable[[random.Random], Request]]]] = {
    "fuchsian": [
        (34, lambda rng: rank2_triple(rng, True)),
        (30, lambda rng: rank2_triple(rng, False)),
        (8, lambda rng: generic_tuple(rng, 2, 4)),
        (4, _from_pool("fuchsian-r2q")),
        (8, lambda rng: generic_tuple(rng, 2, 5)),
        (8, lambda rng: generic_tuple(rng, 3, 3)),
        (4, _from_pool("fuchsian-r3t")),
        (4, lambda rng: quiver_of_orbits(generic_tuple(rng, 3, 3).doc, "quiver")),
        (2, lambda rng: generic_tuple(rng, 3, 4)),
        (1, _from_pool("fuchsian-r3q")),
        (1, lambda rng: generic_tuple(rng, 4, 3)),
        (1, _from_pool("fuchsian-r3q", budget=BUDGET_CAP)),
        (2, _from_pool("fuchsian-r2q", budget=BUDGET_CAP)),
    ],
    "unramified": [
        (24, lambda rng: unram_request(
            unram_tuple(rng, rng.randint(2, 4), 2, 2, 1, trace_zero=False),
            "trace!=0", "independent", {"exists": False})),
        (40, _from_pool("unram-n2")),
        (24, _from_pool("unram-n3")),
        (12, _from_pool("unram-n3r2")),
        (6, _from_pool("unram-n4")),
        (8, count_rank2),
        (6, _quiver_from_pool("unram-n3")),
    ],
    "slope": (
        [(1, lambda rng, n=n, k=k: omega_slope(n, k))
         for n in range(2, 11) for k in (1, n + 1)]
        + [(1, lambda rng, r=r: diagonal_slope(r)) for r in (1, 2, 3)]
        + [(1, lambda rng, n=n: nilpotent_slope(n)) for n in (7, 8, 9, 10)]
        + [
            (1, lambda rng: nilpotent_slope(rng.randint(2, 6))),
            # 100 requests in all: the twelve n >= 7 ones above are the same
            # for every seed, and the p90 falls among the four cheapest of
            # them, the omega_7 and omega_8 requests, which cost nearly the same
            (12, coxeter_request),
            (12, rigidity_request),
            (11, lambda rng: rigidity_table_request(rng.choice(TABLE_ROWS))),
        ]
        # sparse matrices in a fixed mix of sizes and pole orders, so that the
        # costs around the median are the same for every seed: the median
        # falls inside the n = 3 requests, with the 35 closed-form ones and
        # the 8 n = 2 ones below it
        + [(2 if n <= 3 else 3, lambda rng, n=n, pole=pole: sparse_slope(rng, n, pole))
           for n in range(2, 7) for pole in (1, 2, 3)]
    ),
    "gauge": [
        (30, lambda rng: gauge_request(rng, 1, 6)),
        (29, lambda rng: gauge_request(rng, 1, 8)),
        (10, lambda rng: gauge_request(rng, 2, 6)),
        (10, lambda rng: gauge_request(rng, 2, 8)),
        (8, lambda rng: gauge_request(rng, 3, 6)),
        (8, lambda rng: gauge_request(rng, 3, 8)),
        (2, lambda rng: gauge_request(rng, 4, 6)),
        (2, lambda rng: gauge_request(rng, 4, 8)),
        # the tail is one fixed n = 5 instance, the same for every seed: single
        # draws there vary 3x in cost and would swing the throughput
        (1, lambda rng: gauge_request(random.Random("gauge-tail"), 5, 6)),
    ],
}

def make_requests(workload: str, seed: int) -> list[Request]:
    """The workload's requests for this seed, in a seeded order."""
    reqs = []
    slot = 0
    for count, build in PLANS[workload]:
        for _ in range(count):
            reqs.append(build(random.Random(f"{workload}:{seed}:{slot}")))
            slot += 1
    random.Random(f"{workload}:{seed}:order").shuffle(reqs)
    return reqs


WORKLOADS = tuple(PLANS)
