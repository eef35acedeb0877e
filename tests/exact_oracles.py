"""Exact helpers that only the tests call.

The package answers its questions on integers, `linalg` and
`LaurentMatrix` alone; the functions here give the tests independent ways to
build inputs and to check answers: the Gaussian rational `Scalar` with
exact arithmetic, its parser and its printer (the oracles for
`core.parse_gaussian` and `core.gaussian_str`) and `triple`, which hands a
Scalar to the package as its reduced triple, the dominance order, small
scalar and orbit views (a reduced triple as a `Scalar`, an orbit's Scalar blocks,
eigenvalues, trace, determinant and negation, `Scalar`s by (re, im)), a
Gaussian rational in each form `core.as_triple` reads (`random_form`), the
reading of a document cell into a `Scalar` and back (`parse_scalar`,
`scalar_json`), the former Scalar bodies of `count_rank2_moduli` and
`coxeter_ds_decide`, the dominance-least orbit of a characteristic polynomial
(`ds_generator`, the reading `coxeter_ds_decide`'s block count replaces),
the Scalar-keyed factor sequences, factor ranks and
pairwise resonance test (the oracles for `core.residue_arm` and
`core.congruent_pair`), the dual partition by its definition (the oracle
for `core._dual`), the Scalar route of an orbit document: its reading,
`OrbitSpec` construction as `ScalarOrbit`, canonical form, residue arm and
star lambda (the oracles for `jsonio.parse_orbit`, `OrbitSpec`'s integer
fields, `residue_arm` and `build_cb_data`), and matrix algebra the deciders do not need,
sums and products, elimination, matrix powers and the Kronecker Sylvester
operator on Scalars (the oracles for `linalg`'s Gaussian-integer kernels),
with a Scalar matrix scaled to a Z[i] triple (`gaussian`) and read back
(`from_gaussian`) and the rank by `linalg._gauss_jordan`, the gauge
recursion on Scalars (the oracle for `regsing_normalize`), Scalar views of
a `LaurentMatrix` and its construction from Scalar matrices (`laurent`,
`monomial`), the Scalar route of a Laurent-matrix
document (the oracle for `jsonio.parse_laurent` and `jsonio.laurent_json`),
the former cell route of `jsonio`, each cell reduced and then made a triple
(`reduced`, `reduced_cell`, `cell_triple` and the former readers of orbit
lists, type lists and Laurent matrices, the oracles for `jsonio._cell` and
the one reduction each record makes),
series algebra on `LaurentMatrix` (free functions taking the series first: sums and
products that propagate truncation, z d/dz, agreement mod z^N and the gauge
identity, powers, shifts and inverses), the Coxeter canonical matrix
p(omega_n^-1) of a general p, with the degree and leading-coefficient
checks, the lattice-chain definition of the filtration degree, the listed
standard parahorics and the other parahoric helpers that only tests use,
slope certification by a full scan of the parahorics (the oracle for
`certify_slope`), the slope as the Katz invariant of a cyclic vector's
operator (`katz_invariant`, an oracle for `certify_slope` that shares no
code with it), the dense Cartan matrix of a quiver (the
oracle for `Quiver`'s neighbour lists), the reflection descent that forms
C b after every reflection (the oracle for `classify_root`), the root and decomposition
enumerations (the oracles for the table of best p-sums), Fuchsian rigidity
by a second descent on alpha (the oracle for reading it from p(alpha)), the
`unramified-ds` readings with only roots as parts,
a vector by vertex turned into the integer tuple the root functions read
(`vector`), lambda by vertex turned into the integer forms the deciders read
(`lambda_forms`) and back (`lambda_values`), the pairing beta . lambda,
and sympy's characteristic polynomial (the
oracle for the H_m of `linalg.sylvester_operator`), rank (an oracle for `rank`)
and factorization for nonresonance.  sympy is a test dependency; it is
imported only when `sympy_charpoly`, `sympy_rank` or `is_nonresonant` runs.
"""

from __future__ import annotations

import itertools
import math
import operator
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from dskit.core import (
    Factor,
    OrbitSpec,
    Partition,
    Triple,
    _int_str,
    as_partition,
    as_triple,
    congruent_pair,
    dual_partition,
    min_partition_with_r_parts,
    residue_arm,
)
from dskit.errors import BudgetExceededError, InputError, ResonantError, TruncationError
from dskit.jsonio import _check_scalar, orbit_json, parse_orbit, unram_type_json
from dskit.formal import (
    CertifiedSlope,
    CoxeterFormalType,
    RegularSingularCandidate,
    SlopeVerdict,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
    is_fundamental,
    leading_stratum,
    omega_power,
)
from dskit.fuchsian import FuchsianRigidity, build_cb_data
from dskit.laurent import LaurentMatrix
from dskit.linalg import Gaussian, _gauss_jordan
from dskit.rootsys import (
    DEFAULT_BUDGET,
    LambdaForm,
    Quiver,
    RootClass,
    Vertex,
    VecLike,
    _after_box,
    _check_budget,
    _form_zeros,
    _support_connected,
    best_p_sums,
    classify_root,
    in_sigma_lambda,
    p_value,
    sigma_candidates,
)
from dskit.unramified import UnramBlock, UnramFormalType, _intra_type_arrows

# ---------------------------------------------------------------------------
# Scalar: a Gaussian rational with exact arithmetic.
# ---------------------------------------------------------------------------

Rational = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational a + bi with exact arithmetic: slotted, immutable,
    with `Fraction` parts.  Arithmetic builds its result from the parts it
    has (`_scalar`) and skips the work a zero part makes trivial.  It is the
    oracle for the package's reduced triples: `parse` for
    `core.parse_gaussian`, `str` for `core.gaussian_str`, and `triple` for
    handing a value to the package."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rational = 0, im: Rational = 0):
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    @staticmethod
    def of(value: "ScalarLike | Triple") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        if type(value) is tuple:  # a triple (re, im, den), as core.as_triple reads it
            return scalar_of(as_triple(value))
        raise InputError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: "ScalarLike") -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return _scalar(a + c if a and c else a or c, b + d if b and d else b or d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar(-self.re, -self.im if self.im else self.im)

    def __sub__(self, other: "ScalarLike") -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return _scalar(a - c if a and c else a or -c, b - d if b and d else b or -d)

    def __rsub__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other: "ScalarLike") -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not d:  # a real factor
            return _scalar(a * c, b * c if b else b)
        return _scalar(a * c - b * d if b else a * c, a * d + b * c if b else a * d)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        if not o:
            raise ZeroDivisionError("division by zero scalar")
        nrm = o.re * o.re + o.im * o.im
        return self * _scalar(o.re / nrm, -o.im / nrm)

    def __rtruediv__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) / self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Match the hash of plain rationals so Scalar(1,0) == Fraction(1) hashes
        # alike; an integer hashes as its numerator, with no modular inverse.
        re, im = self.re, self.im
        if im:
            return hash((re, im))
        return hash(re.numerator) if re.denominator == 1 else hash(re)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        im_part = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
        if not re:
            return im_part
        return f"{re}{'+' if im > 0 else ''}{im_part}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    _TOKEN = _re.compile(r"^([+-]?\d+(?:/\d+)?)?([+-](?:\d+(?:/\d+)?)?)?(i?)$")

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse strings like "3", "-1/2", "i", "2-i", "1/2+3/4i"."""
        s = text.strip().replace(" ", "")
        if not s:
            raise InputError("empty scalar string")
        m = Scalar._TOKEN.match(s)
        if not m:
            raise InputError(f"cannot parse scalar {text!r}")
        first, second, tail_i = m.groups()
        if not tail_i and (second is not None or first is None):
            raise InputError(f"cannot parse scalar {text!r}")
        try:
            if not tail_i:
                return Scalar(Fraction(first))
            if second is not None:  # "1+i", "-i", "7-2/3i"; a bare sign stands for 1
                re_part = Fraction(first) if first else Fraction(0)
                im_part = Fraction({"+": "1", "-": "-1"}.get(second, second))
                return Scalar(re_part, im_part)
            # pure imaginary: "i", "2i", "-3/4i"
            return Scalar(0, Fraction(first) if first else Fraction(1))
        except ZeroDivisionError as exc:
            raise InputError(f"zero denominator in scalar {text!r}") from exc
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise InputError(f"cannot parse scalar: {exc}") from exc


ScalarLike = Union[Scalar, int, Fraction]

_set_re, _set_im = Scalar.re.__set__, Scalar.im.__set__


def _scalar(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from two `Fraction` parts, past `__init__`'s conversions."""
    s = object.__new__(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


def triple(x: ScalarLike | Triple) -> Triple:
    """x as the reduced triple the package reads: a Scalar by its parts, and
    anything else as `core.as_triple` reads it."""
    if isinstance(x, Scalar):
        return cell_triple(x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)
    return as_triple(x)


def triples(xs: Iterable[ScalarLike | Triple]) -> list[Triple]:
    """A factor sequence of Scalars as the triples the package reads."""
    return [triple(x) for x in xs]


Vector = list[Scalar]
Matrix = list[list[Scalar]]

# ---------------------------------------------------------------------------
# Scalars, partitions and orbits.
# ---------------------------------------------------------------------------

ZERO = Scalar(0)


def weight(p: Partition) -> int:
    """The size of a partition."""
    return sum(p)


def sort_key(x: Scalar) -> tuple[Fraction, Fraction]:
    """The order of Scalars by (re, im)."""
    return (x.re, x.im)


def scalar_of(t: Triple) -> Scalar:
    """The Scalar (re + i im) / den of a triple (re, im, den)."""
    re, im, den = t
    return Scalar(Fraction(re, den), Fraction(im, den))


def parse_scalar(obj, path: str) -> Scalar:
    """A document cell [re_num, re_den, im_num, im_den] as a Scalar, with
    the shape errors of `jsonio._check_scalar`; a zero cell is `ZERO`."""
    _check_scalar(obj, path)
    if obj[0] == 0 and obj[2] == 0:
        return ZERO
    return Scalar(Fraction(obj[0], obj[1]), Fraction(obj[2], obj[3]))


def scalar_json(s: Scalar) -> list[int]:
    """The cell of a Scalar from its `Fraction` parts, in lowest terms."""
    return [s.re.numerator, s.re.denominator, s.im.numerator, s.im.denominator]


def random_form(rng, x: Scalar) -> Factor:
    """x in a form drawn by rng: its reduced triple, an int or a Fraction
    when x is one, or a triple (re, im, den) scaled by +-1 .. +-4, so not
    reduced and with its den negative half the time."""
    forms = ["reduced", "triple"]
    if not x.im:
        forms += ["fraction", "int"] if x.re.denominator == 1 else ["fraction"]
    form = rng.choice(forms)
    if form == "reduced":
        return triple(x)
    if form == "int":
        return int(x.re)
    if form == "fraction":
        return x.re
    den = math.lcm(x.re.denominator, x.im.denominator)
    k = rng.randint(1, 4) * rng.choice([1, -1])
    return int(x.re * den) * k, int(x.im * den) * k, den * k


def eigenvalues(o: OrbitSpec) -> tuple[Scalar, ...]:
    """The eigenvalues of o as Scalars, sorted by (re, im)."""
    return tuple(Scalar(Fraction(x, o.den), Fraction(y, o.den)) for x, y in zip(o.re, o.im))


def orbit_blocks(o: OrbitSpec) -> tuple[tuple[Scalar, Partition], ...]:
    """The (eigenvalue, partition) pairs of o, sorted by eigenvalue."""
    return tuple(zip(eigenvalues(o), o.parts))


def orbit_trace(o: OrbitSpec) -> Scalar:
    """The sum of the eigenvalues of o with multiplicity."""
    w = [weight(part) for part in o.parts]
    return Scalar(Fraction(sum(map(operator.mul, o.re, w)), o.den),
                  Fraction(sum(map(operator.mul, o.im, w)), o.den))


def orbit_determinant(o: OrbitSpec) -> Scalar:
    """The product of the eigenvalues of o with multiplicity."""
    d = Scalar(1)
    for e, part in orbit_blocks(o):
        for _ in range(weight(part)):
            d = d * e
    return d


def negated(o: OrbitSpec) -> OrbitSpec:
    """The orbit of -C for C in o."""
    return OrbitSpec(o.n, [(triple(-e), part) for e, part in orbit_blocks(o)])


def is_rational(x: Scalar) -> bool:
    return x.im == 0


def is_integer(x: Scalar) -> bool:
    return not x.im and x.re.denominator == 1


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Whether p <= q in dominance order (all prefix sums of p at most those of q)."""
    p, q = as_partition(p), as_partition(q)
    if weight(p) != weight(q):
        raise InputError(f"dominance compares equal weights only: {p} vs {q}")
    ps = qs = 0
    for k in range(max(len(p), len(q))):
        ps += p[k] if k < len(p) else 0
        qs += q[k] if k < len(q) else 0
        if ps > qs:
            return False
    return True


def max_block(o: OrbitSpec, eig: ScalarLike) -> int:
    return o.partition_for(triple(eig))[0]


def min_poly_degree(o: OrbitSpec) -> int:
    return sum(part[0] for part in o.parts)


def translated(o: OrbitSpec, t: ScalarLike) -> OrbitSpec:
    return OrbitSpec(o.n, [(triple(e + t), part) for e, part in orbit_blocks(o)])


class CharPolySpec:
    """A characteristic polynomial prod (x - c_i)^{m_i} whose roots are
    pairwise distinct modulo Z."""

    def __init__(self, pairs: Iterable[tuple[ScalarLike, int]]):
        items = sorted(
            ((Scalar.of(c), int(m)) for c, m in pairs),
            key=lambda cm: sort_key(cm[0]),
        )
        if not items:
            raise InputError("characteristic polynomial needs at least one root")
        if any(m < 1 for _, m in items):
            raise InputError("root multiplicities must be >= 1")
        (re,), (im,), den = gaussian([[c for c, _ in items]])
        pair = congruent_pair(re, im, den)
        if pair is not None:
            c, d = (items[k][0] for k in pair)
            raise ResonantError(
                f"roots must be pairwise distinct modulo Z: {c} and {d} are congruent"
            )
        self.pairs = tuple(items)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)


def ds_generator(r: int, q: CharPolySpec) -> OrbitSpec:
    """The dominance-least orbit with characteristic polynomial q among those
    with at most r Jordan blocks per eigenvalue: each root c_i of multiplicity
    m_i gets the most balanced partition of m_i into min(r, m_i) parts.  The
    dominance reading that `coxeter_ds_decide`'s block count replaces."""
    if r < 1:
        raise InputError(f"need r >= 1, got {r}")
    return OrbitSpec(
        q.n, [(triple(c), min_partition_with_r_parts(r, m)) for c, m in q.pairs]
    )


def charpoly_from_orbit(o: OrbitSpec) -> CharPolySpec:
    """The characteristic polynomial of o as its roots with multiplicities."""
    return CharPolySpec((e, weight(o.partition_for(triple(e)))) for e in eigenvalues(o))


def scalar_default_factor_sequence(o: OrbitSpec) -> tuple[Scalar, ...]:
    """Round-robin over distinct eigenvalues by decreasing max block size
    (ties by eigenvalue sort key); eigenvalue count = its max block size.
    The oracle for `core.residue_arm`'s default sequence."""
    order = sorted(orbit_blocks(o), key=lambda ep: (-ep[1][0], sort_key(ep[0])))
    remaining = [[e, part[0]] for e, part in order]
    seq: list[Scalar] = []
    while any(cnt > 0 for _, cnt in remaining):
        for item in remaining:
            if item[1] > 0:
                seq.append(item[0])
                item[1] -= 1
    return tuple(seq)


def scalar_factor_ranks(o: OrbitSpec, seq: Sequence[ScalarLike]) -> list[int]:
    """Ranks of the partial products prod_{l<=j} (C - seq[l-1]), j = 0..d,
    with the factors counted in dicts keyed by eigenvalue: the oracle for
    `core.residue_arm`'s ranks and its check of an explicit sequence."""
    factors = [Scalar.of(x) for x in seq]
    counts: dict[Scalar, int] = {}
    for x in factors:
        counts[x] = counts.get(x, 0) + 1
    if counts != {e: part[0] for e, part in orbit_blocks(o)}:
        raise InputError(
            "factor sequence must list each eigenvalue exactly max-block-size times"
        )
    drops = {e: dual_partition(part) for e, part in orbit_blocks(o)}
    used = dict.fromkeys(drops, 0)
    ranks = [o.n]
    for x in factors:
        ranks.append(ranks[-1] - drops[x][used[x]])
        used[x] += 1
    return ranks


def pairwise_congruent_pair(values: Sequence[Scalar]) -> tuple[int, int] | None:
    """The first pair i < j, in the order of a double loop, with
    values[i] - values[j] a rational integer (zero included): the oracle
    for `core.congruent_pair`."""
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if is_integer(values[i] - values[j]):
                return i, j
    return None


def dual_by_definition(p: Partition) -> Partition:
    """Entry k of the dual partition as the number of parts >= k, one sum
    over the parts for each k: the oracle for `core._dual`."""
    return tuple(sum(1 for part in p if part >= k) for k in range(1, p[0] + 1)) if p else ()


class ScalarOrbit:
    """The Scalar route of an orbit: n and the (Scalar, partition) blocks
    sorted by `sort_key`, with the checks and messages of `OrbitSpec`
    construction.  The oracle for `OrbitSpec`'s integer fields."""

    def __init__(self, n: int, blocks: Iterable[tuple[ScalarLike, Iterable[int]]]):
        items = sorted(
            ((Scalar.of(e), as_partition(part)) for e, part in blocks),
            key=lambda ep: sort_key(ep[0]),
        )
        if any(a[0] == b[0] for a, b in zip(items, items[1:])):
            raise InputError("orbit eigenvalues must be pairwise distinct")
        total = sum(weight(part) for _, part in items)
        if total != n:
            raise InputError(f"partition weights sum to {_int_str(total)}, expected n={n}")
        if n <= 0:
            raise InputError(f"need n >= 1, got n={n}")
        self.n = int(n)
        self.blocks = tuple(items)


def scalar_parse_orbit(obj, path: str = "orbit") -> ScalarOrbit:
    """An orbit document read into Scalars by `parse_scalar`: the oracle for
    `jsonio.parse_orbit`, with the same messages and paths."""
    if not isinstance(obj, dict):
        raise InputError(f"{path}: orbit must be an object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"{path}.n: must be an integer")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise InputError(f"{path}.blocks: must be a nonempty array")
    pairs = []
    for k, blk in enumerate(blocks):
        bpath = f"{path}.blocks[{k}]"
        if not isinstance(blk, dict):
            raise InputError(f"{bpath}: block must be an object")
        if "eig" not in blk:
            raise InputError(f"{bpath}.eig: missing")
        part = blk.get("partition")
        if not isinstance(part, list) or not part or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in part
        ):
            raise InputError(f"{bpath}.partition: must be a nonempty array of integers")
        pairs.append((parse_scalar(blk["eig"], f"{bpath}.eig"), part))
    try:
        return ScalarOrbit(n, pairs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def scalar_parse_orbit_list(doc) -> tuple[list[ScalarOrbit], list[list[Scalar]] | None, dict]:
    """The orbits, the factor sequences as Scalars and the digest payload of
    a fuchsian-ds document, by the Scalar route: the oracle for the CLI's
    reading, with the same messages and paths."""
    orbits_json = doc.get("orbits")
    if not isinstance(orbits_json, list) or not orbits_json:
        raise InputError("orbits: must be a nonempty array")
    orbits = [scalar_parse_orbit(o, f"orbits[{k}]") for k, o in enumerate(orbits_json)]
    payload: dict = {"orbits": [scalar_orbit_json(o) for o in orbits]}
    seqs_json = doc.get("sequences")
    if seqs_json is None:
        return orbits, None, payload
    if not isinstance(seqs_json, list) or len(seqs_json) != len(orbits):
        raise InputError("sequences: must be an array, one entry per orbit")
    seqs = []
    for k, seq in enumerate(seqs_json):
        if not isinstance(seq, list):
            raise InputError(f"sequences[{k}]: must be an array of scalars")
        seqs.append([parse_scalar(c, f"sequences[{k}][{m}]") for m, c in enumerate(seq)])
    payload["sequences"] = [[scalar_json(c) for c in seq] for seq in seqs]
    return orbits, seqs, payload


def scalar_orbit_json(o) -> dict:
    """The canonical form of an orbit written from its Scalar blocks."""
    return {"n": o.n, "blocks": [{"eig": scalar_json(e), "partition": list(part)}
                                 for e, part in o.blocks]}


def scalar_residue_arm(o, seq: Sequence[ScalarLike] | None = None) -> tuple[list[int], tuple[Scalar, ...]]:
    """The ranks of an orbit's residue arm and its factors as Scalars, with
    the factor sequence keyed by `sort_key`: the oracle for
    `core.residue_arm`, on a `ScalarOrbit` or an `OrbitSpec`."""
    blocks = o.blocks if isinstance(o, ScalarOrbit) else orbit_blocks(o)
    top = [part[0] for _, part in blocks]
    if seq is None:
        order = sorted(range(len(blocks)), key=lambda p: -top[p])
        positions = [p for t in range(top[order[0]]) for p in order if top[p] > t]
    else:
        index = {sort_key(e): p for p, (e, _) in enumerate(blocks)}
        positions = [index.get(sort_key(Scalar.of(x)), -1) for x in seq]
        if sorted(positions) != [p for p, mu in enumerate(top) for _ in range(mu)]:
            raise InputError(
                "factor sequence must list each eigenvalue exactly max-block-size times"
            )
    drops = [iter(dual_by_definition(part)) for _, part in blocks]
    ranks = [o.n]
    for p in positions:
        ranks.append(ranks[-1] - next(drops[p]))
    return ranks, tuple(blocks[p][0] for p in positions)


def scalar_star_lambda(orbits, seqs=None) -> dict[Vertex, Scalar]:
    """The former lambda of `build_cb_data`: eta_{ij} - eta_{i,j+1} on the
    arms and -sum_i eta_{i1} at the centre, by Scalar subtraction of the
    factors of `scalar_residue_arm`."""
    lam_0 = Scalar(0)
    lam = {}
    for i, (o, s) in enumerate(zip(orbits, seqs or [None] * len(orbits)), start=1):
        _, eta = scalar_residue_arm(o, s)
        lam_0 = lam_0 - eta[0]
        for j in range(1, len(eta)):
            lam[(i, j)] = eta[j - 1] - eta[j]
    lam[0] = lam_0
    return lam


def arm_factors(o: OrbitSpec, seq: Sequence[ScalarLike] | None = None) -> tuple[Scalar, ...]:
    """The factors of `core.residue_arm(o, seq)` as Scalars."""
    _, re, im = residue_arm(o, None if seq is None else [triple(x) for x in seq])
    return tuple(Scalar(Fraction(x, o.den), Fraction(y, o.den)) for x, y in zip(re, im))


def residue_trace(t: UnramFormalType) -> Scalar:
    """The sum of the traces of the residue orbits of t's blocks."""
    total = Scalar(0)
    for b in t.blocks:
        total = total + orbit_trace(b.residue)
    return total


def scalar_count_rank2_moduli(d: UnramFormalType, orbit: OrbitSpec) -> int:
    """The former body of `unramified.count_rank2_moduli`, which compared
    Scalar traces and determinants and the negated residue orbit."""
    if orbit.n != 2:
        raise InputError("the count is for rank 2 only")
    if not orbit.is_nonresonant():
        raise ResonantError("orbit is resonant")
    if d.n != 2 or d.slope() != 1:
        raise InputError("formal type must have rank 2 and slope 1")

    if d.ell == 2:
        # leading term diag(a,b) with a != b; residues are the scalars c, d
        c = eigenvalues(d.blocks[0].residue)[0]
        dd = eigenvalues(d.blocks[1].residue)[0]
        if orbit_trace(orbit) != -(c + dd):
            return 0
        if orbit.is_scalar():
            eta = eigenvalues(orbit)[0]
            return 1 if (c == dd and eta == -c) else 0
        if orbit_determinant(orbit) != c * dd:
            return 1
        return 3 if c != dd else 2

    # single block: leading term a.I with a != 0, truncated orbit is a single
    # GL_2(C)-orbit, so the count is 1 exactly when O = -residue orbit
    res = d.blocks[0].residue
    return 1 if orbit == negated(res) else 0


def scalar_coxeter_ds_decide(ftype: CoxeterFormalType, o: OrbitSpec) -> bool:
    """The former body of `coxeter.coxeter_ds_decide`, which summed
    n p(0) + Tr(O) as Scalars."""
    if o.n != ftype.n:
        raise InputError(
            f"orbit lives in gl_{o.n} but the formal type has n = {ftype.n}"
        )
    if not o.is_nonresonant():
        raise ResonantError(
            "orbit eigenvalues must be pairwise distinct modulo Z"
        )
    if ftype.n * scalar_of(ftype.p0) + orbit_trace(o) != 0:
        return False
    return all(len(part) <= ftype.r for part in o.parts)


# ---------------------------------------------------------------------------
# Matrices.
# ---------------------------------------------------------------------------


def zeros(rows: int, cols: int) -> Matrix:
    return [[Scalar(0)] * cols for _ in range(rows)]


def gaussian(a: Matrix) -> Gaussian:
    """The real and imaginary parts of a times the lcm den of all its
    denominators, and den, so that a = (re + i im) / den.

    One scale for the whole matrix keeps its row space, the solutions of a
    system, its nilpotency and the zeros of a form.
    """
    den = math.lcm(*(x.denominator for row in a for s in row for x in (s.re, s.im)))
    return (
        [[s.re.numerator * (den // s.re.denominator) for s in row] for row in a],
        [[s.im.numerator * (den // s.im.denominator) for s in row] for row in a],
        den,
    )


def identity(n: int) -> Matrix:
    return [[Scalar(int(i == j)) for j in range(n)] for i in range(n)]


def dims(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def from_gaussian(g: Gaussian) -> Matrix:
    """The matrix (re + i im) / den of g = (re, im, den)."""
    re, im, den = g
    return [[Scalar(Fraction(x, den), Fraction(y, den)) if x or y else Scalar(0)
             for x, y in zip(xr, yr)] for xr, yr in zip(re, im)]


def rank(a: Matrix) -> int:
    """Rank by `linalg._gauss_jordan` on a scaled to Z[i]."""
    if not a or not a[0]:
        return 0
    return len(_gauss_jordan(*gaussian(a)[:2]))


def mat_of(rows: Sequence[Sequence[ScalarLike]]) -> Matrix:
    out = [[Scalar.of(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged matrix")
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s: ScalarLike, a: Matrix) -> Matrix:
    sc = Scalar.of(s)
    return [[sc * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = list(zip(*b)) if b else []
    out = []
    for arow in a:
        nonzero = [(k, x) for k, x in enumerate(arow) if x]
        out.append([sum([x * bcol[k] for k, x in nonzero], Scalar(0)) for bcol in bt])
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def trace(a: Matrix) -> Scalar:
    t = Scalar(0)
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def kron(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            if not a[i][j]:
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def det(a: Matrix) -> Scalar:
    n, m = dims(a)
    if n != m:
        raise InputError("determinant needs a square matrix")
    mat = copy_matrix(a)
    result = Scalar(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return Scalar(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            result = -result
        result = result * mat[c][c]
        inv = Scalar(1) / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = inv * mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return result


def mat_pow(a: Matrix, k: int) -> Matrix:
    n, m = dims(a)
    if n != m:
        raise InputError("matrix power needs a square matrix")
    if k < 0:
        raise InputError("negative matrix power not supported here")
    result = identity(n)
    base = copy_matrix(a)
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def _row_echelon(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy_matrix(a)
    rows, cols = dims(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Scalar(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def echelon_rank(a: Matrix) -> int:
    """Rank by `_row_echelon` on Scalars: the oracle for `rank`."""
    if not a or not a[0]:
        return 0
    return len(_row_echelon(a)[1])


def echelon_solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b by `_row_echelon` on Scalars, with its free
    coordinates set to zero, or None if inconsistent."""
    rows, cols = dims(a)
    if len(b) != rows:
        raise InputError("right-hand side has wrong length")
    aug = [a[i][:] + [Scalar.of(b[i])] for i in range(rows)]
    ech, pivots = _row_echelon(aug)
    if cols in pivots:
        return None
    x = [Scalar(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = ech[r][cols]
    return x


def mat_inv(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n, m = dims(a)
    if n != m:
        raise InputError("inverse needs a square matrix")
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    ech, pivots = _row_echelon(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in ech]


def nullspace(a: Matrix) -> list[Vector]:
    """A basis of the kernel of a."""
    rows, cols = dims(a)
    if cols == 0:
        return []
    if rows == 0:
        return [
            [Scalar(1) if i == j else Scalar(0) for i in range(cols)]
            for j in range(cols)
        ]
    ech, pivots = _row_echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [Scalar(0)] * cols
        v[f] = Scalar(1)
        for r, c in enumerate(pivots):
            v[c] = -ech[r][f]
        basis.append(v)
    return basis


def sylvester_kron(p: Matrix, q: Matrix) -> Matrix:
    """The matrix of x -> p x - x q on n x m matrices x stacked by rows: entry
    ((i, j), (a, b)) is p_ia [j = b] - [i = a] q_bj, built on Scalars."""
    n = len(p)
    m = len(q)
    op = zeros(n * m, n * m)
    for i in range(n):
        for j in range(m):
            row = op[i * m + j]
            for a in range(n):
                row[a * m + j] = p[i][a]
            for b in range(m):
                row[i * m + b] = row[i * m + b] - q[b][j]
    return op


def echelon_sylvester_solve(b: Matrix, k: int, rhs: Matrix) -> Matrix | None:
    """`linalg.sylvester_solve`'s contract by `echelon_solve` on the Scalar
    operator of x -> (b + k) x - x b: one solution with its free coordinates
    set to zero, or None if inconsistent."""
    n = len(b)
    shifted = mat_add(b, mat_scale(k, identity(n)))
    sol = echelon_solve(sylvester_kron(shifted, b), [y for row in rhs for y in row])
    if sol is None:
        return None
    return [sol[i * n : (i + 1) * n] for i in range(n)]


def scalar_regsing_normalize(m: LaurentMatrix, order: int) -> LaurentMatrix:
    """`formal.regsing_normalize`'s recursion on Scalars, for M with no
    negative powers known below the order: each right-hand side
    sum_{i<k} g_i B_{k-i} is one `mat_mul` of [g_0 ... g_{k-1}] and
    [B_k; ...; B_1], and each g_k comes from `echelon_sylvester_solve`."""
    n = m.n
    b = [scalar_coeff(m, k) for k in range(order)]
    g = [identity(n)]
    for k in range(1, order):
        rhs = mat_mul(
            [[x for gi in g for x in gi[r]] for r in range(n)],
            [row for bi in reversed(b[1 : k + 1]) for row in bi],
        )
        sol = echelon_sylvester_solve(b[0], k, rhs)
        if sol is None:
            raise ResonantError(f"resonant residue: two eigenvalues of B_0 differ by {k}")
        g.append(sol)
    return laurent(n, dict(enumerate(g)), trunc=order)


def ad_eigen_shift_singular(b: Matrix, k: int) -> bool:
    """Whether x -> b x - x b - k x is singular, i.e. whether k is a
    difference of two eigenvalues of b."""
    n = len(b)
    return rank(sylvester_kron(mat_sub(b, mat_scale(k, identity(n))), b)) < n * n


def jordan_matrix(o: OrbitSpec) -> Matrix:
    """The block-diagonal Jordan representative of an orbit specification."""
    n = o.n
    m = zeros(n, n)
    pos = 0
    for eig, part in orbit_blocks(o):
        for size in part:
            for t in range(size):
                m[pos + t][pos + t] = eig
                if t + 1 < size:
                    m[pos + t][pos + t + 1] = Scalar(1)
            pos += size
    return m


# ---------------------------------------------------------------------------
# Laurent series.
# ---------------------------------------------------------------------------


def laurent(n: int, coeffs: Mapping[int, Matrix], trunc: int | None = None) -> LaurentMatrix:
    """The LaurentMatrix with the Scalar coefficient matrices coeffs, each
    scaled to Z[i] by `gaussian`."""
    return LaurentMatrix(n, {deg: gaussian(mat) for deg, mat in coeffs.items()}, trunc)


def scalar_coeff(m: LaurentMatrix, deg: int) -> Matrix:
    """The coefficient of m at z^deg as Scalars."""
    return from_gaussian(m.coeff(deg))


def scalar_coeffs(m: LaurentMatrix) -> dict[int, Matrix]:
    """The nonzero coefficients of m by degree, as Scalars."""
    return {deg: from_gaussian(g) for deg, g in m.coeffs.items()}


def scalar_monomials(m: LaurentMatrix) -> Iterator[tuple[int, int, int, Scalar]]:
    """(deg, i, j, value) for each monomial of m, in the order of `monomials`."""
    coeffs = scalar_coeffs(m)
    for deg, i, j in m.monomials():
        yield deg, i, j, coeffs[deg][i - 1][j - 1]


def monomial(n: int, deg: int, i: int, j: int, value: ScalarLike = 1) -> LaurentMatrix:
    """value * E_{ij} z^deg with 1-based matrix indices."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise InputError(f"entry ({i},{j}) outside 1..{n}")
    mat = zeros(n, n)
    mat[i - 1][j - 1] = Scalar.of(value)
    return laurent(n, {deg: mat})


def one(n: int, trunc: int | None = None) -> LaurentMatrix:
    return laurent(n, {0: identity(n)}, trunc)


def from_terms(
    n: int,
    terms: Iterable[tuple[int, Matrix]],
    trunc: int | None = None,
) -> LaurentMatrix:
    acc: dict[int, Matrix] = {}
    for deg, mat in terms:
        if deg in acc:
            acc[deg] = mat_add(acc[deg], mat)
        else:
            acc[deg] = copy_matrix(mat)
    return laurent(n, acc, trunc)


def _known_below(m: LaurentMatrix) -> float:
    return math.inf if m.trunc is None else m.trunc


def _truncation(bound: float) -> int | None:
    return None if bound == math.inf else int(bound)


def _check_same_size(a: LaurentMatrix, b: LaurentMatrix) -> None:
    if a.n != b.n:
        raise InputError("size mismatch")


def series_add(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """a + b, known below the lesser of the two truncations."""
    _check_same_size(a, b)
    acc = scalar_coeffs(a)
    for deg, mat in scalar_coeffs(b).items():
        acc[deg] = mat_add(acc[deg], mat) if deg in acc else mat
    return laurent(a.n, acc, _truncation(min(_known_below(a), _known_below(b))))


def series_scale(m: LaurentMatrix, s: ScalarLike) -> LaurentMatrix:
    return laurent(m.n, {deg: mat_scale(s, mat) for deg, mat in scalar_coeffs(m).items()}, m.trunc)


def series_sub(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    return series_add(a, series_scale(b, -1))


def series_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """a b, known below every degree that only known terms reach: a term at
    degree d needs every split d = i + j with i known in a and j known in b."""
    _check_same_size(a, b)

    def lowest(m: LaurentMatrix) -> float:
        return min(m.coeffs) if m.coeffs else _known_below(m)

    trunc = _truncation(min(_known_below(a) + lowest(b), _known_below(b) + lowest(a)))
    acc: dict[int, Matrix] = {}
    for da, ma in scalar_coeffs(a).items():
        for db, mb in scalar_coeffs(b).items():
            d = da + db
            if trunc is not None and d >= trunc:
                continue
            prod = mat_mul(ma, mb)
            acc[d] = mat_add(acc[d], prod) if d in acc else prod
    return laurent(a.n, acc, trunc)


def z_ddz(m: LaurentMatrix) -> LaurentMatrix:
    """z d/dz: the coefficient at z^k picks up a factor k."""
    return laurent(
        m.n, {deg: mat_scale(deg, mat) for deg, mat in scalar_coeffs(m).items() if deg}, m.trunc
    )


def eq_mod(a: LaurentMatrix, b: LaurentMatrix, order: int) -> bool:
    """Whether the two series agree at every degree < order."""
    _check_same_size(a, b)
    if _known_below(a) < order or _known_below(b) < order:
        raise TruncationError(
            f"comparison mod z^{order} needs both series known to that order"
        )
    return all(
        a.coeff(d) == b.coeff(d) for d in set(a.coeffs) | set(b.coeffs) if d < order
    )


def gauge_identity_holds(m: LaurentMatrix, g: LaurentMatrix, order: int) -> bool:
    """Whether g M - z dg/dz = B_0 g mod z^order, B_0 the z^0 term of M."""
    b0 = LaurentMatrix(m.n, {0: m.coeff(0)})
    return eq_mod(series_sub(series_mul(g, m), z_ddz(g)), series_mul(b0, g), order)


def shift(m: LaurentMatrix, k: int) -> LaurentMatrix:
    """Multiply by z^k."""
    return LaurentMatrix(
        m.n,
        {deg + k: g for deg, g in m.coeffs.items()},
        None if m.trunc is None else m.trunc + k,
    )


def power(m: LaurentMatrix, k: int) -> LaurentMatrix:
    if k < 0:
        raise InputError("negative powers: use series_inverse, then power")
    result = one(m.n)
    base = m
    kk = k
    while kk:
        if kk & 1:
            result = series_mul(result, base)
        kk >>= 1
        if kk:
            base = series_mul(base, base)
    return result


def series_inverse(m: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a series with invertible constant term (valuation 0).

    Known to the same truncation order as the input; exact inputs with a
    non-polynomial inverse raise, so pass a truncated series for those.
    """
    coeffs = scalar_coeffs(m)
    c0 = coeffs.get(0)
    if c0 is None or (m.valuation() is not None and m.valuation() < 0):
        raise InputError("series_inverse needs valuation exactly 0")
    c0_inv = mat_inv(c0)
    if c0_inv is None:
        raise InputError("constant term is singular")
    if m.trunc is None:
        if m.support() == (0,):
            return laurent(m.n, {0: c0_inv})
        raise InputError(
            "exact inverse of a non-constant series is not a Laurent "
            "polynomial; truncate first"
        )
    out: dict[int, Matrix] = {0: c0_inv}
    for k in range(1, m.trunc):
        acc = zeros(m.n, m.n)
        for i in range(0, k):
            g = coeffs.get(k - i)
            if g is not None and i in out:
                acc = mat_add(acc, mat_mul(out[i], g))
        term = mat_scale(-1, mat_mul(acc, c0_inv))
        if not is_zero_matrix(term):
            out[k] = term
    return laurent(m.n, out, m.trunc)


# ---------------------------------------------------------------------------
# Laurent-matrix documents on Scalars.
# ---------------------------------------------------------------------------


def scalar_parse_laurent(obj, path: str = "matrix") -> tuple[int, int | None, dict[int, Matrix]]:
    """A Laurent-matrix document read cell by cell with `jsonio.parse_scalar`
    into Scalar matrices: (n, trunc, coefficients), with the terms that are
    zero or at or past trunc dropped, and the errors of `jsonio.parse_laurent`
    word for word.  The oracle for `jsonio.parse_laurent`."""

    def fail(where: str, msg: str):
        raise InputError(f"{where}: {msg}")

    def is_int(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    if not isinstance(obj, dict):
        fail(path, "matrix must be an object")
    n = obj.get("n")
    if not is_int(n) or n < 1:
        fail(f"{path}.n", "must be a positive integer")
    trunc = obj.get("trunc")
    if trunc is not None and not is_int(trunc):
        fail(f"{path}.trunc", "must be an integer or null")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        fail(f"{path}.terms", "must be an array")
    coeffs: dict[int, Matrix] = {}
    for k, term in enumerate(terms):
        tpath = f"{path}.terms[{k}]"
        if not isinstance(term, dict):
            fail(tpath, "term must be an object")
        deg = term.get("deg")
        if not is_int(deg):
            fail(f"{tpath}.deg", "must be an integer")
        if deg in coeffs:
            fail(f"{tpath}.deg", f"duplicate degree {deg}")
        entries = term.get("entries")
        if not isinstance(entries, list) or len(entries) != n:
            fail(f"{tpath}.entries", f"must be an array of {n} rows")
        mat = zeros(n, n)
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                fail(f"{tpath}.entries[{i}]", f"must be an array of {n} scalars")
            for j, cell in enumerate(row):
                mat[i][j] = parse_scalar(cell, f"{tpath}.entries[{i}][{j}]")
        coeffs[deg] = mat
    return n, trunc, {deg: mat for deg, mat in coeffs.items()
                      if (trunc is None or deg < trunc) and not is_zero_matrix(mat)}


def scalar_laurent_json(n: int, trunc: int | None, coeffs: Mapping[int, Matrix]) -> dict:
    """The canonical form of Scalar coefficient matrices, each cell written
    from its `Fraction` parts by `jsonio.scalar_json`: the oracle for
    `jsonio.laurent_json` and for the canonical form `jsonio.parse_laurent`
    keeps."""
    return {"n": n, "trunc": trunc, "terms": [
        {"deg": deg, "entries": [[scalar_json(c) for c in row] for row in coeffs[deg]]}
        for deg in sorted(coeffs)
    ]}


def scalar_gauge_json(g: LaurentMatrix) -> dict:
    """The gauge `regsing_normalize` returns, read back to Scalars with
    `from_gaussian` and written by `scalar_laurent_json`."""
    return scalar_laurent_json(g.n, g.trunc, scalar_coeffs(g))


# ---------------------------------------------------------------------------
# The former cell route of jsonio: each cell reduced, then made a triple.
# ---------------------------------------------------------------------------


def cell_triple(a: int, b: int, c: int, d: int) -> Triple:
    """The cell a/b + i c/d, each part in lowest terms over a positive
    denominator, as its triple over lcm(b, d), which is reduced: a prime p
    of the lcm divides b, say, as often as the lcm, so p divides neither a
    nor lcm // b."""
    den = math.lcm(b, d)
    return a * (den // b), c * (den // d), den


def reduced(cell) -> list[int] | None:
    """The scalar cell [re_num, re_den, im_num, im_den] with each part in
    lowest terms over a positive denominator (0 as 0/1), or None unless cell
    is a list of four ints, not bools, with nonzero denominators."""
    if type(cell) is not list or len(cell) != 4:
        return None
    a, b, c, d = cell
    if not (type(a) is type(b) is type(c) is type(d) is int and b and d):
        return None
    g, h = math.gcd(a, b), math.gcd(c, d)
    if b < 0:
        g = -g
    if d < 0:
        h = -h
    return [a // g, b // g, c // h, d // h]


def reduced_cell(obj, path: str) -> list[int]:
    """The scalar cell obj in lowest terms, as `reduced` gives it, or the
    shape error of `jsonio._check_scalar` at path."""
    cell = reduced(obj)
    if cell is None:
        _check_scalar(obj, path)
    return cell  # type: ignore[return-value]


def former_parse_orbit_list(doc) -> tuple[list[OrbitSpec], list[list[Triple]] | None, dict]:
    """`jsonio.parse_orbit_list` by the former cell route, with its messages:
    each sequence cell reduced by `reduced_cell`, kept so in the payload and
    made a triple by `cell_triple`.  The orbits are read by
    `jsonio.parse_orbit`, whose Scalar oracle is `scalar_parse_orbit`."""
    orbits_json = doc.get("orbits")
    if not isinstance(orbits_json, list) or not orbits_json:
        raise InputError("orbits: must be a nonempty array")
    orbits = [parse_orbit(o, f"orbits[{k}]") for k, o in enumerate(orbits_json)]
    payload: dict = {"orbits": [orbit_json(o) for o in orbits]}
    seqs_json = doc.get("sequences")
    if seqs_json is None:
        return orbits, None, payload
    if not isinstance(seqs_json, list) or len(seqs_json) != len(orbits):
        raise InputError("sequences: must be an array, one entry per orbit")
    cells = []
    for k, seq in enumerate(seqs_json):
        if not isinstance(seq, list):
            raise InputError(f"sequences[{k}]: must be an array of scalars")
        cells.append([reduced_cell(c, f"sequences[{k}][{m}]") for m, c in enumerate(seq)])
    payload["sequences"] = cells
    return orbits, [[cell_triple(*c) for c in seq] for seq in cells], payload


def former_parse_type_list(doc) -> tuple[list[UnramFormalType], dict]:
    """`jsonio.parse_type_list` by the former cell route, with its messages:
    each q cell reduced by `reduced_cell` and made a triple by `cell_triple`."""
    types_json = doc.get("types")
    if not isinstance(types_json, list) or not types_json:
        raise InputError("types: must be a nonempty array")
    types = []
    for t, obj in enumerate(types_json):
        path = f"types[{t}]"
        if not isinstance(obj, dict):
            raise InputError(f"{path}: formal type must be an object")
        blocks = obj.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise InputError(f"{path}.blocks: must be a nonempty array")
        parsed = []
        for k, blk in enumerate(blocks):
            bpath = f"{path}.blocks[{k}]"
            if not isinstance(blk, dict):
                raise InputError(f"{bpath}: block must be an object")
            q = blk.get("q")
            if not isinstance(q, list):
                raise InputError(f"{bpath}.q: must be an array of scalars "
                                 "(coefficients of z^-1, z^-2, ...)")
            dim = blk.get("dim")
            if type(dim) is not int:
                raise InputError(f"{bpath}.dim: must be an integer")
            if "residue" not in blk:
                raise InputError(f"{bpath}.residue: missing")
            residue = parse_orbit(blk["residue"], f"{bpath}.residue")
            qs = [cell_triple(*reduced_cell(c, f"{bpath}.q[{m}]")) for m, c in enumerate(q)]
            try:
                parsed.append(UnramBlock(qs, dim, residue))
            except InputError as exc:
                raise InputError(f"{bpath}: {exc}") from None
        try:
            types.append(UnramFormalType(parsed))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
    return types, {"types": [unram_type_json(t) for t in types]}


def former_parse_laurent(obj, path: str = "matrix") -> tuple[LaurentMatrix, dict]:
    """`jsonio.parse_laurent` by the former cell route, with its messages:
    each row reduced by `reduced`, or cell by cell by `reduced_cell` for the
    message, and the canonical form built beside M from the reduced cells of
    each nonzero term below trunc, M holding each such term over the lcm of
    its denominators."""
    if not isinstance(obj, dict):
        raise InputError(f"{path}: matrix must be an object")
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise InputError(f"{path}.n: must be a positive integer")
    trunc = obj.get("trunc")
    if trunc is not None and type(trunc) is not int:
        raise InputError(f"{path}.trunc: must be an integer or null")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise InputError(f"{path}.terms: must be an array")
    seen: set[int] = set()
    coeffs: dict[int, Gaussian] = {}
    canonical = []
    for k, term in enumerate(terms):
        tpath = f"{path}.terms[{k}]"
        if not isinstance(term, dict):
            raise InputError(f"{tpath}: term must be an object")
        deg = term.get("deg")
        if type(deg) is not int:
            raise InputError(f"{tpath}.deg: must be an integer")
        if deg in seen:
            raise InputError(f"{tpath}.deg: duplicate degree {deg}")
        seen.add(deg)
        entries = term.get("entries")
        if not isinstance(entries, list) or len(entries) != n:
            raise InputError(f"{tpath}.entries: must be an array of {n} rows")
        cells = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                raise InputError(f"{tpath}.entries[{i}]: must be an array of {n} scalars")
            row_cells = list(map(reduced, row))
            if None in row_cells:
                row_cells = [reduced_cell(cell, f"{tpath}.entries[{i}][{j}]")
                             for j, cell in enumerate(row)]
            cells.append(row_cells)
        flat = [c for r in cells for c in r]
        if trunc is not None and deg >= trunc or not any(c[0] or c[2] for c in flat):
            continue
        den = math.lcm(*[c[1] for c in flat], *[c[3] for c in flat])
        coeffs[deg] = ([[c[0] * (den // c[1]) for c in r] for r in cells],
                       [[c[2] * (den // c[3]) for c in r] for r in cells], den)
        canonical.append({"deg": deg, "entries": cells})
    canonical.sort(key=lambda t: t["deg"])
    return LaurentMatrix(n, coeffs, trunc), {"n": n, "trunc": trunc, "terms": canonical}


# ---------------------------------------------------------------------------
# Two families on which a theorem decides unramified-ds.
# ---------------------------------------------------------------------------


def _draw_value(rng, den: int) -> Scalar:
    """(re, im) over den, re in [-10/den, 10/den], non-real one time in five."""
    im = Fraction(rng.randint(-2, 2), den) if rng.random() < 0.2 else 0
    return Scalar(Fraction(rng.randint(-10, 10), den), im)


def fuchsian_tuple(rng) -> list[OrbitSpec]:
    """Three or four nonresonant orbits of gl_2 or three of gl_3, their
    eigenvalues over 7, one orbit now and then with a repeated eigenvalue
    (partition (2,) or (1, 1)), and the last eigenvalue of the last orbit
    chosen so that the traces sum to zero, except one time in ten."""
    while True:
        n = rng.choice([2, 2, 3])
        k = rng.choice([3, 4]) if n == 2 else 3
        orbits = []
        for i in range(k):
            if i < k - 1 and rng.random() < 0.25:
                e = _draw_value(rng, 7)
                blocks = [(e, rng.choice([(2,), (1, 1)]))]
                blocks += [(_draw_value(rng, 7), (1,)) for _ in range(n - 2)]
            else:
                blocks = [(_draw_value(rng, 7), (1,)) for _ in range(n)]
            orbits.append(blocks)
        if rng.random() < 0.9:
            total = sum((e * sum(p) for o in orbits for e, p in o), ZERO)
            orbits[-1][-1] = (orbits[-1][-1][0] - total, (1,))
        try:
            specs = [OrbitSpec(n, [(triple(e), p) for e, p in o]) for o in orbits]
        except InputError:  # two equal eigenvalues in an orbit
            continue
        if all(o.is_nonresonant() for o in specs):
            return specs


def rank1_twist(orbits: Sequence[OrbitSpec], c: Triple) -> list[UnramFormalType]:
    """The formal types of a Fuchsian tuple tensored with the rank-1
    connection d + c z^-2 dz, whose only pole is at the first point: q = (c,)
    there on the one block, and no q at the others."""
    return [UnramFormalType([UnramBlock([c] if i == 0 else [], o.n, o)])
            for i, o in enumerate(orbits)]


def rank2_pair(rng) -> tuple[list[UnramFormalType], bool]:
    """Two points in rank 2, drawn by rng, and whether some a_i + b_j = 0: at
    the first, two rank-1 blocks with q = (q_1,) and (q_2,), q_1 != q_2 in
    +-1..3, and residues a_1 and a_2; at the second, no q and the semisimple
    nonresonant residue {b_1, b_2}, with a_1 + a_2 + b_1 + b_2 = 0.  The
    values are over 5, and b_1 is -a_1 or -a_2 two times in five."""
    while True:
        q = rng.sample([-3, -2, -1, 1, 2, 3], 2)
        a = [_draw_value(rng, 5), _draw_value(rng, 5)]
        b1 = ZERO - rng.choice(a) if rng.random() < 0.4 else _draw_value(rng, 5)
        b = [b1, ZERO - a[0] - a[1] - b1]
        if b[0] == b[1]:
            continue
        regular = OrbitSpec(2, [(triple(x), (1,)) for x in b])
        if regular.is_nonresonant():
            break
    types = [
        UnramFormalType([UnramBlock([(qi, 0, 1)], 1, OrbitSpec(1, [(triple(ai), (1,))]))
                         for qi, ai in zip(q, a)]),
        UnramFormalType([UnramBlock([], 2, regular)]),
    ]
    return types, any(x + y == ZERO for x in a for y in b)


# ---------------------------------------------------------------------------
# Definitions the package computes in closed form.
# ---------------------------------------------------------------------------


def block_sizes(p: StandardParahoric) -> tuple[int, ...]:
    cuts = p.J + (p.n,)
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(p.J)))


def iwahori(n: int) -> StandardParahoric:
    return StandardParahoric(n, range(n))


def maximal(n: int) -> StandardParahoric:
    """GL_n(o): the one-lattice chain J = {0}."""
    return StandardParahoric(n, (0,))


def lattice_exponent(p: StandardParahoric, j: int, i: int) -> int:
    """nu_j(i): the z-exponent of basis vector e_i in L^j, any j in Z."""
    if not 1 <= i <= p.n:
        raise InputError(f"basis index {i} outside 1..{p.n}")
    q, s = divmod(j, p.e)
    return q + (1 if i > p.n - p.J[s] else 0)


def coxeter_canonical_type(
    n: int, r: int, p_coeffs: Iterable[ScalarLike]
) -> CoxeterFormalType:
    """Validated Coxeter canonical form; the Laurent matrix is materialized
    once here so malformed coefficient data fails early, not downstream."""
    coeffs = tuple(p_coeffs)
    mat = coxeter_matrix(n, r, coeffs)
    assert not mat.is_zero()
    return CoxeterFormalType(n, r, triple(coeffs[0]))


def coxeter_matrix(n: int, r: int, p_coeffs: Iterable[ScalarLike]) -> LaurentMatrix:
    """p(omega_n^{-1}) as an exact Laurent matrix, for p given by its dense
    coefficients, constant term first.  The slope checks are
    `CoxeterFormalType`'s; then p must have degree exactly r."""
    coeffs = tuple(Scalar.of(x) for x in p_coeffs)
    CoxeterFormalType(n, r, triple(coeffs[0]) if coeffs else 0)
    if len(coeffs) != r + 1:
        raise InputError(
            f"p must have degree exactly {r}: expected {r + 1} "
            f"coefficients, got {len(coeffs)}"
        )
    if not coeffs[-1]:
        raise InputError("leading coefficient of p must be nonzero")
    acc = LaurentMatrix(n)
    for k, coeff in enumerate(coeffs):
        if coeff:
            acc = series_add(acc, series_scale(omega_power(n, -k), coeff))
    return acc


def representative_p_coeffs(ftype: CoxeterFormalType) -> tuple[Scalar, ...]:
    """The dense coefficients of the representative p(x) = x^r + p0 of a
    formal type, constant term first."""
    return (scalar_of(ftype.p0),) + (Scalar(0),) * (ftype.r - 1) + (Scalar(1),)


def filtration_degree(p: StandardParahoric, a: int, b: int, k: int) -> int:
    """Largest s with E_ab z^k . L^i contained in L^{i+s} for every i.

    Computed directly from the lattice-chain bases: the monomial sends
    z^{nu_i(b)} e_b to z^{k + nu_i(b)} e_a, so the containment at i asks
    nu_{i+s}(a) <= k + nu_i(b), checked over one period.
    """
    if not (1 <= a <= p.n and 1 <= b <= p.n):
        raise InputError(f"entry ({a},{b}) outside 1..{p.n}")
    e = p.e
    for s in range(k * e + e, k * e - e - 1, -1):
        if all(
            lattice_exponent(p, j + s, a) <= k + lattice_exponent(p, j, b)
            for j in range(e)
        ):
            return s
    raise AssertionError("unreachable: the degree lies within k*e +- (e-1)")


def parahoric_walk(n: int) -> Iterator[list[int]]:
    """J for every standard parahoric at size n, in lexicographic order: a
    depth-first walk that appends k > max J before it moves on.  J is one
    list updated in place, O(n) in size, so a caller copies what it keeps
    past the next step.
    """
    J = [0]
    yield J
    k = 1
    while True:
        if k < n:
            J.append(k)
            yield J
            k += 1
        elif len(J) > 1:
            k = J.pop() + 1
        else:
            return


def standard_parahorics(n: int) -> list[StandardParahoric]:
    """All 2^(n-1) standard parahorics, ordered lexicographically by J: the
    listed twin of `parahoric_walk`, whose order `certify_slope` walks in."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return [StandardParahoric(n, J) for J in parahoric_walk(n)]


def table_depths(n: int, entries: list[tuple[int, int, int]]) -> Iterator[tuple[list[int], int, int]]:
    """(J, e, r) at every J of `parahoric_walk`, where r/e is the depth
    there: the f-table of each J built afresh by `nested_loop_f` and every
    entry (k, a, b) evaluated at k e + f_a - f_b, with no degree carried
    from J's parent."""
    for J in parahoric_walk(n):
        e, f = len(J), nested_loop_f(n, J)
        yield J, e, -min([k * e + f[a] - f[b] for k, a, b in entries])


def two_walk_certify_slope(m: LaurentMatrix, budget: int | None = DEFAULT_BUDGET) -> SlopeVerdict:
    """`certify_slope` as two full walks of `table_depths`: the first finds
    the least depth, the second tests every parahoric of that depth in
    order and stops at the first fundamental one, or bounds with the first
    of them."""
    _check_budget(budget)
    if m.trunc is not None and m.trunc < 1:
        raise TruncationError(
            "slope certification needs the matrix known through z^0"
        )
    v = m.valuation()
    if v is None or v >= 0:
        return RegularSingularCandidate()
    n = m.n
    count = 1 << (n - 1)
    if budget is not None and count > budget:
        raise BudgetExceededError(
            f"parahoric scan exceeded budget of {budget}: "
            f"{count} standard parahorics at n = {n}"
        )
    least_deg: dict[tuple[int, int], int] = {}
    for deg, i, j in m.monomials():
        least_deg.setdefault((i, j), deg)
    entries = [(k, a, b) for (a, b), k in least_deg.items()]
    depths = table_depths(n, entries)
    _J, least_e, least_r = next(depths)
    for _J, e, r in depths:
        if r * least_e < least_r * e:
            least_r, least_e = r, e
    first: Stratum | None = None
    for J, e, r in table_depths(n, entries):
        if r * least_e != least_r * e:
            continue
        s = leading_stratum(StandardParahoric(n, J), m)
        if is_fundamental(s):
            return CertifiedSlope(s.depth, s)
        if first is None:
            first = s
    assert first is not None
    return UpperBoundOnly(Fraction(least_r, least_e), first)


def parahoric_sets(n: int) -> list[tuple[int, ...]]:
    """Every J inside 0..n-1 that contains 0, sorted lexicographically."""
    return sorted(
        (0,) + combo
        for size in range(n)
        for combo in itertools.combinations(range(1, n), size)
    )


def nested_loop_f(n: int, J: Sequence[int]) -> tuple[int, ...]:
    """f[m] = min{ j in 1..e : j = e or m > n - k_j } for 1 <= m <= n, and
    f[0] = 0: the step of one period of J's lattice chain at which the
    z-exponent of e_m jumps from 0 to 1, found by trying each step."""
    e = len(J)
    f = [0] * (n + 1)
    for m in range(1, n + 1):
        f[m] = e
        for j in range(1, e):
            if m > n - J[j]:
                f[m] = j
                break
    return tuple(f)


def laurent_fundamental(s: Stratum) -> bool:
    """Whether the leading term beta is non-nilpotent, by the Laurent power
    beta^n itself."""
    return not power(s.leading, s.leading.n).is_zero()


def full_scan_slope(m: LaurentMatrix) -> tuple[SlopeVerdict, list[Stratum], list[bool]]:
    """Slope certification by brute force: the leading stratum at every J of
    `parahoric_sets`, read off the degrees k e + f_a - f_b of every monomial
    with f from `nested_loop_f`.  The first stratum that `laurent_fundamental`
    finds non-nilpotent certifies; if none is, the first stratum of least
    depth bounds.  Returns the verdict, every stratum, and whether each
    stratum is fundamental."""
    if m.trunc is not None and m.trunc < 1:
        raise TruncationError("slope certification needs the matrix known through z^0")
    v = m.valuation()
    if v is None or v >= 0:
        return RegularSingularCandidate(), [], []
    n = m.n
    monos = list(scalar_monomials(m))
    strata = []
    for J in parahoric_sets(n):
        e, f = len(J), nested_loop_f(n, J)
        degs = [k * e + f[a] - f[b] for k, a, b, _ in monos]
        dmin = min(degs)
        lead: dict[int, Matrix] = {}
        for (k, a, b, val), d in zip(monos, degs):
            if d == dmin:
                lead.setdefault(k, zeros(n, n))[a - 1][b - 1] = val
        strata.append(Stratum(StandardParahoric(n, J), -dmin, laurent(n, lead)))
    fundamental = [laurent_fundamental(s) for s in strata]
    if True in fundamental:
        s = strata[fundamental.index(True)]
        return CertifiedSlope(s.depth, s), strata, fundamental
    least = min(s.depth for s in strata)
    return UpperBoundOnly(least, next(s for s in strata if s.depth == least)), strata, fundamental


# Laurent polynomials over Z[i] as {degree: (re, im)}, with no zero value
GaussPoly = dict[int, tuple[int, int]]


def _poly_add(p: GaussPoly, q: GaussPoly, sign: int = 1) -> GaussPoly:
    out = dict(p)
    for d, (c, e) in q.items():
        a, b = out.get(d, (0, 0))
        out[d] = (a + sign * c, b + sign * e)
    return {d: v for d, v in out.items() if v != (0, 0)}


def _poly_mul(p: GaussPoly, q: GaussPoly) -> GaussPoly:
    out: dict[int, tuple[int, int]] = {}
    for d1, (a, b) in p.items():
        for d2, (c, e) in q.items():
            x, y = out.get(d1 + d2, (0, 0))
            out[d1 + d2] = (x + a * c - b * e, y + a * e + b * c)
    return {d: v for d, v in out.items() if v != (0, 0)}


def _minors(columns: Sequence[Sequence[GaussPoly]]) -> dict[tuple[int, ...], GaussPoly]:
    """The determinant of every choice of n of the given columns of length
    n, by expansion along the rows: the minors on the first r rows, keyed by
    their sorted column indices, give those on the first r + 1."""
    n = len(columns[0])
    minors: dict[tuple[int, ...], GaussPoly] = {(): {0: (1, 0)}}
    for r in range(n):
        wider = {}
        for cols in itertools.combinations(range(len(columns)), r + 1):
            det: GaussPoly = {}
            for k, c in enumerate(cols):
                term = _poly_mul(columns[c][r], minors[cols[:k] + cols[k + 1:]])
                det = _poly_add(det, term, -1 if (r + k) % 2 else 1)
            wider[cols] = det
        minors = wider
    return minors


def katz_invariant(m: LaurentMatrix) -> Fraction:
    """The slope of d + M dz/z at z = 0 from a cyclic vector, reading only
    m.n and m.coeffs, so it shares no code with `certify_slope`.

    With M = M'/den over Z[i], v_0 = w and v_{k+1} = den theta v_k + M' v_k
    (theta = z d/dz) are den^k times the k-th derivative of w along theta,
    exact at every order of z.  The first w of e_1, ..., e_n, then
    (1, z^s, z^2s, ...) for s = 1, 2, ..., with W = [v_0 ... v_{n-1}]
    invertible is cyclic (a constant w is not always: M scalar).  Then
    v_n = -sum_k a_k v_k, and by Cramer ord a_k = ord det W_k - ord det W,
    with W_k the matrix W with column k replaced by -v_n.  The slope is
    max(0, max_k -ord(a_k) / (n - k)) (Katz, Invent. Math. 87, 1987)."""
    n = m.n
    den = math.lcm(*(d for _, _, d in m.coeffs.values()))
    entries: list[list[GaussPoly]] = [[{} for _ in range(n)] for _ in range(n)]
    for deg, (re, im, d) in m.coeffs.items():
        for a in range(n):
            for b in range(n):
                if re[a][b] or im[a][b]:
                    entries[a][b][deg] = (re[a][b] * (den // d), im[a][b] * (den // d))

    def step(v: list[GaussPoly]) -> list[GaussPoly]:
        out = []
        for a in range(n):
            acc = {d: (den * d * x, den * d * y) for d, (x, y) in v[a].items() if d}
            for b in range(n):
                acc = _poly_add(acc, _poly_mul(entries[a][b], v[b]))
            out.append(acc)
        return out

    starts = [[{0: (1, 0)} if a == b else {} for a in range(n)] for b in range(n)]
    starts += [[{a * s: (1, 0)} for a in range(n)] for s in range(1, n + 2)]
    for w in starts:
        vs = [w]
        for _ in range(n):
            vs.append(step(vs[-1]))
        minors = _minors(vs)
        if minors[tuple(range(n))]:
            break
    else:
        raise AssertionError("no cyclic vector among the starts")
    order = min(minors[tuple(range(n))])
    kappa = Fraction(0)
    for k in range(n):
        det_k = minors[tuple(c for c in range(n + 1) if c != k)]
        if det_k:  # a_k = 0 bounds nothing
            kappa = max(kappa, Fraction(order - min(det_k), n - k))
    return kappa


def cartan_rows(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """The dense Cartan matrix of q, by definition: C_ij = 2 delta_ij -
    #{arrows between i and j}, arrows counted undirected."""
    verts = q.vertices
    pos = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    counts = [[0] * n for _ in range(n)]
    for tail, head in q.arrows:
        a, b = pos[tail], pos[head]
        counts[a][b] += 1
        counts[b][a] += 1
    return tuple(
        tuple(2 if i == j else -counts[i][j] for j in range(n)) for i in range(n)
    )


def classify_by_full_pairing(q: Quiver, beta: VecLike) -> RootClass:
    """The reflection descent of `classify_root` with the whole pairing C b
    formed again after every reflection: its oracle."""
    b = list(q.as_vector(beta))
    if all(x == 0 for x in b):
        raise InputError("classify_root needs a nonzero vector")
    if all(x <= 0 for x in b):
        b = [-x for x in b]
    if any(x < 0 for x in b):
        return RootClass.NOT_ROOT
    while True:
        if sum(b) == 1:
            return RootClass.REAL
        pair = q._pair(b)
        k = next((i for i, p in enumerate(pair) if p > 0), None)
        if k is None:
            if _support_connected(q, b):
                return RootClass.IMAGINARY
            return RootClass.NOT_ROOT
        b[k] -= pair[k]
        if b[k] < 0:
            return RootClass.NOT_ROOT


def bilinear(q: Quiver, beta: VecLike, gamma: VecLike) -> int:
    """beta^t C gamma."""
    return sum(map(operator.mul, q.as_vector(beta), q.pairing(gamma)))


def positive_roots_leq(
    q: Quiver, alpha: VecLike, budget: int | None = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All positive roots beta with beta <= alpha componentwise, sorted."""
    a = q.as_vector(alpha)
    if any(x < 0 for x in a):
        raise InputError("alpha must be componentwise nonnegative")
    _after_box(a, budget)
    return [
        b for b in _form_zeros(a, ())
        if any(b) and classify_root(q, b) is not RootClass.NOT_ROOT
    ]


def decompositions(
    alpha: tuple[int, ...],
    parts: list[tuple[int, ...]],
    budget: int | None,
    min_parts: int = 2,
) -> Iterator[list[tuple[int, ...]]]:
    """Multiset decompositions of alpha into >= min_parts vectors from parts.

    Parts are chosen in nondecreasing lexicographic order with componentwise
    pruning. The budget counts search nodes; exceeding it raises.
    """
    nodes = 0
    n = len(alpha)

    def walk(
        remaining: tuple[int, ...], start: int, chosen: list[tuple[int, ...]]
    ) -> Iterator[list[tuple[int, ...]]]:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"decomposition search exceeded budget of {budget} nodes"
            )
        if all(x == 0 for x in remaining):
            if len(chosen) >= min_parts:
                yield list(chosen)
            return
        for idx in range(start, len(parts)):
            cand = parts[idx]
            if all(cand[i] <= remaining[i] for i in range(n)):
                chosen.append(cand)
                yield from walk(
                    tuple(remaining[i] - cand[i] for i in range(n)), idx, chosen
                )
                chosen.pop()

    yield from walk(alpha, 0, [])


def rigidity_by_descent(
    orbits: Sequence[OrbitSpec],
    seqs: Sequence[Sequence[Factor]] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> FuchsianRigidity:
    """`fuchsian_rigidity` with the class of alpha read from a second
    reflection descent rather than from p(alpha): its oracle."""
    data = build_cb_data(orbits, seqs)
    if not in_sigma_lambda(data.quiver, data.alpha, data.lam, budget):
        return FuchsianRigidity.EMPTY
    if classify_root(data.quiver, data.alpha) is RootClass.REAL:
        return FuchsianRigidity.RIGID_SINGLETON
    return FuchsianRigidity.INFINITE


def root_part_readings(
    q: Quiver,
    alpha: tuple[int, ...],
    lam: LambdaForm,
    lattice: Sequence[Sequence[int]],
    budget: int | None = None,
) -> tuple[bool, bool]:
    """`HiroeData.readings` (parts>=3, parts>=2) with only roots admitted as
    parts: the vectors of L that `sigma_candidates` gives, filtered by
    `classify_root`."""
    candidates = sigma_candidates(q, alpha, lam, budget, lattice)
    if candidates is None:
        return False, False
    roots = [b for b in candidates if classify_root(q, b) is not RootClass.NOT_ROOT]
    p_alpha = p_value(q, alpha)
    two, three = best_p_sums(q, alpha, roots, budget)
    return three is None or three < p_alpha, two is None or two < p_alpha


def build_base_quiver(d: UnramFormalType) -> Quiver:
    """Base quiver of a single irregular type: vertices 1..ell, and
    deg_{z^-1}(q_j - q_j') - 1 arrows j -> j' for j < j'."""
    if not d.is_irregular():
        raise InputError("base quiver is defined for irregular formal types")
    arrows = [(j, jp) for (_, j), (_, jp) in _intra_type_arrows(d, 0)]
    return Quiver(list(range(1, d.ell + 1)), arrows)


def vector(q: Quiver, mapping: Mapping[Vertex, int]) -> tuple[int, ...]:
    """A vector given by vertex (absent vertices 0) as the integer tuple
    aligned with q.vertices that the root functions read."""
    unknown = set(mapping) - set(q.vertices)
    if unknown:
        raise InputError(f"unknown vertices in vector: {sorted(map(repr, unknown))}")
    vec = []
    for v in q.vertices:
        x = mapping.get(v, 0)
        try:
            vec.append(operator.index(x))
        except TypeError:
            raise InputError(f"vector entry {v!r} is not an integer: {x!r}") from None
    return tuple(vec)


def lambda_forms(q: Quiver, mapping: Mapping[Vertex, ScalarLike]) -> LambdaForm:
    """lambda given by vertex (absent vertices 0) as the integer forms the
    deciders read: over one common denominator den, aligned with q.vertices,
    the integers re, im with lambda_v = (re_v + i im_v) / den."""
    unknown = set(mapping) - set(q.vertices)
    if unknown:
        raise InputError(f"unknown vertices in deformation vector: {sorted(map(repr, unknown))}")
    (re,), (im,), den = gaussian([[Scalar.of(mapping.get(v, 0)) for v in q.vertices]])
    return re, im, den


def lambda_values(data) -> dict[Vertex, Scalar]:
    """lambda of a `CBData` or a `HiroeData` by vertex, in the order of
    quiver.vertices."""
    re, im, den = data.lam
    return {v: Scalar(Fraction(x, den), Fraction(y, den))
            for v, x, y in zip(data.quiver.vertices, re, im, strict=True)}


def dot_lambda(q: Quiver, beta: VecLike, lam: Mapping[Vertex, ScalarLike]) -> Scalar:
    """The pairing beta . lambda."""
    re, im, den = lambda_forms(q, lam)
    b = q.as_vector(beta)
    return Scalar(
        Fraction(sum(map(operator.mul, b, re)), den),
        Fraction(sum(map(operator.mul, b, im)), den),
    )


def alpha_dot_lambda(data) -> Scalar:
    """alpha . lambda of a `CBData` or a `HiroeData`."""
    return dot_lambda(data.quiver, data.alpha, lambda_values(data))


def sympy_charpoly(b: Matrix) -> list[tuple[int, int]]:
    """The coefficients p_0..p_n of det(t - b) by sympy's `charpoly`, as
    (re, im) pairs, for a square matrix b with Gaussian-integer entries."""
    import sympy

    sm = sympy.Matrix([[int(c.re) + sympy.I * int(c.im) for c in row] for row in b])
    return [(int(sympy.re(c)), int(sympy.im(c))) for c in reversed(sm.charpoly().all_coeffs())]


def sympy_rank(a: Matrix) -> int:
    """The rank of a matrix of Gaussian rationals by sympy's `rank`."""
    import sympy

    q = lambda x: sympy.Rational(x.numerator, x.denominator)
    return sympy.Matrix([[q(c.re) + sympy.I * q(c.im) for c in row] for row in a]).rank()


def is_nonresonant(b0: Matrix) -> bool:
    """No two eigenvalues of b0 differ by a nonzero rational integer.

    Eigenvalues are computed exactly by factoring the characteristic
    polynomial over the Gaussian rationals; a matrix with eigenvalues outside
    Q(i) is rejected rather than approximated.
    """
    import sympy

    rows, cols = dims(b0)
    if rows != cols:
        raise InputError("nonresonance is defined for square matrices")
    x = sympy.Symbol("x")
    sm = sympy.Matrix(
        [[sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in row]
         for row in b0]
    )
    charpoly = sm.charpoly(x).as_expr()
    _, factors = sympy.factor_list(charpoly, gaussian=True)
    eigs: list[Scalar] = []
    for fac, _mult in factors:
        poly = sympy.Poly(fac, x)
        if poly.degree() == 0:
            continue
        if poly.degree() > 1:
            raise InputError(
                "matrix has eigenvalues outside Q(i): irreducible factor "
                f"{fac} of the characteristic polynomial"
            )
        root = sympy.together(-poly.nth(0) / poly.nth(1))
        re_part, im_part = root.as_real_imag()
        re_q = sympy.Rational(re_part)
        im_q = sympy.Rational(im_part)
        eigs.append(Scalar(Fraction(re_q.p, re_q.q), Fraction(im_q.p, im_q.q)))
    return pairwise_congruent_pair(eigs) is None  # the eigenvalues are distinct
