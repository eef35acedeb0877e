"""Gaussian rationals as integer triples, partitions, and adjoint-orbit
specifications.

Everything downstream (quiver criteria, filtrations, point counts) runs on the
Gaussian rationals Q(i): zero-tests such as "does this pairing vanish" and
"do two eigenvalues differ by a nonzero integer" must be decidable, which rules
out floats and unstructured algebraic numbers.
"""

from __future__ import annotations

import operator
import re as _re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import InputError
from .frozen import Frozen


class Scalar:
    """A name and nothing more: the benchmark's tracer (`bench/spans.py`)
    counts calls to `core.Scalar.__init__` as `core.scalars_created`.  The
    package makes no Scalar, so that count is 0; a Gaussian rational is its
    reduced triple (`as_triple`), read by `parse_gaussian` and written by
    `gaussian_str`."""

    __slots__ = ()

    def __init__(self) -> None:
        raise TypeError("dskit makes no Scalar: a Gaussian rational is its reduced triple")


def _int_str(x: int) -> str:
    """str(x) for a message, or x's size in bits when it is past the
    interpreter's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"an integer of {x.bit_length()} bits"


# ---------------------------------------------------------------------------
# Partitions (weakly decreasing positive integer tuples) under dominance.
# ---------------------------------------------------------------------------

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a partition; zero parts are rejected, not dropped."""
    p = tuple(map(int, parts))
    if p and min(p) <= 0:
        raise InputError(f"partition parts must be positive: {p}")
    if any(map(operator.lt, p, p[1:])):
        raise InputError(f"partition parts must be weakly decreasing: {p}")
    return p


def dual_partition(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    return _dual(as_partition(p))


def _dual(p: Partition) -> Partition:
    """Transpose of the Young diagram of a partition already validated, in
    one pass from the least part up: the first k parts are each at least
    p[k-1], so entries len(dual)+1 .. p[k-1] of the dual are k."""
    d: list[int] = []
    for k in range(len(p), 0, -1):
        d += [k] * (p[k - 1] - len(d))
    return tuple(d)


def min_partition_with_r_parts(r: int, m: int) -> Partition:
    """The dominance-least partition of m with at most r parts.

    Writing m = k*r + r' with 0 <= r' < r, this is (k+1) repeated r' times
    followed by k repeated r - r' times, zero parts dropped; only the
    min(r, m) nonzero parts are built.
    """
    if r < 1:
        raise InputError(f"need r >= 1, got {r}")
    if m < 0:
        raise InputError(f"need m >= 0, got {m}")
    k, rp = divmod(m, r)
    return (k + 1,) * rp + (k,) * (r - rp if k else 0)


def partitions_of(m: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of m, largest part first, in reverse-lexicographic order."""
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    top = m if max_part is None else min(m, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(m - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Gaussian rationals as reduced triples.
# ---------------------------------------------------------------------------


# a Gaussian rational (re + i im) / den in lowest terms: den > 0 and no prime
# divides re, im and den together, so equal values give equal triples
Triple = tuple[int, int, int]
# a Gaussian rational as `as_triple` reads it: an int, a Fraction or an
# integer triple (re, im, den) with den != 0
Factor = Union[int, Fraction, Triple]


def cell_triple(a: int, b: int, c: int, d: int) -> Triple:
    """The cell a/b + i c/d, each part in lowest terms over a positive
    denominator, as its triple over lcm(b, d), which is reduced: a prime p
    of the lcm divides b, say, as often as the lcm, so p divides neither a
    nor lcm // b."""
    den = lcm(b, d)
    return a * (den // b), c * (den // d), den


def as_triple(x: Factor) -> Triple:
    """x as its reduced triple (re, im, den).  A triple is divided by the
    gcd of its entries, with the sign of den, so (-1, 0, -1) is 1; one with
    a zero den or an entry that is not an int (a bool among them) is
    refused."""
    if type(x) is tuple and len(x) == 3:
        re, im, den = x
        if not (type(re) is int and type(im) is int and type(den) is int):
            raise InputError(f"the triple {x!r} must hold integers (re, im, den)")
        if not den:
            raise InputError(f"the triple {x!r} has a zero denominator")
        g = gcd(re, im, den) if den > 0 else -gcd(re, im, den)
        return x if g == 1 else (re // g, im // g, den // g)
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise InputError(f"cannot interpret {x!r} as a Gaussian rational")


# "3", "-1/2", "i", "2-i", "1/2+3/4i": a rational, then a signed rational
# or a bare sign, then i; which parts may be missing is checked by the parser
_GAUSSIAN = _re.compile(r"^([+-]?\d+(?:/\d+)?)?([+-](?:\d+(?:/\d+)?)?)?(i?)$")


def _rational(token: str, text: str) -> tuple[int, int]:
    """The rational [+-]a[/b] of token as (a, b) in lowest terms, b > 0."""
    num, _, den = token.partition("/")
    try:
        a, b = int(num), int(den or 1)
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"cannot parse scalar: {exc}") from exc
    if not b:
        raise InputError(f"zero denominator in scalar {text!r}")
    g = gcd(a, b)
    return a // g, b // g


def parse_gaussian(text: str) -> Triple:
    """The reduced triple of strings like "3", "-1/2", "i", "2-i",
    "1/2+3/4i"; spaces are ignored, and a bare sign before i stands for 1."""
    s = text.strip().replace(" ", "")
    if not s:
        raise InputError("empty scalar string")
    m = _GAUSSIAN.match(s)
    if not m:
        raise InputError(f"cannot parse scalar {text!r}")
    first, second, tail_i = m.groups()
    if not tail_i:
        if second is not None or first is None:
            raise InputError(f"cannot parse scalar {text!r}")
        a, b = _rational(first, text)
        return a, 0, b
    if second is None:  # pure imaginary: "i", "2i", "-3/4i"
        c, d = _rational(first, text) if first else (1, 1)
        return 0, c, d
    a, b = _rational(first, text) if first else (0, 1)
    c, d = _rational(second + "1" if len(second) == 1 else second, text)
    return cell_triple(a, b, c, d)


def _ratio_str(a: int, d: int) -> str:
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


def gaussian_str(re: int, im: int, den: int) -> str:
    """The text of (re + i im) / den, den > 0, in the form `parse_gaussian`
    reads: each part in lowest terms, the imaginary one last, and i for 1i."""
    if not im:
        return _ratio_str(re, den)
    i = "i" if im == den else "-i" if im == -den else _ratio_str(im, den) + "i"
    if not re:
        return i
    return f"{_ratio_str(re, den)}{'+' if im > 0 else ''}{i}"


# ---------------------------------------------------------------------------
# Orbit specifications: eigenvalues with Jordan partitions.
# ---------------------------------------------------------------------------


class OrbitSpec(Frozen):
    """An adjoint orbit in gl_n, given by distinct eigenvalues and a Jordan
    partition at each.  Eigenvalue k is (re[k] + i im[k]) / den, over one
    denominator den, the lcm of the reduced denominators, and the blocks are
    sorted by (re, im), so equal orbits compare equal."""

    __slots__ = ("n", "den", "re", "im", "parts")

    n: int
    den: int
    re: tuple[int, ...]
    im: tuple[int, ...]
    parts: tuple[Partition, ...]

    def __init__(self, n: int, blocks: Iterable[tuple[Factor, Iterable[int]]]):
        """The orbit of (eigenvalue, partition) pairs, each eigenvalue in any
        form `as_triple` reads."""
        triples, parts = [], []
        for e, part in blocks:
            triples.append(as_triple(e))
            parts.append(as_partition(part))
        den = lcm(*[t[2] for t in triples])
        keys = sorted([(x * (den // d), y * (den // d), k) for k, (x, y, d) in enumerate(triples)])
        for a, b in zip(keys, keys[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                raise InputError("orbit eigenvalues must be pairwise distinct")
        total = sum(map(sum, parts))
        if total != n:
            raise InputError(f"partition weights sum to {_int_str(total)}, expected n={n}")
        if n <= 0:
            raise InputError(f"need n >= 1, got n={n}")
        re, im, order = zip(*keys)  # keys is not empty: n >= 1 is the sum of the parts
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "parts", tuple(parts[k] for k in order))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OrbitSpec:
            return NotImplemented
        return (self.n, self.den, self.re, self.im, self.parts) == (
            other.n, other.den, other.re, other.im, other.parts)

    def __hash__(self) -> int:
        return hash((self.n, self.den, self.re, self.im, self.parts))

    def __repr__(self) -> str:
        return (f"OrbitSpec(n={self.n!r}, den={self.den!r}, re={self.re!r}, im={self.im!r}, "
                f"parts={self.parts!r})")

    def partition_for(self, eig: Factor) -> Partition:
        key = _over(eig, self.den)
        for xy, part in zip(zip(self.re, self.im), self.parts):
            if xy == key:
                return part
        raise InputError(f"{gaussian_str(*as_triple(eig))} is not an eigenvalue of this orbit")

    def block_count(self, eig: Factor) -> int:
        return len(self.partition_for(eig))

    def is_scalar(self) -> bool:
        return len(self.parts) == 1 and self.parts[0] == (1,) * self.n

    def is_nilpotent(self) -> bool:
        return len(self.parts) == 1 and not self.re[0] and not self.im[0]

    def is_nonresonant(self) -> bool:
        """No two distinct eigenvalues differ by a nonzero rational integer."""
        return congruent_pair(self.re, self.im, self.den) is None


def _over(x: Factor, den: int) -> tuple[int, int] | None:
    """x times den as the integers (re, im), or None if that is not in Z[i]:
    a reduced triple's den must divide den."""
    re, im, d = as_triple(x)
    k, r = divmod(den, d)
    return None if r else (re * k, im * k)


def congruent_pair(re: Sequence[int], im: Sequence[int], den: int) -> tuple[int, int] | None:
    """The first i < j (i least, then j) with (re[i] - re[j]) / den in Z and
    im[i] = im[j], for the values (re[k] + im[k] sqrt(-1)) / den, den > 0:
    the resonance rule.  Two values are congruent mod Z iff they have the same
    (re mod den, im), so one sort by that key and index finds each class."""
    keys = sorted((x % den, y, i) for i, (x, y) in enumerate(zip(re, im)))
    return min(((a[2], b[2]) for a, b in zip(keys, keys[1:]) if a[:2] == b[:2]), default=None)


def residue_arm(
    o: OrbitSpec, seq: Sequence[Factor] | None = None
) -> tuple[list[int], list[int], list[int]]:
    """The ranks r_0..r_d of prod_{l<=j} (C - eta_l), for any C in the orbit,
    and the factors eta_1..eta_d as their real and imaginary numerators over
    o.den: seq, or the default sequence if it is None.

    Factors are positions p in o's blocks.  The default is a round robin over
    them by decreasing largest part (ties by position), each taken as often
    as its largest part; an explicit sequence must match that count.  The
    t-th factor at p lowers the rank by the number of blocks at p larger
    than t (entry t of the dual partition): the others are untouched."""
    top = [part[0] for part in o.parts]
    if seq is None:
        # round t takes the positions whose largest part exceeds t, a prefix of order
        order = sorted(range(len(top)), key=top.__getitem__, reverse=True)  # ties keep position order
        positions = []
        live = len(order)
        for t in range(top[order[0]]):
            while top[order[live - 1]] <= t:
                live -= 1
            positions += order[:live]
    else:
        index = {xy: p for p, xy in enumerate(zip(o.re, o.im))}
        positions = [index.get(_over(x, o.den), -1) for x in seq]
        if sorted(positions) != [p for p, mu in enumerate(top) for _ in range(mu)]:
            raise InputError(
                "factor sequence must list each eigenvalue exactly max-block-size times"
            )
    drops = [iter(_dual(part)) for part in o.parts]
    ranks = [o.n]
    for p in positions:
        ranks.append(ranks[-1] - next(drops[p]))
    return ranks, [o.re[p] for p in positions], [o.im[p] for p in positions]


def orbit_dim(o: OrbitSpec) -> int:
    """Dimension of the orbit: n^2 minus the centralizer dimension
    sum over eigenvalues of the squared parts of the dual partition."""
    cent = 0
    for part in o.parts:
        cent += sum(d * d for d in _dual(part))
    return o.n * o.n - cent
