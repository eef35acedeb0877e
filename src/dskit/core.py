"""Exact scalars, partitions, and adjoint-orbit specifications.

Everything downstream (quiver criteria, filtrations, point counts) runs on the
Gaussian rationals Q(i): zero-tests such as "does this pairing vanish" and
"do two eigenvalues differ by a nonzero integer" must be decidable, which rules
out floats and unstructured algebraic numbers.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import InputError

Rational = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational a + bi with exact arithmetic: slotted, immutable,
    with `Fraction` parts.  Arithmetic builds its result from the parts it
    has (`_scalar`) and skips the work a zero part makes trivial."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rational = 0, im: Rational = 0):
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    @staticmethod
    def of(value: "ScalarLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
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

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

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


ZERO = Scalar(0)


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
    p = tuple(int(x) for x in parts)
    if any(x <= 0 for x in p):
        raise InputError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise InputError(f"partition parts must be weakly decreasing: {p}")
    return p


def weight(p: Partition) -> int:
    return sum(p)


def dual_partition(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    return _dual(as_partition(p))


def _dual(p: Partition) -> Partition:
    """Transpose of the Young diagram of a partition already validated."""
    return tuple(sum(1 for part in p if part >= k) for k in range(1, p[0] + 1)) if p else ()


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
# Orbit specifications: eigenvalues with Jordan partitions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpec:
    """An adjoint orbit in gl_n, given by distinct eigenvalues and a Jordan
    partition at each; stored sorted by eigenvalue so equal orbits compare equal."""

    n: int
    blocks: tuple[tuple[Scalar, Partition], ...]

    def __init__(self, n: int, blocks: Iterable[tuple[ScalarLike, Iterable[int]]]):
        items = sorted(
            ((Scalar.of(e), as_partition(part)) for e, part in blocks),
            key=lambda ep: ep[0].sort_key(),
        )
        if any(a[0] == b[0] for a, b in zip(items, items[1:])):
            raise InputError("orbit eigenvalues must be pairwise distinct")
        total = sum(weight(part) for _, part in items)
        if total != n:
            raise InputError(f"partition weights sum to {_int_str(total)}, expected n={n}")
        if n <= 0:
            raise InputError(f"need n >= 1, got n={n}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "blocks", tuple(items))

    # -- basic views --------------------------------------------------------

    def eigenvalues(self) -> tuple[Scalar, ...]:
        return tuple(e for e, _ in self.blocks)

    def partition_for(self, eig: ScalarLike) -> Partition:
        e = Scalar.of(eig)
        for ee, part in self.blocks:
            if ee == e:
                return part
        raise InputError(f"{e} is not an eigenvalue of this orbit")

    def trace(self) -> Scalar:
        t = Scalar(0)
        for e, part in self.blocks:
            t = t + e * weight(part)
        return t

    def determinant(self) -> Scalar:
        """Product of eigenvalues with multiplicity."""
        d = Scalar(1)
        for e, part in self.blocks:
            for _ in range(weight(part)):
                d = d * e
        return d

    def block_count(self, eig: ScalarLike) -> int:
        return len(self.partition_for(eig))

    def is_scalar(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0][1] == (1,) * self.n

    def is_nilpotent(self) -> bool:
        return len(self.blocks) == 1 and not self.blocks[0][0]

    def is_nonresonant(self) -> bool:
        """No two distinct eigenvalues differ by a nonzero rational integer."""
        return congruent_pair(self.eigenvalues()) is None

    def negated(self) -> "OrbitSpec":
        return OrbitSpec(self.n, [(-e, part) for e, part in self.blocks])


def congruent_pair(values: Sequence[Scalar]) -> tuple[int, int] | None:
    """The first i < j (i least, then j) with values[i] - values[j] in Z: the
    resonance rule.  Two values are congruent mod Z iff they have the same
    (re mod 1, im), so one sort by that key and index finds each class."""
    keys = sorted((v.re % 1, v.im, i) for i, v in enumerate(values))
    return min(((a[2], b[2]) for a, b in zip(keys, keys[1:]) if a[:2] == b[:2]), default=None)


def residue_arm(
    o: OrbitSpec, seq: Sequence[ScalarLike] | None = None
) -> tuple[list[int], tuple[Scalar, ...]]:
    """The ranks r_0..r_d of prod_{l<=j} (C - eta_l), for any C in the orbit,
    and the factors eta_1..eta_d: seq, or the default sequence if it is None.

    Factors are positions p in o.blocks.  The default is a round robin over
    them by decreasing largest part (ties by position), each taken as often
    as its largest part; an explicit sequence must match that count.  The
    t-th factor at p lowers the rank by the number of blocks at p larger
    than t (entry t of the dual partition): the others are untouched."""
    blocks = o.blocks
    top = [part[0] for _, part in blocks]
    if seq is None:
        order = sorted(range(len(blocks)), key=lambda p: -top[p])
        positions = [p for t in range(top[order[0]]) for p in order if top[p] > t]
    else:
        index = {e.sort_key(): p for p, (e, _) in enumerate(blocks)}
        positions = [index.get(Scalar.of(x).sort_key(), -1) for x in seq]
        if sorted(positions) != [p for p, mu in enumerate(top) for _ in range(mu)]:
            raise InputError(
                "factor sequence must list each eigenvalue exactly max-block-size times"
            )
    drops = [iter(_dual(part)) for _, part in blocks]
    ranks = [o.n]
    for p in positions:
        ranks.append(ranks[-1] - next(drops[p]))
    return ranks, tuple(blocks[p][0] for p in positions)


def orbit_dim(o: OrbitSpec) -> int:
    """Dimension of the orbit: n^2 minus the centralizer dimension
    sum over eigenvalues of the squared parts of the dual partition."""
    cent = 0
    for _, part in o.blocks:
        cent += sum(d * d for d in _dual(part))
    return o.n * o.n - cent
