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


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational a + bi with exact arithmetic."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def of(value: "ScalarLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise InputError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: "ScalarLike") -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __sub__(self, other: "ScalarLike") -> "Scalar":
        return self + (-Scalar.of(other))

    def __rsub__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) + (-self)

    def __mul__(self, other: "ScalarLike") -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "Scalar":
        o = Scalar.of(other)
        nrm = o.re * o.re + o.im * o.im
        if nrm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * Scalar(o.re / nrm, -o.im / nrm)

    def __rtruediv__(self, other: "ScalarLike") -> "Scalar":
        return Scalar.of(other) / self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # Match the hash of plain rationals so Scalar(1,0) == Fraction(1) hashes alike.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def is_rational(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def differs_by_nonzero_int(self, other: "ScalarLike") -> bool:
        """Whether self - other is a nonzero rational integer (the resonance test)."""
        d = self - Scalar.of(other)
        return bool(d) and d.is_integer()

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im_part = "i"
        elif self.im == -1:
            im_part = "-i"
        else:
            im_part = f"{self.im}i"
        if self.re == 0:
            return im_part
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im_part}"

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
        try:
            if tail_i:  # has an imaginary part
                if second is not None:  # "1+i", "-i", "7-2/3i"; a bare sign stands for 1
                    re_part = Fraction(first) if first else Fraction(0)
                    im_part = Fraction({"+": "1", "-": "-1"}.get(second, second))
                    return Scalar(re_part, im_part)
                # pure imaginary: "i", "2i", "-3/4i"
                return Scalar(0, Fraction(first) if first else Fraction(1))
            if second is not None:
                raise InputError(f"cannot parse scalar {text!r}")
            if first is None:
                raise InputError(f"cannot parse scalar {text!r}")
            return Scalar(Fraction(first))
        except ZeroDivisionError as exc:
            raise InputError(f"zero denominator in scalar {text!r}") from exc


ScalarLike = Union[Scalar, int, Fraction]

ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


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
    p = as_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part >= k) for k in range(1, p[0] + 1))


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
        items: list[tuple[Scalar, Partition]] = []
        for eig, part in blocks:
            items.append((Scalar.of(eig), as_partition(part)))
        items.sort(key=lambda ep: ep[0].sort_key())
        eigs = [e for e, _ in items]
        if len({e.sort_key() for e in eigs}) != len(eigs):
            raise InputError("orbit eigenvalues must be pairwise distinct")
        total = sum(weight(part) for _, part in items)
        if total != n:
            raise InputError(f"partition weights sum to {total}, expected n={n}")
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

    def multiplicity(self, eig: ScalarLike) -> int:
        return weight(self.partition_for(eig))

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

    def max_block(self, eig: ScalarLike) -> int:
        return self.partition_for(eig)[0]

    def block_count(self, eig: ScalarLike) -> int:
        return len(self.partition_for(eig))

    def min_poly_degree(self) -> int:
        return sum(part[0] for _, part in self.blocks)

    def is_scalar(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0][1] == (1,) * self.n

    def is_nilpotent(self) -> bool:
        return len(self.blocks) == 1 and not self.blocks[0][0]

    def is_nonresonant(self) -> bool:
        """No two distinct eigenvalues differ by a nonzero rational integer."""
        eigs = self.eigenvalues()
        for i in range(len(eigs)):
            for j in range(i + 1, len(eigs)):
                if eigs[i].differs_by_nonzero_int(eigs[j]):
                    return False
        return True

    def negated(self) -> "OrbitSpec":
        return OrbitSpec(self.n, [(-e, part) for e, part in self.blocks])

    def translated(self, t: ScalarLike) -> "OrbitSpec":
        return OrbitSpec(self.n, [(e + t, part) for e, part in self.blocks])

    # -- factor sequences for the minimal polynomial -------------------------

    def default_factor_sequence(self) -> tuple[Scalar, ...]:
        """Round-robin over distinct eigenvalues by decreasing max block size
        (ties by eigenvalue sort key); eigenvalue count = its max block size."""
        order = sorted(self.blocks, key=lambda ep: (-ep[1][0], ep[0].sort_key()))
        remaining = [[e, part[0]] for e, part in order]
        seq: list[Scalar] = []
        while any(cnt > 0 for _, cnt in remaining):
            for item in remaining:
                if item[1] > 0:
                    seq.append(item[0])
                    item[1] -= 1
        return tuple(seq)

    def validate_factor_sequence(self, seq: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
        got = [Scalar.of(x) for x in seq]
        counts: dict[tuple[Fraction, Fraction], int] = {}
        for x in got:
            counts[x.sort_key()] = counts.get(x.sort_key(), 0) + 1
        expected = {e.sort_key(): part[0] for e, part in self.blocks}
        if counts != expected:
            raise InputError(
                "factor sequence must list each eigenvalue exactly max-block-size times"
            )
        return tuple(got)


def factor_ranks(o: OrbitSpec, seq: Sequence[ScalarLike]) -> list[int]:
    """Ranks of the partial products prod_{l<=j} (C - seq[l-1]), j = 0..d,
    for any C in the orbit.

    A Jordan block of size mu at eigenvalue eta loses one rank per factor
    (C - eta) until it vanishes, and is untouched by the other factors.  So
    factor j lowers the rank by the number of blocks at seq[j-1] larger than
    the count t of earlier factors there: entry t of the dual partition.
    """
    factors = o.validate_factor_sequence(seq)
    drops = {e.sort_key(): dual_partition(part) for e, part in o.blocks}
    used = dict.fromkeys(drops, 0)
    ranks = [o.n]
    for x in factors:
        key = x.sort_key()
        ranks.append(ranks[-1] - drops[key][used[key]])
        used[key] += 1
    return ranks


def orbit_dim(o: OrbitSpec) -> int:
    """Dimension of the orbit: n^2 minus the centralizer dimension
    sum over eigenvalues of the squared parts of the dual partition."""
    cent = 0
    for _, part in o.blocks:
        cent += sum(d * d for d in dual_partition(part))
    return o.n * o.n - cent
