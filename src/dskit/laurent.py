"""Matrix Laurent series in z with explicit truncation tracking.

A LaurentMatrix stores finitely many coefficient matrices, indexed by degree,
each as a `linalg.Gaussian` triple (re, im, den): the matrix (re + i im) / den
over its least denominator den > 0, so that equal coefficients are equal
triples.  `trunc` is the first unknown degree: coefficients at degrees < trunc
are exact, everything at >= trunc has been discarded. trunc=None means the
series is a genuine Laurent polynomial, exact at all degrees.

It holds the matrix M of d + M dz/z that the deciders read, and the gauge
that `regsing_normalize` returns: coefficients, support and truncation.  It
does no arithmetic.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Iterator

from . import linalg
from .core import as_int, gaussian_str
from .errors import InputError, TruncationError
from .frozen import Record


class LaurentMatrix(Record):
    __slots__ = ("n", "coeffs", "trunc")

    n: int
    coeffs: dict[int, linalg.Gaussian]
    trunc: int | None

    def __init__(
        self,
        n: int,
        coeffs: dict[int, linalg.Gaussian] | None = None,
        trunc: int | None = None,
    ):
        """The series with the coefficient (re + i im) / den at each degree
        deg of coeffs, a nonzero den; zero coefficients and those at or past
        trunc are dropped, and the rest are kept over their least
        denominator."""
        n = as_int(n, "n")
        if n < 1:
            raise InputError(f"need n >= 1, got {n}")
        trunc = None if trunc is None else as_int(trunc, "trunc")
        kept: dict[int, linalg.Gaussian] = {}
        for deg, (re, im, den) in (coeffs or {}).items():
            deg = as_int(deg, "a degree")
            if len(re) != n or len(im) != n or set(map(len, chain(re, im))) != {n}:
                raise InputError(f"coefficient at degree {deg} is not {n}x{n}")
            if not den:
                raise InputError(f"coefficient at degree {deg} has a zero denominator")
            if trunc is not None and deg >= trunc:
                continue
            if not any(map(any, re)) and not any(map(any, im)):
                continue
            g = gcd(den, *chain(*re), *chain(*im))
            if den < 0:
                g = -g
            if g != 1:
                re = [[x // g for x in row] for row in re]
                im = [[x // g for x in row] for row in im]
            kept[deg] = (re, im, den // g)
        super().__init__(n, kept, trunc)

    @classmethod
    def from_reduced(
        cls, n: int, coeffs: dict[int, linalg.Gaussian], trunc: int | None
    ) -> LaurentMatrix:
        """The series with exactly the coefficients coeffs, unchecked: each
        must be a nonzero n x n triple at a degree below trunc, in lowest
        terms over a positive denominator, as `__init__` would keep it."""
        m = cls.__new__(cls)
        Record.__init__(m, n, coeffs, trunc)
        return m

    # -- views ----------------------------------------------------------------

    def coeff(self, deg: int) -> linalg.Gaussian:
        """Coefficient at z^deg, with fresh rows; raises if deg is beyond the
        truncation."""
        if self.trunc is not None and deg >= self.trunc:
            raise TruncationError(f"degree {deg} not known (truncated at {self.trunc})")
        if deg not in self.coeffs:
            return linalg.zero_gaussian(self.n)
        re, im, den = self.coeffs[deg]
        return [row[:] for row in re], [row[:] for row in im], den

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def valuation(self) -> int | None:
        """Smallest degree with a nonzero coefficient, None for (known-)zero."""
        return min(self.coeffs) if self.coeffs else None

    def monomials(self) -> Iterator[tuple[int, int, int]]:
        """Yield (deg, i, j) with 1-based indices for every E_ij z^deg with a
        nonzero coefficient, sorted."""
        for deg in sorted(self.coeffs):
            re, im, _ = self.coeffs[deg]
            for i in range(self.n):
                for j in range(self.n):
                    if re[i][j] or im[i][j]:
                        yield (deg, i + 1, j + 1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self):
        raise TypeError("LaurentMatrix is unhashable")

    def __repr__(self) -> str:
        parts = []
        for deg, i, j in self.monomials():
            re, im, den = self.coeffs[deg]
            val = gaussian_str(re[i - 1][j - 1], im[i - 1][j - 1], den)
            zpart = "" if deg == 0 else (f"*z^{deg}" if deg != 1 else "*z")
            parts.append(f"({val})E[{i},{j}]{zpart}")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.trunc is None else f" + O(z^{self.trunc})"
        return f"<LaurentMatrix n={self.n}: {body}{tail}>"
