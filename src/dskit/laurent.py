"""Matrix Laurent series in z with explicit truncation tracking.

A LaurentMatrix stores finitely many coefficient matrices, indexed by degree.
`trunc` is the first unknown degree: coefficients at degrees < trunc are
exact, everything at >= trunc has been discarded. trunc=None means the series
is a genuine Laurent polynomial, exact at all degrees.

It holds the matrix M of d + M dz/z that the deciders read, and the gauge
that `regsing_normalize` returns: coefficients, support and truncation.  It
does no arithmetic.
"""

from __future__ import annotations

from typing import Iterator

from . import linalg
from .core import Scalar, ScalarLike
from .errors import InputError, TruncationError

class LaurentMatrix:
    __slots__ = ("n", "coeffs", "trunc")

    def __init__(
        self,
        n: int,
        coeffs: dict[int, linalg.Matrix] | None = None,
        trunc: int | None = None,
    ):
        if n < 1:
            raise InputError(f"need n >= 1, got {n}")
        self.n = n
        self.trunc = trunc
        self.coeffs: dict[int, linalg.Matrix] = {}
        for deg, mat in (coeffs or {}).items():
            if linalg.dims(mat) != (n, n):
                raise InputError(f"coefficient at degree {deg} is not {n}x{n}")
            if trunc is not None and deg >= trunc:
                continue
            if not linalg.is_zero_matrix(mat):
                self.coeffs[int(deg)] = mat

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, trunc: int | None = None) -> "LaurentMatrix":
        return LaurentMatrix(n, {}, trunc)

    @staticmethod
    def monomial(
        n: int, deg: int, i: int, j: int, value: ScalarLike = 1
    ) -> "LaurentMatrix":
        """value * E_{ij} z^deg with 1-based matrix indices."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise InputError(f"entry ({i},{j}) outside 1..{n}")
        m = linalg.zeros(n, n)
        m[i - 1][j - 1] = Scalar.of(value)
        return LaurentMatrix(n, {deg: m})

    # -- views ----------------------------------------------------------------

    def coeff(self, deg: int) -> linalg.Matrix:
        """Coefficient matrix at z^deg; raises if deg is beyond the truncation."""
        if self.trunc is not None and deg >= self.trunc:
            raise TruncationError(f"degree {deg} not known (truncated at {self.trunc})")
        return linalg.copy_matrix(self.coeffs.get(deg, linalg.zeros(self.n, self.n)))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def valuation(self) -> int | None:
        """Smallest degree with a nonzero coefficient, None for (known-)zero."""
        return min(self.coeffs) if self.coeffs else None

    def monomials(self) -> Iterator[tuple[int, int, int, Scalar]]:
        """Yield (deg, i, j, value) with 1-based indices, sorted."""
        for deg in sorted(self.coeffs):
            mat = self.coeffs[deg]
            for i in range(self.n):
                for j in range(self.n):
                    if mat[i][j]:
                        yield (deg, i + 1, j + 1, mat[i][j])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.n, self.trunc, self.coeffs) == (other.n, other.trunc, other.coeffs)

    def __hash__(self):  # pragma: no cover - mutable coefficients
        raise TypeError("LaurentMatrix is unhashable")

    def __repr__(self) -> str:
        parts = []
        for deg, i, j, val in self.monomials():
            zpart = "" if deg == 0 else (f"*z^{deg}" if deg != 1 else "*z")
            parts.append(f"({val})E[{i},{j}]{zpart}")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.trunc is None else f" + O(z^{self.trunc})"
        return f"<LaurentMatrix n={self.n}: {body}{tail}>"
