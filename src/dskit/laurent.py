"""Matrix Laurent series in z with explicit truncation tracking.

A LaurentMatrix stores finitely many coefficient matrices, indexed by degree.
`trunc` is the first unknown degree: coefficients at degrees < trunc are
exact, everything at >= trunc has been discarded. trunc=None means the series
is a genuine Laurent polynomial, exact at all degrees.

Arithmetic propagates truncation pessimistically, so a degree is only ever
reported when it is actually determined by the inputs.
"""

from __future__ import annotations

from typing import Iterator

from . import linalg
from .core import Scalar, ScalarLike
from .errors import InputError, TruncationError

_INF = float("inf")


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

    def _known_below(self) -> float:
        return _INF if self.trunc is None else self.trunc

    def _effective_valuation(self) -> float:
        if self.coeffs:
            return min(self.coeffs)
        return self._known_below()

    # -- arithmetic ------------------------------------------------------------

    def _check_same_size(self, other: "LaurentMatrix") -> None:
        if self.n != other.n:
            raise InputError("size mismatch")

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_same_size(other)
        bound = min(self._known_below(), other._known_below())
        trunc = None if bound == _INF else int(bound)
        acc = {deg: linalg.copy_matrix(mat) for deg, mat in self.coeffs.items()}
        for deg, mat in other.coeffs.items():
            if deg in acc:
                acc[deg] = linalg.mat_add(acc[deg], mat)
            else:
                acc[deg] = linalg.copy_matrix(mat)
        return LaurentMatrix(self.n, acc, trunc)

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix(
            self.n,
            {deg: linalg.mat_scale(-1, mat) for deg, mat in self.coeffs.items()},
            self.trunc,
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self + (-other)

    def scale(self, s: ScalarLike) -> "LaurentMatrix":
        return LaurentMatrix(
            self.n,
            {deg: linalg.mat_scale(s, mat) for deg, mat in self.coeffs.items()},
            self.trunc,
        )

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_same_size(other)
        # a term of the product at degree d needs every split d = i + j with
        # i known in self and j known in other, hence the min below.
        bound = min(
            self._known_below() + other._effective_valuation(),
            other._known_below() + self._effective_valuation(),
        )
        trunc = None if bound == _INF else int(bound)
        acc: dict[int, linalg.Matrix] = {}
        for da, ma in self.coeffs.items():
            for db, mb in other.coeffs.items():
                d = da + db
                if trunc is not None and d >= trunc:
                    continue
                prod = linalg.mat_mul(ma, mb)
                if d in acc:
                    acc[d] = linalg.mat_add(acc[d], prod)
                else:
                    acc[d] = prod
        return LaurentMatrix(self.n, acc, trunc)

    def z_ddz(self) -> "LaurentMatrix":
        """Apply z d/dz: the coefficient at z^k picks up a factor k."""
        return LaurentMatrix(
            self.n,
            {
                deg: linalg.mat_scale(deg, mat)
                for deg, mat in self.coeffs.items()
                if deg != 0
            },
            self.trunc,
        )

    # -- comparisons ------------------------------------------------------------

    def eq_mod(self, other: "LaurentMatrix", order: int) -> bool:
        """Whether the two series agree at every degree < order."""
        self._check_same_size(other)
        if self._known_below() < order or other._known_below() < order:
            raise TruncationError(
                f"comparison mod z^{order} needs both series known to that order"
            )
        degs = set(self.coeffs) | set(other.coeffs)
        for d in degs:
            if d >= order:
                continue
            a = self.coeffs.get(d)
            b = other.coeffs.get(d)
            if a is None:
                if not linalg.is_zero_matrix(b):  # type: ignore[arg-type]
                    return False
            elif b is None:
                if not linalg.is_zero_matrix(a):
                    return False
            elif not linalg.mat_eq(a, b):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.n != other.n or self.trunc != other.trunc:
            return False
        return set(self.coeffs) == set(other.coeffs) and all(
            linalg.mat_eq(self.coeffs[d], other.coeffs[d]) for d in self.coeffs
        )

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
