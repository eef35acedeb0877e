"""Formal connections on the punctured disk.

Covers the local analysis the decision modules lean on: the regular-singular
gauge recursion, standard parahoric lattice-chain filtrations, fundamental
strata, slope certification, and the Coxeter canonical form p(omega^{-1}).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from . import linalg
from .core import ONE, ZERO, Scalar, ScalarLike
from .errors import BudgetExceededError, InputError, ResonantError, TruncationError
from .laurent import LaurentMatrix
from .rootsys import DEFAULT_BUDGET


@dataclass(frozen=True)
class FormalConnection:
    """d + M(z) dz/z; the matrix M carries the pole and the truncation."""

    matrix: LaurentMatrix

    @property
    def n(self) -> int:
        return self.matrix.n


# ---------------------------------------------------------------------------
# Regular-singular normalization.
# ---------------------------------------------------------------------------


def regsing_normalize(c: FormalConnection, order: int) -> LaurentMatrix:
    """Gauge g = I + g_1 z + ... with g.(d + M dz/z) = d + B_0 dz/z mod z^order.

    Coefficient k solves the Sylvester equation
    (B_0 + kI) g_k - g_k B_0 = sum_{i<k} g_i B_{k-i}, whose left side is
    singular exactly when two eigenvalues of B_0 differ by k.  Resonance is
    not tested as such: ResonantError is raised only at a step whose
    equation is inconsistent.  At a singular but consistent step the free
    coordinates of g_k are set to zero, so a resonant residue can still get
    a gauge (a constant M = diag(0, 1) gets the identity).
    """
    if order < 1:
        raise InputError(f"need order >= 1, got {order}")
    m = c.matrix
    v = m.valuation()
    if v is not None and v < 0:
        raise InputError(
            "connection has z^{<0} terms in M; regular-singular normalization "
            "needs a simple pole"
        )
    if m.trunc is not None and m.trunc < order:
        raise TruncationError(
            f"matrix is known only below z^{m.trunc}, need order {order}"
        )
    n = m.n
    b = [m.coeff(k) for k in range(order)]
    g: list[linalg.Matrix] = [linalg.identity(n)]
    for k in range(1, order):
        rhs = linalg.zeros(n, n)
        for i in range(k):
            rhs = linalg.mat_add(rhs, linalg.mat_mul(g[i], b[k - i]))
        shifted = linalg.mat_add(b[0], linalg.mat_scale(k, linalg.identity(n)))
        sol = linalg.sylvester_solve(shifted, b[0], rhs)
        if sol is None:
            raise ResonantError(
                f"resonant residue: two eigenvalues of B_0 differ by {k}"
            )
        g.append(sol)
    return LaurentMatrix(n, dict(enumerate(g)), trunc=order)


# ---------------------------------------------------------------------------
# Standard parahorics and lattice-chain filtrations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardParahoric:
    """The standard parahoric indexed by J, a subset of Z/nZ containing 0.

    Writing J = {k_0 = 0 < k_1 < ... < k_{e-1}}, the associated lattice chain
    has period e = |J| and L^j = span(z e_i : i > n - k_j, e_i : i <= n - k_j)
    for 0 <= j < e, extended by L^{j+e} = z L^j.
    """

    n: int
    J: tuple[int, ...]

    def __init__(self, n: int, J: Iterable[int]):
        jj = tuple(sorted({int(x) for x in J}))
        if n < 1:
            raise InputError(f"need n >= 1, got {n}")
        if not jj or jj[0] != 0:
            raise InputError("J must contain 0")
        if jj[0] < 0 or jj[-1] >= n:
            raise InputError(f"J must lie inside 0..{n - 1}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "J", jj)
        # f[m] = min{ j in 1..e : j = e or m > n - k_j }.  Within one period
        # the exponent nu_j(m) jumps from 0 to 1 exactly at j = f[m], so the
        # filtration degree of E_ab z^k has the closed form k e + f_a - f_b.
        e = len(jj)
        f = [0] * (n + 1)
        for m in range(1, n + 1):
            f[m] = e
            for j in range(1, e):
                if m > n - jj[j]:
                    f[m] = j
                    break
        object.__setattr__(self, "_f", tuple(f))

    @property
    def e(self) -> int:
        return len(self.J)

    def block_sizes(self) -> tuple[int, ...]:
        cuts = self.J + (self.n,)
        return tuple(cuts[i + 1] - cuts[i] for i in range(len(self.J)))

    @staticmethod
    def iwahori(n: int) -> "StandardParahoric":
        return StandardParahoric(n, range(n))

    @staticmethod
    def maximal(n: int) -> "StandardParahoric":
        """GL_n(o): the one-lattice chain J = {0}."""
        return StandardParahoric(n, (0,))

    def lattice_exponent(self, j: int, i: int) -> int:
        """nu_j(i): the z-exponent of basis vector e_i in L^j, any j in Z."""
        if not 1 <= i <= self.n:
            raise InputError(f"basis index {i} outside 1..{self.n}")
        q, s = divmod(j, self.e)
        return q + (1 if i > self.n - self.J[s] else 0)

    def graded_degree(self, a: int, b: int, k: int) -> int:
        """Closed form k*e + f_a - f_b for the filtration degree of E_ab z^k."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise InputError(f"entry ({a},{b}) outside 1..{self.n}")
        return k * self.e + self._f[a] - self._f[b]


def standard_parahorics(n: int) -> list[StandardParahoric]:
    """All 2^(n-1) standard parahorics, ordered lexicographically by J."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    rest = range(1, n)
    js = sorted(
        (0,) + combo
        for size in range(n)
        for combo in itertools.combinations(rest, size)
    )
    return [StandardParahoric(n, j) for j in js]


# ---------------------------------------------------------------------------
# Strata and slope certification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """(P, r, beta): leading data of depth r/e with homogeneous representative
    beta of graded degree -r."""

    parahoric: StandardParahoric
    depth_num: int
    leading: LaurentMatrix

    def __post_init__(self):
        p = self.parahoric
        if self.leading.n != p.n:
            raise InputError("leading term size does not match the parahoric")
        if self.leading.is_zero():
            raise InputError("leading term must be nonzero")
        for deg, i, j, _val in self.leading.monomials():
            if p.graded_degree(i, j, deg) != -self.depth_num:
                raise InputError(
                    "leading term is not homogeneous of degree "
                    f"{-self.depth_num}"
                )

    @property
    def depth(self) -> Fraction:
        return Fraction(self.depth_num, self.parahoric.e)


def leading_stratum(p: StandardParahoric, c: FormalConnection) -> Stratum:
    """The stratum the connection exhibits at p in the given trivialization:
    depth = -(min graded degree over the monomials of M), with the monomials
    achieving it as the homogeneous representative."""
    m = c.matrix
    if m.n != p.n:
        raise InputError("connection size does not match the parahoric")
    monos = list(m.monomials())
    if not monos:
        raise InputError("zero connection matrix has no leading stratum")
    degs = [p.graded_degree(i, j, deg) for deg, i, j, _ in monos]
    dmin = min(degs)
    if m.trunc is not None and dmin >= m.trunc * p.e - (p.e - 1):
        # an unknown coefficient at z^{>= trunc} could still reach dmin
        raise TruncationError(
            "truncation order too small to pin down the leading stratum"
        )
    coeffs: dict[int, linalg.Matrix] = {}
    for (deg, i, j, val), d in zip(monos, degs):
        if d == dmin:
            if deg not in coeffs:
                coeffs[deg] = linalg.zeros(p.n, p.n)
            coeffs[deg][i - 1][j - 1] = val
    return Stratum(p, -dmin, LaurentMatrix(p.n, coeffs))


def is_fundamental(s: Stratum) -> bool:
    """Whether the homogeneous representative beta is non-nilpotent.

    beta has graded degree -r, so each entry (a, b) carries the single power
    z^k with k e + f_a - f_b = -r.  Degrees add along products, so every
    entry of beta^m is again a single monomial, and evaluation at z = 1 (a
    ring map) cannot cancel anything: beta^n = 0 exactly when the constant
    matrix beta(1)^n = 0.
    """
    n = s.leading.n
    beta1 = linalg.zeros(n, n)
    for _deg, i, j, val in s.leading.monomials():
        beta1[i - 1][j - 1] = val
    return not linalg.is_nilpotent(beta1)


@dataclass(frozen=True)
class CertifiedSlope:
    """A fundamental stratum of positive depth pins the slope exactly."""

    slope: Fraction
    witness: Stratum


@dataclass(frozen=True)
class UpperBoundOnly:
    """Every scanned stratum had nilpotent leading term; the minimal depth
    bounds the slope from above, and a gauge change may lower it."""

    bound: Fraction
    witness: Stratum


@dataclass(frozen=True)
class RegularSingularCandidate:
    """No pole in this trivialization (naive pole order <= 1); slope-zero
    candidates are reported, never certified."""


SlopeVerdict = Union[CertifiedSlope, UpperBoundOnly, RegularSingularCandidate]


def certify_slope(c: FormalConnection, budget: int | None = DEFAULT_BUDGET) -> SlopeVerdict:
    """Scan the standard parahorics in a FIXED trivialization.

    Every stratum contained in the connection bounds the slope from above,
    and a fundamental stratum of positive depth attains it (Bremer-Sage,
    IMRN 2013 and IMRN 2018).  So a fundamental stratum can only sit at a
    parahoric of minimal depth.  The depth at each parahoric is read off the
    graded degrees of the monomials of M, with no matrix products; strata
    are built and tested for nilpotency only where that depth is minimal,
    in lexicographic order of J.

    The first fundamental stratum found certifies slope = depth, and it is
    the lexicographically first fundamental stratum over all parahorics.  If
    every minimal-depth leading term is nilpotent, the result is
    UpperBoundOnly with the minimal depth as bound and the lexicographically
    first stratum of that depth as witness.  A matrix with valuation >= 0
    short-circuits to RegularSingularCandidate.

    The scan costs one budget node per standard parahoric, 2^(n-1) in all,
    charged before any is built; BudgetExceededError if they do not fit.
    The default DEFAULT_BUDGET fits every n <= 21; None means no budget.
    """
    m = c.matrix
    if m.trunc is not None and m.trunc < 1:
        raise TruncationError(
            "slope certification needs the matrix known through z^0"
        )
    v = m.valuation()
    if v is None or v >= 0:
        return RegularSingularCandidate()
    count = 1 << (m.n - 1)
    if budget is not None and count > budget:
        raise BudgetExceededError(
            f"parahoric scan exceeded budget of {budget}: "
            f"{count} standard parahorics at n = {m.n}"
        )
    monos = list(m.monomials())
    parahorics = standard_parahorics(m.n)
    depths = [
        Fraction(-min(p.graded_degree(i, j, deg) for deg, i, j, _ in monos), p.e)
        for p in parahorics
    ]
    least = min(depths)
    # a genuine pole forces positive depth at every standard parahoric
    assert least > 0
    first: Stratum | None = None
    for p, depth in zip(parahorics, depths):
        if depth != least:
            continue
        s = leading_stratum(p, c)
        if is_fundamental(s):
            return CertifiedSlope(s.depth, s)
        if first is None:
            first = s
    assert first is not None
    return UpperBoundOnly(least, first)


# ---------------------------------------------------------------------------
# The cyclic uniformizer omega and Coxeter canonical types.
# ---------------------------------------------------------------------------


def omega_power(n: int, k: int) -> LaurentMatrix:
    """omega_n^k, where omega_n has 1's on the superdiagonal and z in the
    lower-left corner, so that omega_n^n = z.

    For k = q n + s with 0 <= s < n the power is
    z^q (sum_{i <= n-s} E_{i,i+s} + z sum_{i <= s} E_{n-s+i,i}).
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    q, s = divmod(k, n)
    low = linalg.zeros(n, n)
    high = linalg.zeros(n, n)
    for i in range(1, n - s + 1):
        low[i - 1][i + s - 1] = Scalar(1)
    for i in range(1, s + 1):
        high[n - s + i - 1][i - 1] = Scalar(1)
    return LaurentMatrix(n, {q: low, q + 1: high})


@dataclass(frozen=True)
class CoxeterFormalType:
    """Coxeter canonical form d + p(omega_n^{-1}) dz/z: slope r/n with
    gcd(r, n) = 1 and p of degree exactly r (leading coefficient nonzero).
    p is kept by its nonzero terms (degree, coefficient), so it costs its
    terms, not r."""

    n: int
    r: int
    p_terms: tuple[tuple[int, Scalar], ...]

    def __init__(self, n: int, r: int, p_coeffs: Iterable[ScalarLike]):
        coeffs = tuple(Scalar.of(x) for x in p_coeffs)
        self._init(n, r, tuple((k, c) for k, c in enumerate(coeffs) if c), len(coeffs))

    def _init(self, n: int, r: int, terms: tuple[tuple[int, Scalar], ...], length: int) -> None:
        """Check the slope, the coefficient count and the leading term; keep the terms."""
        if n < 1 or r < 1:
            raise InputError("need n >= 1 and r >= 1")
        if gcd(r, n) != 1:
            raise InputError(f"need gcd(r, n) = 1, got r={r}, n={n}")
        if length != r + 1:
            raise InputError(
                f"p must have degree exactly {r}: expected {r + 1} "
                f"coefficients, got {length}"
            )
        if not terms or terms[-1][0] != r:
            raise InputError("leading coefficient of p must be nonzero")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "p_terms", terms)

    @property
    def p_coeffs(self) -> tuple[Scalar, ...]:
        """The dense coefficients of p, constant term first."""
        terms = dict(self.p_terms)
        return tuple(terms.get(k, ZERO) for k in range(self.r + 1))

    @property
    def p0(self) -> Scalar:
        """The constant term p(0); decisions depend only on it and deg p."""
        return dict(self.p_terms).get(0, ZERO)

    @classmethod
    def from_p0(cls, n: int, r: int, p0: ScalarLike) -> "CoxeterFormalType":
        """The representative p(x) = x^r + p0, built from its nonzero terms."""
        p0 = Scalar.of(p0)
        ftype = object.__new__(cls)
        ftype._init(n, r, ((0, p0), (r, ONE)) if p0 else ((r, ONE),), r + 1)
        return ftype

    def matrix(self) -> LaurentMatrix:
        """p(omega_n^{-1}) as an exact Laurent matrix."""
        acc = LaurentMatrix.zero(self.n)
        for k, coeff in self.p_terms:
            acc = acc + omega_power(self.n, -k).scale(coeff)
        return acc


def coxeter_canonical_type(
    n: int, r: int, p_coeffs: Iterable[ScalarLike]
) -> CoxeterFormalType:
    """Validated Coxeter canonical form; the Laurent matrix is materialized
    once here so malformed coefficient data fails early, not downstream."""
    ftype = CoxeterFormalType(n, r, p_coeffs)
    mat = ftype.matrix()
    assert not mat.is_zero()
    return ftype
