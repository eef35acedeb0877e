"""Formal connections on the punctured disk.

Covers the local analysis the decision modules lean on: the regular-singular
gauge recursion, standard parahoric lattice-chain filtrations, fundamental
strata, slope certification, and the Coxeter canonical form p(omega^{-1}).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Sequence, Union

from . import linalg
from .core import Factor, Triple, as_triple
from .errors import BudgetExceededError, InputError, ResonantError, TruncationError
from .frozen import Frozen
from .laurent import LaurentMatrix
from .rootsys import DEFAULT_BUDGET, _check_budget


# ---------------------------------------------------------------------------
# Regular-singular normalization.
# ---------------------------------------------------------------------------


def regsing_normalize(m: LaurentMatrix, order: int) -> LaurentMatrix:
    """Gauge g = I + g_1 z + ... with g.(d + M dz/z) = d + B_0 dz/z mod z^order,
    where M = m = B_0 + B_1 z + ... carries the pole and the truncation.

    Coefficient k solves the Sylvester equation
    (B_0 + kI) g_k - g_k B_0 = sum_{i<k} g_i B_{k-i}, whose left side is
    singular exactly when two eigenvalues of B_0 differ by k.  B_0 is scaled
    to Gaussian integers once, with its characteristic polynomial
    (Faddeev-LeVerrier), and each order is one `linalg.sylvester_solve`: an
    n x n system by Cayley-Hamilton (Jameson 1968), and only at a singular
    shift the n^2 x n^2 Kronecker system.  Resonance is not tested as such:
    ResonantError is raised only at a step whose equation is inconsistent.
    At a singular but consistent step the free coordinates of g_k are set
    to zero, so a resonant residue can still get a gauge (a constant
    M = diag(0, 1) gets the identity).  The B_k are stacked over their one
    least common denominator, each g_k is held over Z[i] with its least
    denominator, and the gauge keeps the g_k as they are.
    """
    if order < 1:
        raise InputError(f"need order >= 1, got {order}")
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
    # [B_{order-1}; ...; B_1] over one denominator, so [B_k; ...; B_1] is a tail
    hden = lcm(*(d for _, _, d in b[1:]))
    hr = [[x * (hden // d) for x in row] for re, _, d in reversed(b[1:]) for row in re]
    hi = [[x * (hden // d) for x in row] for _, im, d in reversed(b[1:]) for row in im]
    # B_0 over Z[i] with its characteristic polynomial, built only when some order needs it
    ad = linalg.sylvester_operator(b[0]) if order > 1 else None
    g = [([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)], 1)]
    for k in range(1, order):
        # sum_{i<k} g_i B_{k-i} = [g_0 ... g_{k-1}] [B_k; ...; B_1], the g_i over one denominator
        den = lcm(*(d for _, _, d in g))
        lr = [[x * (den // d) for re, _, d in g for x in re[r]] for r in range(n)]
        li = [[x * (den // d) for _, im, d in g for x in im[r]] for r in range(n)]
        t = (order - 1 - k) * n
        rhs = linalg.gaussian_mul((lr, li, den), (hr[t:], hi[t:], hden))
        sol = linalg.sylvester_solve(ad, k, rhs)
        if sol is None:
            raise ResonantError(
                f"resonant residue: two eigenvalues of B_0 differ by {k}"
            )
        g.append(sol)
    return LaurentMatrix(n, dict(enumerate(g)), trunc=order)


# ---------------------------------------------------------------------------
# Standard parahorics and lattice-chain filtrations.
# ---------------------------------------------------------------------------


class StandardParahoric(Frozen):
    """The standard parahoric indexed by J, a subset of Z/nZ containing 0.

    Writing J = {k_0 = 0 < k_1 < ... < k_{e-1}}, the associated lattice chain
    has period e = |J| and L^j = span(z e_i : i > n - k_j, e_i : i <= n - k_j)
    for 0 <= j < e, extended by L^{j+e} = z L^j.
    """

    __slots__ = ("n", "J", "_f")

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
        object.__setattr__(self, "_f", tuple(_f_table(n, jj)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StandardParahoric:
            return NotImplemented
        return self.n == other.n and self.J == other.J

    def __hash__(self) -> int:
        return hash((self.n, self.J))

    def __repr__(self) -> str:
        return f"StandardParahoric(n={self.n!r}, J={self.J!r})"

    @property
    def e(self) -> int:
        return len(self.J)

    def graded_degree(self, a: int, b: int, k: int) -> int:
        """Closed form k*e + f_a - f_b for the filtration degree of E_ab z^k."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise InputError(f"entry ({a},{b}) outside 1..{self.n}")
        return k * self.e + self._f[a] - self._f[b]


def _f_table(n: int, J: Sequence[int]) -> list[int]:
    """f[m] = 1 + #{j >= 1 : k_j <= n - m} for 1 <= m <= n, and f[0] = 0.

    f[m] is the j at which the exponent nu_j(m) of e_m jumps from 0 to 1
    within one period (e if it never does), so the filtration degree of
    E_ab z^k is k e + f_a - f_b.  f[m] = j exactly for
    n - k_j < m <= n - k_{j-1}, with k_e = n, so the table is built one run
    of equal values at a time, j = e first.
    """
    f = [0]
    hi = n
    for j in range(len(J), 0, -1):
        f += [j] * (hi - J[j - 1])
        hi = J[j - 1]
    return f


# ---------------------------------------------------------------------------
# Strata and slope certification.
# ---------------------------------------------------------------------------


class Stratum(Frozen):
    """(P, r, beta): leading data of depth r/e with homogeneous representative
    beta of graded degree -r."""

    __slots__ = ("parahoric", "depth_num", "leading")

    parahoric: StandardParahoric
    depth_num: int
    leading: LaurentMatrix

    def __init__(self, parahoric: StandardParahoric, depth_num: int, leading: LaurentMatrix):
        if leading.n != parahoric.n:
            raise InputError("leading term size does not match the parahoric")
        if leading.is_zero():
            raise InputError("leading term must be nonzero")
        for deg, i, j in leading.monomials():
            if parahoric.graded_degree(i, j, deg) != -depth_num:
                raise InputError(
                    "leading term is not homogeneous of degree "
                    f"{-depth_num}"
                )
        object.__setattr__(self, "parahoric", parahoric)
        object.__setattr__(self, "depth_num", depth_num)
        object.__setattr__(self, "leading", leading)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Stratum:
            return NotImplemented
        return (self.parahoric, self.depth_num, self.leading) == (
            other.parahoric, other.depth_num, other.leading)

    __hash__ = None  # type: ignore[assignment]  # it holds a LaurentMatrix, which is unhashable

    def __repr__(self) -> str:
        return (f"Stratum(parahoric={self.parahoric!r}, depth_num={self.depth_num!r}, "
                f"leading={self.leading!r})")

    @property
    def depth(self) -> Fraction:
        return Fraction(self.depth_num, self.parahoric.e)


def leading_stratum(p: StandardParahoric, m: LaurentMatrix) -> Stratum:
    """The stratum d + M dz/z exhibits at p in the given trivialization, where
    M = m carries the pole and the truncation: depth = -(min graded degree
    over the monomials of M), with the monomials achieving it as the
    homogeneous representative."""
    if m.n != p.n:
        raise InputError("connection size does not match the parahoric")
    monos = list(m.monomials())
    if not monos:
        raise InputError("zero connection matrix has no leading stratum")
    degs = [p.graded_degree(i, j, deg) for deg, i, j in monos]
    dmin = min(degs)
    if m.trunc is not None and dmin >= m.trunc * p.e - (p.e - 1):
        # an unknown coefficient at z^{>= trunc} could still reach dmin
        raise TruncationError(
            "truncation order too small to pin down the leading stratum"
        )
    coeffs: dict[int, linalg.Gaussian] = {}
    for (deg, i, j), d in zip(monos, degs):
        if d == dmin:
            re, im, den = m.coeffs[deg]
            if deg not in coeffs:
                coeffs[deg] = linalg.zero_gaussian(p.n, den)
            coeffs[deg][0][i - 1][j - 1] = re[i - 1][j - 1]
            coeffs[deg][1][i - 1][j - 1] = im[i - 1][j - 1]
    return Stratum(p, -dmin, LaurentMatrix(p.n, coeffs))


def is_fundamental(s: Stratum) -> bool:
    """Whether the homogeneous representative beta is non-nilpotent.

    beta has graded degree -r, so each entry (a, b) carries the single power
    z^k with k e + f_a - f_b = -r.  Degrees add along products, so every
    entry of beta^m is again a single monomial, and evaluation at z = 1 (a
    ring map) cannot cancel anything: beta^n = 0 exactly when the constant
    matrix beta(1)^n = 0.  The entries of beta are read over the least common
    denominator of its coefficients, so beta(1) is one Z[i] matrix.
    """
    coeffs = s.leading.coeffs.values()
    re, im, den = linalg.zero_gaussian(s.leading.n, lcm(*(d for _, _, d in coeffs)))
    for cr, ci, d in coeffs:
        # each entry of beta carries one power of z, so the degrees fill disjoint entries
        f = den // d
        for row, crow in zip(re, cr):
            row[:] = [x + y * f for x, y in zip(row, crow)]
        for row, crow in zip(im, ci):
            row[:] = [x + y * f for x, y in zip(row, crow)]
    return not linalg.is_nilpotent((re, im, den))


class CertifiedSlope(Frozen):
    """A fundamental stratum of positive depth pins the slope exactly."""

    __slots__ = ("slope", "witness")

    slope: Fraction
    witness: Stratum

    def __init__(self, slope: Fraction, witness: Stratum):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "witness", witness)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CertifiedSlope:
            return NotImplemented
        return self.slope == other.slope and self.witness == other.witness

    __hash__ = None  # type: ignore[assignment]  # it holds a LaurentMatrix, which is unhashable

    def __repr__(self) -> str:
        return f"CertifiedSlope(slope={self.slope!r}, witness={self.witness!r})"


class UpperBoundOnly(Frozen):
    """Every scanned stratum had nilpotent leading term; the minimal depth
    bounds the slope from above, and a gauge change may lower it."""

    __slots__ = ("bound", "witness")

    bound: Fraction
    witness: Stratum

    def __init__(self, bound: Fraction, witness: Stratum):
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "witness", witness)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not UpperBoundOnly:
            return NotImplemented
        return self.bound == other.bound and self.witness == other.witness

    __hash__ = None  # type: ignore[assignment]  # it holds a LaurentMatrix, which is unhashable

    def __repr__(self) -> str:
        return f"UpperBoundOnly(bound={self.bound!r}, witness={self.witness!r})"


class RegularSingularCandidate(Frozen):
    """No pole in this trivialization (naive pole order <= 1); slope-zero
    candidates are reported, never certified."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RegularSingularCandidate:
            return NotImplemented
        return True

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "RegularSingularCandidate()"


SlopeVerdict = Union[CertifiedSlope, UpperBoundOnly, RegularSingularCandidate]


def _depths(n: int, entries: list[tuple[int, int, int]]) -> Iterator[tuple[list[int], int, int]]:
    """(J, e, r) at every standard parahoric, in lexicographic order of J,
    where r/e is the depth of the connection there: r is minus the least
    graded degree k e + f_a - f_b over the entries (k, a, b), each entry
    (a, b) of M with k its least z-degree.

    The walk is depth first: it appends j > max J before it moves on.
    Appending j raises e by 1 and f_m by 1 for m <= n - j, so it adds
    w_j = k + [a <= n - j] - [b <= n - j] to the degree of (k, a, b); w_0 is
    k, the degree at J = {0}.  The walk keeps the degree vector of each
    prefix of J, so a node costs one vector sum and one min, and the walk
    holds O(n * entries) integers.  J is one list updated in place, so a
    caller copies what it keeps past the next step.
    """
    w = [[k + (a <= n - j) - (b <= n - j) for k, a, b in entries] for j in range(n)]
    J, degs = [0], [w[0]]
    yield J, 1, -min(w[0])
    j = 1
    while True:
        if j < n:
            top = list(map(add, degs[-1], w[j]))
            J.append(j)
            degs.append(top)
            yield J, len(J), -min(top)
            j += 1
        elif len(J) > 1:
            j = J.pop() + 1
            degs.pop()
        else:
            return


def certify_slope(m: LaurentMatrix, budget: int | None = DEFAULT_BUDGET) -> SlopeVerdict:
    """Scan the standard parahorics for d + M dz/z in a FIXED trivialization,
    where M = m carries the pole and the truncation.

    Every stratum contained in the connection bounds the slope from above,
    and a fundamental stratum of positive depth attains it (Bremer-Sage,
    IMRN 2013 and IMRN 2018).  So a fundamental stratum can only sit at a
    parahoric of minimal depth.  The depth at each parahoric is read off the
    least z-degree at each entry of M with integers alone: no matrix
    products, no Fractions.  One full walk of the parahorics, depth first in
    lexicographic order of J (see _depths), finds the least depth, comparing
    depths r/e by cross-multiplying, with the first J of that depth and the
    number of parahorics that tie at it.  The leading stratum at that first
    J is built and tested for nilpotency.  Only if it is nilpotent and other
    parahorics tie with it does a second walk run, which tests each later
    tie in order and stops at the first fundamental one.  Neither walk keeps
    the parahorics it has left, so the scan holds O(n * entries) integers,
    not 2^(n-1) parahorics.

    The first fundamental stratum found certifies slope = depth, and it is
    the lexicographically first fundamental stratum over all parahorics.  If
    every minimal-depth leading term is nilpotent, the result is
    UpperBoundOnly with the minimal depth as bound and the lexicographically
    first stratum of that depth as witness.  A matrix with valuation >= 0
    short-circuits to RegularSingularCandidate.

    The scan costs one budget node per standard parahoric, 2^(n-1) in all,
    charged before either walk; BudgetExceededError if they do not fit.
    The default DEFAULT_BUDGET fits every n <= 21; None means no budget.
    """
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
    for deg, i, j in m.monomials():  # in increasing degree
        least_deg.setdefault((i, j), deg)
    entries = [(k, a, b) for (a, b), k in least_deg.items()]
    depths = _depths(n, entries)
    J, least_e, least_r = next(depths)
    first, ties = J[:], 1
    for J, e, r in depths:
        x, y = r * least_e, least_r * e
        if x < y:
            least_r, least_e, first, ties = r, e, J[:], 1
        elif x == y:
            ties += 1
    # a genuine pole forces positive depth at every standard parahoric
    assert least_r > 0
    s = leading_stratum(StandardParahoric(n, first), m)
    if is_fundamental(s):
        return CertifiedSlope(s.depth, s)
    if ties > 1:
        # the parahorics of least depth in order, past the first, tested above
        least = (J for J, e, r in _depths(n, entries) if r * least_e == least_r * e)
        for J in islice(least, 1, ties):
            t = leading_stratum(StandardParahoric(n, J), m)
            if is_fundamental(t):
                return CertifiedSlope(t.depth, t)
    return UpperBoundOnly(s.depth, s)


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
    low = linalg.zero_gaussian(n)
    high = linalg.zero_gaussian(n)
    for i in range(1, n - s + 1):
        low[0][i - 1][i + s - 1] = 1
    for i in range(1, s + 1):
        high[0][n - s + i - 1][i - 1] = 1
    return LaurentMatrix(n, {q: low, q + 1: high})


class CoxeterFormalType(Frozen):
    """Coxeter canonical form d + p(omega_n^{-1}) dz/z of slope r/n, with
    gcd(r, n) = 1 and p of degree r.  Decisions read only n, r and the
    constant term p0 = p(0), held as its reduced triple (re, im, den), so
    that is all it holds."""

    __slots__ = ("n", "r", "p0")

    n: int
    r: int
    p0: Triple

    def __init__(self, n: int, r: int, p0: Factor):
        if n < 1 or r < 1:
            raise InputError("need n >= 1 and r >= 1")
        if gcd(r, n) != 1:
            raise InputError(f"need gcd(r, n) = 1, got r={r}, n={n}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "p0", as_triple(p0))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CoxeterFormalType:
            return NotImplemented
        return (self.n, self.r, self.p0) == (other.n, other.r, other.p0)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.p0))

    def __repr__(self) -> str:
        return f"CoxeterFormalType(n={self.n!r}, r={self.r!r}, p0={self.p0!r})"
