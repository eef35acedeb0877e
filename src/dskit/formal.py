"""Formal connections on the punctured disk.

Covers the local analysis the decision modules lean on: the regular-singular
gauge recursion, standard parahoric lattice-chain filtrations, fundamental
strata, slope certification, and the Coxeter canonical form p(omega^{-1}).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Union

from . import linalg
from .core import Factor, Triple, as_int, as_triple
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
    to Gaussian integers and readied once, and each order is one
    `linalg.sylvester_solve`.  An upper-triangular B_0 (every
    1 x 1 one, every Jordan form) is solved by back substitution; any other
    gets the Faddeev-LeVerrier matrices once, and each order is an n x n
    system by Cayley-Hamilton (Jameson 1968).  Only at a singular shift is
    the n^2 x n^2 Kronecker system eliminated.  Resonance is not tested as
    such: ResonantError is raised only at a step whose equation is
    inconsistent.  At a singular but consistent step the free coordinates of
    g_k are set to zero, so a resonant residue can still get a gauge (a
    constant M = diag(0, 1) gets the identity).

    Once per request, B_0 is readied, B_1..B_D, D >= 1 the top degree of M
    below the order, are read from m without a copy and stacked by columns
    over their one least common denominator, and M is tested for realness:
    a real M carries no imaginary parts through the shifts.  Once per
    shift, g_{k-1} joins the row block [g_{k-1} ... g_{k-D}] (rescaled only
    when the common denominator grows; past k = D, g_{k-1-D} leaves it),
    the block times the stack is the right side, and one
    `linalg.sylvester_solve` gives g_k in lowest terms over a positive
    denominator.  So the gauge keeps the nonzero g_k as they are, with no
    second reduction, and a request costs O(order D n^3) time and O(D n^2)
    working memory besides the gauge.
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
    zero = linalg.zero_gaussian(n)
    # D >= 1, the top degree of M below the order
    top = max([k for k in m.coeffs if k < order] + [1])
    b = [m.coeffs.get(k, zero) for k in range(top + 1)]
    real = not any(any(map(any, im)) for _, im, _ in b)
    # [B_1; ...; B_D] by columns over one denominator: a row of the block
    # [g_{k-1} ... g_{max(0, k-D)}] reads the first n min(k, D) entries of
    # each, so their product is sum_{j <= min(k, D)} g_{k-j} B_j
    hden = lcm(*(d for _, _, d in b[1:]))
    cr = list(zip(*[[x * (hden // d) for x in row] for re, _, d in b[1:] for row in re]))
    ci = None if real else list(zip(*[[x * (hden // d) for x in row]
                                      for _, im, d in b[1:] for row in im]))
    # B_0 over Z[i] readied for every shift, built only when some order needs it
    ad = linalg.sylvester_operator(b[0]) if order > 1 else None
    gk: linalg.Gaussian | None = linalg.identity_gaussian(n)
    gauge = {0: gk}
    # [g_{k-1} ... g_{max(0, k-D)}] over den, by rows; a real M has no imaginary parts
    lr: linalg.Ints = [[] for _ in range(n)]
    li = None if real else [[] for _ in range(n)]
    den = 1
    for k in range(1, order):
        re, im, d = gk
        e = lcm(den, d) // den
        den *= e
        lr = _prepend(re, den // d, lr, e)
        if li is not None:
            li = _prepend(im, den // d, li, e)
        if k > top:
            for row in lr + (li or []):
                del row[top * n :]
        rhs_re, rhs_im = linalg.mul_columns(lr, li, cr, ci)
        gk = linalg.sylvester_solve(ad, k, (rhs_re, rhs_im or zero[1], den * hden))
        if gk is None:
            raise ResonantError(
                f"resonant residue: two eigenvalues of B_0 differ by {k}"
            )
        if any(map(any, gk[0])) or any(map(any, gk[1])):
            gauge[k] = gk
    return LaurentMatrix.from_reduced(n, gauge, order)


def _prepend(block: linalg.Ints, f: int, rows: linalg.Ints, e: int) -> linalg.Ints:
    """[f block | e rows], row by row."""
    if e > 1:
        rows = [[x * e for x in row] for row in rows]
    return [[x * f for x in new] + old for new, old in zip(block, rows)]


# ---------------------------------------------------------------------------
# Standard parahorics and lattice-chain filtrations.
# ---------------------------------------------------------------------------


class StandardParahoric(Frozen):
    """The standard parahoric indexed by J, a subset of Z/nZ containing 0.

    Writing J = {k_0 = 0 < k_1 < ... < k_{e-1}}, the associated lattice chain
    has period e = |J| and L^j = span(z e_i : i > n - k_j, e_i : i <= n - k_j)
    for 0 <= j < e, extended by L^{j+e} = z L^j.
    """

    __slots__ = ("n", "J")

    n: int
    J: tuple[int, ...]

    def __init__(self, n: int, J: Iterable[int]):
        n = as_int(n, "n")
        jj = tuple(sorted({as_int(x, "an entry of J") for x in J}))
        if n < 1:
            raise InputError(f"need n >= 1, got {n}")
        if jj and (jj[0] < 0 or jj[-1] >= n):
            raise InputError(f"J must lie inside 0..{n - 1}")
        if not jj or jj[0] != 0:
            raise InputError("J must contain 0")
        super().__init__(n, jj)

    @property
    def e(self) -> int:
        return len(self.J)

    def graded_degree(self, a: int, b: int, k: int) -> int:
        """k*e + f_a - f_b, the filtration degree of E_ab z^k, where
        f_m = #{j in J : j <= n - m} is the step of one period at which the
        z-exponent of e_m jumps from 0 to 1 (e if it never does)."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise InputError(f"entry ({a},{b}) outside 1..{self.n}")
        J, n = self.J, self.n
        return k * len(J) + bisect_right(J, n - a) - bisect_right(J, n - b)


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
        super().__init__(parahoric, depth_num, leading)

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


class UpperBoundOnly(Frozen):
    """Every stratum of least depth is nilpotent (see certify_slope); the
    least depth bounds the slope from above, and a gauge change may lower it."""

    __slots__ = ("bound", "witness")

    bound: Fraction
    witness: Stratum


class RegularSingularCandidate(Frozen):
    """No pole in this trivialization (naive pole order <= 1); slope-zero
    candidates are reported, never certified."""

    __slots__ = ()


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
    IMRN 2013 and IMRN 2018).  One walk of the parahorics in lexicographic
    order of J (see _depths, which keeps none of them) reads the depth r/e
    at each from the least z-degree at each entry of M, with integers alone,
    and keeps the least depth (comparing by cross-multiplying) and its first
    J.  Only the leading stratum there is built: by the lemma below, a
    fundamental one certifies slope = depth and is the lexicographically
    first fundamental stratum, and a nilpotent one gives UpperBoundOnly with
    the least depth as bound and itself as witness.  A matrix with
    valuation >= 0 short-circuits to RegularSingularCandidate.

    Lemma.  If M has depth r/e > 0 at J, with leading term beta, the stratum
    is fundamental iff the least z-valuation of M's eigenvalues is -r/e.
    Proof.  Put t = z^(1/e) and D = diag(t^f_1, ..., t^f_n), f as in
    graded_degree.  Entry (a, b) of N = t^r D M D^-1 is t^(r + f_a - f_b) M_ab:
    its exponents are r plus the graded degrees of M's monomials, which are
    >= -r with equality on beta, so N is over C[[t]] and N(0) = beta(1).
    N's characteristic polynomial is X^n + c_1 X^(n-1) + ... + c_n, each c_i
    in C[[t]] and c_i(0) those of beta(1).  M's eigenvalues are t^-r x, x over
    its roots, Puiseux series (Newton-Puiseux) with a valuation v extending v_t.
    (1) v(x) >= 0: else v(c_i x^(n-i)) >= (n - i) v(x) > n v(x) = v(x^n) for
        each i >= 1, and the terms cannot cancel.
    (2) If beta(1) is nilpotent, each v(c_i) >= 1, and v(x) > 0: else
        v(c_i x^(n-i)) >= 1 + (n - i) v(x) > n v(x) = v(x^n).
    (3) Else some c_i(0) != 0; c_i is a unit and, up to sign, the i-th
        elementary symmetric function of the roots, so by (1) some v(x) = 0.
    So -r/e is the least valuation iff beta(1), so beta (see is_fundamental),
    is not nilpotent.  []
    Hence (a) strata of equal depth are both fundamental or both nilpotent,
    and (b) a fundamental one has the least depth: at a depth d' < r/e, (1)
    puts every eigenvalue at or above -d'.  theta = z d/dz maps each lattice
    of a standard chain into itself, so at r > 0 the stratum of d + M dz/z
    is that of M.  With r > 0 and trunc >= 1, leading_stratum's truncation
    check cannot fire: every matrix that agrees with M below z^trunc has
    the same leading terms, and the lemma holds for each.

    The scan costs one budget node per standard parahoric, 2^(n-1) in all,
    charged before the walk; BudgetExceededError if they do not fit.  The
    default DEFAULT_BUDGET fits every n <= 21; None means no budget.
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
    depths = _depths(n, [(k, a, b) for (a, b), k in least_deg.items()])
    J, least_e, least_r = next(depths)
    first = J[:]
    for J, e, r in depths:
        if r * least_e < least_r * e:
            least_r, least_e, first = r, e, J[:]
    # a genuine pole forces positive depth at every standard parahoric
    assert least_r > 0
    s = leading_stratum(StandardParahoric(n, first), m)
    if is_fundamental(s):
        return CertifiedSlope(s.depth, s)
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
        n, r = as_int(n, "n"), as_int(r, "r")
        if n < 1 or r < 1:
            raise InputError("need n >= 1 and r >= 1")
        if gcd(r, n) != 1:
            raise InputError(f"need gcd(r, n) = 1, got r={r}, n={n}")
        super().__init__(n, r, as_triple(p0))
