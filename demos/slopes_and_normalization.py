"""Certifying slopes and normalizing regular-singular connections.

The slope of d + M(z) dz/z measures how irregular the singularity at z = 0
is.  A slope certificate is a stratum in a standard parahoric filtration
whose leading term is fundamental (non-nilpotent power); scanning the 2^(n-1)
standard parahorics either certifies the slope exactly or reports an upper
bound.  Slope 0 candidates can then be brought to the constant form
d + B_0 dz/z by an explicit gauge transformation, computed term by term.
"""

from fractions import Fraction
from functools import reduce

from dskit.core import gaussian_str
from dskit.formal import (
    CertifiedSlope,
    RegularSingularCandidate,
    UpperBoundOnly,
    certify_slope,
    omega_power,
    regsing_normalize,
)
from dskit.laurent import LaurentMatrix

# Each coefficient is held as (re, im, den): the matrix (re + i im) / den.
zero = [[0, 0], [0, 0]]

# The cyclic matrix omega (ones below the diagonal, z in the corner)
# satisfies omega^n = z.  Its negative powers are the standard examples of
# fractional slope: omega^-k has slope k/n.
for n in (2, 3, 5):
    for k in (1, n + 1):
        v = certify_slope(omega_power(n, -k))
        assert isinstance(v, CertifiedSlope)
        print(f"n={n}  omega^-{k}:  slope {v.slope}  "
              f"(witness parahoric J={v.witness.parahoric.J}, depth {v.witness.depth})")
print()

# A nilpotent polar part proves nothing by itself: the scan returns only an
# upper bound, flagged as such.
v = certify_slope(LaurentMatrix(2, {-1: ([[0, 1], [0, 0]], zero, 1)}))
assert isinstance(v, UpperBoundOnly)
print(f"nilpotent z^-1 E12: upper bound {v.bound}, not certified")

# No polar part at all: a regular-singular candidate.
v = certify_slope(LaurentMatrix(2, {0: ([[1, 0], [0, 0]], zero, 2)}))
assert isinstance(v, RegularSingularCandidate)
print("diag(1/2, 0) at z^0: regular-singular candidate")
print()

# Normalization: kill the positive-degree tail of M = B_0 + B_1 z + ... by a
# gauge transformation g = 1 + g_1 z + ..., provided no two eigenvalues of
# B_0 differ by a nonzero integer.  The defining identity is
#   g M - z dg/dz = B_0 g   (mod z^N).
order = 5
m = LaurentMatrix(2, {
    0: ([[0, 0], [0, 1]], zero, 2),  # B_0 = diag(0, 1/2)
    1: ([[0, 1], [0, 0]], zero, 1),  # one off-diagonal z-term
})
g = regsing_normalize(m, order)


def entries(c):
    """The coefficient c = (re, im, den) as a matrix of (re, im) Fraction pairs."""
    re, im, den = c
    return [[(Fraction(x, den), Fraction(y, den)) for x, y in zip(xr, yr)]
            for xr, yr in zip(re, im)]


def shown(c):
    """The coefficient c = (re, im, den) as text, each entry as Scalar(value)."""
    re, im, den = c
    return "[" + ", ".join(
        "[" + ", ".join(f"Scalar({gaussian_str(x, y, den)})" for x, y in zip(xr, yr)) + "]"
        for xr, yr in zip(re, im)) + "]"


print(f"g_0 = identity: {entries(g.coeff(0)) == [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]}")
print(f"g_1 = {shown(g.coeff(1))}")


def add(p, q):
    return p[0] + q[0], p[1] + q[1]


def times(p, q):
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c


def product(a, b):
    return [[reduce(add, map(times, row, col)) for col in zip(*b)] for row in a]


def defect(k):
    """The entries of the z^k coefficient of g M - z dg/dz - B_0 g, that is
    sum_{i<=k} g_i M_{k-i} - k g_k - B_0 g_k, as (re, im) pairs."""
    gk = entries(g.coeff(k))
    terms = [product(entries(g.coeff(i)), entries(m.coeff(k - i))) for i in range(k + 1)]
    terms.append([[(-k * x, -k * y) for x, y in row] for row in gk])
    terms.append([[(-x, -y) for x, y in row] for row in product(entries(m.coeff(0)), gk)])
    return [reduce(add, col) for rows in zip(*terms) for col in zip(*rows)]


print(f"identity holds mod z^{order}:",
      not any(re or im for k in range(order) for re, im in defect(k)))
