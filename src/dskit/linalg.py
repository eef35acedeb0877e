"""Dense exact linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of Scalar.  Elimination (`rank`, the
Jordan type, `sylvester_solve`), the nilpotency test and the gauge recursion
work on a matrix scaled to Gaussian integers by one common denominator
(`gaussian`): parallel lists of Python ints for the real and imaginary parts,
and the scale.  Products (`gaussian_mul`) and fraction-free elimination make
no `Fraction` until a result is read back (`from_gaussian`).  A right-hand
side is scaled apart from the matrix, so its denominators never enter the
operator, and a Sylvester operator is scaled once for all shifts.  No
pivoting heuristics are needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul

from .core import ONE, ZERO, Scalar, ScalarLike, dual_partition
from .errors import InputError

Matrix = list[list[Scalar]]
Ints = list[list[int]]
# a matrix scaled to Z[i]: real parts, imaginary parts, and the scale
Gaussian = tuple[Ints, Ints, int]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dims(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s: ScalarLike, a: Matrix) -> Matrix:
    sc = Scalar.of(s)
    return [[sc * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = list(zip(*b)) if b else []
    out = []
    for arow in a:
        nonzero = [(k, x) for k, x in enumerate(arow) if x]
        out.append([sum([x * bcol[k] for k, x in nonzero], ZERO) for bcol in bt])
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return dims(a) == dims(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def gaussian(a: Matrix) -> Gaussian:
    """The real and imaginary parts of a times the lcm den of all its
    denominators, and den, so that a = (re + i im) / den.

    One scale for the whole matrix keeps its row space, the solutions of a
    system, its nilpotency and the zeros of a form.
    """
    den = lcm(*(x.denominator for row in a for s in row for x in (s.re, s.im)))
    return (
        [[s.re.numerator * (den // s.re.denominator) for s in row] for row in a],
        [[s.im.numerator * (den // s.im.denominator) for s in row] for row in a],
        den,
    )


def _gauss_jordan(re: Ints, im: Ints) -> list[int]:
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Rows are held as parallel lists of real and imaginary parts.  A step with
    pivot d in column c replaces every other row b, at every column, by
    (d b - f a) / p, where a is the pivot row, f is b's entry in column c and
    p is the previous pivot (1 before the first step).  By Sylvester's
    determinant identity every entry stays a minor of the input, so the
    division is exact in Z[i] (Bareiss 1968; Nakos, Turner and Williams
    1997).  On return the first len(pivots) rows form the reduced echelon
    form times the last pivot: each holds that pivot in its own pivot column
    and 0 in the others.  Returns the pivot columns.
    """
    rows = len(re)
    cols = len(re[0]) if rows else 0
    pr, pi = 1, 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if re[i][c] or im[i][c]), None)
        if piv is None:
            continue
        re[r], re[piv] = re[piv], re[r]
        im[r], im[piv] = im[piv], im[r]
        ar, ai = re[r], im[r]
        dr, di = ar[c], ai[c]
        nrm = pr * pr + pi * pi
        for k in range(rows):
            if k == r:
                continue
            br, bi = re[k], im[k]
            fr, fi = br[c], bi[c]
            xr = [dr * u - di * v - fr * s + fi * t for u, v, s, t in zip(br, bi, ar, ai)]
            xi = [dr * v + di * u - fr * t - fi * s for u, v, s, t in zip(br, bi, ar, ai)]
            # divide by p: multiply by its conjugate, then divide by its norm
            re[k] = [(x * pr + y * pi) // nrm for x, y in zip(xr, xi)]
            im[k] = [(y * pr - x * pi) // nrm for x, y in zip(xr, xi)]
        pr, pi = dr, di
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(_gauss_jordan(*gaussian(a)[:2]))


def from_gaussian(g: Gaussian) -> Matrix:
    """The matrix (re + i im) / den of g = (re, im, den)."""
    re, im, den = g
    return [[Scalar(Fraction(x, den), Fraction(y, den)) if x or y else ZERO
             for x, y in zip(xr, yr)] for xr, yr in zip(re, im)]


def gaussian_mul(a: Gaussian, b: Gaussian) -> Gaussian:
    """The product of a = (ar + i ai) / ad and b = (br + i bi) / bd, over the
    product of their scales."""
    (ar, ai, ad), (br, bi, bd) = a, b
    br_t, bi_t = list(zip(*br)), list(zip(*bi))
    return (
        [[sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)) for yr, yi in zip(br_t, bi_t)]
         for xr, xi in zip(ar, ai)],
        [[sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)) for yr, yi in zip(br_t, bi_t)]
         for xr, xi in zip(ar, ai)],
        ad * bd,
    )


def is_nilpotent(a: Matrix) -> bool:
    """Whether some power of the square matrix a is zero.

    a is scaled to Z[i] by the lcm of all its denominators, which keeps
    nilpotency, and squared until the exponent reaches n: an n x n matrix
    is nilpotent exactly when its n-th power, or any higher one, is zero.
    """
    n, m = dims(a)
    if n != m:
        raise InputError("nilpotency needs a square matrix")
    g = gaussian(a)
    k = 1
    while k < n:
        g = gaussian_mul(g, g)
        k *= 2
    return not any(map(any, g[0])) and not any(map(any, g[1]))


def sylvester_operator(b: Matrix) -> Gaussian:
    """The operator of x -> b x - x b on n x n matrices x stacked by rows,
    written from `gaussian(b)`: the operator times b's common denominator
    den, and den, for `sylvester_solve`."""
    n = len(b)
    br, bi, den = gaussian(b)
    ops: tuple[Ints, Ints] = ([], [])
    for parts, op in zip((br, bi), ops):
        for i in range(n):
            for j in range(n):
                # (b x - x b)_ij = sum_a b_ia x_aj - sum_c x_ic b_cj
                row = [0] * (n * n)
                row[j::n] = parts[i]
                block = slice(i * n, i * n + n)
                row[block] = [x - bc[j] for x, bc in zip(row[block], parts)]
                op.append(row)
    return *ops, den


def sylvester_solve(op: Gaussian, k: int, rhs: Gaussian) -> Gaussian | None:
    """One solution x of (b + k) x - x b = rhs for op = `sylvester_operator(b)`,
    with free coordinates set to zero and in lowest terms, or None if the
    system is inconsistent.  A copy of op, k times its scale den added to the
    diagonal, is augmented by rhs = (bre + i bim) / big, row by row, times den.
    Every pivot row then ends in the same last pivot p, so x = u conj(p) /
    (|p|^2 big), u that column.
    """
    re, im, den = op
    bre, bim, big = rhs
    n, cols = len(bre), len(re)
    re = [row + [y * den] for row, y in zip(re, sum(bre, []))]
    im = [row + [y * den] for row, y in zip(im, sum(bim, []))]
    for r, row in enumerate(re):
        row[r] += k * den
    pivots = _gauss_jordan(re, im)
    if cols in pivots:
        return None
    pr, pi = (re[0][pivots[0]], im[0][pivots[0]]) if pivots else (1, 0)
    xr, xi = [0] * cols, [0] * cols
    for r, c in enumerate(pivots):
        ur, ui = re[r][cols], im[r][cols]
        xr[c] = ur * pr + ui * pi
        xi[c] = ui * pr - ur * pi
    d = (pr * pr + pi * pi) * big
    g = gcd(d, *xr, *xi)
    return ([[x // g for x in xr[i : i + n]] for i in range(0, cols, n)],
            [[x // g for x in xi[i : i + n]] for i in range(0, cols, n)], d // g)


def jordan_type_of_nilpotent(a: Matrix) -> tuple[int, ...]:
    """Jordan partition of a nilpotent matrix from the ranks of its powers,
    taken over Z[i] from `gaussian(a)` (scaling keeps every rank)."""
    n = len(a)
    g = gaussian(a)
    ranks = [n] + [len(_gauss_jordan([row[:] for row in re], [row[:] for row in im]))
                   for re, im, _ in accumulate(repeat(g, n), gaussian_mul)]
    if ranks[-1] != 0:
        raise InputError("matrix is not nilpotent")
    # the drops rank(a^{k-1}) - rank(a^k) are the parts of the dual partition
    return dual_partition([p - q for p, q in zip(ranks, ranks[1:]) if p > q])
