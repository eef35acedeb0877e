"""Dense exact linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of Scalar.  Products and sums work on
Scalars directly.  Elimination (`rank`, `solve`, `sylvester_solve`) and the
nilpotency test first scale the matrix to Gaussian integers, held as
parallel lists of Python ints for the real and imaginary parts, and then
work fraction-free, so no `Fraction` is made until a solution is read off.
No pivoting heuristics are needed because the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .core import Scalar, ScalarLike
from .errors import InputError

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Scalar(0) for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]


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
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        for j in range(cb):
            s = Scalar(0)
            bcol = bt[j]
            for k in range(ca):
                if arow[k]:
                    s = s + arow[k] * bcol[k]
            out[i][j] = s
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return dims(a) == dims(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _gaussian_rows(a: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Real and imaginary parts of each row times the lcm of its denominators.

    Scaling a row by a nonzero number keeps its row space, so elimination
    on these Gaussian-integer rows finds the same pivots as on `a`.
    """
    re_rows: list[list[int]] = []
    im_rows: list[list[int]] = []
    for row in a:
        den = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
        re_rows.append([x.re.numerator * (den // x.re.denominator) for x in row])
        im_rows.append([x.im.numerator * (den // x.im.denominator) for x in row])
    return re_rows, im_rows


def _gauss_jordan(re: list[list[int]], im: list[list[int]]) -> list[int]:
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
    return len(_gauss_jordan(*_gaussian_rows(a)))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    rows, cols = dims(a)
    if len(b) != rows:
        raise InputError("right-hand side has wrong length")
    re, im = _gaussian_rows([a[i] + [Scalar.of(b[i])] for i in range(rows)])
    pivots = _gauss_jordan(re, im)
    if cols in pivots:
        return None
    x = [Scalar(0)] * cols
    for r, c in enumerate(pivots):
        # x_c = (last column) / (pivot entry), both Gaussian integers
        dr, di = re[r][c], im[r][c]
        nrm = dr * dr + di * di
        ur, ui = re[r][cols], im[r][cols]
        x[c] = Scalar(Fraction(ur * dr + ui * di, nrm), Fraction(ui * dr - ur * di, nrm))
    return x


def is_nilpotent(a: Matrix) -> bool:
    """Whether some power of the square matrix a is zero.

    a is scaled to Z[i] by the lcm of all its denominators, which keeps
    nilpotency, and squared until the exponent reaches n: an n x n matrix
    is nilpotent exactly when its n-th power, or any higher one, is zero.
    """
    n, m = dims(a)
    if n != m:
        raise InputError("nilpotency needs a square matrix")
    # all n * n entries as one row share one denominator
    (flat_re,), (flat_im,) = _gaussian_rows([[x for row in a for x in row]])
    re = [flat_re[i * n : (i + 1) * n] for i in range(n)]
    im = [flat_im[i * n : (i + 1) * n] for i in range(n)]
    k = 1
    while k < n:
        re_t, im_t = list(zip(*re)), list(zip(*im))
        re, im = (
            [[sum(map(mul, ar, br)) - sum(map(mul, ai, bi)) for br, bi in zip(re_t, im_t)]
             for ar, ai in zip(re, im)],
            [[sum(map(mul, ar, bi)) + sum(map(mul, ai, br)) for br, bi in zip(re_t, im_t)]
             for ar, ai in zip(re, im)],
        )
        k *= 2
    return not any(map(any, re)) and not any(map(any, im))


def _sylvester_operator(p: Matrix, q: Matrix) -> Matrix:
    """The matrix of x -> p x - x q on n x m matrices x stacked by rows: entry
    ((i, j), (a, b)) is p_ia [j = b] - [i = a] q_bj."""
    n = len(p)
    m = len(q)
    zero = Scalar(0)
    op = [[zero] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(m):
            row = op[i * m + j]
            for a in range(n):
                row[a * m + j] = p[i][a]
            for b in range(m):
                row[i * m + b] = row[i * m + b] - q[b][j]
    return op


def sylvester_solve(p: Matrix, q: Matrix, rhs: Matrix) -> Matrix | None:
    """One solution x of p x - x q = rhs, or None if the system is inconsistent.

    When the operator is singular but the system consistent, the free
    coordinates of x are set to zero.
    """
    m = len(q)
    sol = solve(_sylvester_operator(p, q), [entry for row in rhs for entry in row])
    if sol is None:
        return None
    return [sol[i * m : (i + 1) * m] for i in range(len(p))]


def jordan_type_of_nilpotent(a: Matrix) -> tuple[int, ...]:
    """Jordan partition of a nilpotent matrix from its power-rank sequence."""
    n = len(a)
    ranks = [n]
    power = identity(n)
    for _ in range(n):
        power = mat_mul(power, a)
        ranks.append(rank(power))
    if ranks[-1] != 0:
        raise InputError("matrix is not nilpotent")
    # parts of the dual partition: d_k = rank(a^{k-1}) - rank(a^k)
    dual = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]
    dual = [d for d in dual if d > 0]
    # transpose back
    if not dual:
        return ()
    return tuple(sum(1 for d in dual if d >= k) for k in range(1, dual[0] + 1))
