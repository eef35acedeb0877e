"""Dense exact linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of Scalar. Everything here is textbook
Gaussian elimination; no pivoting heuristics are needed because the
arithmetic is exact.
"""

from __future__ import annotations

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


def mat_pow(a: Matrix, k: int) -> Matrix:
    n, m = dims(a)
    if n != m:
        raise InputError("matrix power needs a square matrix")
    if k < 0:
        raise InputError("negative matrix power not supported here")
    result = identity(n)
    base = copy_matrix(a)
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return dims(a) == dims(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _row_echelon(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy_matrix(a)
    rows, cols = dims(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Scalar(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(_row_echelon(a)[1])


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    rows, cols = dims(a)
    if len(b) != rows:
        raise InputError("right-hand side has wrong length")
    aug = [a[i][:] + [Scalar.of(b[i])] for i in range(rows)]
    ech, pivots = _row_echelon(aug)
    if cols in pivots:
        return None
    x = [Scalar(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = ech[r][cols]
    return x


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
