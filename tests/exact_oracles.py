"""Exact helpers that only the tests call.

The package answers its questions with `Scalar`, `linalg` and
`LaurentMatrix` alone; the functions here give the tests independent ways to
build inputs and to check answers: the dominance order, small scalar and
orbit views, and matrix algebra the deciders do not need,
elimination and matrix powers on Scalars (the oracles for `linalg`'s
Gaussian-integer kernels), series algebra on `LaurentMatrix` (free functions
taking the series first), the lattice-chain definition of the filtration
degree, the dense Cartan matrix of a quiver (the oracle for `Quiver`'s
neighbour lists), the pairing beta . lambda, and sympy's factorization for
nonresonance.  sympy is a test dependency; it is imported only when
`is_nonresonant` runs.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from dskit import linalg
from dskit.core import OrbitSpec, Partition, Scalar, ScalarLike, as_partition, weight
from dskit.errors import InputError
from dskit.formal import StandardParahoric
from dskit.laurent import LaurentMatrix
from dskit.linalg import (
    Matrix,
    Vector,
    copy_matrix,
    dims,
    identity,
    mat_mul,
    mat_scale,
    rank,
    zeros,
)
from dskit.rootsys import Quiver, Vertex, VecLike, _lambda_numerators

# ---------------------------------------------------------------------------
# Scalars, partitions and orbits.
# ---------------------------------------------------------------------------


def is_rational(x: Scalar) -> bool:
    return x.im == 0


def dominance_leq(p: Partition, q: Partition) -> bool:
    """Whether p <= q in dominance order (all prefix sums of p at most those of q)."""
    p, q = as_partition(p), as_partition(q)
    if weight(p) != weight(q):
        raise InputError(f"dominance compares equal weights only: {p} vs {q}")
    ps = qs = 0
    for k in range(max(len(p), len(q))):
        ps += p[k] if k < len(p) else 0
        qs += q[k] if k < len(q) else 0
        if ps > qs:
            return False
    return True


def max_block(o: OrbitSpec, eig: ScalarLike) -> int:
    return o.partition_for(eig)[0]


def min_poly_degree(o: OrbitSpec) -> int:
    return sum(part[0] for _, part in o.blocks)


def translated(o: OrbitSpec, t: ScalarLike) -> OrbitSpec:
    return OrbitSpec(o.n, [(e + t, part) for e, part in o.blocks])


# ---------------------------------------------------------------------------
# Matrices.
# ---------------------------------------------------------------------------


def mat_of(rows: Sequence[Sequence[ScalarLike]]) -> Matrix:
    out = [[Scalar.of(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged matrix")
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def trace(a: Matrix) -> Scalar:
    t = Scalar(0)
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def kron(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            if not a[i][j]:
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def det(a: Matrix) -> Scalar:
    n, m = dims(a)
    if n != m:
        raise InputError("determinant needs a square matrix")
    mat = copy_matrix(a)
    result = Scalar(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return Scalar(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            result = -result
        result = result * mat[c][c]
        inv = Scalar(1) / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = inv * mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return result


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


def echelon_rank(a: Matrix) -> int:
    """Rank by `_row_echelon` on Scalars: the oracle for `linalg.rank`."""
    if not a or not a[0]:
        return 0
    return len(_row_echelon(a)[1])


def echelon_solve(a: Matrix, b: Vector) -> Vector | None:
    """`linalg.solve`'s contract by `_row_echelon` on Scalars: one solution of
    a x = b with its free coordinates set to zero, or None if inconsistent."""
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


def mat_inv(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n, m = dims(a)
    if n != m:
        raise InputError("inverse needs a square matrix")
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    ech, pivots = _row_echelon(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in ech]


def nullspace(a: Matrix) -> list[Vector]:
    """A basis of the kernel of a."""
    rows, cols = dims(a)
    if cols == 0:
        return []
    if rows == 0:
        return [
            [Scalar(1) if i == j else Scalar(0) for i in range(cols)]
            for j in range(cols)
        ]
    ech, pivots = _row_echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [Scalar(0)] * cols
        v[f] = Scalar(1)
        for r, c in enumerate(pivots):
            v[c] = -ech[r][f]
        basis.append(v)
    return basis


def ad_eigen_shift_singular(b: Matrix, k: int) -> bool:
    """Whether x -> b x - x b - k x is singular, i.e. whether k is a
    difference of two eigenvalues of b."""
    n = len(b)
    return rank(linalg._sylvester_operator(mat_sub(b, mat_scale(k, identity(n))), b)) < n * n


def jordan_matrix(o: OrbitSpec) -> Matrix:
    """The block-diagonal Jordan representative of an orbit specification."""
    n = o.n
    m = zeros(n, n)
    pos = 0
    for eig, part in o.blocks:
        for size in part:
            for t in range(size):
                m[pos + t][pos + t] = eig
                if t + 1 < size:
                    m[pos + t][pos + t + 1] = Scalar(1)
            pos += size
    return m


# ---------------------------------------------------------------------------
# Laurent series.
# ---------------------------------------------------------------------------


def one(n: int, trunc: int | None = None) -> LaurentMatrix:
    return LaurentMatrix(n, {0: identity(n)}, trunc)


def from_terms(
    n: int,
    terms: Iterable[tuple[int, Matrix]],
    trunc: int | None = None,
) -> LaurentMatrix:
    acc: dict[int, Matrix] = {}
    for deg, mat in terms:
        if deg in acc:
            acc[deg] = linalg.mat_add(acc[deg], mat)
        else:
            acc[deg] = copy_matrix(mat)
    return LaurentMatrix(n, acc, trunc)


def shift(m: LaurentMatrix, k: int) -> LaurentMatrix:
    """Multiply by z^k."""
    return LaurentMatrix(
        m.n,
        {deg + k: copy_matrix(mat) for deg, mat in m.coeffs.items()},
        None if m.trunc is None else m.trunc + k,
    )


def power(m: LaurentMatrix, k: int) -> LaurentMatrix:
    if k < 0:
        raise InputError("negative powers: use series_inverse, then power")
    result = one(m.n)
    base = m
    kk = k
    while kk:
        if kk & 1:
            result = result * base
        kk >>= 1
        if kk:
            base = base * base
    return result


def series_inverse(m: LaurentMatrix) -> LaurentMatrix:
    """Inverse of a series with invertible constant term (valuation 0).

    Known to the same truncation order as the input; exact inputs with a
    non-polynomial inverse raise, so pass a truncated series for those.
    """
    c0 = m.coeffs.get(0)
    if c0 is None or (m.valuation() is not None and m.valuation() < 0):
        raise InputError("series_inverse needs valuation exactly 0")
    c0_inv = mat_inv(c0)
    if c0_inv is None:
        raise InputError("constant term is singular")
    if m.trunc is None:
        if m.support() == (0,):
            return LaurentMatrix(m.n, {0: c0_inv})
        raise InputError(
            "exact inverse of a non-constant series is not a Laurent "
            "polynomial; truncate first"
        )
    out: dict[int, Matrix] = {0: c0_inv}
    for k in range(1, m.trunc):
        acc = zeros(m.n, m.n)
        for i in range(0, k):
            g = m.coeffs.get(k - i)
            if g is not None and i in out:
                acc = linalg.mat_add(acc, linalg.mat_mul(out[i], g))
        term = mat_scale(-1, linalg.mat_mul(acc, c0_inv))
        if not linalg.is_zero_matrix(term):
            out[k] = term
    return LaurentMatrix(m.n, out, m.trunc)


# ---------------------------------------------------------------------------
# Definitions the package computes in closed form.
# ---------------------------------------------------------------------------


def filtration_degree(p: StandardParahoric, a: int, b: int, k: int) -> int:
    """Largest s with E_ab z^k . L^i contained in L^{i+s} for every i.

    Computed directly from the lattice-chain bases: the monomial sends
    z^{nu_i(b)} e_b to z^{k + nu_i(b)} e_a, so the containment at i asks
    nu_{i+s}(a) <= k + nu_i(b), checked over one period.
    """
    if not (1 <= a <= p.n and 1 <= b <= p.n):
        raise InputError(f"entry ({a},{b}) outside 1..{p.n}")
    e = p.e
    for s in range(k * e + e, k * e - e - 1, -1):
        if all(
            p.lattice_exponent(j + s, a) <= k + p.lattice_exponent(j, b)
            for j in range(e)
        ):
            return s
    raise AssertionError("unreachable: the degree lies within k*e +- (e-1)")


def cartan_rows(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """The dense Cartan matrix of q, by definition: C_ij = 2 delta_ij -
    #{arrows between i and j}, arrows counted undirected."""
    verts = q.vertices
    pos = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    counts = [[0] * n for _ in range(n)]
    for tail, head in q.arrows:
        a, b = pos[tail], pos[head]
        counts[a][b] += 1
        counts[b][a] += 1
    return tuple(
        tuple(2 if i == j else -counts[i][j] for j in range(n)) for i in range(n)
    )


def dot_lambda(q: Quiver, beta: VecLike, lam: Mapping[Vertex, ScalarLike]) -> Scalar:
    """The pairing beta . lambda."""
    re, im, den = _lambda_numerators(q, lam)
    b = q.as_vector(beta)
    return Scalar(
        Fraction(sum(map(operator.mul, b, re)), den),
        Fraction(sum(map(operator.mul, b, im)), den),
    )


def alpha_dot_lambda(data) -> Scalar:
    """alpha . lambda of a `CBData` or a `HiroeData`."""
    return dot_lambda(data.quiver, data.alpha, data.lam)


def is_nonresonant(b0: Matrix) -> bool:
    """No two eigenvalues of b0 differ by a nonzero rational integer.

    Eigenvalues are computed exactly by factoring the characteristic
    polynomial over the Gaussian rationals; a matrix with eigenvalues outside
    Q(i) is rejected rather than approximated.
    """
    import sympy

    rows, cols = dims(b0)
    if rows != cols:
        raise InputError("nonresonance is defined for square matrices")
    x = sympy.Symbol("x")
    sm = sympy.Matrix(
        [[sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in row]
         for row in b0]
    )
    charpoly = sm.charpoly(x).as_expr()
    _, factors = sympy.factor_list(charpoly, gaussian=True)
    eigs: list[Scalar] = []
    for fac, _mult in factors:
        poly = sympy.Poly(fac, x)
        if poly.degree() == 0:
            continue
        if poly.degree() > 1:
            raise InputError(
                "matrix has eigenvalues outside Q(i): irreducible factor "
                f"{fac} of the characteristic polynomial"
            )
        root = sympy.together(-poly.nth(0) / poly.nth(1))
        re_part, im_part = root.as_real_imag()
        re_q = sympy.Rational(re_part)
        im_q = sympy.Rational(im_part)
        eigs.append(Scalar(Fraction(re_q.p, re_q.q), Fraction(im_q.p, im_q.q)))
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if eigs[i].differs_by_nonzero_int(eigs[j]):
                return False
    return True
