import math
import random
from fractions import Fraction

import pytest

from dskit import linalg
from dskit.core import OrbitSpec, partitions_of
from dskit.errors import InputError
from exact_oracles import (
    Scalar,
    ad_eigen_shift_singular,
    det,
    dims,
    echelon_rank,
    echelon_solve,
    echelon_sylvester_solve,
    from_gaussian,
    gaussian,
    identity,
    is_zero_matrix,
    jordan_matrix,
    kron,
    mat_add,
    mat_inv,
    mat_mul,
    mat_of,
    mat_pow,
    mat_scale,
    mat_sub,
    nullspace,
    orbit_determinant,
    orbit_trace,
    rank,
    sylvester_kron,
    sympy_charpoly,
    sympy_rank,
    trace,
    transpose,
    triple,
    zeros,
)


def _rand_matrix(rng, n, lo=-4, hi=4):
    return [[Scalar(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def test_mat_of_and_basic_ops():
    a = mat_of([[1, 2], [3, 4]])
    b = mat_of([[0, 1], [1, 0]])
    assert mat_mul(a, b) == mat_of([[2, 1], [4, 3]])
    assert mat_add(a, mat_scale(-1, a)) == zeros(2, 2)
    assert transpose(a) == mat_of([[1, 3], [2, 4]])
    assert trace(a) == 5
    assert mat_pow(b, 2) == identity(2)


def test_rank_det_known():
    a = mat_of([[1, 2], [2, 4]])
    assert rank(a) == 1
    assert det(a) == 0
    b = mat_of([[2, 1], [1, 1]])
    assert det(b) == 1
    assert rank(b) == 2
    c = mat_of([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rank(c) == 2
    assert det(c) == 0


def test_det_multiplicative_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n)
        b = _rand_matrix(rng, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_inverse_random():
    rng = random.Random(11)
    found = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n)
        inv = mat_inv(a)
        if det(a) == 0:
            assert inv is None
        else:
            found += 1
            assert mat_mul(a, inv) == identity(n)
            assert mat_mul(inv, a) == identity(n)
    assert found > 10


def test_inconsistent_rank_and_nullspace():
    sing = mat_of([[1, 1], [1, 1]])
    # sing x = (0, 1) is inconsistent: the right-hand side raises the rank
    assert rank(sing) == 1
    assert rank(mat_of([[1, 1, 0], [1, 1, 1]])) == 2
    ns = nullspace(sing)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and (v[0] or v[1])


def test_nullspace_dimension_rank_nullity():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, -2, 2)
        assert rank(a) + len(nullspace(a)) == n


def test_kron_shape_and_value():
    a = mat_of([[1, 2], [0, 1]])
    b = mat_of([[0, 1], [1, 0]])
    k = kron(a, b)
    assert dims(k) == (4, 4)
    assert k[0][1] == 1 and k[0][3] == 2 and k[2][3] == 1 and k[2][2] == 0


def test_sylvester_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 3)
        b = _rand_matrix(rng, n)
        k = rng.randint(0, 4)
        x = _rand_matrix(rng, n)
        shifted = mat_add(b, mat_scale(k, identity(n)))
        rhs = mat_sub(mat_mul(shifted, x), mat_mul(x, b))
        got = linalg.sylvester_solve(linalg.sylvester_operator(gaussian(b)), k, gaussian(rhs))
        assert got is not None
        sol = from_gaussian(got)
        assert mat_sub(mat_mul(shifted, sol), mat_mul(sol, b)) == rhs


def test_sylvester_singular_detected():
    # b + 3 and b share the eigenvalue 3, so (b + 3) x - x b = E12 has no solution
    b = mat_of([[0, 0], [0, 3]])
    rhs = mat_of([[0, 1], [0, 0]])
    assert linalg.sylvester_solve(linalg.sylvester_operator(gaussian(b)), 3, gaussian(rhs)) is None


def test_ad_eigen_shift_singular():
    b = mat_of([[0, 0], [0, 3]])  # eigenvalues differ by 3
    assert ad_eigen_shift_singular(b, 3)
    assert not ad_eigen_shift_singular(b, 2)
    assert ad_eigen_shift_singular(b, 0)


def test_jordan_matrix_and_type():
    o = OrbitSpec(5, [(0, (3, 2))])
    j = jordan_matrix(o)
    assert linalg.jordan_type_of_nilpotent(gaussian(j)) == (3, 2)
    o2 = OrbitSpec(4, [(0, (2, 1, 1))])
    assert linalg.jordan_type_of_nilpotent(gaussian(jordan_matrix(o2))) == (2, 1, 1)
    assert linalg.jordan_type_of_nilpotent(gaussian(zeros(3, 3))) == (1, 1, 1)


def test_jordan_matrix_charpoly_data():
    o = OrbitSpec(3, [(Fraction(1, 2), (2,)), (-1, (1,))])
    j = jordan_matrix(o)
    assert trace(j) == orbit_trace(o)
    assert det(j) == orbit_determinant(o)


SIZES = (1, 2, 2, 3, 3, 3, 4, 4, 5)


def _gaussian_entry(rng):
    """A Gaussian rational, zero a third of the time, non-real a third."""
    if rng.random() < 1 / 3:
        return Scalar(0)
    re = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    im = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])) if rng.random() < 0.5 else 0
    return Scalar(re, im)


def _combination(rng, rows):
    """A random Gaussian-integer combination of the given rows."""
    out = [Scalar(0)] * len(rows[0])
    for row in rows:
        c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
        out = [x + c * y for x, y in zip(out, row)]
    return out


def _sevens_entry(rng):
    """A Gaussian rational whose denominators are powers of 7, times 11 or 13
    at times, so unrelated to those of `_gaussian_entry`; non-real half the
    time, zero a sixth."""
    if rng.random() < 1 / 6:
        return Scalar(0)
    den = lambda: 7 ** rng.randint(1, 4) * rng.choice([1, 1, 11, 13])
    im = Fraction(rng.randint(-60, 60), den()) if rng.random() < 0.5 else 0
    return Scalar(Fraction(rng.randint(-60, 60), den()), im)


def _random_system(rng):
    """A rectangular system a x = b, often with dependent rows, and with b
    often in the column space, so that singular consistent systems are as
    common as inconsistent ones."""
    rows, cols = rng.choice(SIZES), rng.choice(SIZES)
    a = [[_gaussian_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if rng.random() < 0.35:
            a[i] = _combination(rng, a[:i])
    if rng.random() < 0.6:
        x0 = [_gaussian_entry(rng) for _ in range(cols)]
        b = [sum((p * q for p, q in zip(row, x0)), Scalar(0)) for row in a]
    else:
        b = [_gaussian_entry(rng) for _ in range(rows)]
    return a, b


def _first_pivot_is_nonreal(a):
    """Whether elimination's first pivot, which every later step divides by
    (scaled to Z[i] by a positive integer), has a nonzero imaginary part."""
    for c in range(len(a[0])):
        for row in a:
            if row[c]:
                return bool(row[c].im)
    return False


def test_rank_matches_echelon_oracle():
    rng = random.Random(2024)
    kinds = {"inconsistent": 0, "singular_consistent": 0, "nonreal_previous_pivot": 0}
    for _ in range(3000):
        a, b = _random_system(rng)
        cols = len(a[0])
        want = echelon_solve(a, b)
        r = echelon_rank(a)
        assert rank(a) == r
        # consistent exactly when b adds nothing to the column space
        aug = [row + [y] for row, y in zip(a, b)]
        assert rank(aug) == r + (want is None)
        if want is None:
            kinds["inconsistent"] += 1
        elif r < cols:
            kinds["singular_consistent"] += 1
        if r >= 2 and _first_pivot_is_nonreal(a):
            kinds["nonreal_previous_pivot"] += 1
    assert min(kinds.values()) >= 300, kinds


def _hide_by_similarities(rng, a):
    """n elementary similarities of the square matrix a, in place: row i += c
    row j, then column j -= c column i."""
    n = len(a)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] = row[j] - c * row[i]


def _residue_with_gaps(rng, n):
    """A dense n x n matrix with eigenvalues lam + d_i, the d_i drawn from
    0..5 with repeats, lam non-real half the time: an upper-triangular
    matrix hidden by elementary similarities.  Returns it and the d_i."""
    lam = Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])),
                 rng.choice([0, Fraction(1, 3)]))
    gaps = [rng.randint(0, 5) for _ in range(n)]
    b = [[lam + gaps[i] if i == j else _gaussian_entry(rng) if j > i else Scalar(0)
          for j in range(n)] for i in range(n)]
    _hide_by_similarities(rng, b)
    return b, gaps


def test_sylvester_solve_matches_the_kronecker_oracle():
    # (b + k) x - x b is singular exactly when k is a difference of two gaps;
    # rhs has denominators 7^1..7^4, times 11 or 13 at times, of its own
    rng = random.Random(2028)
    kinds = {"resonant_inconsistent": 0, "resonant_consistent": 0, "regular": 0,
             "nonreal_rhs": 0}
    for _ in range(50):
        n = rng.choice([1, 2, 2, 3, 3, 3, 4])
        b, gaps = _residue_with_gaps(rng, n)
        op = linalg.sylvester_operator(gaussian(b))
        for k in range(9):
            shifted = mat_add(b, mat_scale(k, identity(n)))
            x = [[_sevens_entry(rng) for _ in range(n)] for _ in range(n)]
            image = mat_sub(mat_mul(shifted, x), mat_mul(x, b))
            drawn = [[_sevens_entry(rng) for _ in range(n)] for _ in range(n)]
            for rhs in (image, drawn):
                want = echelon_sylvester_solve(b, k, rhs)
                # rhs over a denominator that is not the least one at times;
                # the solution comes back in lowest terms all the same
                re, im, den = gaussian(rhs)
                s = rng.choice([1, 1, 6, 7])
                scaled = [[s * x for x in row] for row in re], [[s * x for x in row] for row in im]
                got = linalg.sylvester_solve(op, k, (*scaled, s * den))
                assert got == (None if want is None else gaussian(want)), (b, k, rhs)
                kinds["nonreal_rhs"] += any(y.im for row in rhs for y in row)
                if k not in {p - q for p in gaps for q in gaps}:
                    kinds["regular"] += 1
                elif want is None:
                    kinds["resonant_inconsistent"] += 1
                elif k > 0:
                    kinds["resonant_consistent"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_the_n_by_n_route_matches_the_kronecker_route(monkeypatch):
    # 18 draws of a dense residue, n = 1..7, each at shifts 0..8: a shift is
    # singular exactly when it is a difference of two gaps, and only then
    # may `sylvester_solve` leave the n x n route for the Kronecker system
    rng = random.Random(2043)
    fallback = []
    kronecker_solve = linalg._kronecker_solve

    def spy(g, k, rhs):
        fallback.append(k)
        return kronecker_solve(g, k, rhs)

    monkeypatch.setattr(linalg, "_kronecker_solve", spy)
    routes = {"n_by_n": 0, "kronecker": 0}
    for n in [rng.randint(1, 6) for _ in range(17)] + [7]:
        b, gaps = _residue_with_gaps(rng, n)
        op = linalg.sylvester_operator(gaussian(b))
        for k in range(9):
            shifted = mat_add(b, mat_scale(k, identity(n)))
            x = [[_sevens_entry(rng) for _ in range(n)] for _ in range(n)]
            rhs = gaussian(rng.choice([
                mat_sub(mat_mul(shifted, x), mat_mul(x, b)), x]))
            fallback.clear()
            got = linalg.sylvester_solve(op, k, rhs)
            singular = k in {p - q for p in gaps for q in gaps}
            assert fallback == ([k] if singular else []), (b, k)
            if singular:
                routes["kronecker"] += 1
            else:
                assert got == kronecker_solve(op[0], k, rhs), (b, k, rhs)
                routes["n_by_n"] += 1
    assert min(routes.values()) >= 50, routes


def test_sylvester_operator_gives_the_characteristic_polynomial():
    # seed 2044, 60 Gaussian-integer matrices b', n = 1..8, a quarter of them
    # with their entries below the diagonal set to zero.  A triangular b'
    # gets no H_m, and its `Triangle` holds its diagonal.  Any other gets
    # the H_m of Jameson's route, which carry sympy's coefficients p_m of
    # det(t - b'): H_{n-1} = I, H_{m-1} - b' H_m = p_m I for m = 1..n-1, and
    # b' H_0 + p_0 I = 0, which is p(b') = 0.  Counts at this seed: 17
    # triangular, 43 on Jameson's route
    rng = random.Random(2044)
    routes = {"triangular": 0, "jameson": 0}
    for _ in range(60):
        n = rng.randint(1, 8)
        b = [[Scalar(rng.randint(-4, 4), rng.choice([0, 0, rng.randint(-3, 3)]))
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.25:
            b = [[x if j >= i else Scalar(0) for j, x in enumerate(row)]
                 for i, row in enumerate(b)]
        g, h, tri = linalg.sylvester_operator(gaussian(b))
        assert g == gaussian(b) and g[2] == 1
        if all(b[i][j] == 0 for i in range(n) for j in range(i)):
            assert h is None and tri[1:3] == ([int(b[i][i].re) for i in range(n)],
                                              [int(b[i][i].im) for i in range(n)]), b
            routes["triangular"] += 1
            continue
        assert tri is None and len(h) == n and from_gaussian(h[-1]) == identity(n), b
        p = sympy_charpoly(b)
        hs = [from_gaussian(x) for x in h]
        for m in range(n):
            lhs = mat_sub(hs[m - 1], mat_mul(b, hs[m])) if m else mat_scale(-1, mat_mul(b, hs[0]))
            assert lhs == mat_scale(Scalar(*p[m]), identity(n)), (b, m)
        routes["jameson"] += 1
    assert min(routes.values()) >= 15, routes


def test_solve_with_right_hand_side_denominators_matches_echelon_oracle():
    # rhs is scaled by a denominator of its own, apart from the operator of
    # a dense b, often with dependent rows; k = 0 keeps the operator singular
    rng = random.Random(2027)
    kinds = {"inconsistent": 0, "singular_consistent": 0, "nonreal_rhs": 0}
    for _ in range(600):
        n = rng.choice([1, 2, 2, 3, 3])
        b = [[_gaussian_entry(rng) for _ in range(n)] for _ in range(n)]
        for i in range(1, n):
            if rng.random() < 0.35:
                b[i] = _combination(rng, b[:i])
        k = rng.choice([0, 0, 1, 2])
        shifted = mat_add(b, mat_scale(k, identity(n)))
        if rng.random() < 0.6:
            x0 = [[_sevens_entry(rng) for _ in range(n)] for _ in range(n)]
            rhs = mat_sub(mat_mul(shifted, x0), mat_mul(x0, b))
        else:
            rhs = [[_sevens_entry(rng) for _ in range(n)] for _ in range(n)]
        a = sylvester_kron(shifted, b)
        want = echelon_solve(a, [y for row in rhs for y in row])
        got = linalg.sylvester_solve(linalg.sylvester_operator(gaussian(b)), k, gaussian(rhs))
        if want is None:
            assert got is None, (b, k, rhs)
            kinds["inconsistent"] += 1
        else:
            assert got == gaussian([want[i * n : (i + 1) * n] for i in range(n)]), (
                b, k, rhs)
            if echelon_rank(a) < n * n:
                kinds["singular_consistent"] += 1
        kinds["nonreal_rhs"] += any(y.im for row in rhs for y in row)
    assert min(kinds.values()) >= 90, kinds


def test_gaussian_scales_by_the_least_common_denominator():
    rng = random.Random(2031)
    draws = [[[Scalar(0)] * 3] * 2, [[]]]
    for _ in range(300):
        rows, cols = rng.choice(SIZES), rng.choice(SIZES)
        # denominators mixed within one matrix, on real and imaginary parts
        draws.append([[rng.choice([_gaussian_entry, _sevens_entry])(rng) for _ in range(cols)]
                      for _ in range(rows)])
    for a in draws:
        re, im, den = gaussian(a)
        assert [[Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(xr, yr)]
                for xr, yr in zip(re, im)] == a
        # every scale that makes a integral is a multiple of the least one, so
        # a larger den would divide every part of den * a along with den
        assert math.gcd(den, *(x for rows in (re, im) for row in rows for x in row)) == 1
    assert gaussian(draws[0]) == ([[0] * 3] * 2, [[0] * 3] * 2, 1)


def test_sylvester_operator_is_the_kronecker_oracle_over_one_denominator():
    # the n^2 x n^2 operator of a singular shift, written from the scaled b
    # that `sylvester_operator` keeps.  b's diagonal is m/9 + (m mod 3)/2 i
    # plus an integer, no two entries an integer apart, and the rest of b is
    # integral: so the rows (i, i) of the operator are integral and the
    # others are not, and all share b's scale
    rng = random.Random(2032)
    for _ in range(40):
        n = rng.choice([2, 2, 3, 3, 4, 5])
        b = [[Scalar(Fraction(i, 9) + rng.randint(-2, 2), Fraction(i % 3, 2)) if i == j
              else Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for j in range(n)]
             for i in range(n)]
        want = sylvester_kron(b, b)
        integral = [all(x.re.denominator == x.im.denominator == 1 for x in row) for row in want]
        assert integral == [r % (n + 1) == 0 for r in range(n * n)]
        re, im, den = linalg._kronecker(linalg.sylvester_operator(gaussian(b))[0])
        assert den == gaussian(b)[2] > 1
        assert [[Scalar(x, y) for x, y in zip(xr, yr)] for xr, yr in zip(re, im)] == [
            [den * x for x in row] for row in want
        ]


def test_rank_of_degenerate_shapes():
    assert rank([]) == 0 and rank([[]]) == 0 and rank([[], []]) == 0
    assert linalg.jordan_type_of_nilpotent(gaussian([])) == ()


def test_gaussian_mul_matches_mat_mul():
    # the parts multiply over Z[i] and the scales multiply
    rng = random.Random(2042)
    for _ in range(300):
        rows, inner, cols = rng.choice(SIZES), rng.choice(SIZES), rng.choice(SIZES)
        if rng.random() < 1 / 3:  # the gauge's [g_0 ... g_{k-1}] [B_k; ...; B_1]
            inner, cols = rows * rng.randint(1, 7), rows
        entry = lambda: rng.choice([_gaussian_entry, _sevens_entry])(rng)
        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(inner)]
        ga, gb = gaussian(a), gaussian(b)
        prod = linalg.gaussian_mul(ga, gb)
        assert prod[2] == ga[2] * gb[2]
        assert from_gaussian(prod) == mat_mul(a, b), (a, b)


def test_jordan_type_of_hidden_nilpotents_matches_the_jordan_matrix_oracle():
    rng = random.Random(2043)
    nonreal = 0
    for n in range(1, 8):
        for part in partitions_of(n):
            for _ in range(3):
                a = jordan_matrix(OrbitSpec(n, [(0, part)]))
                _hide_by_similarities(rng, a)
                s = Scalar(Fraction(rng.randint(1, 3), rng.randint(1, 3)), rng.choice([0, 1]))
                a = [[s * x for x in row] for row in a]
                nonreal += any(x.im for row in a for x in row)
                assert linalg.jordan_type_of_nilpotent(gaussian(a)) == part, a
    assert nonreal >= 66, nonreal  # of 132
    for blocks in ([(1, (1,))], [(0, (2,)), (triple(Scalar(0, 1)), (1,))], [(Fraction(1, 2), (3,))]):
        o = OrbitSpec(sum(sum(part) for _, part in blocks), blocks)
        a = jordan_matrix(o)
        _hide_by_similarities(rng, a)
        with pytest.raises(InputError, match="^matrix is not nilpotent$"):
            linalg.jordan_type_of_nilpotent(gaussian(a))


def _random_square(rng, n):
    kind = rng.randrange(3)
    if kind == 0:  # generic, rarely nilpotent
        return [[_gaussian_entry(rng) for _ in range(n)] for _ in range(n)]
    # strictly upper triangular, sometimes with one diagonal entry spoiled,
    # then hidden by elementary similarities and scaled by a Gaussian rational
    a = [[Scalar(rng.randint(-2, 2), rng.choice([0, 0, 1])) if j > i else Scalar(0)
          for j in range(n)] for i in range(n)]
    if kind == 2:
        i = rng.randrange(n)
        a[i][i] = Scalar(rng.choice([-1, 1]), rng.choice([0, 1]))
    _hide_by_similarities(rng, a)
    s = Scalar(Fraction(rng.randint(1, 3), rng.randint(1, 3)), rng.choice([0, Fraction(1, 2)]))
    return [[s * x for x in row] for row in a]


def test_is_nilpotent_matches_mat_pow():
    rng = random.Random(2025)
    nilpotent = 0
    for _ in range(3000):
        n = rng.choice(SIZES[:-1])  # mat_pow on Scalars makes 5 x 5 slow
        a = _random_square(rng, n)
        want = is_zero_matrix(mat_pow(a, n))
        assert linalg.is_nilpotent(gaussian(a)) == want, a
        nilpotent += want
    assert 600 <= nilpotent <= 2400, nilpotent


I = Scalar(0, 1)
# (name, matrix, nilpotent, squared): squared says whether the power-sum
# filter, tr A and tr A^2, left the answer to the squaring
NILPOTENCY_EXITS = [
    ("trace", [[1, 1], [0, 0]], False, False),
    ("trace of the square", [[0, 1], [1, 0]], False, False),
    ("imaginary trace of the square", [[0, 1], [I, 0]], False, False),
    ("3-cycle, power sums 1 and 2 zero", [[0, 1, 0], [0, 0, 1], [1, 0, 0]], False, True),
    ("Jordan block", [[0, 1, 0], [0, 0, 1], [0, 0, 0]], True, True),
]


@pytest.mark.parametrize("scale", [1, I], ids=["over Z", "times i"])
@pytest.mark.parametrize("name, a, nilpotent, squared", NILPOTENCY_EXITS,
                         ids=[x[0] for x in NILPOTENCY_EXITS])
def test_is_nilpotent_exits(monkeypatch, scale, name, a, nilpotent, squared):
    g = gaussian([[Scalar.of(x) * scale for x in row] for row in a])
    products = []
    mul = linalg.gaussian_mul
    monkeypatch.setattr(linalg, "gaussian_mul", lambda x, y: products.append(1) or mul(x, y))
    assert linalg.is_nilpotent(g) is nilpotent
    assert bool(products) is squared


# real inputs: each kernel then runs its integer route, and i times the same
# input runs its Z[i] route


def _real_entry(rng):
    """A rational, zero a third of the time."""
    if rng.random() < 1 / 3:
        return Scalar(0)
    return Scalar(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])))


def _real_matrix(rng, rows, cols):
    """A real rows x cols matrix whose rows are often integer combinations of
    the rows above them."""
    a = [[_real_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if rng.random() < 0.35:
            cs = [Scalar(rng.randint(-2, 2)) for _ in range(i)]
            a[i] = [sum((c * row[j] for c, row in zip(cs, a)), Scalar(0)) for j in range(cols)]
    return a


def _times_i(re):
    """i (re + 0 i), as (real parts, imaginary parts)."""
    return [[0] * len(row) for row in re], [row[:] for row in re]


def test_real_elimination_matches_the_gaussian_route():
    # every entry of the result is a minor of order len(pivots), so i A gives
    # A's rows times i^len(pivots)
    rng = random.Random(2301)
    units = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    deficient = 0
    for _ in range(1500):
        rows, cols = rng.choice(SIZES), rng.choice(SIZES) + rng.randint(0, 1)
        a = _real_matrix(rng, rows, cols)
        re, im, _ = gaussian(a)
        zr, zi = _times_i(re)
        pivots = linalg._gauss_jordan(re, im)
        assert linalg._gauss_jordan(zr, zi) == pivots, a
        assert not any(map(any, im))
        ur, ui = units[len(pivots) % 4]
        assert zr == [[ur * x for x in row] for row in re], a
        assert zi == [[ui * x for x in row] for row in re], a
        deficient += len(pivots) < min(rows, cols)
    assert deficient >= 300, deficient


def test_rank_of_real_matrices_matches_sympy():
    rng = random.Random(2302)
    ranks = set()
    for _ in range(200):
        a = _real_matrix(rng, rng.choice(SIZES), rng.choice(SIZES))
        ranks.add(rank(a))
        assert rank(a) == sympy_rank(a), a
    assert ranks == {0, 1, 2, 3, 4, 5}


def test_real_product_matches_the_gaussian_route():
    rng = random.Random(2303)
    for _ in range(500):
        rows, inner, cols = rng.choice(SIZES), rng.choice(SIZES), rng.choice(SIZES)
        a, b = _real_matrix(rng, rows, inner), _real_matrix(rng, inner, cols)
        ga, gb = gaussian(a), gaussian(b)
        re, im, den = linalg.gaussian_mul(ga, gb)
        zero = [[0] * cols for _ in range(rows)]
        assert im == zero and len({id(row) for row in im}) == rows  # rows a caller may write to
        assert linalg.gaussian_mul((*_times_i(ga[0]), ga[2]), gb) == (zero, re, den), (a, b)
        assert from_gaussian((re, im, den)) == mat_mul(a, b), (a, b)


def test_real_sylvester_solve_matches_the_gaussian_route():
    # real b and rhs, n = 1..5: the n x n route against `_kronecker_solve`,
    # and the real Kronecker system against the Z[i] one of i rhs, solved by
    # i x; a shift is singular when it is a difference of two gaps
    rng = random.Random(2304)
    kinds = {"regular": 0, "singular_consistent": 0, "singular_inconsistent": 0}
    for _ in range(40):
        n = rng.randint(1, 5)
        lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7]))
        gaps = [rng.randint(0, 4) for _ in range(n)]
        b = [[Scalar(lam + gaps[i]) if i == j else _real_entry(rng) if j > i else Scalar(0)
              for j in range(n)] for i in range(n)]
        for _ in range(n if n > 1 else 0):  # hide b by real elementary similarities
            i, j = rng.sample(range(n), 2)
            c = Scalar(rng.randint(-2, 2))
            b[i] = [x + c * y for x, y in zip(b[i], b[j])]
            for row in b:
                row[j] = row[j] - c * row[i]
        op = linalg.sylvester_operator(gaussian(b))
        for k in range(6):
            x = _real_matrix(rng, n, n)
            shifted = mat_add(b, mat_scale(k, identity(n)))
            rhs = gaussian(rng.choice([mat_sub(mat_mul(shifted, x), mat_mul(x, b)), x]))
            want = linalg._kronecker_solve(op[0], k, rhs)
            assert linalg.sylvester_solve(op, k, rhs) == want, (b, k, rhs)
            got = linalg._kronecker_solve(op[0], k, (*_times_i(rhs[0]), rhs[2]))
            if want is None:
                assert got is None, (b, k, rhs)
                kinds["singular_inconsistent"] += 1
                continue
            assert not any(map(any, want[1]))
            assert got == (want[1], want[0], want[2]), (b, k, rhs)
            kinds["singular_consistent" if k in {p - q for p in gaps for q in gaps}
                  else "regular"] += 1
    assert min(kinds.values()) >= 10, kinds


def _triangular_residue(rng, n, real):
    """An upper-triangular n x n matrix with diagonal lam + d_i, the d_i drawn
    from 0..5 with repeats, and the d_i.  lam is a rational with denominator
    1, 2 or 7; unless real it is non-real half the time, and the entries
    above the diagonal are Gaussian rationals, not rationals."""
    lam = Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])),
                 0 if real else rng.choice([0, Fraction(1, 3)]))
    gaps = [rng.randint(0, 5) for _ in range(n)]
    entry = _real_entry if real else _gaussian_entry
    return [[lam + gaps[i] if i == j else entry(rng) if j > i else Scalar(0)
             for j in range(n)] for i in range(n)], gaps


def test_back_substitution_matches_the_kronecker_and_echelon_routes(monkeypatch):
    # seed 2305, 50 upper-triangular draws, ten at each n = 1..4, then five,
    # three and two at n = 5, 6 and 7, about half of them real with a real
    # rhs, each at shifts 0..8 with two right-hand sides of denominators
    # 7^1..7^4, times 11 or 13 at times: the image of a drawn x and a drawn
    # matrix.  A shift is singular exactly when it is a difference of two
    # gaps, and only then is the Kronecker system entered; every other solve
    # is checked against `_kronecker_solve`, and every solve up to n = 4
    # against the Scalar echelon oracle.  Counts at this seed: regular 612,
    # singular consistent 146, singular inconsistent 142, non-real 367 and
    # real 533 (the integer route) of the 900 solves.
    rng = random.Random(2305)
    fallback = []
    kronecker_solve = linalg._kronecker_solve

    def spy(g, k, rhs):
        fallback.append(k)
        return kronecker_solve(g, k, rhs)

    monkeypatch.setattr(linalg, "_kronecker_solve", spy)
    kinds = {"regular": 0, "singular_consistent": 0, "singular_inconsistent": 0,
             "nonreal": 0, "real": 0}
    for n in [n for n, draws in enumerate([10, 10, 10, 10, 5, 3, 2], 1) for _ in range(draws)]:
        real = rng.random() < 0.5
        b, gaps = _triangular_residue(rng, n, real)
        g = gaussian(b)
        op = linalg.sylvester_operator(g)
        # no H_m, and the `Triangle` holds the diagonal of b' = g[:2]
        assert op[0] == g and op[1] is None, b
        assert op[2][1:3] == tuple([part[i][i] for i in range(n)] for part in g[:2]), b
        entry = (lambda: Scalar(_sevens_entry(rng).re)) if real else (lambda: _sevens_entry(rng))
        for k in range(9):
            x = [[entry() for _ in range(n)] for _ in range(n)]
            shifted = mat_add(b, mat_scale(k, identity(n)))
            singular = k in {p - q for p in gaps for q in gaps}
            for rhs in (mat_sub(mat_mul(shifted, x), mat_mul(x, b)),
                        [[entry() for _ in range(n)] for _ in range(n)]):
                fallback.clear()
                got = linalg.sylvester_solve(op, k, gaussian(rhs))
                assert fallback == ([k] if singular else []), (b, k)
                if not singular:
                    assert got == kronecker_solve(g, k, gaussian(rhs)), (b, k, rhs)
                if n <= 4:
                    want = echelon_sylvester_solve(b, k, rhs)
                    assert got == (None if want is None else gaussian(want)), (b, k, rhs)
                kinds["nonreal" if any(y.im for row in b + rhs for y in row) else "real"] += 1
                kinds["regular" if not singular else "singular_inconsistent" if got is None
                      else "singular_consistent"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_back_substitution_takes_a_real_residue_with_a_nonreal_rhs_and_back():
    # seed 2407, 60 upper-triangular draws at n = 1..4, each at the regular
    # shifts among 0..8: a real b' with a non-real rhs, or a non-real b'
    # with a real rhs, takes the Z[i] branch of `_back_substitute` on the
    # imaginary parts `sylvester_operator` read once, zero for a real b'.
    # Each solve is checked against `_kronecker_solve`.  Counts at this
    # seed: 198 solves with a real b', 122 with a non-real one
    rng = random.Random(2407)
    kinds = {"real_b": 0, "nonreal_b": 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        b, gaps = _triangular_residue(rng, n, rng.random() < 0.5)
        g = gaussian(b)
        op = linalg.sylvester_operator(g)
        real = not any(map(any, g[1]))
        assert op[1] is None and op[2][0] is real, b
        entry = (lambda: _sevens_entry(rng)) if real else (lambda: Scalar(_sevens_entry(rng).re))
        for k in sorted(set(range(9)) - {p - q for p in gaps for q in gaps}):
            rhs = gaussian([[entry() for _ in range(n)] for _ in range(n)])
            if real and not any(map(any, rhs[1])):
                continue
            assert linalg.sylvester_solve(op, k, rhs) == linalg._kronecker_solve(g, k, rhs), (b, k)
            kinds["real_b" if real else "nonreal_b"] += 1
    assert min(kinds.values()) >= 100, kinds
