import random

import pytest

from dskit import linalg
from dskit.core import Scalar
from dskit.errors import InputError, TruncationError
from dskit.laurent import LaurentMatrix
from exact_oracles import (
    eq_mod,
    from_terms,
    mat_of,
    one,
    power,
    series_add,
    series_inverse,
    series_mul,
    series_scale,
    series_sub,
    shift,
    z_ddz,
)


def _rand_laurent(rng, n, degs, trunc=None):
    coeffs = {}
    for d in degs:
        coeffs[d] = [
            [Scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
    return LaurentMatrix(n, coeffs, trunc=trunc)


def test_zero_and_one():
    z = LaurentMatrix.zero(3)
    assert z.is_zero()
    assert z.support() == ()
    assert z.valuation() is None
    ident = one(2)
    assert ident.support() == (0,)
    assert ident.coeff(0) == linalg.identity(2)


def test_monomial_and_from_terms():
    m = LaurentMatrix.monomial(3, -2, 1, 3)
    assert m.support() == (-2,)
    assert m.coeff(-2)[0][2] == 1
    t = from_terms(
        2,
        [(-1, mat_of([[0, 5], [0, 0]])), (0, mat_of([[0, 0], [0, 1]]))],
    )
    assert list(t.monomials()) == [(-1, 1, 2, Scalar(5)), (0, 2, 2, Scalar(1))]


def test_zero_coefficients_dropped():
    m = LaurentMatrix(2, {0: linalg.zeros(2, 2), 1: linalg.identity(2)})
    assert m.support() == (1,)
    assert m.valuation() == 1


def test_truncation_drops_and_guards():
    m = LaurentMatrix(2, {0: linalg.identity(2), 5: linalg.identity(2)}, trunc=3)
    assert m.support() == (0,)
    assert m.coeff(2) == linalg.zeros(2, 2)
    with pytest.raises(TruncationError):
        m.coeff(3)


def test_add_sub_scale():
    m = LaurentMatrix.monomial(2, -1, 1, 2)
    s = series_add(m, m)
    assert s.coeff(-1)[0][1] == 2
    assert series_sub(s, m) == m
    assert series_scale(m, 3).coeff(-1)[0][1] == 3
    assert series_sub(m, m).is_zero()


def test_mul_matches_hand_product():
    a = LaurentMatrix(2, {-1: mat_of([[0, 1], [0, 0]]), 0: mat_of([[0, 0], [1, 0]])})
    b = LaurentMatrix(2, {0: mat_of([[0, 1], [0, 0]]), 1: mat_of([[0, 0], [1, 0]])})
    p = series_mul(a, b)
    # expand monomial-by-monomial as an oracle
    expected = {}
    for da, ia, ja, va in a.monomials():
        for db, ib, jb, vb in b.monomials():
            if ja == ib:
                key = (da + db, ia, jb)
                expected[key] = expected.get(key, Scalar(0)) + va * vb
    got = {(d, i, j): v for d, i, j, v in p.monomials()}
    expected = {k: v for k, v in expected.items() if v}
    assert got == expected


def test_mul_random_associative():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = _rand_laurent(rng, n, [-1, 0])
        b = _rand_laurent(rng, n, [0, 1])
        c = _rand_laurent(rng, n, [-1, 2])
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_mul_truncation_tightens():
    a = LaurentMatrix(2, {1: linalg.identity(2)}, trunc=4)
    b = LaurentMatrix(2, {-1: linalg.identity(2)}, trunc=2)
    p = series_mul(a, b)
    # unknown tail of b (degree >= 2) meets a's valuation 1: products
    # of degree >= 3 are unknown
    assert p.trunc == 1 + 2
    q = series_mul(a, one(2))
    assert q.trunc == 4


def test_power_and_shift():
    m = LaurentMatrix.monomial(2, 1, 1, 1)  # E11 z
    assert power(m, 3) == LaurentMatrix.monomial(2, 3, 1, 1)
    assert shift(m, -1).support() == (0,)
    ident = one(3)
    assert power(ident, 0) == ident
    assert shift(ident, 2) == LaurentMatrix(3, {2: linalg.identity(3)})


def test_z_ddz():
    m = LaurentMatrix(1, {-2: mat_of([[3]]), 0: mat_of([[5]]), 4: mat_of([[1]])})
    d = z_ddz(m)
    assert list(d.monomials()) == [(-2, 1, 1, Scalar(-6)), (4, 1, 1, Scalar(4))]


def test_series_inverse():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(1, 3)
        coeffs = {0: linalg.identity(n)}
        for d in (1, 2, 3):
            coeffs[d] = [
                [Scalar(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)
            ]
        g = LaurentMatrix(n, coeffs, trunc=4)
        inv = series_inverse(g)
        prod = series_mul(g, inv)
        assert eq_mod(prod, one(n), 4)


def test_series_inverse_needs_unit_constant_term():
    g = LaurentMatrix(2, {0: mat_of([[1, 1], [1, 1]])}, trunc=3)
    with pytest.raises(InputError):
        series_inverse(g)


def test_eq_mod():
    a = LaurentMatrix(1, {0: mat_of([[1]]), 3: mat_of([[7]])})
    b = LaurentMatrix.monomial(1, 0, 1, 1, 1)
    assert eq_mod(a, b, 3)
    assert not eq_mod(a, b, 4)


def test_shape_validation():
    with pytest.raises(InputError):
        LaurentMatrix(2, {0: linalg.zeros(2, 3)})
    with pytest.raises(InputError):
        LaurentMatrix(0, {})
