import random
from fractions import Fraction

import pytest

from dskit.errors import InputError, TruncationError
from dskit.laurent import LaurentMatrix
from exact_oracles import (
    Scalar,
    eq_mod,
    from_terms,
    identity,
    laurent,
    mat_of,
    monomial,
    one,
    power,
    scalar_coeff,
    scalar_coeffs,
    scalar_monomials,
    series_add,
    series_inverse,
    series_mul,
    series_scale,
    series_sub,
    shift,
    z_ddz,
    zeros,
)


def _rand_laurent(rng, n, degs, trunc=None):
    coeffs = {}
    for d in degs:
        coeffs[d] = [
            [Scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
    return laurent(n, coeffs, trunc=trunc)


def test_zero_and_one():
    z = LaurentMatrix(3, {})
    assert z.is_zero()
    assert z.support() == ()
    assert z.valuation() is None
    ident = one(2)
    assert ident.support() == (0,)
    assert scalar_coeff(ident, 0) == identity(2)


def test_monomial_and_from_terms():
    m = monomial(3, -2, 1, 3)
    assert m.support() == (-2,)
    assert scalar_coeff(m, -2)[0][2] == 1
    t = from_terms(
        2,
        [(-1, mat_of([[0, 5], [0, 0]])), (0, mat_of([[0, 0], [0, 1]]))],
    )
    assert list(scalar_monomials(t)) == [(-1, 1, 2, Scalar(5)), (0, 2, 2, Scalar(1))]
    assert list(t.monomials()) == [(-1, 1, 2), (0, 2, 2)]


def test_zero_coefficients_dropped():
    m = laurent(2, {0: zeros(2, 2), 1: identity(2)})
    assert m.support() == (1,)
    assert m.valuation() == 1


def test_truncation_drops_and_guards():
    m = laurent(2, {0: identity(2), 5: identity(2)}, trunc=3)
    assert m.support() == (0,)
    assert scalar_coeff(m, 2) == zeros(2, 2)
    with pytest.raises(TruncationError):
        m.coeff(3)


def test_add_sub_scale():
    m = monomial(2, -1, 1, 2)
    s = series_add(m, m)
    assert scalar_coeff(s, -1)[0][1] == 2
    assert series_sub(s, m) == m
    assert scalar_coeff(series_scale(m, 3), -1)[0][1] == 3
    assert series_sub(m, m).is_zero()


def test_mul_matches_hand_product():
    a = laurent(2, {-1: mat_of([[0, 1], [0, 0]]), 0: mat_of([[0, 0], [1, 0]])})
    b = laurent(2, {0: mat_of([[0, 1], [0, 0]]), 1: mat_of([[0, 0], [1, 0]])})
    p = series_mul(a, b)
    # expand monomial-by-monomial as an oracle
    expected = {}
    for da, ia, ja, va in scalar_monomials(a):
        for db, ib, jb, vb in scalar_monomials(b):
            if ja == ib:
                key = (da + db, ia, jb)
                expected[key] = expected.get(key, Scalar(0)) + va * vb
    got = {(d, i, j): v for d, i, j, v in scalar_monomials(p)}
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
    a = laurent(2, {1: identity(2)}, trunc=4)
    b = laurent(2, {-1: identity(2)}, trunc=2)
    p = series_mul(a, b)
    # unknown tail of b (degree >= 2) meets a's valuation 1: products
    # of degree >= 3 are unknown
    assert p.trunc == 1 + 2
    q = series_mul(a, one(2))
    assert q.trunc == 4


def test_power_and_shift():
    m = monomial(2, 1, 1, 1)  # E11 z
    assert power(m, 3) == monomial(2, 3, 1, 1)
    assert shift(m, -1).support() == (0,)
    ident = one(3)
    assert power(ident, 0) == ident
    assert shift(ident, 2) == laurent(3, {2: identity(3)})


def test_z_ddz():
    m = laurent(1, {-2: mat_of([[3]]), 0: mat_of([[5]]), 4: mat_of([[1]])})
    d = z_ddz(m)
    assert list(scalar_monomials(d)) == [(-2, 1, 1, Scalar(-6)), (4, 1, 1, Scalar(4))]


def test_series_inverse():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(1, 3)
        coeffs = {0: identity(n)}
        for d in (1, 2, 3):
            coeffs[d] = [
                [Scalar(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)
            ]
        g = laurent(n, coeffs, trunc=4)
        inv = series_inverse(g)
        prod = series_mul(g, inv)
        assert eq_mod(prod, one(n), 4)


def test_series_inverse_needs_unit_constant_term():
    g = laurent(2, {0: mat_of([[1, 1], [1, 1]])}, trunc=3)
    with pytest.raises(InputError):
        series_inverse(g)


def test_eq_mod():
    a = laurent(1, {0: mat_of([[1]]), 3: mat_of([[7]])})
    b = monomial(1, 0, 1, 1, 1)
    assert eq_mod(a, b, 3)
    assert not eq_mod(a, b, 4)


def test_shape_validation():
    with pytest.raises(InputError):
        laurent(2, {0: zeros(2, 3)})
    with pytest.raises(InputError):
        LaurentMatrix(0, {})


def test_coefficients_are_kept_over_their_least_denominator():
    # [[2 + 4i, 0], [-4, 2i]] / 6 is [[1 + 2i, 0], [-2, i]] / 3; over -6 with its real
    # parts negated it is the conjugate; the term past trunc is dropped
    re, im = [[2, 0], [-4, 0]], [[4, 0], [0, 2]]
    negated = [[-x for x in r] for r in re]
    m = LaurentMatrix(2, {1: (re, im, 6), 2: (negated, im, -6), 5: (re, im, 1)}, trunc=3)
    assert m.coeffs == {1: ([[1, 0], [-2, 0]], [[2, 0], [0, 1]], 3),
                        2: ([[1, 0], [-2, 0]], [[-2, 0], [0, -1]], 3)}
    assert m == laurent(2, {1: mat_of([[Scalar(Fraction(1, 3), Fraction(2, 3)), 0],
                                       [Fraction(-2, 3), Scalar(0, Fraction(1, 3))]]),
                            2: scalar_coeffs(m)[2]}, trunc=3)
    assert list(m.monomials()) == [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
    with pytest.raises(InputError, match="zero denominator"):
        LaurentMatrix(2, {0: (re, im, 0)})
