from fractions import Fraction

import pytest

from dskit.core import Scalar
from dskit.errors import BudgetExceededError, InputError
from dskit.rootsys import (
    CartanMatrix,
    Quiver,
    RootClass,
    cartan_of_quiver,
    classify_root,
    decompositions,
    in_sigma_lambda,
    p_value,
    positive_roots_leq,
    reflect,
)
from exact_oracles import dot_lambda


def _star(k: int) -> Quiver:
    """Star quiver: arms 1..k, one arrow per arm into the sink 0."""
    return Quiver(
        vertices=[0] + [(i, 1) for i in range(1, k + 1)],
        arrows=[((i, 1), 0) for i in range(1, k + 1)],
    )


def _path(n: int) -> Quiver:
    return Quiver(
        vertices=list(range(n)),
        arrows=[(i, i + 1) for i in range(n - 1)],
    )


def _kronecker() -> Quiver:
    return Quiver(vertices=[0, 1], arrows=[(0, 1), (0, 1)])


def test_cartan_of_star():
    c = cartan_of_quiver(_star(3))
    assert c.rows[0] == (2, -1, -1, -1)
    assert c.rows[1] == (-1, 2, 0, 0)
    assert c.rows[2][2] == 2 and c.rows[2][0] == -1


def test_cartan_directed_flag():
    # arrows count undirected: the double arrow of the Kronecker quiver gives -2
    c = cartan_of_quiver(_kronecker())
    assert c.rows == ((2, -2), (-2, 2))


def test_as_vector_mapping_and_sequence():
    c = cartan_of_quiver(_path(3))
    assert c.as_vector({0: 1, 2: 5}) == (1, 0, 5)
    assert c.as_vector((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(InputError):
        c.as_vector((1, 2))


def test_p_value():
    c = cartan_of_quiver(_star(3))
    assert p_value(c, (1, 0, 0, 0)) == 0
    assert p_value(c, (2, 1, 1, 1)) == 0
    assert p_value(c, (1, 1, 0, 0)) == 0
    assert p_value(c, (2, 2, 1, 1)) == -1
    k = cartan_of_quiver(_kronecker())
    assert p_value(k, (1, 1)) == 1
    assert p_value(k, (2, 2)) == 1
    assert p_value(k, (1, 2)) == 0


def test_reflect():
    c = cartan_of_quiver(_path(2))
    assert reflect(c, 0, (1, 0)) == (-1, 0)
    assert reflect(c, 1, (1, 0)) == (1, 1)
    assert reflect(c, 0, (1, 1)) == (0, 1)


# -- classification ----------------------------------------------------------


def test_classify_simple_and_real():
    c = cartan_of_quiver(_path(3))  # A3
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert classify_root(c, e) is RootClass.REAL
    assert classify_root(c, (1, 1, 0)) is RootClass.REAL
    assert classify_root(c, (1, 1, 1)) is RootClass.REAL
    # negatives of roots are roots
    assert classify_root(c, (-1, -1, 0)) is RootClass.REAL


def test_classify_not_root():
    c = cartan_of_quiver(_path(3))
    assert classify_root(c, (1, 0, 1)) is RootClass.NOT_ROOT  # disconnected
    assert classify_root(c, (1, -1, 0)) is RootClass.NOT_ROOT  # mixed sign
    assert classify_root(c, (2, 1, 0)) is RootClass.NOT_ROOT
    assert classify_root(c, (1, 2, 1)) is RootClass.NOT_ROOT
    with pytest.raises(InputError):
        classify_root(c, (0, 0, 0))


def test_classify_imaginary_kronecker():
    k = cartan_of_quiver(_kronecker())
    assert classify_root(k, (1, 1)) is RootClass.IMAGINARY
    assert classify_root(k, (3, 3)) is RootClass.IMAGINARY
    assert classify_root(k, (1, 2)) is RootClass.REAL
    assert classify_root(k, (2, 1)) is RootClass.REAL
    assert classify_root(k, (1, 3)) is RootClass.NOT_ROOT


def test_classify_imaginary_affine_star():
    # star with four arms: affine D4, delta = (2,1,1,1,1)
    c = cartan_of_quiver(_star(4))
    delta = (2, 1, 1, 1, 1)
    assert p_value(c, delta) == 1
    assert classify_root(c, delta) is RootClass.IMAGINARY
    assert classify_root(c, tuple(2 * x for x in delta)) is RootClass.IMAGINARY
    # five arms: strictly hyperbolic vector
    c5 = cartan_of_quiver(_star(5))
    beta = (2, 1, 1, 1, 1, 1)
    assert p_value(c5, beta) == 2
    assert classify_root(c5, beta) is RootClass.IMAGINARY


def test_a3_exhaustive_root_table():
    """Every vector in a box around the A3 roots classifies correctly."""
    c = cartan_of_quiver(_path(3))
    intervals = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    for x in range(-2, 3):
        for y in range(-2, 3):
            for z in range(-2, 3):
                v = (x, y, z)
                if v == (0, 0, 0):
                    continue
                got = classify_root(c, v)
                expect_real = v in intervals or tuple(-t for t in v) in intervals
                assert (got is RootClass.REAL) == expect_real, v
                assert got is not RootClass.IMAGINARY, v  # finite type


D4_POSITIVE_ROOTS = [
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (1, 1, 1, 0),
    (1, 1, 1, 1),
    (2, 1, 1, 1),
]


def test_d4_positive_roots_below_highest():
    c = cartan_of_quiver(_star(3))
    roots = positive_roots_leq(c, (2, 1, 1, 1))
    assert roots == D4_POSITIVE_ROOTS
    assert len(roots) == 12
    for b in roots:
        assert classify_root(c, b) is RootClass.REAL
        assert p_value(c, b) == 0


def test_positive_roots_leq_includes_imaginary():
    c = cartan_of_quiver(_star(4))
    roots = positive_roots_leq(c, (2, 1, 1, 1, 1))
    assert (2, 1, 1, 1, 1) in roots
    assert (1, 1, 0, 0, 0) in roots
    assert (2, 1, 1, 1, 0) in roots  # D4 highest root inside affine D4


# -- decompositions and the budget ---------------------------------------


def test_decompositions_enumerates_sums():
    parts = [(1, 0), (0, 1), (1, 1)]
    found = list(decompositions((1, 1), parts, None))
    # (1,0)+(0,1) is the only 2-part decomposition; (1,1) alone is not a
    # decomposition (needs >= 2 parts by default)
    assert found == [[(1, 0), (0, 1)]]


def test_decompositions_min_parts():
    parts = [(1, 0), (0, 1)]
    three = list(decompositions((2, 1), parts, None, min_parts=3))
    assert three == [[(1, 0), (1, 0), (0, 1)]]
    assert list(decompositions((2, 1), parts, None, min_parts=4)) == []


def test_decompositions_budget():
    parts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(BudgetExceededError):
        list(decompositions((5, 5, 5), parts, 3))


# -- Sigma-lambda membership ----------------------------------------------


def _d4_cartan():
    return cartan_of_quiver(_star(3))


def test_sigma_lambda_generic_real_root():
    c = _d4_cartan()
    lam = {0: Scalar(Fraction(3, 7)), (1, 1): Scalar(Fraction(-1, 7)),
           (2, 1): Scalar(Fraction(-1, 7)), (3, 1): Scalar(Fraction(-4, 7))}
    alpha = (2, 1, 1, 1)
    assert dot_lambda(c, alpha, lam) == 0
    assert in_sigma_lambda(c, alpha, lam)


def test_sigma_lambda_fails_if_pairing_nonzero():
    c = _d4_cartan()
    lam = {0: Scalar(1)}
    assert dot_lambda(c, (2, 1, 1, 1), lam) != 0
    assert not in_sigma_lambda(c, (2, 1, 1, 1), lam)


def test_sigma_lambda_killed_subroot_blocks():
    # lambda = 0 kills every sub-root: alpha = (2,1,1,1) decomposes into
    # lambda-killed roots with equal p-sum, so membership fails
    c = _d4_cartan()
    lam = {v: Scalar(0) for v in c.vertices}
    assert not in_sigma_lambda(c, (2, 1, 1, 1), lam)


def test_sigma_lambda_not_root_rejected():
    c = _d4_cartan()
    lam = {0: Scalar(0)}
    assert not in_sigma_lambda(c, (2, 2, 0, 0), lam)


def test_sigma_lambda_imaginary_generic():
    # affine D4 delta with generic lambda killing only delta itself
    c = cartan_of_quiver(_star(4))
    delta = (2, 1, 1, 1, 1)
    lam = {0: Scalar(2), (1, 1): Scalar(-1), (2, 1): Scalar(-1),
           (3, 1): Scalar(-1), (4, 1): Scalar(Fraction(-1))}
    assert dot_lambda(c, delta, lam) == 0
    assert in_sigma_lambda(c, delta, lam)


def test_sigma_lambda_imaginary_degenerate():
    # lambda = 0: delta = (1,1,0,0,0)-type decompositions exist but p drops;
    # the root itself has p = 1 > 0 so flat decompositions must beat it
    c = cartan_of_quiver(_star(4))
    delta = (2, 1, 1, 1, 1)
    lam = {v: Scalar(0) for v in c.vertices}
    # all 24 real roots below delta are lambda-killed; any two of them
    # summing to delta have p-sum 0 < 1 = p(delta), so membership holds
    assert in_sigma_lambda(c, delta, lam)
    # but 2*delta with lambda = 0 decomposes into delta + delta with
    # p-sum 2 >= p(2 delta) = 1: excluded
    assert not in_sigma_lambda(c, tuple(2 * x for x in delta), lam)
