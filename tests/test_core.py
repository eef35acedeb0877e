import copy
import dataclasses
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from dskit import linalg
from dskit.core import (
    OrbitSpec,
    Scalar,
    as_partition,
    dual_partition,
    factor_ranks,
    min_partition_with_r_parts,
    orbit_dim,
    partitions_of,
    weight,
)
from dskit.errors import InputError
from exact_oracles import (
    dominance_leq,
    is_rational,
    jordan_matrix,
    kron,
    mat_sub,
    max_block,
    min_poly_degree,
    nullspace,
    translated,
    transpose,
)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


def test_scalar_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-1, 2), Fraction(2, 3))
    assert a + b == Scalar(0, 1)
    assert a - a == 0
    assert a * Scalar(0, 1) == Scalar(Fraction(-1, 3), Fraction(1, 2))
    assert (a / a) == 1
    assert -a == Scalar(Fraction(-1, 2), Fraction(-1, 3))
    assert 1 / Scalar(0, 1) == Scalar(0, -1)


def test_scalar_equality_with_rationals():
    assert Scalar(Fraction(3, 1)) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(0, 1) != 0
    assert hash(Scalar(3)) == hash(3)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_scalar_bool_and_predicates():
    assert not Scalar(0)
    assert Scalar(0, 1)
    assert Scalar(2).is_integer()
    assert not Scalar(Fraction(1, 2)).is_integer()
    assert not is_rational(Scalar(0, 1))
    assert Scalar(5).differs_by_nonzero_int(Scalar(3))
    assert not Scalar(5).differs_by_nonzero_int(Scalar(5))
    assert not Scalar(Fraction(1, 2)).differs_by_nonzero_int(Scalar(0))
    # same imaginary part, integral real difference
    assert Scalar(1, Fraction(1, 3)).differs_by_nonzero_int(Scalar(0, Fraction(1, 3)))
    assert not Scalar(1, Fraction(1, 3)).differs_by_nonzero_int(Scalar(1, Fraction(2, 3)))


def _draw_rational(rng):
    # zero often, so the zero-part shortcuts of the arithmetic are taken
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _draw_operand(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Scalar(_draw_rational(rng), _draw_rational(rng))
    if kind == 1:
        return rng.randint(-9, 9)
    return _draw_rational(rng)


def _as_sympy(x):
    if isinstance(x, Scalar):
        return sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im)
    return sympy.Rational(x)


def test_scalar_arithmetic_matches_sympy():
    binary = [operator.add, operator.sub, operator.mul, operator.truediv]
    rng = random.Random(11)
    for _ in range(2000):
        s, x = Scalar(_draw_rational(rng), _draw_rational(rng)), _draw_operand(rng)
        op = rng.choice(binary + [operator.neg])
        if op is operator.neg:
            args = (s,)
        else:
            args = (s, x) if rng.random() < 0.5 else (x, s)
        if op is operator.truediv and not args[1]:
            with pytest.raises(ZeroDivisionError):
                op(*args)
            continue
        got = op(*args)
        want = op(*map(_as_sympy, args))
        assert isinstance(got, Scalar)
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert sympy.Rational(got.re) == sympy.re(want), (op, args)
        assert sympy.Rational(got.im) == sympy.im(want), (op, args)


def test_scalar_equals_and_hashes_like_rationals():
    for n in [0, 1, -1, -2, 7, 2**61 - 1, 2**61, -(2**64) - 3]:
        s, q = Scalar(n), Fraction(n)
        assert s == n and s == q and n == s and q == s
        assert hash(s) == hash(n) == hash(q)
        assert s == Scalar(q) and hash(s) == hash(Scalar(q))
    for q in [Fraction(1, 2), Fraction(-7, 3), Fraction(5, 2**61 - 1)]:
        assert Scalar(q) == q and hash(Scalar(q)) == hash(q)
    assert Scalar(1, 1) != 1 and Scalar(0, 1) != 0
    assert len({Scalar(2), 2, Fraction(2), Scalar(Fraction(4, 2))}) == 1


def test_scalar_is_frozen_and_copies():
    s = Scalar(Fraction(1, 2), -3)
    for name in ("re", "im"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, Fraction(0))
    assert s == Scalar(Fraction(1, 2), -3)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and type(twin.re) is Fraction and type(twin.im) is Fraction


def test_zeros_and_identity_rows_are_distinct_lists():
    z = linalg.zeros(3, 2)
    assert len({id(row) for row in z}) == 3
    z[0][1] = Scalar(5)
    assert z[1][1] == 0 and z[2][1] == 0
    e = linalg.identity(3)
    e[0][1] = Scalar(5)
    assert e == [[1, 5, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Scalar(3)),
        ("-1/2", Scalar(Fraction(-1, 2))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("2-i", Scalar(2, -1)),
        ("1/2+3/4i", Scalar(Fraction(1, 2), Fraction(3, 4))),
        ("0", Scalar(0)),
        ("+i", Scalar(0, 1)),
        ("2i", Scalar(0, 2)),
        ("-3/4i", Scalar(0, Fraction(-3, 4))),
        ("1+i", Scalar(1, 1)),
        ("7-2/3i", Scalar(7, Fraction(-2, 3))),
    ],
)
def test_scalar_parse(text, expected):
    assert Scalar.parse(text) == expected


def test_scalar_parse_rejects_garbage():
    for bad in ("", "one", "1+", "i2", "1//2", "1/0"):
        with pytest.raises(InputError):
            Scalar.parse(bad)


def test_scalar_str_roundtrip():
    vals = [
        Scalar(3),
        Scalar(Fraction(-1, 2)),
        Scalar(0, 1),
        Scalar(0, -1),
        Scalar(2, -1),
        Scalar(Fraction(1, 2), Fraction(3, 4)),
        Scalar(Fraction(-1, 3), Fraction(-2, 5)),
    ]
    for v in vals:
        assert Scalar.parse(str(v)) == v


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_as_partition_validates():
    assert as_partition([3, 2, 1]) == (3, 2, 1)
    assert as_partition((4,)) == (4,)
    with pytest.raises(InputError):
        as_partition([1, 3, 2])  # must be weakly decreasing
    with pytest.raises(InputError):
        as_partition([2, 0])
    with pytest.raises(InputError):
        as_partition([-1])


def test_dual_partition():
    assert dual_partition((3, 2)) == (2, 2, 1)
    assert dual_partition((2, 2, 1)) == (3, 2)
    assert dual_partition((5,)) == (1, 1, 1, 1, 1)
    assert dual_partition(()) == ()


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
def test_dual_is_an_involution(parts):
    p = as_partition(sorted(parts, reverse=True))
    assert dual_partition(dual_partition(p)) == p
    assert weight(dual_partition(p)) == weight(p)


def test_dominance_basic():
    assert dominance_leq((2, 2), (3, 1))
    assert dominance_leq((1, 1, 1, 1), (4,))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((3, 1), (3, 1))
    with pytest.raises(InputError):
        dominance_leq((2,), (1, 1, 1))


def test_dominance_reverses_under_duality():
    parts = list(partitions_of(6))
    for p in parts:
        for q in parts:
            assert dominance_leq(p, q) == dominance_leq(dual_partition(q), dual_partition(p))


def test_min_partition_with_r_parts():
    assert min_partition_with_r_parts(1, 7) == (7,)
    assert min_partition_with_r_parts(3, 7) == (3, 2, 2)
    assert min_partition_with_r_parts(7, 7) == (1,) * 7
    assert min_partition_with_r_parts(9, 7) == (1,) * 7
    assert min_partition_with_r_parts(2, 5) == (3, 2)
    assert min_partition_with_r_parts(5, 0) == ()


def test_min_partition_builds_only_the_nonzero_parts():
    # all but seven of the 10**12 parts are zero; a tuple of all of them
    # cannot be allocated
    assert min_partition_with_r_parts(10**12, 7) == (1,) * 7


def test_min_partition_is_dominance_least_with_few_parts():
    for m in range(1, 9):
        for r in range(1, m + 2):
            rho = min_partition_with_r_parts(r, m)
            assert len(rho) == min(r, m)
            for q in partitions_of(m):
                if len(q) <= r:
                    assert dominance_leq(rho, q)


def test_partitions_of_count_and_order():
    # p(0..9) = 1 1 2 3 5 7 11 15 22 30
    counts = [len(list(partitions_of(m))) for m in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(5, max_part=2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


# ---------------------------------------------------------------------------
# OrbitSpec
# ---------------------------------------------------------------------------


def test_orbit_validation():
    with pytest.raises(InputError):
        OrbitSpec(0, [])
    with pytest.raises(InputError):
        OrbitSpec(2, [(0, (1,))])  # weights must sum to n
    with pytest.raises(InputError):
        OrbitSpec(2, [(0, (1,)), (0, (1,))])  # duplicate eigenvalue
    o = OrbitSpec(3, [(1, (2,)), (0, (1,))])
    assert o.eigenvalues() == (Scalar(0), Scalar(1))  # sorted


def test_orbit_invariants():
    o = OrbitSpec(4, [(Fraction(1, 2), (2, 1)), (-1, (1,))])
    assert o.trace() == Scalar(Fraction(1, 2)) * 3 + Scalar(-1)
    assert o.determinant() == Scalar(Fraction(1, 8)) * Scalar(-1)
    assert o.multiplicity(Fraction(1, 2)) == 3
    assert max_block(o, Fraction(1, 2)) == 2
    assert o.block_count(Fraction(1, 2)) == 2
    assert min_poly_degree(o) == 3
    assert not o.is_scalar()
    assert not o.is_nilpotent()


def test_orbit_scalar_and_nilpotent():
    assert OrbitSpec(3, [(5, (1, 1, 1))]).is_scalar()
    assert not OrbitSpec(3, [(5, (2, 1))]).is_scalar()
    assert OrbitSpec(3, [(0, (2, 1))]).is_nilpotent()
    assert not OrbitSpec(3, [(1, (2, 1))]).is_nilpotent()


def test_orbit_nonresonance():
    assert OrbitSpec(2, [(0, (1,)), (Fraction(1, 2), (1,))]).is_nonresonant()
    assert not OrbitSpec(2, [(0, (1,)), (1, (1,))]).is_nonresonant()
    assert OrbitSpec(2, [(Scalar(0, 1), (1,)), (Scalar(0, -1), (1,))]).is_nonresonant()


def test_orbit_translate_negate():
    o = OrbitSpec(3, [(1, (2,)), (0, (1,))])
    t = translated(o, Fraction(1, 2))
    assert t.eigenvalues() == (Scalar(Fraction(1, 2)), Scalar(Fraction(3, 2)))
    assert t.partition_for(Fraction(3, 2)) == (2,)
    n = o.negated()
    assert n.eigenvalues() == (Scalar(-1), Scalar(0))
    assert n.partition_for(-1) == (2,)


def test_default_factor_sequence_properties():
    o = OrbitSpec(5, [(0, (3, 1)), (2, (1,))])
    seq = o.default_factor_sequence()
    # one factor per step of the longest block, hitting each eigenvalue
    assert len(seq) == min_poly_degree(o)
    assert set(seq) == set(o.eigenvalues())
    o.validate_factor_sequence(seq)
    with pytest.raises(InputError):
        o.validate_factor_sequence(seq[:-1])


# ---------------------------------------------------------------------------
# factor_ranks against a matrix oracle and the per-j definition
# ---------------------------------------------------------------------------


def _rank_oracle(o: OrbitSpec, seq, j: int) -> int:
    """Multiply (J - eta_1) ... (J - eta_j) for the actual Jordan matrix."""
    jm = jordan_matrix(o)
    n = o.n
    acc = linalg.identity(n)
    for eta in seq[:j]:
        shifted = mat_sub(jm, linalg.mat_scale(Scalar.of(eta), linalg.identity(n)))
        acc = linalg.mat_mul(acc, shifted)
    return linalg.rank(acc)


def test_rank_after_factors_matches_matrix_oracle():
    cases = [
        OrbitSpec(3, [(0, (2, 1))]),
        OrbitSpec(3, [(0, (2,)), (1, (1,))]),
        OrbitSpec(4, [(0, (2, 2))]),
        OrbitSpec(4, [(Fraction(1, 2), (2, 1)), (-1, (1,))]),
        OrbitSpec(5, [(0, (3, 1)), (2, (1,))]),
        OrbitSpec(2, [(1, (1,)), (3, (1,))]),
    ]
    for o in cases:
        seq = o.default_factor_sequence()
        ranks = factor_ranks(o, seq)
        assert len(ranks) == len(seq) + 1
        for j in range(len(seq) + 1):
            assert ranks[j] == _rank_oracle(o, seq, j), (o, j)


def test_rank_after_factors_zero_at_full_length():
    o = OrbitSpec(4, [(0, (2, 1)), (1, (1,))])
    seq = o.default_factor_sequence()
    assert factor_ranks(o, seq)[len(seq)] == 0


def _rank_by_definition(o: OrbitSpec, seq, j: int) -> int:
    """sum over eigenvalues eta of sum_a max(mu_a - t_eta(j), 0), where
    t_eta(j) counts the factors at eta among the first j."""
    return sum(
        max(mu - sum(1 for x in seq[:j] if Scalar.of(x) == e), 0)
        for e, part in o.blocks for mu in part
    )


def _random_orbit(rng: random.Random) -> OrbitSpec:
    """One to three distinct eigenvalues, each with a partition of 1..6."""
    eigs = rng.sample([Scalar(Fraction(k, 3), k % 2) for k in range(-4, 5)], rng.randint(1, 3))
    blocks = [(e, rng.choice(list(partitions_of(rng.randint(1, 6))))) for e in eigs]
    return OrbitSpec(sum(weight(p) for _, p in blocks), blocks)


def test_factor_ranks_match_per_j_definition_on_seeded_orbits():
    rng = random.Random(20261018)
    for _ in range(200):
        o = _random_orbit(rng)
        seq = list(o.default_factor_sequence())
        rng.shuffle(seq)  # any order of the factors is a valid sequence
        ranks = factor_ranks(o, seq)
        assert ranks == [_rank_by_definition(o, seq, j) for j in range(len(seq) + 1)], o
        assert ranks[0] == o.n and ranks[-1] == 0


def test_factor_ranks_reject_a_bad_sequence():
    o = OrbitSpec(3, [(0, (2,)), (1, (1,))])
    with pytest.raises(InputError):
        factor_ranks(o, [0, 1])
    with pytest.raises(InputError):
        factor_ranks(o, [0, 0, 1, 1])


def test_factor_ranks_one_pass_on_a_long_arm():
    # a regular nilpotent orbit at n = 2000 has an arm of 2000 ranks; one
    # validation per arm keeps this linear in the arm length
    o = OrbitSpec(2000, [(0, (2000,))])
    seq = o.default_factor_sequence()
    t = time.perf_counter()
    ranks = factor_ranks(o, seq)
    assert time.perf_counter() - t < 0.5
    assert ranks == list(range(2000, -1, -1))


# ---------------------------------------------------------------------------
# orbit_dim
# ---------------------------------------------------------------------------


def test_orbit_dim_known_values():
    # regular semisimple in gl_n: n^2 - n
    assert orbit_dim(OrbitSpec(2, [(0, (1,)), (Fraction(1, 2), (1,))])) == 2
    assert orbit_dim(OrbitSpec(3, [(0, (1,)), (1, (1,)), (2, (1,))])) == 6
    # regular nilpotent: n^2 - n
    assert orbit_dim(OrbitSpec(4, [(0, (4,))])) == 12
    # scalar: 0
    assert orbit_dim(OrbitSpec(3, [(7, (1, 1, 1))])) == 0
    # minimal nilpotent in gl_n: 2n - 2
    assert orbit_dim(OrbitSpec(4, [(0, (2, 1, 1))])) == 6


def _centralizer_dim(o: OrbitSpec) -> int:
    x = jordan_matrix(o)
    n = o.n
    ad = mat_sub(
        kron(x, linalg.identity(n)),
        kron(linalg.identity(n), transpose(x)),
    )
    return len(nullspace(ad))


def test_orbit_dim_matches_ad_kernel():
    cases = [
        OrbitSpec(2, [(0, (2,))]),
        OrbitSpec(3, [(0, (2, 1))]),
        OrbitSpec(3, [(0, (2,)), (Fraction(1, 3), (1,))]),
        OrbitSpec(4, [(0, (2, 2))]),
        OrbitSpec(4, [(0, (3, 1))]),
        OrbitSpec(4, [(1, (2,)), (2, (1, 1))]),
    ]
    for o in cases:
        assert orbit_dim(o) == o.n * o.n - _centralizer_dim(o), o
