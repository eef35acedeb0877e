import copy
import dataclasses
import operator
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import dskit
from dskit.core import (
    OrbitSpec,
    as_partition,
    as_triple,
    dual_partition,
    gaussian_str,
    min_partition_with_r_parts,
    orbit_dim,
    parse_gaussian,
    partitions_of,
    residue_arm,
)
from dskit.errors import InputError, ResonantError
from exact_oracles import (
    CharPolySpec,
    Scalar,
    arm_factors,
    dominance_leq,
    dual_by_definition,
    eigenvalues,
    identity,
    is_integer,
    is_rational,
    jordan_matrix,
    kron,
    mat_mul,
    mat_scale,
    mat_sub,
    max_block,
    min_poly_degree,
    negated,
    nullspace,
    orbit_blocks,
    orbit_determinant,
    orbit_trace,
    pairwise_congruent_pair,
    rank,
    scalar_default_factor_sequence,
    scalar_factor_ranks,
    translated,
    transpose,
    triple,
    triples,
    weight,
    zeros,
)


def _least_time(call, times=5):
    """The least wall time of `times` calls of call, and their results: one
    host stall cannot fail a time bound, and each result is still checked."""
    seconds, results = [], []
    for _ in range(times):
        t0 = time.perf_counter()
        results.append(call())
        seconds.append(time.perf_counter() - t0)
    return min(seconds), results


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
    assert is_integer(Scalar(2))
    assert not is_integer(Scalar(Fraction(1, 2)))
    assert not is_rational(Scalar(0, 1))


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
    z = zeros(3, 2)
    assert len({id(row) for row in z}) == 3
    z[0][1] = Scalar(5)
    assert z[1][1] == 0 and z[2][1] == 0
    e = identity(3)
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
# The reduced-triple parser and printer, against the oracle Scalar
# ---------------------------------------------------------------------------


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except InputError as exc:
        return "InputError", str(exc)


_NAMED_TEXTS = [
    "3", "-1/2", "i", "-i", "+i", "2-i", "1+i", "1-i", "1/2+3/4i", "7-2/3i", "-3/4i", "2i",
    "0", "0/1", "-0", "0i", "0+0i", "006/004", " 1 / 2 + i ", "\t5\n", "1 2", "+3",
    "", "   ", "one", "1+", "i2", "1//2", "1/0", "0/0", "1/2+1/0i", "1/0+1/0i", "3/0i",
    "+", "-", "++i", "1+-i", "ii", "1.5", "1e3", "/2", "2/", "i/2",
    "1" * 5000, "-" + "1" * 5000 + "/3", "1/" + "7" * 5000, "1+" + "2" * 5000 + "i",
    "1" * 5000 + "/0", "5/0+" + "1" * 5000 + "i",
]


def _draw_text(rng):
    """A string near the grammar: a rational, a signed or bare-signed second
    part, an i, with spaces, zero and unit denominators, and stray marks."""
    def rational():
        num = rng.choice(["0", "1", "2", "7", "12", "007", str(rng.randint(0, 10**6))])
        den = rng.choice(["", "", "/1", "/0", "/2", "/3", "/06", "/" + str(rng.randint(0, 99))])
        return num + den

    first = rng.choice(["", "", "+", "-"]) + rational() if rng.random() < 0.8 else ""
    second = rng.choice(["+", "-"]) + (rational() if rng.random() < 0.6 else "") if rng.random() < 0.5 else ""
    text = first + second + ("i" if rng.random() < 0.6 else "")
    chars = list(text)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        chars.insert(rng.randint(0, len(chars)), rng.choice([" ", " ", "/", "+", "i", "x", "."]))
    return "".join(chars)


def test_parse_gaussian_matches_the_oracle_parse():
    # the named texts, then seed 20261301, 4,000 draws of _draw_text: the same
    # triple as Scalar.parse, or the same InputError message, on every one;
    # accepted and refused texts, zero denominators and the digit limit all occur
    rng = random.Random(20261301)
    texts = _NAMED_TEXTS + [_draw_text(rng) for _ in range(4000)]
    seen = Counter()
    for text in texts:
        want = _parse_outcome(lambda t: triple(Scalar.parse(t)), text)
        got = _parse_outcome(parse_gaussian, text)
        assert got == want, text
        if got[0] == "ok":
            seen["accepted"] += 1
            assert got[1] == as_triple(got[1])  # reduced
        else:
            seen[got[1].split(" ")[0] if "zero denominator" not in got[1] else "zero den"] += 1
            seen["digit limit"] += "Exceeds the limit" in got[1]
    # 1,922 accepted; 1,729 refused as unparsable, 294 for a zero denominator,
    # 104 as empty and the 5 named ones past the digit limit
    assert seen["accepted"] >= 1500 and seen["cannot"] >= 1000 and seen["zero den"] >= 250, seen
    assert seen["empty"] >= 50 and seen["digit limit"] == 5, seen


def test_gaussian_str_matches_the_oracle_str():
    # seed 20261302, 3,000 draws of (re, im, den), den > 0 and not always
    # reduced, with zero, unit and large parts: the bytes of str(Scalar)
    rng = random.Random(20261302)
    parts = Counter()
    for _ in range(3000):
        den = rng.choice([1, 1, 2, 3, 4, 6, 7, 12, 10**20])
        re, im = (rng.choice([0, 0, den, -den, rng.randint(-50, 50), rng.randint(-10**25, 10**25)])
                  for _ in range(2))
        text = gaussian_str(re, im, den)
        assert text == str(Scalar(Fraction(re, den), Fraction(im, den))), (re, im, den)
        assert parse_gaussian(text) == as_triple((re, im, den))
        parts[(bool(re), "i" if abs(im) == den else bool(im))] += 1
    assert len(parts) == 6 and min(parts.values()) >= 100, parts
    # past the digit limit both raise the same ValueError
    for args in [(10**5000, 0, 1), (0, -(10**5000), 3), (1, 1, 10**5000)]:
        with pytest.raises(ValueError) as want:
            str(Scalar(Fraction(args[0], args[2]), Fraction(args[1], args[2])))
        with pytest.raises(ValueError) as got:
            gaussian_str(*args)
        assert str(got.value) == str(want.value)


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
    # a float is refused by name, not truncated
    with pytest.raises(InputError, match=r"^a partition part must be an integer, got 2\.0$"):
        as_partition([2.0])


def test_dual_partition():
    assert dual_partition((3, 2)) == (2, 2, 1)
    assert dual_partition((2, 2, 1)) == (3, 2)
    assert dual_partition((5,)) == (1, 1, 1, 1, 1)
    assert dual_partition(()) == ()
    with pytest.raises(InputError):
        dual_partition([1, 2])


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


def test_dual_matches_its_definition_on_seeded_partitions():
    # seed 20261104: the one pass over the parts against the count of parts
    # >= k for each k, on partitions of 0 .. 40 with long rows and columns
    rng = random.Random(20261104)
    for _ in range(500):
        parts = sorted((rng.choice([1, 1, 2, 3, rng.randint(1, 40)])
                        for _ in range(rng.randint(0, 12))), reverse=True)
        p = as_partition(parts)
        assert dual_partition(p) == dual_by_definition(p), p


def test_dual_of_a_long_hook_is_linear():
    # the hook (n/2, 1, ..., 1) at n = 32,000 took 5.1 s when each entry of
    # the dual summed over all the parts
    n = 32000
    hook = (n // 2,) + (1,) * (n // 2)
    best, duals = _least_time(lambda: dual_partition(hook))
    assert best < 0.1
    assert all(dual == (n // 2 + 1,) + (1,) * (n // 2 - 1) for dual in duals)


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
    assert eigenvalues(o) == (Scalar(0), Scalar(1))  # sorted
    # a float is refused by name, not truncated
    with pytest.raises(InputError, match=r"^a partition part must be an integer, got 1\.5$"):
        OrbitSpec(2, [(0, [1.5, 1.5])])
    with pytest.raises(InputError, match=r"^n must be an integer, got 2\.5$"):
        OrbitSpec(2.5, [(0, (2,))])


def test_orbit_invariants():
    o = OrbitSpec(4, [(Fraction(1, 2), (2, 1)), (-1, (1,))])
    assert orbit_trace(o) == Scalar(Fraction(1, 2)) * 3 + Scalar(-1)
    assert orbit_determinant(o) == Scalar(Fraction(1, 8)) * Scalar(-1)
    assert weight(o.partition_for(Fraction(1, 2))) == 3
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
    assert OrbitSpec(2, [(triple(Scalar(0, 1)), (1,)), (triple(Scalar(0, -1)), (1,))]).is_nonresonant()


def test_orbit_translate_negate():
    o = OrbitSpec(3, [(1, (2,)), (0, (1,))])
    t = translated(o, Fraction(1, 2))
    assert eigenvalues(t) == (Scalar(Fraction(1, 2)), Scalar(Fraction(3, 2)))
    assert t.partition_for(Fraction(3, 2)) == (2,)
    n = negated(o)
    assert eigenvalues(n) == (Scalar(-1), Scalar(0))
    assert n.partition_for(-1) == (2,)


def test_a_triple_is_reduced_and_a_malformed_one_is_refused_by_name():
    # a negative den is normalised, so (-1, 0, -1) is 1, and equal values give equal triples
    assert as_triple((-1, 0, -1)) == as_triple(1) == triple(Scalar(1)) == (1, 0, 1)
    assert as_triple((4, -6, -8)) == triple(Scalar(Fraction(-1, 2), Fraction(3, 4))) == (-2, 3, 4)
    assert as_triple((0, 0, -5)) == as_triple(Fraction(0)) == (0, 0, 1)
    o = OrbitSpec(2, [(0, (1,)), ((-1, 0, -2), (1,))])
    assert o == OrbitSpec(2, [(0, (1,)), (Fraction(1, 2), (1,))])
    assert residue_arm(o, [(0, 0, 1), (-2, 0, -4)]) == residue_arm(o, [0, Fraction(1, 2)])
    for bad, message in [
        ((1, 0, 0), r"^the triple \(1, 0, 0\) has a zero denominator$"),
        ((0, 0, 0), r"^the triple \(0, 0, 0\) has a zero denominator$"),
        ((Fraction(1, 2), 0, 1), r"^the triple \(Fraction\(1, 2\), 0, 1\) must hold integers \(re, im, den\)$"),
        ((1, 0, 1.0), r"^the triple \(1, 0, 1\.0\) must hold integers \(re, im, den\)$"),
        ((True, 0, 1), r"^the triple \(True, 0, 1\) must hold integers \(re, im, den\)$"),
    ]:
        with pytest.raises(InputError, match=message):
            as_triple(bad)
        # the residue arm and the Fuchsian decider refuse it alike, with no ZeroDivisionError
        with pytest.raises(InputError, match=message):
            dskit.residue_arm(o, [(0, 0, 1), bad])
        with pytest.raises(InputError, match=message):
            dskit.fuchsian_rigidity([o, o], [[(0, 0, 1), bad], [0, Fraction(1, 2)]])
        with pytest.raises(InputError, match=message):
            OrbitSpec(1, [(bad, (1,))])


def test_default_factor_sequence_properties():
    o = OrbitSpec(5, [(0, (3, 1)), (2, (1,))])
    seq = arm_factors(o)
    # one factor per step of the longest block, hitting each eigenvalue
    assert len(seq) == min_poly_degree(o)
    assert set(seq) == set(eigenvalues(o))
    assert arm_factors(o, seq) == seq
    with pytest.raises(InputError):
        residue_arm(o, seq[:-1])


# ---------------------------------------------------------------------------
# residue_arm's ranks against a matrix oracle and the per-j definition
# ---------------------------------------------------------------------------


def _rank_oracle(o: OrbitSpec, seq, j: int) -> int:
    """Multiply (J - eta_1) ... (J - eta_j) for the actual Jordan matrix."""
    jm = jordan_matrix(o)
    n = o.n
    acc = identity(n)
    for eta in seq[:j]:
        shifted = mat_sub(jm, mat_scale(Scalar.of(eta), identity(n)))
        acc = mat_mul(acc, shifted)
    return rank(acc)


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
        seq = arm_factors(o)
        ranks = residue_arm(o, triples(seq))[0]
        assert len(ranks) == len(seq) + 1
        for j in range(len(seq) + 1):
            assert ranks[j] == _rank_oracle(o, seq, j), (o, j)


def test_rank_after_factors_zero_at_full_length():
    o = OrbitSpec(4, [(0, (2, 1)), (1, (1,))])
    seq = arm_factors(o)
    assert residue_arm(o, triples(seq))[0][len(seq)] == 0


def _rank_by_definition(o: OrbitSpec, seq, j: int) -> int:
    """sum over eigenvalues eta of sum_a max(mu_a - t_eta(j), 0), where
    t_eta(j) counts the factors at eta among the first j."""
    return sum(
        max(mu - sum(1 for x in seq[:j] if Scalar.of(x) == e), 0)
        for e, part in orbit_blocks(o) for mu in part
    )


_EIGS = [Scalar(Fraction(k, 3), k % 2) for k in range(-4, 5)]
# congruent mod Z across signs (-1/3, 2/3, 5/3) and with imaginary parts
# (i/2, 1 + i/2, -1 + i/2); -i/2 is not congruent to i/2
_CONGRUENT_EIGS = [Scalar(Fraction(-1, 3)), Scalar(Fraction(2, 3)), Scalar(Fraction(5, 3)),
                   Scalar(0, Fraction(1, 2)), Scalar(1, Fraction(1, 2)),
                   Scalar(-1, Fraction(1, 2)), Scalar(0, Fraction(-1, 2))]


def _random_orbit(rng: random.Random, pool=_EIGS) -> OrbitSpec:
    """One to three distinct eigenvalues from pool, each with a partition of 1..6."""
    eigs = rng.sample(pool, rng.randint(1, 3))
    blocks = [(triple(e), rng.choice(list(partitions_of(rng.randint(1, 6))))) for e in eigs]
    return OrbitSpec(sum(weight(p) for _, p in blocks), blocks)


def test_factor_ranks_match_per_j_definition_on_seeded_orbits():
    rng = random.Random(20261018)
    resonant = 0
    for pool in (_EIGS, _CONGRUENT_EIGS):
        for _ in range(200):
            o = _random_orbit(rng, pool)
            assert arm_factors(o) == scalar_default_factor_sequence(o), o
            seq = list(arm_factors(o))
            rng.shuffle(seq)  # any order of the factors is a valid sequence
            ranks = residue_arm(o, triples(seq))[0]
            assert ranks == [_rank_by_definition(o, seq, j) for j in range(len(seq) + 1)], o
            assert ranks == scalar_factor_ranks(o, seq), o
            assert ranks[0] == o.n and ranks[-1] == 0
            for bad in (seq[:-1], seq + seq[:1], seq[:-1] + [seq[-1] + 1]):
                for ranks_of in (lambda o, s: residue_arm(o, triples(s)), scalar_factor_ranks):
                    with pytest.raises(InputError, match="max-block-size"):
                        ranks_of(o, bad)
            pair = pairwise_congruent_pair(eigenvalues(o))
            assert o.is_nonresonant() is (pair is None), o
            resonant += pair is not None
            # CharPolySpec applies the same rule and names the oracle's pair
            roots = [(e, weight(part)) for e, part in orbit_blocks(o)]
            if pair is None:
                assert CharPolySpec(roots).pairs == tuple(roots)
            else:
                eigs = eigenvalues(o)
                with pytest.raises(ResonantError) as err:
                    CharPolySpec(roots)
                assert str(err.value) == (
                    "roots must be pairwise distinct modulo Z: "
                    f"{eigs[pair[0]]} and {eigs[pair[1]]} are congruent"
                )
    assert 50 < resonant < 350  # both answers are drawn often


def test_factor_ranks_reject_a_bad_sequence():
    o = OrbitSpec(3, [(0, (2,)), (1, (1,))])
    with pytest.raises(InputError):
        residue_arm(o, [0, 1])
    with pytest.raises(InputError):
        residue_arm(o, [0, 0, 1, 1])


def test_factor_ranks_one_pass_on_a_long_arm():
    # a regular nilpotent orbit at n = 2000 has an arm of 2000 ranks; one
    # validation per arm keeps this linear in the arm length
    o = OrbitSpec(2000, [(0, (2000,))])
    seq = triples(arm_factors(o))
    t = time.perf_counter()
    ranks = residue_arm(o, seq)[0]
    assert time.perf_counter() - t < 0.5
    assert ranks == list(range(2000, -1, -1))


def test_default_sequence_of_many_blocks_is_linear():
    # 4,001 blocks, one of them (4000,): each round of the default sequence
    # takes a prefix of the blocks by decreasing largest part, where testing
    # every block in every round took 0.38 s
    m = 4000
    o = OrbitSpec(2 * m, [(0, (m,))] + [(Fraction(k, 3 * m), (1,)) for k in range(1, m + 1)])
    best, arms = _least_time(lambda: residue_arm(o))
    assert best < 0.1
    for ranks, re, im in arms:
        assert len(re) == 2 * m and re.count(0) == m and ranks[-1] == 0


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
        kron(x, identity(n)),
        kron(identity(n), transpose(x)),
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
