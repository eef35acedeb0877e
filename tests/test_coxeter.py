import random
from fractions import Fraction
from math import gcd

import pytest

from dskit.core import (
    OrbitSpec,
    min_partition_with_r_parts,
    partitions_of,
)
from dskit.coxeter import (
    SimpleTypeQuery,
    coxeter_ds_decide,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
    rigid_table_readings,
)
from dskit.errors import InputError, ResonantError
from dskit.formal import CoxeterFormalType
from dskit.linalg import jordan_type_of_nilpotent
from exact_oracles import (
    CharPolySpec,
    Scalar,
    charpoly_from_orbit,
    dominance_leq,
    ds_generator,
    from_gaussian,
    orbit_trace,
    random_form,
    scalar_coxeter_ds_decide,
)


def _nilp(n, parts):
    return OrbitSpec(n, [(0, tuple(parts))])


# ---------------------------------------------------------------------------
# characteristic polynomial data and the generating orbit
# ---------------------------------------------------------------------------


def test_charpoly_spec_validation():
    with pytest.raises(InputError):
        CharPolySpec([])
    with pytest.raises(InputError):
        CharPolySpec([(0, 0)])
    with pytest.raises(ResonantError):
        CharPolySpec([(0, 1), (1, 2)])
    with pytest.raises(ResonantError):  # duplicates are congruent mod Z
        CharPolySpec([(Fraction(1, 2), 1), (Fraction(1, 2), 2)])
    q = CharPolySpec([(Fraction(1, 2), 2), (0, 3)])
    assert q.n == 5
    assert q.pairs == ((Scalar(0), 3), (Scalar(Fraction(1, 2)), 2))


def test_charpoly_spec_names_the_first_root_with_a_congruent_partner():
    # 0 ~ 2 and 1/2 ~ 3/2: the message names the first root in sort order
    # that has a partner, then that partner, not the first neighbours found
    roots = [(Fraction(3, 2), 1), (2, 1), (Fraction(1, 2), 1), (0, 1)]
    with pytest.raises(ResonantError) as err:
        CharPolySpec(roots)
    assert str(err.value) == "roots must be pairwise distinct modulo Z: 0 and 2 are congruent"
    # 1/2 ~ 3/2 and 1 ~ 2: 1/2 comes first, though its class has the larger real part mod 1
    with pytest.raises(ResonantError) as err:
        CharPolySpec([(2, 1), (1, 1), (Fraction(3, 2), 1), (Fraction(1, 2), 1)])
    assert str(err.value) == "roots must be pairwise distinct modulo Z: 1/2 and 3/2 are congruent"
    with pytest.raises(ResonantError) as err:
        CharPolySpec([(Fraction(-1, 3), 2), (Fraction(2, 3), 1), (Scalar(1, Fraction(1, 2)), 1)])
    assert str(err.value) == "roots must be pairwise distinct modulo Z: -1/3 and 2/3 are congruent"
    with pytest.raises(ResonantError) as err:
        CharPolySpec([(Scalar(1, Fraction(1, 2)), 1), (Scalar(0, Fraction(1, 2)), 1)])
    assert str(err.value) == "roots must be pairwise distinct modulo Z: 1/2i and 1+1/2i are congruent"


def test_charpoly_from_orbit():
    o = OrbitSpec(4, [(0, (2, 1)), (Fraction(1, 3), (1,))])
    q = charpoly_from_orbit(o)
    assert q.pairs == ((Scalar(0), 3), (Scalar(Fraction(1, 3)), 1))


def test_ds_generator_balanced_partitions():
    q = CharPolySpec([(0, 5), (Fraction(1, 2), 3)])
    assert ds_generator(1, q) == OrbitSpec(8, [(0, (5,)), (Fraction(1, 2), (3,))])
    assert ds_generator(2, q) == OrbitSpec(8, [(0, (3, 2)), (Fraction(1, 2), (2, 1))])
    assert ds_generator(7, q) == OrbitSpec(
        8, [(0, (1, 1, 1, 1, 1)), (Fraction(1, 2), (1, 1, 1))]
    )
    with pytest.raises(InputError):
        ds_generator(0, q)


def test_ds_generator_is_dominance_least_with_r_blocks():
    for m in range(1, 10):
        for r in range(1, m + 1):
            least = min_partition_with_r_parts(r, m)
            assert len(least) == min(r, m)
            for parts in partitions_of(m):
                if len(parts) <= r:
                    assert dominance_leq(least, parts)


# ---------------------------------------------------------------------------
# nonemptiness
# ---------------------------------------------------------------------------


def test_decide_slope_half_family():
    t = CoxeterFormalType(2, 1, 0)
    assert coxeter_ds_decide(t, _nilp(2, (2,)))
    assert not coxeter_ds_decide(t, _nilp(2, (1, 1)))  # two blocks, r = 1
    ss = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(-1, 3), (1,))])
    assert coxeter_ds_decide(t, ss)
    skew = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(1, 5), (1,))])
    assert not coxeter_ds_decide(t, skew)  # trace != 0


def test_decide_nonzero_residue_trace():
    t = CoxeterFormalType(2, 1, Fraction(1, 4))
    good = OrbitSpec(2, [(0, (1,)), (Fraction(-1, 2), (1,))])
    assert coxeter_ds_decide(t, good)
    assert not coxeter_ds_decide(t, OrbitSpec(2, [(Fraction(-1, 4), (1, 1))]))


def test_decide_input_guards():
    t = CoxeterFormalType(3, 2, 0)
    with pytest.raises(InputError):
        coxeter_ds_decide(t, _nilp(2, (2,)))
    with pytest.raises(ResonantError):
        coxeter_ds_decide(t, OrbitSpec(3, [(0, (2,)), (1, (1,))]))


def test_decide_matches_block_count_against_dominance():
    """At most r blocks == dominating the balanced r-part partition, so the
    decision agrees with the closure-of-generator reading on every orbit."""
    for m in range(1, 10):
        for r in range(1, m + 2):
            if gcd(r, m) != 1:
                continue
            t = CoxeterFormalType(m, r, 0)
            for parts in partitions_of(m):
                o = _nilp(m, parts)
                expect = dominance_leq(min_partition_with_r_parts(r, m), parts)
                assert coxeter_ds_decide(t, o) == expect
                generator = ds_generator(r, charpoly_from_orbit(o))
                assert dominance_leq(generator.partition_for(0), parts) == expect


# real parts over denominators 1, 2, 3, 4 and 7, imaginary parts 0, +-1/2, 1/3 and 1
_RE = [Fraction(p, q) for q in (1, 2, 3, 4, 7) for p in range(-q, q + 1)]
_IM = [Fraction(0)] * 4 + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(1)]


def _orbit(rng, n):
    """An orbit on gl_n with 1 to n distinct eigenvalues from _RE + i _IM,
    each in a random form, and a random partition of each multiplicity."""
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    eigs = set()
    while len(eigs) < k:
        eigs.add(Scalar(rng.choice(_RE), rng.choice(_IM)))
    return OrbitSpec(n, [(random_form(rng, e), rng.choice(list(partitions_of(m))))
                         for e, m in zip(eigs, mults)])


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except InputError as exc:  # ResonantError among them
        return type(exc).__name__, str(exc)


def test_decide_on_integers_matches_the_scalar_body():
    # seed 20261111: 600 draws at n = 1 .. 4 with r coprime to n; p(0) is
    # -Tr(O)/n in 60% of them, a random value in 30%, and in 10% the type
    # is on gl_(n+1); p(0) and the eigenvalues come in every form as_triple reads
    rng = random.Random(20261111)
    seen = dict.fromkeys(["exists", "trace", "blocks", "ResonantError", "InputError"], 0)
    nonreal = mixed = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        o = _orbit(rng, n)
        mode = rng.random()
        p0 = -orbit_trace(o) / n if mode < 0.6 else Scalar(rng.choice(_RE), rng.choice(_IM))
        size = n + 1 if mode >= 0.9 else n
        r = rng.choice([r for r in range(1, 6) if gcd(r, size) == 1])
        ftype = CoxeterFormalType(size, r, random_form(rng, p0))
        got = _outcome(coxeter_ds_decide, ftype, o)
        assert got == _outcome(scalar_coxeter_ds_decide, ftype, o), (ftype, o)
        if got[0] != "ok":
            seen[got[0]] += 1
        elif got[1]:
            seen["exists"] += 1
        else:
            seen["trace" if n * p0 + orbit_trace(o) else "blocks"] += 1
        values = [p0, *(Scalar(Fraction(x, o.den), Fraction(y, o.den)) for x, y in zip(o.re, o.im))]
        nonreal += any(v.im for v in values)
        mixed += len({x.denominator for v in values for x in (v.re, v.im)}) > 1
    assert min(seen.values()) >= 10 and min(nonreal, mixed) >= 300, (seen, nonreal, mixed)


# ---------------------------------------------------------------------------
# the rigidity dimension
# ---------------------------------------------------------------------------


def test_h1_dimension_values():
    # slope 1/n: the regular nilpotent orbit is rigid
    for n in (2, 3, 5):
        assert h1_dimension(n, 1, _nilp(n, (n,))) == 0
    # slope (n+1)/n: the zero orbit is rigid
    for n in (2, 3, 4):
        assert h1_dimension(n, n + 1, _nilp(n, (1,) * n)) == 0
    assert h1_dimension(5, 3, _nilp(5, (2, 2, 1))) == 0
    assert h1_dimension(5, 3, _nilp(5, (3, 2))) == 4
    assert h1_dimension(5, 3, _nilp(5, (3, 1, 1))) == 2
    assert h1_dimension(5, 3, _nilp(5, (4, 1))) == 6
    assert h1_dimension(5, 3, _nilp(5, (5,))) == 8


def test_h1_dimension_strictly_monotone_in_dominance():
    n, r = 7, 4
    chain = [(2, 2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 3), (5, 2), (7,)]
    vals = [h1_dimension(n, r, _nilp(n, p)) for p in chain]
    for lo, hi, vlo, vhi in zip(chain, chain[1:], vals, vals[1:]):
        assert dominance_leq(lo, hi)
        assert vlo < vhi


def test_h1_dimension_guards():
    with pytest.raises(InputError):  # not nilpotent
        h1_dimension(2, 1, OrbitSpec(2, [(Fraction(1, 2), (2,))]))
    with pytest.raises(InputError):  # too many blocks
        h1_dimension(3, 2, _nilp(3, (1, 1, 1)))
    with pytest.raises(InputError):  # orbit size mismatch
        h1_dimension(3, 2, _nilp(2, (2,)))
    with pytest.raises(InputError, match="gcd"):
        h1_dimension(6, 4, _nilp(6, (2, 2, 2)))


def test_an_orbit_with_more_than_r_blocks_is_refused_by_name():
    # every nilpotent orbit at n = 1..7 and every r >= 1 below its number of
    # Jordan blocks, (1, 1, 1) past r = 2 among them: both deciders refuse it
    # with the count, whether or not gcd(r, n) = 1 and whatever the minimal
    # orbit with <= r blocks is
    refused = 0
    for n in range(1, 8):
        for part in partitions_of(n):
            for r in range(1, len(part)):
                message = rf"^orbit has {len(part)} Jordan blocks, outside the <= {r} filter$"
                for decide in (h1_dimension, is_rigid_coxeter_gl):
                    with pytest.raises(InputError, match=message):
                        decide(n, r, _nilp(n, part))
                    refused += 1
    assert refused == 2 * 87, refused  # 87 pairs (orbit, r)


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------


def test_is_rigid_examples():
    assert is_rigid_coxeter_gl(5, 3, _nilp(5, (2, 2, 1)))
    assert not is_rigid_coxeter_gl(5, 3, _nilp(5, (3, 2)))
    # the divisibility clause fails here, and no coprimality check interferes
    assert not is_rigid_coxeter_gl(6, 4, _nilp(6, (2, 2, 1, 1)))
    for n in (2, 3, 4, 7):
        assert is_rigid_coxeter_gl(n, 1, _nilp(n, (n,)))
        assert is_rigid_coxeter_gl(n, n + 1, _nilp(n, (1,) * n))


def test_rigidity_counts_blocks_before_it_builds_the_minimal_orbit():
    # the minimal orbit would have 10**9 Jordan blocks; one block rules it out
    n = 10**9 + 1
    assert not is_rigid_coxeter_gl(n, 10**9, _nilp(n, (n,)))


def test_rigid_agrees_with_h1_when_coprime():
    for n in range(1, 13):
        for r in range(1, n + 2):
            if gcd(r, n) != 1:
                continue
            for parts in partitions_of(n):
                if len(parts) > r:
                    continue
                o = _nilp(n, parts)
                assert is_rigid_coxeter_gl(n, r, o) == (h1_dimension(n, r, o) == 0)


# ---------------------------------------------------------------------------
# the homogeneous rigidity table
# ---------------------------------------------------------------------------


def test_simple_type_query_validation():
    with pytest.raises(InputError):
        SimpleTypeQuery("F", 4, 1)
    with pytest.raises(InputError):
        SimpleTypeQuery("E7", 6, 1)
    with pytest.raises(InputError):
        SimpleTypeQuery("D", 2, 1)
    with pytest.raises(InputError):
        SimpleTypeQuery("A", 3, 0)
    # a float is refused by name, not truncated
    with pytest.raises(InputError, match=r"^rank must be an integer, got 4\.7$"):
        SimpleTypeQuery("A", 4.7, 3)
    with pytest.raises(InputError, match=r"^r must be an integer, got 3\.2$"):
        SimpleTypeQuery("A", 4, 3.2)
    q = SimpleTypeQuery("d", 4, 3)
    assert q.family == "D"


def test_coxeter_numbers():
    assert SimpleTypeQuery("A", 5, 1).coxeter_number() == 5
    assert SimpleTypeQuery("B", 4, 1).coxeter_number() == 8
    assert SimpleTypeQuery("C", 3, 1).coxeter_number() == 6
    assert SimpleTypeQuery("D", 5, 1).coxeter_number() == 8
    assert SimpleTypeQuery("E7", 7, 1).coxeter_number() == 18


def test_table_boundary_rows():
    for fam, rank in [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("E7", 7)]:
        h = SimpleTypeQuery(fam, rank, 1).coxeter_number()
        assert rigid_table_readings(SimpleTypeQuery(fam, rank, 1))[0]
        assert rigid_table_readings(SimpleTypeQuery(fam, rank, h + 1))[0]
    # coprime but above h + 1
    assert not rigid_table_readings(SimpleTypeQuery("A", 3, 5))[0]


def test_table_requires_coprime_slope():
    with pytest.raises(InputError):
        rigid_table_readings(SimpleTypeQuery("A", 4, 2))
    with pytest.raises(InputError):
        rigid_table_readings(SimpleTypeQuery("E7", 7, 3))


def test_table_interior_rows():
    assert rigid_table_readings(SimpleTypeQuery("A", 6, 5))[0]  # 5 | 6 - 1
    assert not rigid_table_readings(SimpleTypeQuery("A", 8, 5))[0]
    assert rigid_table_readings(SimpleTypeQuery("C", 3, 5))[0]  # 5 | 2n - 1
    assert not rigid_table_readings(SimpleTypeQuery("C", 4, 5))[0]
    assert rigid_table_readings(SimpleTypeQuery("E7", 7, 7))[0]
    assert not rigid_table_readings(SimpleTypeQuery("E7", 7, 5))[0]
    assert not rigid_table_readings(SimpleTypeQuery("E7", 7, 11))[0]


def test_table_comma_rows_depend_on_reading():
    b43 = SimpleTypeQuery("B", 4, 3)  # 2n + 1 = 9 divisible, n + 1 = 5 not
    assert rigid_table_readings(b43)[0]
    assert not rigid_table_readings(b43)[1]
    d55 = SimpleTypeQuery("D", 5, 5)  # 2n = 10 divisible, 2n - 1 = 9 not
    assert rigid_table_readings(d55)[0]
    assert not rigid_table_readings(d55)[1]
    # a row where both clauses fail is false either way
    d45 = SimpleTypeQuery("D", 4, 5)
    assert not rigid_table_readings(d45)[0]
    assert not rigid_table_readings(d45)[1]


def test_table_readings_differ_only_on_the_comma_rows():
    split = set()
    for fam, ranks in [("A", range(2, 12)), ("B", range(2, 9)), ("C", range(2, 9)),
                       ("D", range(3, 10)), ("E7", (7,))]:
        for rank in ranks:
            h = SimpleTypeQuery(fam, rank, 1).coxeter_number()
            for r in range(1, h + 3):
                if gcd(r, h) != 1:
                    continue
                either, both = rigid_table_readings(SimpleTypeQuery(fam, rank, r))
                assert either or not both, (fam, rank, r)
                if either != both:
                    split.add(fam)
    assert split == {"B", "D"}


def test_table_a_row_matches_matrix_side():
    for n in range(2, 13):
        for r in range(1, n + 2):
            if gcd(r, n) != 1:
                continue
            table = rigid_table_readings(SimpleTypeQuery("A", n, r))[0]
            minimal = _nilp(n, min_partition_with_r_parts(r, n))
            assert table == is_rigid_coxeter_gl(n, r, minimal)


# ---------------------------------------------------------------------------
# residue representatives
# ---------------------------------------------------------------------------


def test_residue_representative_layout():
    m = residue_representative(5, 2)
    re, im, den = m
    ones = {(i, j) for i in range(5) for j in range(5) if re[i][j]}
    assert ones == {(2, 0), (3, 1), (4, 2)}
    # 0/1 integers over the scale 1, with no imaginary part
    assert {x for row in re for x in row} == {0, 1} and not any(map(any, im)) and den == 1
    assert jordan_type_of_nilpotent(m) == (3, 2)
    assert from_gaussian(residue_representative(3, 3)) == [[Scalar(0)] * 3 for _ in range(3)]
    with pytest.raises(InputError):
        residue_representative(0, 1)


def test_residue_representative_jordan_type_is_balanced():
    for n in range(1, 8):
        for r in range(1, n + 1):
            m = residue_representative(n, r)
            assert jordan_type_of_nilpotent(m) == min_partition_with_r_parts(r, n)
