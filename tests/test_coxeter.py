from fractions import Fraction
from math import gcd

import pytest

from dskit.core import (
    OrbitSpec,
    Scalar,
    min_partition_with_r_parts,
    partitions_of,
)
from dskit.coxeter import (
    CharPolySpec,
    SimpleTypeQuery,
    coxeter_ds_decide,
    ds_generator,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
    rigid_table_simple_type,
)
from dskit.errors import InputError, ResonantError
from dskit.formal import CoxeterFormalType
from dskit.linalg import jordan_type_of_nilpotent
from exact_oracles import dominance_leq


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


def test_charpoly_from_orbit():
    o = OrbitSpec(4, [(0, (2, 1)), (Fraction(1, 3), (1,))])
    q = CharPolySpec.from_orbit(o)
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
    t = CoxeterFormalType.from_p0(2, 1, 0)
    assert coxeter_ds_decide(t, _nilp(2, (2,)))
    assert not coxeter_ds_decide(t, _nilp(2, (1, 1)))  # two blocks, r = 1
    ss = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(-1, 3), (1,))])
    assert coxeter_ds_decide(t, ss)
    skew = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(1, 5), (1,))])
    assert not coxeter_ds_decide(t, skew)  # trace != 0


def test_decide_nonzero_residue_trace():
    t = CoxeterFormalType.from_p0(2, 1, Fraction(1, 4))
    good = OrbitSpec(2, [(0, (1,)), (Fraction(-1, 2), (1,))])
    assert coxeter_ds_decide(t, good)
    assert not coxeter_ds_decide(t, OrbitSpec(2, [(Fraction(-1, 4), (1, 1))]))


def test_decide_input_guards():
    t = CoxeterFormalType.from_p0(3, 2, 0)
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
            t = CoxeterFormalType.from_p0(m, r, 0)
            for parts in partitions_of(m):
                o = _nilp(m, parts)
                expect = dominance_leq(min_partition_with_r_parts(r, m), parts)
                assert coxeter_ds_decide(t, o) == expect


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
        assert rigid_table_simple_type(SimpleTypeQuery(fam, rank, 1))
        assert rigid_table_simple_type(SimpleTypeQuery(fam, rank, h + 1))
    # coprime but above h + 1
    assert not rigid_table_simple_type(SimpleTypeQuery("A", 3, 5))


def test_table_requires_coprime_slope():
    with pytest.raises(InputError):
        rigid_table_simple_type(SimpleTypeQuery("A", 4, 2))
    with pytest.raises(InputError):
        rigid_table_simple_type(SimpleTypeQuery("E7", 7, 3))


def test_table_interior_rows():
    assert rigid_table_simple_type(SimpleTypeQuery("A", 6, 5))  # 5 | 6 - 1
    assert not rigid_table_simple_type(SimpleTypeQuery("A", 8, 5))
    assert rigid_table_simple_type(SimpleTypeQuery("C", 3, 5))  # 5 | 2n - 1
    assert not rigid_table_simple_type(SimpleTypeQuery("C", 4, 5))
    assert rigid_table_simple_type(SimpleTypeQuery("E7", 7, 7))
    assert not rigid_table_simple_type(SimpleTypeQuery("E7", 7, 5))
    assert not rigid_table_simple_type(SimpleTypeQuery("E7", 7, 11))


def test_table_comma_rows_depend_on_reading():
    b43 = SimpleTypeQuery("B", 4, 3)  # 2n + 1 = 9 divisible, n + 1 = 5 not
    assert rigid_table_simple_type(b43)
    assert not rigid_table_simple_type(b43, conjunction=True)
    d55 = SimpleTypeQuery("D", 5, 5)  # 2n = 10 divisible, 2n - 1 = 9 not
    assert rigid_table_simple_type(d55)
    assert not rigid_table_simple_type(d55, conjunction=True)
    # a row where both clauses fail is false either way
    d45 = SimpleTypeQuery("D", 4, 5)
    assert not rigid_table_simple_type(d45)
    assert not rigid_table_simple_type(d45, conjunction=True)


def test_table_a_row_matches_matrix_side():
    for n in range(2, 13):
        for r in range(1, n + 2):
            if gcd(r, n) != 1:
                continue
            table = rigid_table_simple_type(SimpleTypeQuery("A", n, r))
            minimal = _nilp(n, min_partition_with_r_parts(r, n))
            assert table == is_rigid_coxeter_gl(n, r, minimal)


# ---------------------------------------------------------------------------
# residue representatives
# ---------------------------------------------------------------------------


def test_residue_representative_layout():
    m = residue_representative(5, 2)
    ones = {(i, j) for i in range(5) for j in range(5) if m[i][j]}
    assert ones == {(2, 0), (3, 1), (4, 2)}
    assert jordan_type_of_nilpotent(m) == (3, 2)
    assert residue_representative(3, 3) == [[Scalar(0)] * 3 for _ in range(3)]
    with pytest.raises(InputError):
        residue_representative(0, 1)


def test_residue_representative_jordan_type_is_balanced():
    for n in range(1, 8):
        for r in range(1, n + 1):
            m = residue_representative(n, r)
            assert jordan_type_of_nilpotent(m) == min_partition_with_r_parts(r, n)
