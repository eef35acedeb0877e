from fractions import Fraction

import pytest

from dskit.core import OrbitSpec, Scalar
from dskit.errors import InputError, ResonantError
from dskit.fuchsian import build_cb_data, fuchsian_ds_exists
from dskit.rootsys import RootClass, classify_root, p_value
from dskit.unramified import (
    HiroeData,
    UnramBlock,
    UnramFormalType,
    _exists_on_data,
    build_base_quiver,
    build_hiroe_data,
    count_rank2_moduli,
    unramified_ds_exists,
)


def _scalar_res(c):
    return OrbitSpec(1, [(c, (1,))])


def _slope1_pair(c, d):
    """Rank-2 type with leading diag(1,-1) and scalar residues c, d."""
    return UnramFormalType(
        [UnramBlock([1], 1, _scalar_res(c)), UnramBlock([-1], 1, _scalar_res(d))]
    )


REG_ORBIT = OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Fraction(-2, 3), (1,))])
WITNESS = [_slope1_pair(Fraction(1, 3), Fraction(2, 3)),
           UnramFormalType([UnramBlock([], 2, REG_ORBIT)])]


# ---------------------------------------------------------------------------
# formal types
# ---------------------------------------------------------------------------


def test_block_validation():
    with pytest.raises(InputError):
        UnramBlock([1], 0, _scalar_res(0))
    with pytest.raises(InputError):
        UnramBlock([1], 2, _scalar_res(0))
    b = UnramBlock([1, 0], 1, _scalar_res(0))
    assert b.q == (Scalar(1),)
    assert b.q_degree() == 1


def test_type_validation_and_invariants():
    with pytest.raises(InputError):
        UnramFormalType([])
    with pytest.raises(InputError):  # trailing zeros stripped, so these collide
        UnramFormalType([UnramBlock([1], 1, _scalar_res(0)), UnramBlock([1, 0], 1, _scalar_res(1))])
    t = WITNESS[0]
    assert (t.n, t.ell, t.slope()) == (2, 2, 1)
    assert t.is_irregular() and not t.is_regular_singular()
    assert t.residue_trace() == Scalar(1)
    reg = WITNESS[1]
    assert reg.is_regular_singular()
    assert reg.slope() == 0


def test_base_quiver_multiplicities():
    blocks = [
        UnramBlock([0, 1], 1, _scalar_res(0)),
        UnramBlock([1, 1], 1, _scalar_res(1)),
        UnramBlock([2], 1, _scalar_res(2)),
    ]
    q = build_base_quiver(UnramFormalType(blocks))
    assert q.vertices == (1, 2, 3)
    # q1-q2 has z^-1 leading (0 arrows), q1-q3 and q2-q3 have z^-2 (1 each)
    assert sorted(q.arrows) == [(1, 3), (2, 3)]

    dense = [
        UnramBlock([0, 0, 1], 1, _scalar_res(0)),
        UnramBlock([0, 0, 2], 1, _scalar_res(1)),
        UnramBlock([0, 1, 2], 1, _scalar_res(2)),
    ]
    q2 = build_base_quiver(UnramFormalType(dense))
    assert len(q2.arrows) == 5

    with pytest.raises(InputError):
        build_base_quiver(WITNESS[1])


# ---------------------------------------------------------------------------
# quiver assembly
# ---------------------------------------------------------------------------


def test_build_validation():
    with pytest.raises(InputError):
        build_hiroe_data([])
    with pytest.raises(InputError):  # rank mismatch
        build_hiroe_data([WITNESS[0], UnramFormalType([UnramBlock([], 3, OrbitSpec(3, [(0, (3,))]))])])
    with pytest.raises(InputError):  # regular type first
        build_hiroe_data([WITNESS[1], WITNESS[0]])
    resonant = UnramFormalType(
        [UnramBlock([], 2, OrbitSpec(2, [(0, (1,)), (1, (1,))]))]
    )
    with pytest.raises(ResonantError, match="type 1, block 1"):
        build_hiroe_data([WITNESS[0], resonant])


def test_witness_quiver_shape():
    data = build_hiroe_data(WITNESS)
    assert data.base_vertices == ((0, 1), (0, 2))
    assert data.path_vertices == ((1, 1, 1),)
    assert data.alpha == {(0, 1): 1, (0, 2): 1, (1, 1, 1): 1}
    assert {k: v for k, v in data.lam.items()} == {
        (0, 1): Scalar(Fraction(1, 3)),
        (0, 2): Scalar(0),
        (1, 1, 1): Scalar(Fraction(-1, 3)),
    }
    assert sorted(data.quiver.arrows) == [((1, 1, 1), (0, 1)), ((1, 1, 1), (0, 2))]
    assert data.lattice_pairs == ()
    assert not data.alpha_dot_lambda()


def test_two_irregular_types_lattice():
    t0 = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    t1 = _slope1_pair(Fraction(-1, 4), Fraction(-3, 4))
    # reuse leading coefficients 1,-1? q tuples live per type, so fine
    data = build_hiroe_data([t0, t1])
    assert data.base_vertices == ((0, 1), (0, 2), (1, 1), (1, 2))
    assert data.path_vertices == ()
    # cross arrows: every type-0 base vertex to every type-1 base vertex
    assert sorted(data.quiver.arrows) == [
        ((0, 1), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 1)), ((0, 2), (1, 2))
    ]
    assert data.lattice_pairs == ((((0, 1), (0, 2)), ((1, 1), (1, 2))),)
    assert data.in_lattice(data.alpha)
    assert not data.in_lattice({(0, 1): 1})
    assert data.in_lattice({(0, 1): 1, (1, 2): 1})
    # alpha = (1,1,1,1) on the 4-cycle: the null root, p = 1
    a = data.alpha_vector()
    assert classify_root(data.cartan, a) is RootClass.IMAGINARY
    assert p_value(data.cartan, a) == 1
    assert not data.alpha_dot_lambda()
    # residue pairings are all nonzero, so no candidate summands at all
    assert unramified_ds_exists([t0, t1])
    assert unramified_ds_exists([t0, t1], ell_ge_2=True)


def test_alpha_dot_lambda_is_minus_residue_traces():
    slope2 = UnramFormalType(
        [UnramBlock([0, 1], 1, _scalar_res(Fraction(2, 5))),
         UnramBlock([1], 1, _scalar_res(Fraction(-1, 5)))]
    )
    instances = [
        WITNESS,
        [WITNESS[0]],
        [_slope1_pair(Fraction(1, 3), Fraction(2, 3)),
         _slope1_pair(Fraction(-1, 4), Fraction(-3, 4))],
        [slope2],
        [slope2, UnramFormalType([UnramBlock([], 2, REG_ORBIT)])],
    ]
    for types in instances:
        data = build_hiroe_data(types)
        total = Scalar(0)
        for t in types:
            total = total + t.residue_trace()
        assert data.alpha_dot_lambda() == -total
        assert data.in_lattice(data.alpha)


def test_single_irregular_type_with_unbalanced_trace():
    t = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    assert not unramified_ds_exists([t])  # alpha.lambda = -1 != 0


def test_intra_type_arrows_from_higher_slope():
    t = UnramFormalType(
        [UnramBlock([0, 1], 1, _scalar_res(Fraction(2, 5))),
         UnramBlock([1], 1, _scalar_res(Fraction(-2, 5)))]
    )
    data = build_hiroe_data([t])
    assert sorted(data.quiver.arrows) == [((0, 1), (0, 2))]
    assert not data.alpha_dot_lambda()
    # A2 with alpha = (1,1): a real root, no lambda-killed proper summands
    assert unramified_ds_exists([t])
    assert unramified_ds_exists([t], ell_ge_2=True)


# ---------------------------------------------------------------------------
# the two readings of the multiplicity bound
# ---------------------------------------------------------------------------


def test_mode_disagreement_witness():
    assert unramified_ds_exists(WITNESS)
    assert not unramified_ds_exists(WITNESS, ell_ge_2=True)


# ---------------------------------------------------------------------------
# degeneration to the star construction
# ---------------------------------------------------------------------------


def _h2f(v):
    if v == (0, 1):
        return 0
    i, one, k = v
    assert one == 1
    return (i + 1, k)


@pytest.mark.parametrize(
    "orbits",
    [
        [OrbitSpec(2, [(0, (2,))])] * 3,
        [OrbitSpec(2, [(0, (2,))])] * 4,
        [
            OrbitSpec(3, [(0, (1,)), (Fraction(1, 5), (1,)), (Fraction(2, 5), (1,))]),
            OrbitSpec(3, [(Fraction(1, 7), (1,)), (Fraction(2, 7), (1,)), (Fraction(4, 7), (1,))]),
            OrbitSpec(3, [(Fraction(1, 3), (1, 1)), (Fraction(-37, 15), (1,))]),
        ],
    ],
)
def test_all_regular_tuple_degenerates_to_star(orbits):
    n = orbits[0].n
    types = [UnramFormalType([UnramBlock([], n, o)]) for o in orbits]
    h = build_hiroe_data(types, _allow_regular_type0=True)
    f = build_cb_data(orbits)
    assert h.lattice_pairs == ()
    assert {_h2f(v): a for v, a in h.alpha.items()} == f.alpha
    assert {_h2f(v): l for v, l in h.lam.items()} == f.lam
    h_arrows = sorted((_h2f(a), _h2f(b)) for a, b in h.quiver.arrows)
    assert h_arrows == sorted(f.quiver.arrows)
    assert _exists_on_data(h, h.candidates(None), ell_ge_2=True, budget=None) == fuchsian_ds_exists(orbits)


# ---------------------------------------------------------------------------
# the rank-2 slope-1 count
# ---------------------------------------------------------------------------


def test_count_rank2_rows():
    c, d = Fraction(1, 3), Fraction(2, 3)
    t = _slope1_pair(c, d)
    # det O = cd with c != d
    assert count_rank2_moduli(t, REG_ORBIT) == 3
    # det O != cd
    off = OrbitSpec(2, [(Fraction(-1, 5), (1,)), (Fraction(-4, 5), (1,))])
    assert count_rank2_moduli(t, off) == 1
    # trace mismatch
    assert count_rank2_moduli(t, OrbitSpec(2, [(0, (1,)), (Fraction(1, 3), (1,))])) == 0
    # scalar orbit needs c == d and eigenvalue -c
    assert count_rank2_moduli(t, OrbitSpec(2, [(Fraction(-1, 2), (1, 1))])) == 0

    teq = _slope1_pair(Fraction(1, 2), Fraction(1, 2))
    assert count_rank2_moduli(teq, OrbitSpec(2, [(Fraction(-1, 2), (1, 1))])) == 1
    # det O = c^2 with a nonscalar orbit forces the regular Jordan block
    jord = OrbitSpec(2, [(Fraction(-1, 2), (2,))])
    assert count_rank2_moduli(teq, jord) == 2


def test_count_rank2_scalar_leading_branch():
    res = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(1, 5), (1,))])
    t = UnramFormalType([UnramBlock([1], 2, res)])
    assert count_rank2_moduli(t, res.negated()) == 1
    assert count_rank2_moduli(t, res) == 0
    assert count_rank2_moduli(t, OrbitSpec(2, [(0, (2,))])) == 0


def test_count_rank2_input_guards():
    t = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(InputError):
        count_rank2_moduli(t, OrbitSpec(3, [(0, (3,))]))
    with pytest.raises(ResonantError):
        count_rank2_moduli(t, OrbitSpec(2, [(0, (1,)), (1, (1,))]))
    slope2 = UnramFormalType(
        [UnramBlock([0, 1], 1, _scalar_res(0)), UnramBlock([1], 1, _scalar_res(0))]
    )
    with pytest.raises(InputError):
        count_rank2_moduli(slope2, REG_ORBIT)


def test_count_zero_matches_nonexistence_on_trace_mismatch():
    t = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    bad = OrbitSpec(2, [(0, (1,)), (Fraction(1, 3), (1,))])
    assert count_rank2_moduli(t, bad) == 0
    assert not unramified_ds_exists([t, UnramFormalType([UnramBlock([], 2, bad)])])
