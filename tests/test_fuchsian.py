import random
from fractions import Fraction

import pytest

from dskit.core import OrbitSpec, Scalar
from dskit.errors import BudgetExceededError, InputError
from dskit.fuchsian import (
    FuchsianRigidity,
    build_cb_data,
    fuchsian_ds_exists,
    fuchsian_rigidity,
)
from dskit.rootsys import RootClass, classify_root, p_value
from exact_oracles import alpha_dot_lambda, translated


def _rss2(a, b):
    """Regular semisimple rank-2 orbit."""
    return OrbitSpec(2, [(a, (1,)), (b, (1,))])


NILP2 = OrbitSpec(2, [(0, (2,))])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_rejects_empty_and_mixed_rank():
    with pytest.raises(InputError):
        build_cb_data([])
    with pytest.raises(InputError):
        build_cb_data([NILP2, OrbitSpec(3, [(0, (3,))])])


def test_build_rejects_resonant_orbit_with_index():
    good = _rss2(0, Fraction(1, 2))
    bad = _rss2(0, 1)
    with pytest.raises(InputError, match="orbit 2"):
        build_cb_data([good, bad])


def test_scalar_orbit_contributes_no_arm():
    data = build_cb_data([OrbitSpec(2, [(Fraction(1, 3), (1, 1))])])
    assert data.quiver.vertices == (0,)
    assert data.alpha == {0: 2}
    assert data.lam[0] == Scalar(Fraction(-1, 3))


def test_d4_shape_from_three_regular_orbits():
    orbits = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-3, 7), -1),
    ]
    data = build_cb_data(orbits)
    assert len(data.quiver.vertices) == 4
    assert data.alpha_vector() == (2, 1, 1, 1)
    assert alpha_dot_lambda(data) == 0


def test_alpha_dot_lambda_is_minus_trace_sum():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        orbits = []
        for _ in range(k):
            # random orbit: split n among up to n distinct eigenvalues
            remaining = n
            blocks = []
            denom = rng.choice([3, 5, 7])
            used = set()
            while remaining:
                m = rng.randint(1, remaining)
                parts = []
                mm = m
                while mm:
                    p = rng.randint(1, mm)
                    parts.append(p)
                    mm -= p
                parts.sort(reverse=True)
                while True:
                    num = rng.randint(-12, 12)
                    if num not in used:
                        used.add(num)
                        break
                blocks.append((Fraction(num, denom), tuple(parts)))
                remaining -= m
            orbits.append(OrbitSpec(n, blocks))
        if any(not o.is_nonresonant() for o in orbits):
            continue
        data = build_cb_data(orbits)
        total = Scalar(0)
        for o in orbits:
            total = total + o.trace()
        assert alpha_dot_lambda(data) == -total


# ---------------------------------------------------------------------------
# frozen classical verdicts
# ---------------------------------------------------------------------------


def test_rank_one_pairs():
    a = OrbitSpec(1, [(Fraction(2, 3), (1,))])
    b = OrbitSpec(1, [(Fraction(-2, 3), (1,))])
    assert fuchsian_ds_exists([a, b])
    assert fuchsian_rigidity([a, b]) is FuchsianRigidity.RIGID_SINGLETON
    c = OrbitSpec(1, [(Fraction(1, 3), (1,))])
    assert not fuchsian_ds_exists([a, c])


def test_single_orbit_cases():
    # the zero 1x1 orbit: the empty connection exists and is rigid
    zero1 = OrbitSpec(1, [(0, (1,))])
    assert fuchsian_ds_exists([zero1])
    # a rank-2 scalar zero orbit is reducible: alpha = (2) is not a root
    zero2 = OrbitSpec(2, [(0, (1, 1))])
    assert not fuchsian_ds_exists([zero2])
    # a single nonscalar orbit never sums to zero irreducibly
    assert not fuchsian_ds_exists([NILP2])


def test_two_nonscalar_orbits_empty():
    assert not fuchsian_ds_exists([NILP2, NILP2])
    assert not fuchsian_ds_exists(
        [_rss2(Fraction(1, 3), Fraction(-1, 3)), _rss2(Fraction(1, 5), Fraction(-1, 5))]
    )


def test_three_nilpotent_rank2_orbits_empty():
    """Three rank-one nilpotent residues cannot sum to zero irreducibly."""
    orbits = [NILP2, NILP2, NILP2]
    data = build_cb_data(orbits)
    assert data.alpha_vector() == (2, 1, 1, 1)
    assert all(not v for v in data.lam.values())
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY


def test_four_nilpotent_rank2_orbits_give_painleve_family():
    """Four unipotent-type points: the classical one-parameter family."""
    orbits = [NILP2] * 4
    data = build_cb_data(orbits)
    assert data.alpha_vector() == (2, 1, 1, 1, 1)
    assert classify_root(data.quiver, data.alpha_vector()) is RootClass.IMAGINARY
    assert fuchsian_ds_exists(orbits)
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.INFINITE


def test_generic_rank2_triple_is_hypergeometric():
    orbits = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-3, 7), -1),
    ]
    assert fuchsian_ds_exists(orbits)
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.RIGID_SINGLETON


def test_rank2_triple_with_zero_cross_sum_is_empty():
    # 1/7 + 3/7 + (-4/7) = 0 kills a sub-root with a flat decomposition
    orbits = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-4, 7), Fraction(-6, 7)),
    ]
    total = Scalar(0)
    for o in orbits:
        total = total + o.trace()
    assert total == 0
    assert not fuchsian_ds_exists(orbits)


def test_rank3_hypergeometric_is_rigid():
    """Two regular semisimple points plus one reflection-type point: the
    classical rank-3 hypergeometric data, alpha = the E6 highest root."""
    o1 = OrbitSpec(3, [(0, (1,)), (Fraction(1, 5), (1,)), (Fraction(2, 5), (1,))])
    o2 = OrbitSpec(3, [(Fraction(1, 7), (1,)), (Fraction(2, 7), (1,)), (Fraction(4, 7), (1,))])
    c = Fraction(1, 3)
    d = -Fraction(3, 5) - 1 - 2 * c
    o3 = OrbitSpec(3, [(c, (1, 1)), (d, (1,))])
    assert (o1.trace() + o2.trace() + o3.trace()) == 0
    # take the repeated eigenvalue first at the third point so its arm is the
    # short one; the verdict itself is ordering-independent
    seqs = [
        list(o1.default_factor_sequence()),
        list(o2.default_factor_sequence()),
        [c, d],
    ]
    data = build_cb_data([o1, o2, o3], seqs)
    alpha = data.alpha_vector()
    assert sorted(data.alpha.values(), reverse=True) == [3, 2, 2, 1, 1, 1]
    assert p_value(data.quiver, alpha) == 0
    assert fuchsian_rigidity([o1, o2, o3], seqs) is FuchsianRigidity.RIGID_SINGLETON
    assert fuchsian_rigidity([o1, o2, o3]) is FuchsianRigidity.RIGID_SINGLETON


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------


_GRID_INSTANCES = [
    [_rss2(Fraction(1, 7), Fraction(2, 7)), _rss2(Fraction(3, 7), Fraction(4, 7)),
     _rss2(Fraction(-3, 7), -1)],
    [NILP2] * 4,
    [NILP2, NILP2, NILP2],
    [OrbitSpec(3, [(0, (2, 1))]), OrbitSpec(3, [(Fraction(1, 3), (1, 1)), (Fraction(-1, 5), (1,))]),
     OrbitSpec(3, [(0, (3,))])],
]


def test_permutation_invariance():
    rng = random.Random(43)
    for orbits in _GRID_INSTANCES:
        base = fuchsian_rigidity(orbits)
        for _ in range(3):
            shuffled = orbits[:]
            rng.shuffle(shuffled)
            assert fuchsian_rigidity(shuffled) is base


def test_translation_invariance():
    for orbits in _GRID_INSTANCES:
        k = len(orbits)
        shifts = [Fraction(i + 1, 11) for i in range(k - 1)]
        shifts.append(-sum(shifts))
        moved = [translated(o, t) for o, t in zip(orbits, shifts)]
        if any(not o.is_nonresonant() for o in moved):
            continue
        assert fuchsian_ds_exists(moved) == fuchsian_ds_exists(orbits)
        assert fuchsian_rigidity(moved) is fuchsian_rigidity(orbits)


def test_scalar_orbit_absorption():
    s = Fraction(2, 11)
    scalar = OrbitSpec(2, [(s, (1, 1))])
    for orbits in _GRID_INSTANCES:
        if orbits[0].n != 2:
            continue
        with_scalar = orbits + [scalar]
        absorbed = [translated(orbits[0], s)] + orbits[1:]
        if any(not o.is_nonresonant() for o in absorbed):
            continue
        assert fuchsian_ds_exists(with_scalar) == fuchsian_ds_exists(absorbed)
        assert fuchsian_rigidity(with_scalar) is fuchsian_rigidity(absorbed)


def test_factor_sequence_choice_does_not_change_verdict():
    orbits = [
        OrbitSpec(3, [(0, (2, 1))]),
        OrbitSpec(3, [(Fraction(1, 3), (1, 1)), (Fraction(-1, 5), (1,))]),
        OrbitSpec(3, [(0, (3,))]),
    ]
    default = [list(o.default_factor_sequence()) for o in orbits]
    base = fuchsian_rigidity(orbits, default)
    assert base is fuchsian_rigidity(orbits)
    # reverse the order of factors at the third point (0,0,0 stays 0,0,0;
    # permute at the second point instead)
    permuted = [default[0], default[1][::-1], default[2]]
    assert fuchsian_rigidity(orbits, permuted) is base
    hyper = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-3, 7), -1),
    ]
    seqs = [list(o.default_factor_sequence())[::-1] for o in hyper]
    assert fuchsian_rigidity(hyper, seqs) is FuchsianRigidity.RIGID_SINGLETON


def test_invalid_factor_sequence_rejected():
    orbits = [NILP2, NILP2, NILP2]
    with pytest.raises(InputError):
        fuchsian_ds_exists(orbits, [[0, 0], [0], [0, 0]])
    with pytest.raises(InputError):
        fuchsian_ds_exists(orbits, [[0, 1], [0, 0], [0, 0]])


def test_budget_surfacing():
    big = OrbitSpec(4, [(0, (2, 2))])
    orbits = [big] * 4
    with pytest.raises(BudgetExceededError):
        fuchsian_ds_exists(orbits, budget=10)
    # with the default budget this instance decides cleanly
    assert not fuchsian_ds_exists(orbits)
