import random
from fractions import Fraction

import pytest

from dskit import core, fuchsian, jsonio
from dskit.core import OrbitSpec, Scalar, as_partition, orbit_dim, residue_arm
from dskit.errors import BudgetExceededError, InputError
from dskit.fuchsian import FuchsianRigidity, build_cb_data, fuchsian_rigidity
from dskit.rootsys import RootClass, classify_root, p_value
from dskit.unramified import UnramBlock, UnramFormalType, build_hiroe_data
from exact_oracles import alpha_dot_lambda, arm_factors, lambda_values, orbit_trace, translated


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
    assert dict(zip(data.quiver.vertices, data.alpha)) == {0: 2}
    assert lambda_values(data)[0] == Scalar(Fraction(-1, 3))


def test_d4_shape_from_three_regular_orbits():
    orbits = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-3, 7), -1),
    ]
    data = build_cb_data(orbits)
    assert len(data.quiver.vertices) == 4
    assert data.alpha == (2, 1, 1, 1)
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
            total = total + orbit_trace(o)
        assert alpha_dot_lambda(data) == -total


# ---------------------------------------------------------------------------
# frozen classical verdicts
# ---------------------------------------------------------------------------


def test_rank_one_pairs():
    a = OrbitSpec(1, [(Fraction(2, 3), (1,))])
    b = OrbitSpec(1, [(Fraction(-2, 3), (1,))])
    assert fuchsian_rigidity([a, b]) is not FuchsianRigidity.EMPTY
    assert fuchsian_rigidity([a, b]) is FuchsianRigidity.RIGID_SINGLETON
    c = OrbitSpec(1, [(Fraction(1, 3), (1,))])
    assert fuchsian_rigidity([a, c]) is FuchsianRigidity.EMPTY


def test_single_orbit_cases():
    # the zero 1x1 orbit: the empty connection exists and is rigid
    zero1 = OrbitSpec(1, [(0, (1,))])
    assert fuchsian_rigidity([zero1]) is not FuchsianRigidity.EMPTY
    # a rank-2 scalar zero orbit is reducible: alpha = (2) is not a root
    zero2 = OrbitSpec(2, [(0, (1, 1))])
    assert fuchsian_rigidity([zero2]) is FuchsianRigidity.EMPTY
    # a single nonscalar orbit never sums to zero irreducibly
    assert fuchsian_rigidity([NILP2]) is FuchsianRigidity.EMPTY


def test_two_nonscalar_orbits_empty():
    assert fuchsian_rigidity([NILP2, NILP2]) is FuchsianRigidity.EMPTY
    assert fuchsian_rigidity(
        [_rss2(Fraction(1, 3), Fraction(-1, 3)), _rss2(Fraction(1, 5), Fraction(-1, 5))]
    ) is FuchsianRigidity.EMPTY


def test_three_nilpotent_rank2_orbits_empty():
    """Three rank-one nilpotent residues cannot sum to zero irreducibly."""
    orbits = [NILP2, NILP2, NILP2]
    data = build_cb_data(orbits)
    assert data.alpha == (2, 1, 1, 1)
    assert all(not v for v in lambda_values(data).values())
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY


def test_four_nilpotent_rank2_orbits_give_painleve_family():
    """Four unipotent-type points: the classical one-parameter family."""
    orbits = [NILP2] * 4
    data = build_cb_data(orbits)
    assert data.alpha == (2, 1, 1, 1, 1)
    assert classify_root(data.quiver, data.alpha) is RootClass.IMAGINARY
    assert fuchsian_rigidity(orbits) is not FuchsianRigidity.EMPTY
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.INFINITE


def test_generic_rank2_triple_is_hypergeometric():
    orbits = [
        _rss2(Fraction(1, 7), Fraction(2, 7)),
        _rss2(Fraction(3, 7), Fraction(4, 7)),
        _rss2(Fraction(-3, 7), -1),
    ]
    assert fuchsian_rigidity(orbits) is not FuchsianRigidity.EMPTY
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
        total = total + orbit_trace(o)
    assert total == 0
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY


def test_rank3_hypergeometric_is_rigid():
    """Two regular semisimple points plus one reflection-type point: the
    classical rank-3 hypergeometric data, alpha = the E6 highest root."""
    o1 = OrbitSpec(3, [(0, (1,)), (Fraction(1, 5), (1,)), (Fraction(2, 5), (1,))])
    o2 = OrbitSpec(3, [(Fraction(1, 7), (1,)), (Fraction(2, 7), (1,)), (Fraction(4, 7), (1,))])
    c = Fraction(1, 3)
    d = -Fraction(3, 5) - 1 - 2 * c
    o3 = OrbitSpec(3, [(c, (1, 1)), (d, (1,))])
    assert (orbit_trace(o1) + orbit_trace(o2) + orbit_trace(o3)) == 0
    # take the repeated eigenvalue first at the third point so its arm is the
    # short one; the verdict itself is ordering-independent
    seqs = [
        list(arm_factors(o1)),
        list(arm_factors(o2)),
        [c, d],
    ]
    data = build_cb_data([o1, o2, o3], seqs)
    alpha = data.alpha
    assert sorted(data.alpha, reverse=True) == [3, 2, 2, 1, 1, 1]
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
        assert (fuchsian_rigidity(moved) is FuchsianRigidity.EMPTY) == (
            fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY
        )
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
        assert (fuchsian_rigidity(with_scalar) is FuchsianRigidity.EMPTY) == (
            fuchsian_rigidity(absorbed) is FuchsianRigidity.EMPTY
        )
        assert fuchsian_rigidity(with_scalar) is fuchsian_rigidity(absorbed)


def test_factor_sequence_choice_does_not_change_verdict():
    orbits = [
        OrbitSpec(3, [(0, (2, 1))]),
        OrbitSpec(3, [(Fraction(1, 3), (1, 1)), (Fraction(-1, 5), (1,))]),
        OrbitSpec(3, [(0, (3,))]),
    ]
    default = [list(arm_factors(o)) for o in orbits]
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
    seqs = [list(arm_factors(o))[::-1] for o in hyper]
    assert fuchsian_rigidity(hyper, seqs) is FuchsianRigidity.RIGID_SINGLETON


def test_invalid_factor_sequence_rejected():
    orbits = [NILP2, NILP2, NILP2]
    with pytest.raises(InputError):
        fuchsian_rigidity(orbits, [[0, 0], [0], [0, 0]])
    with pytest.raises(InputError):
        fuchsian_rigidity(orbits, [[0, 1], [0, 0], [0, 0]])


def test_explicit_factor_sequences_are_validated_once_per_orbit(monkeypatch):
    # core.residue_arm is the one place a factor sequence is matched and checked
    calls = []

    def spy(o, seq=None):
        calls.append(o)
        return residue_arm(o, seq)

    monkeypatch.setattr(fuchsian, "residue_arm", spy)
    orbits = [NILP2, NILP2, OrbitSpec(2, [(0, (1,)), (Fraction(1, 2), (1,))])]
    data = build_cb_data(orbits, [[0, 0], [0, 0], [Fraction(1, 2), 0]])
    assert calls == orbits
    assert lambda_values(data)[(3, 1)] == Scalar(Fraction(1, 2))


def test_each_block_partition_is_validated_once(monkeypatch):
    # OrbitSpec validates its partitions; the arms and orbit_dim read them as held
    calls = []

    def spy(parts):
        calls.append(parts)
        return as_partition(parts)

    monkeypatch.setattr(core, "as_partition", spy)
    sc = lambda a, b=1, c=0, d=1: [a, b, c, d]
    doc = [
        {"n": 4, "blocks": [{"eig": sc(1, 3), "partition": [2, 1]},
                            {"eig": sc(1, 1, 1, 2), "partition": [1]}]},
        {"n": 4, "blocks": [{"eig": sc(0), "partition": [2, 2]}]},
        {"n": 4, "blocks": [{"eig": sc(-1, 5), "partition": [1, 1]},
                            {"eig": sc(0, 1, 2), "partition": [1]}, {"eig": sc(3), "partition": [1]}]},
    ]
    orbits = [jsonio.parse_orbit(o) for o in doc]
    assert len(calls) == 6
    build_cb_data(orbits)
    assert [orbit_dim(o) for o in orbits] == [10, 8, 10]
    assert len(calls) == 6


def test_quiver_builders_hash_no_scalar(monkeypatch):
    # orbits and arms are keyed by block position, never by a Scalar's hash
    def build():
        orbits = [
            OrbitSpec(4, [(Fraction(1, 3), (2, 1)), (Scalar(1, Fraction(1, 2)), (1,))]),
            OrbitSpec(4, [(0, (2, 2))]),
            OrbitSpec(4, [(Fraction(-1, 5), (1, 1)), (Scalar(0, 2), (1,)), (3, (1,))]),
        ]
        res = OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Scalar(0, 1), (1,))])
        types = [
            UnramFormalType([UnramBlock([1], 1, OrbitSpec(1, [(Fraction(1, 3), (1,))])),
                             UnramBlock([-1], 1, OrbitSpec(1, [(Fraction(2, 3), (1,))]))]),
            UnramFormalType([UnramBlock([], 2, res)]),
        ]
        return orbits, build_cb_data(orbits), build_hiroe_data(types)

    expected = build()

    def no_hash(self):
        raise AssertionError("Scalar.__hash__ called")

    monkeypatch.setattr(Scalar, "__hash__", no_hash)
    with pytest.raises(AssertionError):
        hash(Scalar(1, 1))
    assert build() == expected


def test_budget_surfacing():
    big = OrbitSpec(4, [(0, (2, 2))])
    orbits = [big] * 4
    with pytest.raises(BudgetExceededError):
        fuchsian_rigidity(orbits, budget=10)
    # with the default budget this instance decides cleanly
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY
