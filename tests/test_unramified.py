import operator
import random
from fractions import Fraction

import pytest

from dskit.core import OrbitSpec
from dskit.errors import InputError, ResonantError
from dskit.fuchsian import FuchsianRigidity, build_cb_data, fuchsian_rigidity
from dskit.rootsys import RootClass, classify_root, p_value
from dskit.unramified import (
    HiroeData,
    UnramBlock,
    UnramFormalType,
    build_hiroe_data,
    count_rank2_moduli,
)
from exact_oracles import (
    Scalar,
    alpha_dot_lambda,
    build_base_quiver,
    eigenvalues,
    fuchsian_tuple,
    lambda_values,
    negated,
    random_form,
    rank1_twist,
    rank2_pair,
    residue_trace,
    scalar_count_rank2_moduli,
    scalar_of,
    sort_key,
    triple,
    triples,
    vector,
)


def _scalar_res(c):
    return OrbitSpec(1, [(triple(c), (1,))])


def _slope1_pair(c, d):
    """Rank-2 type with leading diag(1,-1) and scalar residues c, d."""
    return UnramFormalType(
        [UnramBlock([1], 1, _scalar_res(c)), UnramBlock([-1], 1, _scalar_res(d))]
    )


REG_ORBIT = OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Fraction(-2, 3), (1,))])
WITNESS = [_slope1_pair(Fraction(1, 3), Fraction(2, 3)),
           UnramFormalType([UnramBlock([], 2, REG_ORBIT)])]


def _vertices(data, size):
    """The base vertices (i, j) for size 2, the path vertices (i, j, k) for 3."""
    return tuple(v for v in data.quiver.vertices if len(v) == size)


def _in_lattice(data, beta):
    b = data.quiver.as_vector(beta)
    return not any(sum(map(operator.mul, b, f)) for f in data.lattice_forms)


# ---------------------------------------------------------------------------
# formal types
# ---------------------------------------------------------------------------


def test_block_validation():
    with pytest.raises(InputError):
        UnramBlock([1], 0, _scalar_res(0))
    with pytest.raises(InputError):
        UnramBlock([1], 2, _scalar_res(0))
    # a float is refused by name, not truncated
    with pytest.raises(InputError, match=r"^block dimension must be an integer, got 1\.9$"):
        UnramBlock([], 1.9, _scalar_res(0))
    b = UnramBlock([1, 0], 1, _scalar_res(0))
    assert b.q == (triple(Scalar(1)),)
    assert len(b.q) == 1


def test_type_validation_and_invariants():
    with pytest.raises(InputError):
        UnramFormalType([])
    with pytest.raises(InputError):  # trailing zeros stripped, so these collide
        UnramFormalType([UnramBlock([1], 1, _scalar_res(0)), UnramBlock([1, 0], 1, _scalar_res(1))])
    t = WITNESS[0]
    assert (t.n, t.ell, t.slope()) == (2, 2, 1)
    assert t.is_irregular()
    assert residue_trace(t) == Scalar(1)
    reg = WITNESS[1]
    assert not reg.is_irregular()
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
    assert _vertices(data, 2) == ((0, 1), (0, 2))
    assert _vertices(data, 3) == ((1, 1, 1),)
    assert dict(zip(data.quiver.vertices, data.alpha)) == {(0, 1): 1, (0, 2): 1, (1, 1, 1): 1}
    assert {k: v for k, v in lambda_values(data).items()} == {
        (0, 1): Scalar(Fraction(1, 3)),
        (0, 2): Scalar(0),
        (1, 1, 1): Scalar(Fraction(-1, 3)),
    }
    assert sorted(data.quiver.arrows) == [((1, 1, 1), (0, 1)), ((1, 1, 1), (0, 2))]
    assert data.lattice_forms == ()
    assert not alpha_dot_lambda(data)


def test_two_irregular_types_lattice():
    t0 = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    t1 = _slope1_pair(Fraction(-1, 4), Fraction(-3, 4))
    # reuse leading coefficients 1,-1? q tuples live per type, so fine
    data = build_hiroe_data([t0, t1])
    assert _vertices(data, 2) == ((0, 1), (0, 2), (1, 1), (1, 2))
    assert _vertices(data, 3) == ()
    # cross arrows: every type-0 base vertex to every type-1 base vertex
    assert sorted(data.quiver.arrows) == [
        ((0, 1), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 1)), ((0, 2), (1, 2))
    ]
    # L: the type-0 base coordinates sum like the type-1 ones
    assert data.lattice_forms == ((1, 1, -1, -1),)
    assert _in_lattice(data, data.alpha)
    assert not _in_lattice(data, vector(data.quiver, {(0, 1): 1}))
    assert _in_lattice(data, vector(data.quiver, {(0, 1): 1, (1, 2): 1}))
    # alpha = (1,1,1,1) on the 4-cycle: the null root, p = 1
    a = data.alpha
    assert classify_root(data.quiver, a) is RootClass.IMAGINARY
    assert p_value(data.quiver, a) == 1
    assert not alpha_dot_lambda(data)
    # residue pairings are all nonzero, so no candidate summands at all
    by_three, by_two = data.readings()
    assert by_three
    assert by_two


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
            total = total + residue_trace(t)
        assert alpha_dot_lambda(data) == -total
        assert _in_lattice(data, data.alpha)


def test_single_irregular_type_with_unbalanced_trace():
    t = _slope1_pair(Fraction(1, 3), Fraction(2, 3))
    assert not build_hiroe_data([t]).readings()[0]  # alpha.lambda = -1 != 0


def test_intra_type_arrows_from_higher_slope():
    t = UnramFormalType(
        [UnramBlock([0, 1], 1, _scalar_res(Fraction(2, 5))),
         UnramBlock([1], 1, _scalar_res(Fraction(-2, 5)))]
    )
    data = build_hiroe_data([t])
    assert sorted(data.quiver.arrows) == [((0, 1), (0, 2))]
    assert not alpha_dot_lambda(data)
    # A2 with alpha = (1,1): a real root, no lambda-killed proper summands
    by_three, by_two = data.readings()
    assert by_three
    assert by_two


# ---------------------------------------------------------------------------
# the two readings of the multiplicity bound
# ---------------------------------------------------------------------------


def test_mode_disagreement_witness():
    by_three, by_two = build_hiroe_data(WITNESS).readings()
    assert by_three
    assert not by_two


def test_a_rank1_twist_answers_as_fuchsian_ds_by_the_parts_ge_2_reading():
    """Put q = (c,), c != 0, on the first point of a Fuchsian tuple.  This
    tensors with the rank-1 connection d + c z^-2 dz, whose only pole is a
    double pole at that point (at infinity it is regular), and whose residue
    is 0.  Tensoring with it and with its inverse are inverse bijections
    between the connections with the Fuchsian formal types and those with
    the twisted ones, and they keep irreducibility (a subconnection twists to
    a subconnection).  So an irreducible connection with the twisted types
    exists iff one with the Fuchsian types does, and `unramified-ds` must
    answer as `fuchsian-ds` does (Crawley-Boevey, Duke Math. J. 118 (2003);
    README, *Ambiguity flags*).

    Seed 5, 400 tuples, c from +-1..3 on the same draw: the parts>=2 reading
    agrees on all 400.  The parts>=3 reading, the default, answers true on
    14 tuples where `fuchsian-ds` answers Empty: a known fault of that
    reading, kept in the count below until the default is settled."""
    rng = random.Random(5)
    three_wrong = 0
    for _ in range(400):
        orbits = fuchsian_tuple(rng)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        exists = fuchsian_rigidity(orbits) is not FuchsianRigidity.EMPTY
        by_three, by_two = build_hiroe_data(rank1_twist(orbits, (c, 0, 1))).readings()
        assert by_two == exists, (orbits, c)
        if by_three != exists:
            assert by_three and not exists, (orbits, c)
            three_wrong += 1
    assert three_wrong == 14


def test_rank1_subconnections_in_rank_2_leave_no_irreducible_connection():
    """Type 0 has two rank-1 blocks, q_1 != q_2, with residues a_1 and a_2;
    type 1 is regular with the semisimple residue {b_1, b_2}; and
    a_1 + a_2 + b_1 + b_2 = 0 (the Fuchs relation).

    If a_i + b_j = 0, the rank-1 connection L_1 with formal type q_i + a_i
    at 0 and residue b_j at 1 has residue sum 0, so it exists with no pole
    at infinity; the Fuchs relation gives L_2 from the other block and the
    other eigenvalue the same way.  L_1 + L_2 has exactly these formal
    types.  When p(alpha) = 0 the data are rigid, and an irreducible
    connection with these formal types would be physically rigid: isomorphic
    to every connection with the same formal types (Katz, Rigid local
    systems, 1996, for regular singularities; Bloch and Esnault, Asian J.
    Math. 8 (2004), for irregular ones).  It would then be isomorphic to the
    reducible L_1 + L_2, so none exists and the answer is false.  With no
    such pair, no rank-1 subconnection can exist, for it would need a
    residue sum a_i + b_j = 0.

    Seed 11, 400 draws: all 188 paired draws have p(alpha) = 0, and the
    parts>=2 reading answers false on each, as the argument demands.  The
    parts>=3 reading, the default, answers true on all 188: a known fault of
    that reading.  On the 212 unpaired draws both readings answer true."""
    rng = random.Random(11)
    counts = {"paired": 0, "unpaired": 0}
    for _ in range(400):
        types, paired = rank2_pair(rng)
        data = build_hiroe_data(types)
        readings = data.readings()
        assert p_value(data.quiver, data.alpha) == 0, types
        assert readings == ((True, False) if paired else (True, True)), types
        counts["paired" if paired else "unpaired"] += 1
    assert counts == {"paired": 188, "unpaired": 212}


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
def test_all_regular_tuple_degenerates_to_star(orbits, monkeypatch):
    n = orbits[0].n
    types = [UnramFormalType([UnramBlock([], n, o)]) for o in orbits]
    # past the guard that type 0 is irregular, the construction is the star's
    monkeypatch.setattr(UnramFormalType, "is_irregular", lambda self: True)
    h = build_hiroe_data(types)
    f = build_cb_data(orbits)
    assert h.lattice_forms == ()
    assert {_h2f(v): a for v, a in zip(h.quiver.vertices, h.alpha)} == dict(
        zip(f.quiver.vertices, f.alpha))
    assert {_h2f(v): l for v, l in lambda_values(h).items()} == lambda_values(f)
    h_arrows = sorted((_h2f(a), _h2f(b)) for a, b in h.quiver.arrows)
    assert h_arrows == sorted(f.quiver.arrows)
    assert h.readings(None)[1] == (fuchsian_rigidity(orbits) is not FuchsianRigidity.EMPTY)


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
    assert count_rank2_moduli(t, negated(res)) == 1
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
    assert not build_hiroe_data([t, UnramFormalType([UnramBlock([], 2, bad)])]).readings()[0]


# ---------------------------------------------------------------------------
# q and the rank-2 count on integers, against the Scalar route they replaced
# ---------------------------------------------------------------------------

# real parts over denominators 1, 2, 3, 5 and 6, imaginary parts 0, +-1/2, 1/3 and 1
_RE = [Fraction(p, q) for q in (1, 2, 3, 5, 6) for p in range(-q, q + 1)]
_IM = [Fraction(0)] * 4 + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(1)]


def _value(rng):
    return Scalar(rng.choice(_RE), rng.choice(_IM))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except InputError as exc:  # ResonantError among them
        return type(exc).__name__, str(exc)


def _orbit2(rng, eigs):
    """The orbit on gl_2 of one eigenvalue with (2,) or (1, 1), or two
    distinct ones, each eigenvalue in a random form."""
    if len(eigs) == 1 or eigs[0] == eigs[1]:
        return OrbitSpec(2, [(random_form(rng, eigs[0]), rng.choice([(2,), (1, 1)]))])
    return OrbitSpec(2, [(random_form(rng, e), (1,)) for e in eigs])


def _rank2_case(rng):
    """A rank-2 slope-1 type and an orbit on gl_2, drawn to reach each branch
    of the count: ell = 2 in 70% of the draws, with residues c and d (equal
    in 40% of them) and O of eigenvalues {-c, -d}, {-c + s, -d - s},
    -c alone or a random pair; else one block, with O the negated residue
    half the time."""
    if rng.random() < 0.7:
        c = _value(rng)
        d = c if rng.random() < 0.4 else _value(rng)
        a, b = rng.sample([Scalar(x, y) for x in (-1, 0, 1, 2) for y in (0, 1)], 2)
        t = UnramFormalType([
            UnramBlock([random_form(rng, a)], 1, _scalar_res(random_form(rng, c))),
            UnramBlock([random_form(rng, b)], 1, _scalar_res(random_form(rng, d))),
        ])
        mode = rng.choice(["pair", "shift", "alone", "random"])
        if mode == "pair":
            eigs = [-c, -d]
        elif mode == "shift":
            s = _value(rng)
            eigs = [-c + s, -d - s]
        elif mode == "alone":
            eigs = [-c]
        else:
            eigs = [_value(rng), _value(rng)]
        return t, _orbit2(rng, eigs)
    res = _orbit2(rng, [_value(rng), _value(rng)])
    q = Scalar(rng.choice([-1, 1, 2]), rng.choice([0, Fraction(1, 2)]))
    t = UnramFormalType([UnramBlock([random_form(rng, q)], 2, res)])
    return t, negated(res) if rng.random() < 0.5 else _orbit2(rng, [_value(rng), _value(rng)])


def test_count_rank2_on_integers_matches_the_scalar_body():
    # seed 20261110: 600 draws of `_rank2_case`, about 420 with ell = 2 and
    # 180 with one block; every count, error and branch must occur
    rng = random.Random(20261110)
    seen = {}
    nonreal = mixed = 0
    for _ in range(600):
        t, o = _rank2_case(rng)
        got = _outcome(count_rank2_moduli, t, o)
        assert got == _outcome(scalar_count_rank2_moduli, t, o), (t, o)
        key = (t.ell, got[1] if got[0] == "ok" else got[0])
        seen[key] = seen.get(key, 0) + 1
        values = [e for r in [b.residue for b in t.blocks] + [o] for e in eigenvalues(r)]
        nonreal += any(e.im for e in values)
        mixed += len({x.denominator for e in values for x in (e.re, e.im)}) > 1
    assert set(seen) == {(1, 0), (1, 1), (1, "ResonantError"),
                         (2, 0), (2, 1), (2, 2), (2, 3), (2, "ResonantError")}, seen
    assert min(seen.values()) >= 5 and min(nonreal, mixed) >= 300, (seen, nonreal, mixed)


def _strip(q):
    q = list(q)
    while q and not q[-1]:
        q.pop()
    return q


def test_q_in_every_form_gives_the_same_triples_and_distinctness():
    # seed 20261112: 400 types of 2 or 3 blocks, each q of length 0 to 3 drawn
    # from a pool of six values with zero among them, so that equal q's and
    # zero top coefficients occur; each coefficient is given by `random_form`
    pool = [Scalar(0), Scalar(1), Scalar(-2), Scalar(Fraction(1, 2)),
            Scalar(0, Fraction(-1, 3)), Scalar(Fraction(2, 3), Fraction(1, 2))]
    rng = random.Random(20261112)
    forms = {}
    verdicts = {True: 0, False: 0}
    stripped = 0
    for _ in range(400):
        qs = [[rng.choice(pool) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(2, 3))]
        blocks = []
        for q in qs:
            given = [random_form(rng, x) for x in q]
            for g in given:
                forms[type(g).__name__] = forms.get(type(g).__name__, 0) + 1
            b = UnramBlock(given, 1, _scalar_res(0))
            assert b.q == UnramBlock(triples(q), 1, _scalar_res(0)).q == tuple(map(triple, _strip(q)))
            assert [scalar_of(c) for c in b.q] == _strip(q)
            stripped += len(b.q) < len(q)
            blocks.append(b)
        # the former rule: the stripped Scalar lists, sorted by (re, im), pairwise distinct
        old = sorted([sort_key(x) for x in _strip(q)] for q in qs)
        distinct = all(a != b for a, b in zip(old, old[1:]))
        got = _outcome(UnramFormalType, blocks)
        assert got[0] == "ok" if distinct else got == (
            "InputError", "blocks must have pairwise distinct q_j"), qs
        verdicts[distinct] += 1
    assert sorted(forms) == ["Fraction", "int", "tuple"], forms
    assert min(forms.values()) >= 50 and min(verdicts.values()) >= 50 and stripped >= 50, (
        forms, verdicts, stripped)
