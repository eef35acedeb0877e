import itertools
import random
import time
from fractions import Fraction

import pytest

from dskit.core import Scalar
from dskit.errors import BudgetExceededError, InputError
from dskit.rootsys import (
    Quiver,
    RootClass,
    _support_connected,
    classify_root,
    in_sigma_lambda,
    p_value,
    reflect,
)
from exact_oracles import (
    bilinear,
    cartan_rows,
    classify_by_full_pairing,
    decompositions,
    dot_lambda,
    lambda_forms,
    positive_roots_leq,
    vector,
)


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


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def test_cartan_of_star():
    c = _star(3)
    assert c.pairing(_unit(4, 0)) == (2, -1, -1, -1)
    assert c.pairing(_unit(4, 1)) == (-1, 2, 0, 0)
    row2 = c.pairing(_unit(4, 2))
    assert row2[2] == 2 and row2[0] == -1


def test_cartan_directed_flag():
    # arrows count undirected: the double arrow of the Kronecker quiver gives -2
    c = _kronecker()
    assert (c.pairing((1, 0)), c.pairing((0, 1))) == ((2, -2), (-2, 2))


def test_as_vector_mapping_and_sequence():
    c = _path(3)
    assert vector(c, {0: 1, 2: 5}) == (1, 0, 5)
    assert c.as_vector((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(InputError):
        c.as_vector((1, 2))
    with pytest.raises(InputError, match=r"^unknown vertices in vector: \['7'\]$"):
        vector(c, {0: 1, 7: 5})
    # keyed 0..2 like the path's vertices, a mapping would be read by its keys
    with pytest.raises(InputError, match="not a mapping"):
        c.as_vector({0: 1, 1: 0, 2: 5})


def test_as_vector_refuses_non_integers():
    c = _path(2)
    assert c.as_vector((1, 0)) == (1, 0)
    assert vector(c, {1: 2}) == (0, 2)
    with pytest.raises(InputError, match="vector entry 0 is not an integer"):
        c.as_vector((1.5, 0))
    with pytest.raises(InputError, match="vector entry 0 is not an integer"):
        vector(c, {0: Fraction(3, 2)})
    with pytest.raises(InputError, match="vector entry 0 is not an integer: 1.9"):
        classify_root(c, (1.9, 0))
    with pytest.raises(InputError, match="vector entry 0 is not an integer: 0.5"):
        p_value(c, (0.5, 0.5))
    with pytest.raises(InputError, match="vector entry 0 is not an integer: 0.5"):
        classify_root(c, (0.5, 0))
    # a mapping names the vertex
    with pytest.raises(InputError, match=r"vector entry \(2, 1\) is not an integer"):
        vector(_star(3), {(2, 1): 0.5})


def _random_quiver(rng: random.Random) -> Quiver:
    """1-6 vertices with shuffled tuple ids; 0-3 arrows per pair, each in a
    random direction, so parallel arrows run both ways and some vertices are
    isolated."""
    verts = [(k, "v") for k in rng.sample(range(10), rng.randint(1, 6))]
    arrows = []
    for u, v in itertools.combinations(verts, 2):
        arrows += [(u, v) if rng.random() < 0.5 else (v, u)
                   for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3]))]
    rng.shuffle(arrows)
    return Quiver(verts, arrows)


def _rows_connected(rows, b) -> bool:
    """Whether the support of b is connected, by a BFS over the dense rows."""
    support = [i for i, x in enumerate(b) if x]
    if not support:
        return False
    seen = {support[0]}
    frontier = [support[0]]
    while frontier:
        i = frontier.pop()
        for j in support:
            if j not in seen and rows[i][j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(support)


def test_neighbour_lists_match_the_dense_cartan_matrix():
    rng = random.Random(20261018)
    both_ways = isolated = connected = disconnected = 0
    for _ in range(300):
        q = _random_quiver(rng)
        n = len(q.vertices)
        rows = cartan_rows(q)
        for i in range(n):
            assert q.pairing(_unit(n, i)) == rows[i], q
        for _ in range(5):
            b = tuple(rng.choice([0, 0, 1, 2, 3, -1]) for _ in range(n))
            btcb = sum(b[i] * rows[i][j] * b[j] for i in range(n) for j in range(n))
            assert bilinear(q, b, b) == btcb, (q, b)
            assert p_value(q, b) == 1 - Fraction(btcb, 2), (q, b)
            want = _rows_connected(rows, b)
            assert _support_connected(q, b) == want, (q, b)
            connected += want
            disconnected += any(b) and not want
        both_ways += any((v, u) in q.arrows for u, v in q.arrows)
        isolated += any(all(x == 2 * (i == j) for j, x in enumerate(r)) for i, r in enumerate(rows))
    assert both_ways >= 100 and isolated >= 60
    assert connected >= 600 and disconnected >= 200


def test_classify_root_matches_the_full_pairing_descent():
    # seed 20261103: the descent that updates C b in place at k and its
    # neighbours gives the class of the descent that forms C b again after
    # every reflection, on random quivers (parallel arrows both ways,
    # isolated vertices) and on stars with long arms
    rng = random.Random(20261103)
    seen = dict.fromkeys(RootClass, 0)
    for _ in range(300):
        if rng.random() < 0.7:
            q = _random_quiver(rng)
        else:
            arms = [list(range(1, rng.randint(2, 6))) for _ in range(rng.randint(2, 4))]
            q = Quiver([0] + [(i, j) for i, arm in enumerate(arms) for j in arm],
                       [((i, j), 0 if j == 1 else (i, j - 1)) for i, arm in enumerate(arms) for j in arm])
        n = len(q.vertices)
        for _ in range(10):
            b = tuple(rng.choice([0, 0, 1, 1, 2, 3, 5, -1]) for _ in range(n))
            if not any(b):
                continue
            want = classify_by_full_pairing(q, b)
            assert classify_root(q, b) is want, (q, b)
            seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_a_root_is_real_iff_p_is_zero():
    # a real root has beta^t C beta = 2 and an imaginary one <= 0, so among
    # roots REAL is p = 0: seed 5 checks 3,454 roots, 1,321 of them real, on
    # random quivers with parallel arrows both ways
    rng = random.Random(5)
    seen = dict.fromkeys(RootClass, 0)
    for _ in range(400):
        q = _random_quiver(rng)
        for _ in range(20):
            b = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in q.vertices)
            if not any(b):
                continue
            cls = classify_root(q, b)
            if cls is not RootClass.NOT_ROOT:
                assert (cls is RootClass.REAL) == (p_value(q, b) == 0), (q, b)
            seen[cls] += 1
    assert seen[RootClass.REAL] >= 1000 and seen[RootClass.IMAGINARY] >= 1000, seen


def test_classify_root_descends_a_long_hook_star_in_linear_steps():
    # the star of three hook orbits 0 (n/2, 1, ..., 1) at n = 32,000: the
    # descent to NotRoot takes about 32,000 reflections on 47,998 vertices.
    # Forming C b again after every reflection took 2.3 s already at
    # n = 2,000, and scanning for the least positive pairing 7 s at 32,000
    n = 32000
    arm = list(range(n // 2 - 1, 0, -1))
    q = Quiver([0] + [(i, j) for i in range(3) for j in range(1, n // 2)],
               [((i, j), 0 if j == 1 else (i, j - 1)) for i in range(3) for j in range(1, n // 2)])
    alpha = (n, *arm * 3)
    t = time.perf_counter()
    assert classify_root(q, alpha) is RootClass.NOT_ROOT
    assert time.perf_counter() - t < 0.5


def test_p_value():
    c = _star(3)
    assert p_value(c, (1, 0, 0, 0)) == 0
    assert p_value(c, (2, 1, 1, 1)) == 0
    assert p_value(c, (1, 1, 0, 0)) == 0
    assert p_value(c, (2, 2, 1, 1)) == -1
    k = _kronecker()
    assert p_value(k, (1, 1)) == 1
    assert p_value(k, (2, 2)) == 1
    assert p_value(k, (1, 2)) == 0


def test_reflect():
    c = _path(2)
    assert reflect(c, 0, (1, 0)) == (-1, 0)
    assert reflect(c, 1, (1, 0)) == (1, 1)
    assert reflect(c, 0, (1, 1)) == (0, 1)


# -- classification ----------------------------------------------------------


def test_classify_simple_and_real():
    c = _path(3)  # A3
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert classify_root(c, e) is RootClass.REAL
    assert classify_root(c, (1, 1, 0)) is RootClass.REAL
    assert classify_root(c, (1, 1, 1)) is RootClass.REAL
    # negatives of roots are roots
    assert classify_root(c, (-1, -1, 0)) is RootClass.REAL


def test_classify_not_root():
    c = _path(3)
    assert classify_root(c, (1, 0, 1)) is RootClass.NOT_ROOT  # disconnected
    assert classify_root(c, (1, -1, 0)) is RootClass.NOT_ROOT  # mixed sign
    assert classify_root(c, (2, 1, 0)) is RootClass.NOT_ROOT
    assert classify_root(c, (1, 2, 1)) is RootClass.NOT_ROOT
    with pytest.raises(InputError):
        classify_root(c, (0, 0, 0))


def test_classify_imaginary_kronecker():
    k = _kronecker()
    assert classify_root(k, (1, 1)) is RootClass.IMAGINARY
    assert classify_root(k, (3, 3)) is RootClass.IMAGINARY
    assert classify_root(k, (1, 2)) is RootClass.REAL
    assert classify_root(k, (2, 1)) is RootClass.REAL
    assert classify_root(k, (1, 3)) is RootClass.NOT_ROOT


def test_classify_imaginary_affine_star():
    # star with four arms: affine D4, delta = (2,1,1,1,1)
    c = _star(4)
    delta = (2, 1, 1, 1, 1)
    assert p_value(c, delta) == 1
    assert classify_root(c, delta) is RootClass.IMAGINARY
    assert classify_root(c, tuple(2 * x for x in delta)) is RootClass.IMAGINARY
    # five arms: strictly hyperbolic vector
    c5 = _star(5)
    beta = (2, 1, 1, 1, 1, 1)
    assert p_value(c5, beta) == 2
    assert classify_root(c5, beta) is RootClass.IMAGINARY


def test_a3_exhaustive_root_table():
    """Every vector in a box around the A3 roots classifies correctly."""
    c = _path(3)
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
    c = _star(3)
    roots = positive_roots_leq(c, (2, 1, 1, 1))
    assert roots == D4_POSITIVE_ROOTS
    assert len(roots) == 12
    for b in roots:
        assert classify_root(c, b) is RootClass.REAL
        assert p_value(c, b) == 0


def test_positive_roots_leq_includes_imaginary():
    c = _star(4)
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


def _d4():
    return _star(3)


def test_sigma_lambda_generic_real_root():
    c = _d4()
    lam = {0: Scalar(Fraction(3, 7)), (1, 1): Scalar(Fraction(-1, 7)),
           (2, 1): Scalar(Fraction(-1, 7)), (3, 1): Scalar(Fraction(-4, 7))}
    alpha = (2, 1, 1, 1)
    assert dot_lambda(c, alpha, lam) == 0
    assert in_sigma_lambda(c, alpha, lambda_forms(c, lam))


def test_sigma_lambda_fails_if_pairing_nonzero():
    c = _d4()
    lam = {0: Scalar(1)}
    assert dot_lambda(c, (2, 1, 1, 1), lam) != 0
    assert not in_sigma_lambda(c, (2, 1, 1, 1), lambda_forms(c, lam))


def test_sigma_lambda_killed_subroot_blocks():
    # lambda = 0 kills every sub-root: alpha = (2,1,1,1) decomposes into
    # lambda-killed roots with equal p-sum, so membership fails
    c = _d4()
    lam = {v: Scalar(0) for v in c.vertices}
    assert not in_sigma_lambda(c, (2, 1, 1, 1), lambda_forms(c, lam))


def test_sigma_lambda_not_root_rejected():
    c = _d4()
    lam = {0: Scalar(0)}
    assert not in_sigma_lambda(c, (2, 2, 0, 0), lambda_forms(c, lam))


def test_sigma_lambda_imaginary_generic():
    # affine D4 delta with generic lambda killing only delta itself
    c = _star(4)
    delta = (2, 1, 1, 1, 1)
    lam = {0: Scalar(2), (1, 1): Scalar(-1), (2, 1): Scalar(-1),
           (3, 1): Scalar(-1), (4, 1): Scalar(Fraction(-1))}
    assert dot_lambda(c, delta, lam) == 0
    assert in_sigma_lambda(c, delta, lambda_forms(c, lam))


def test_sigma_lambda_imaginary_degenerate():
    # lambda = 0: delta = (1,1,0,0,0)-type decompositions exist but p drops;
    # the root itself has p = 1 > 0 so flat decompositions must beat it
    c = _star(4)
    delta = (2, 1, 1, 1, 1)
    lam = {v: Scalar(0) for v in c.vertices}
    # all 24 real roots below delta are lambda-killed; any two of them
    # summing to delta have p-sum 0 < 1 = p(delta), so membership holds
    assert in_sigma_lambda(c, delta, lambda_forms(c, lam))
    # but 2*delta with lambda = 0 decomposes into delta + delta with
    # p-sum 2 >= p(2 delta) = 1: excluded
    assert not in_sigma_lambda(c, tuple(2 * x for x in delta), lambda_forms(c, lam))


def test_sigma_lambda_rejects_a_form_of_the_wrong_length():
    c = _d4()
    with pytest.raises(InputError, match="^deformation vector lengths 3, 4 do not match 4 vertices$"):
        in_sigma_lambda(c, (2, 1, 1, 1), ([0, 0, 0], [0, 0, 0, 0], 1))
    with pytest.raises(InputError, match="^deformation vector lengths 4, 5 do not match 4 vertices$"):
        in_sigma_lambda(c, (2, 1, 1, 1), ([0] * 4, [0] * 5, 1))
    # checked before alpha is classified, so a non-root alpha does not hide it
    with pytest.raises(InputError, match="^deformation vector lengths 0, 0"):
        in_sigma_lambda(c, (2, 2, 0, 0), ([], [], 1))
    # a vertex the quiver lacks is named where lambda is given by vertex
    with pytest.raises(InputError, match="^unknown vertices in deformation vector"):
        lambda_forms(c, {(9, 9): 1})
