"""The shared Sigma-criterion engine against the searches it replaced.

`_reference_in_sigma_lambda` and `_reference_exists_on_data` are the former
bodies of `rootsys.in_sigma_lambda` and of the unramified decider, each with
its own box walk, its own lambda pairing in `Scalar` arithmetic and the
enumeration of decompositions; the second also keeps its own lattice test,
read off the types.
On seeded inputs with no budget the engine must give the same verdicts, and
the table of best p-sums must read the same as the enumeration.
"""

import inspect
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from dskit.core import OrbitSpec, Scalar
from dskit.errors import BudgetExceededError
from dskit.formal import certify_slope
from dskit.fuchsian import FuchsianRigidity, build_cb_data, fuchsian_rigidity
from dskit.rootsys import (
    DEFAULT_BUDGET,
    Quiver,
    RootClass,
    _form_zeros,
    _split_point,
    best_p_sums,
    classify_root,
    in_sigma_lambda,
    p_value,
    sigma_candidates,
)
from dskit.unramified import HiroeData, UnramBlock, UnramFormalType, build_hiroe_data
from exact_oracles import (
    decompositions,
    dot_lambda,
    lambda_forms,
    lambda_values,
    orbit_trace,
    positive_roots_leq,
    residue_trace,
    rigidity_by_descent,
    root_part_readings,
    translated,
)


# ---------------------------------------------------------------------------
# the former searches
# ---------------------------------------------------------------------------


def _reference_roots_leq(c, a):
    found = []

    def walk(i, prefix):
        if i == len(a):
            if any(prefix):
                b = tuple(prefix)
                if classify_root(c, b) is not RootClass.NOT_ROOT:
                    found.append(b)
            return
        for x in range(a[i] + 1):
            walk(i + 1, prefix + [x])

    walk(0, [])
    return sorted(found)


def _reference_dot(c, b, lam):
    total = Scalar(0)
    for x, v in zip(b, c.vertices):
        if x:
            total = total + Scalar.of(lam.get(v, 0)) * x
    return total


def _reference_in_sigma_lambda(c, alpha, lam):
    a = c.as_vector(alpha)
    cls = classify_root(c, a)
    if cls is RootClass.NOT_ROOT:
        return False
    if _reference_dot(c, a, lam):
        return False
    p_alpha = p_value(c, a)
    candidates = [
        b for b in _reference_roots_leq(c, a) if b != a and not _reference_dot(c, b, lam)
    ]
    found_any = False
    found_flat = False
    for decomp in decompositions(a, candidates, None):
        found_any = True
        if sum(p_value(c, g) for g in decomp) >= p_alpha:
            found_flat = True
            break
    verdict = not found_flat
    if cls is RootClass.REAL:
        assert (not found_any) == verdict
    return verdict


def _reference_in_lattice(types, data, vec):
    """L by its definition on the types: for each later type i with
    ell_i >= 2, vec sums alike over the base vertices of type 0 and of i."""
    pos = {v: k for k, v in enumerate(data.quiver.vertices)}

    def base_sum(i):
        return sum(vec[pos[(i, j)]] for j in range(1, types[i].ell + 1))

    return all(base_sum(0) == base_sum(i) for i in range(1, len(types)) if types[i].ell >= 2)


def _reference_exists_on_data(types, data, ell_ge_2):
    a = data.alpha
    lam = lambda_values(data)
    if classify_root(data.quiver, a) is RootClass.NOT_ROOT:
        return False
    if _reference_dot(data.quiver, a, lam):
        return False
    candidates = [
        vec
        for vec in itertools.product(*(range(x + 1) for x in a))
        if any(vec) and vec != a
        and _reference_in_lattice(types, data, vec)
        and not _reference_dot(data.quiver, vec, lam)
    ]
    p_alpha = p_value(data.quiver, a)
    min_parts = 2 if ell_ge_2 else 3
    for decomp in decompositions(a, candidates, None, min_parts=min_parts):
        if sum(p_value(data.quiver, g) for g in decomp) >= p_alpha:
            return False
    return True


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

# small denominators make sub-sums of eigenvalues vanish, so lambda kills
# proper sub-roots and the decomposition search has parts to work with
_EIGS = [Fraction(p, q) for q in (1, 2, 3, 4) for p in range(-3 * q, 3 * q + 1)]
# Box sizes are capped to keep the test fast: the former searches walk the
# box in Scalar arithmetic, and the decomposition search, which both share,
# grows exponentially with the candidates (a lattice box of 1,080 vectors
# with 214 candidates takes seconds per reading).
_MAX_STAR_BOX = 900
_MAX_LATTICE_BOX = 1000


def _nonresonant(eigs):
    return all(
        (x - y).denominator != 1 for x, y in itertools.combinations(eigs, 2)
    )


def _orbit(rng, n, eigs):
    """An orbit on gl_n with the given distinct eigenvalues and random Jordan
    types; the multiplicities are drawn and sum to n."""
    cuts = sorted(rng.sample(range(1, n), len(eigs) - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    blocks = []
    for e, m in zip(eigs, mults):
        part = rng.choice([(m,), (1,) * m, tuple(sorted((1, m - 1), reverse=True))]) if m > 1 else (1,)
        blocks.append((e, tuple(x for x in part if x)))
    return OrbitSpec(n, blocks)


def _draw_orbits(rng, n, k, trace_zero):
    """k nonresonant orbits on gl_n, with total trace zero when asked."""
    while True:
        eig_sets = []
        for _ in range(k):
            d = rng.randint(1, n)
            eig_sets.append(rng.sample(_EIGS, d))
        if not all(_nonresonant(s) for s in eig_sets):
            continue
        orbits = [_orbit(rng, n, s) for s in eig_sets]
        if trace_zero:
            total = sum((orbit_trace(o) for o in orbits), Scalar(0))
            last = orbits[-1]
            # shift the last orbit by -total/n to make the traces sum to zero
            orbits[-1] = translated(last, -total / n)
        return orbits


def _box_size(data):
    return math.prod(x + 1 for x in data.alpha)


def _star_cases(seed, count):
    """Orbit tuples whose star-quiver data has at most _MAX_STAR_BOX vectors
    below alpha, each with that data."""
    rng = random.Random(seed)
    while count:
        n = rng.choice([2, 2, 3, 3, 4])
        k = rng.choice([3, 4]) if n < 4 else 3
        orbits = _draw_orbits(rng, n, k, trace_zero=rng.random() < 0.85)
        data = build_cb_data(orbits)
        if _box_size(data) <= _MAX_STAR_BOX:
            count -= 1
            yield orbits, data


def _fuchsian_cases(seed, count):
    """Star-quiver data with at most _MAX_STAR_BOX vectors below alpha."""
    return (data for _, data in _star_cases(seed, count))


def _q(rng, deg):
    return [rng.randint(-2, 2) for _ in range(deg - 1)] + [rng.choice([-2, -1, 1, 2])]


def _irregular_type(rng, n, ell):
    cuts = sorted(rng.sample(range(1, n), ell - 1))
    dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    qs = set()
    while len(qs) < ell:
        qs.add(tuple(_q(rng, rng.randint(1, 2))))
    blocks = []
    for q, d in zip(sorted(qs), dims):
        eigs = rng.sample(_EIGS, rng.randint(1, d))
        while not _nonresonant(eigs):
            eigs = rng.sample(_EIGS, rng.randint(1, d))
        blocks.append(UnramBlock(list(q), d, _orbit(rng, d, eigs)))
    return UnramFormalType(blocks)


def _unramified_cases(seed, count):
    """Type 0 irregular; then regular types, and sometimes a second type with
    two blocks, which adds a lattice constraint."""
    rng = random.Random(seed)
    while count:
        n = rng.choice([2, 2, 3, 3, 4])
        types = [_irregular_type(rng, n, rng.randint(1 if n > 2 else 2, min(n, 3)))]
        if rng.random() < 0.3:
            types.append(_irregular_type(rng, n, 2))
        for o in _draw_orbits(rng, n, rng.randint(1, 2 if n < 4 else 1), False):
            types.append(UnramFormalType([UnramBlock([], n, o)]))
        # make the residue traces sum to zero most of the time
        if rng.random() < 0.85:
            total = sum((residue_trace(t) for t in types), Scalar(0))
            last = types[-1].blocks[-1]
            shifted = translated(last.residue, -total / last.dim)
            types[-1] = UnramFormalType(
                types[-1].blocks[:-1] + (UnramBlock(last.q, last.dim, shifted),)
            )
        data = build_hiroe_data(types)
        if _box_size(data) <= _MAX_LATTICE_BOX:
            count -= 1
            yield types, data


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


def test_in_sigma_lambda_matches_former_search():
    verdicts = []
    searched = 0
    for data in _fuchsian_cases(seed=20261018, count=300):
        want = _reference_in_sigma_lambda(data.quiver, data.alpha, lambda_values(data))
        assert in_sigma_lambda(data.quiver, data.alpha, data.lam, budget=None) == want, data.alpha
        verdicts.append(want)
        searched += bool(sigma_candidates(data.quiver, data.alpha, data.lam, None))
    # both verdicts occur, and many tuples have lambda-orthogonal sub-roots
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40
    assert searched >= 60


def test_rigidity_by_p_matches_the_second_descent():
    # p(alpha) = 0 names the real roots among the roots in Sigma_lambda: seed
    # 20261028 gives 400 star tuples, 268 Empty, 83 RigidSingleton and 49
    # Infinite
    counts = dict.fromkeys(FuchsianRigidity, 0)
    for orbits, _ in _star_cases(seed=20261028, count=400):
        got = fuchsian_rigidity(orbits, budget=None)
        assert got is rigidity_by_descent(orbits, budget=None), orbits
        counts[got] += 1
    assert all(x > 0 for x in counts.values()), counts


def test_exists_on_data_matches_former_search():
    verdicts = []
    lattices = 0
    ranks = set()
    for types, data in _unramified_cases(seed=20261019, count=200):
        ranks.add(types[0].n)
        rebuilt = build_hiroe_data(types).readings(None)
        for ell_ge_2, got, again in zip((False, True), data.readings(None), rebuilt):
            want = _reference_exists_on_data(types, data, ell_ge_2)
            assert got == want, (types, ell_ge_2)
            assert again == want
            verdicts.append(want)
        lattices += any(t.ell >= 2 for t in types[1:])
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40
    assert lattices >= 20
    assert ranks == {2, 3, 4}


def test_path_reflections_keep_both_readings_with_root_parts():
    # s_i at a path vertex (i, j, k) with lambda_i != 0 keeps p and L, whose
    # forms vanish there; with roots as the parts both readings stay, while
    # alpha becomes s_i alpha and lambda_j becomes lambda_j - C_ij lambda_i.
    # Seed 20261029: 1,000 tuples give 1,215 pairs, 772 of them with the
    # parts>=3 reading true, 2 where the two readings differ and 228 with a
    # lattice form.
    pairs = by_three = split = lattices = 0
    for _, data in _unramified_cases(seed=20261029, count=1000):
        q, a, (re, im, den), forms = data.quiver, data.alpha, data.lam, data.lattice_forms
        want = root_part_readings(q, a, data.lam, forms)
        for i, v in enumerate(q.vertices):
            if len(v) != 3 or not (re[i] or im[i]):
                continue
            column = q.pairing([int(j == i) for j in range(len(a))])
            b = list(a)
            b[i] -= sum(map(operator.mul, a, column))
            if min(b) < 0 or not any(b):
                continue
            moved = [[x - c * f[i] for x, c in zip(f, column)] for f in (re, im)]
            assert root_part_readings(q, tuple(b), (*moved, den), forms) == want, (data, v)
            pairs += 1
            by_three += want[0]
            split += want[0] != want[1]
            lattices += bool(forms)
    assert pairs >= 1200 and 700 <= by_three <= pairs - 400, (pairs, by_three)
    assert split >= 1 and lattices >= 200, (split, lattices)


# ---------------------------------------------------------------------------
# the table of best p-sums against the enumeration
# ---------------------------------------------------------------------------


def _enumerated_best(q, a, candidates, min_parts):
    """The largest sum of p over the decompositions of a into >= min_parts
    candidates, None when there is none."""
    sums = (sum(p_value(q, g) for g in d) for d in decompositions(a, candidates, None, min_parts))
    return max(sums, default=None)


def _random_root_searches(seed, count):
    """Roots alpha of random quivers, lambda = 0: every root below alpha is a
    candidate."""
    rng = random.Random(seed)
    for _ in range(count):
        q = _random_quiver(rng, rng.randint(2, 5))
        a = _random_root(rng, q, 48)
        yield q, a, sigma_candidates(q, a, lambda_forms(q, {}), None)


def test_best_p_sums_matches_the_enumeration():
    searches = [
        (d.quiver, d.alpha, sigma_candidates(d.quiver, d.alpha, d.lam, None))
        for d in _fuchsian_cases(seed=20261025, count=300)
    ]
    searches += [
        (d.quiver, d.alpha,
         sigma_candidates(d.quiver, d.alpha, d.lam, None, d.lattice_forms))
        for _, d in _unramified_cases(seed=20261026, count=200)
    ]
    searches += _random_root_searches(seed=20261027, count=400)
    outcomes = set()
    negative = 0
    for q, a, candidates in searches:
        if candidates is None:
            continue
        p_alpha = p_value(q, a)
        for best, min_parts in zip(best_p_sums(q, a, candidates, None), (2, 3)):
            assert best == _enumerated_best(q, a, candidates, min_parts), (q, a, min_parts)
            # the (found, all drop) pair that the criteria read off
            outcomes.add((best is not None, best is None or best < p_alpha))
        negative += any(p_value(q, b) < 0 for b in candidates)
    assert outcomes == {(False, True), (True, True), (True, False)}
    assert negative >= 10


# ---------------------------------------------------------------------------
# the candidate list against the classify-first composition
# ---------------------------------------------------------------------------


def _box(a):
    """Every vector 0 <= b <= a in lexicographic order."""
    return itertools.product(*(range(x + 1) for x in a))


def _classify_first_candidates(c, a, lam, in_lattice=None):
    """sigma_candidates as it was composed before the lambda test moved ahead
    of classify_root: every box vector classified (or tested against the
    lattice) first, lambda tested on what is left."""
    if classify_root(c, a) is RootClass.NOT_ROOT or dot_lambda(c, a, lam):
        return None
    if in_lattice is None:
        vectors = [b for b in _box(a) if any(b) and classify_root(c, b) is not RootClass.NOT_ROOT]
    else:
        vectors = [b for b in _box(a) if any(b) and in_lattice(b)]
    return [b for b in vectors if b != a and not dot_lambda(c, b, lam)]


def test_sigma_candidates_match_classify_first_on_star_tuples():
    nonempty = 0
    for data in _fuchsian_cases(seed=20261020, count=150):
        a = data.alpha
        want = _classify_first_candidates(data.quiver, a, lambda_values(data))
        assert sigma_candidates(data.quiver, a, data.lam, None) == want, data.alpha
        nonempty += bool(want)
    # non-generic tuples: lambda-orthogonal proper sub-roots are common
    assert nonempty >= 30


def test_sigma_candidates_match_classify_first_on_unramified_tuples():
    nonempty = 0
    ranks = set()
    for types, data in _unramified_cases(seed=20261021, count=100):
        ranks.add(types[0].n)
        a = data.alpha
        want = _classify_first_candidates(
            data.quiver, a, lambda_values(data), lambda b: _reference_in_lattice(types, data, b))
        assert sigma_candidates(data.quiver, a, data.lam, None, data.lattice_forms) == want, types
        nonempty += bool(want)
    assert nonempty >= 20
    assert ranks == {2, 3, 4}


def _random_quiver(rng, n):
    """A quiver on n vertices, not only a star: 0, 1 or 2 arrows per pair."""
    arrows = []
    for i, j in itertools.combinations(range(n), 2):
        arrows += [(i, j)] * rng.choice([0, 0, 1, 1, 1, 2])
    return Quiver(range(n), arrows)


def _random_root(rng, c, max_box):
    while True:
        a = tuple(rng.randint(0, 4) for _ in c.vertices)
        if any(a) and math.prod(x + 1 for x in a) <= max_box \
                and classify_root(c, a) is not RootClass.NOT_ROOT:
            return a


def _orthogonal_lambda(rng, c, a, kind):
    """lambda on c.vertices with a.lambda = 0: zero, real, or with imaginary
    parts; the last vertex in the support of a absorbs the pairing."""
    if kind == "zero":
        return {}
    small = [Fraction(p, q) for q in (1, 2, 3) for p in range(-2, 3)]
    lam = {
        v: Scalar(rng.choice(small), rng.choice(small) if kind == "complex" else 0)
        for v in c.vertices
    }
    k = max(i for i, x in enumerate(a) if x)
    rest = sum((lam[v] * x for v, x in zip(c.vertices, a) if v != k), Scalar(0))
    lam[k] = -rest / a[k]
    return lam


def _random_lattice(rng, n, kind):
    if kind == "none":
        return None
    if kind == "zero":
        return [[0] * n for _ in range(rng.randint(1, 2))]
    return [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, 2))]


def _rows_vanish(rows):
    return lambda b: not any(sum(map(operator.mul, b, f)) for f in rows)


def _check_against_classify_first(c, a, lam, lattice):
    want = _classify_first_candidates(
        c, a, lam, None if lattice is None else _rows_vanish(lattice))
    assert sigma_candidates(c, a, lambda_forms(c, lam), None, lattice) == want, (c.arrows, a, lam, lattice)
    return want


def test_sigma_candidates_match_classify_first_on_random_cartan_matrices():
    rng = random.Random(20261022)
    seen = set()
    nonempty = 0
    for _ in range(240):
        n = rng.randint(2, 5)
        c = _random_quiver(rng, n)
        a = _random_root(rng, c, 200)
        lam_kind = rng.choice(["zero", "real", "complex"])
        lattice_kind = rng.choice(["none", "zero", "rows"])
        lam = _orthogonal_lambda(rng, c, a, lam_kind)
        lattice = _random_lattice(rng, n, lattice_kind)
        want = _check_against_classify_first(c, a, lam, lattice)
        nonempty += bool(want)
        seen.add((n, lam_kind, lattice_kind))
    assert {k[0] for k in seen} == {2, 3, 4, 5}
    assert len(seen) >= 30
    assert nonempty >= 80


def test_sigma_candidates_edge_cases():
    # one vertex: the only positive root is 1, with nothing below it
    c1 = Quiver((0,), ())
    for lattice in (None, [[0]], [[1]]):
        assert _check_against_classify_first(c1, (1,), {}, lattice) == []
    # lambda = 0 and no forms: every root below alpha is a part
    c = Quiver((0, 1, 2), [(0, 1), (0, 2), (1, 2)])
    a = (2, 2, 2)
    assert _check_against_classify_first(c, a, {}, None) == [
        b for b in positive_roots_leq(c, a) if b != a]
    # all-zero lattice rows: every nonzero proper box vector is a part
    every = [b for b in _box(a) if any(b) and b != a]
    assert _check_against_classify_first(c, a, {}, [[0, 0, 0]]) == every
    # real numerators ask b0 = b1, imaginary ones b0 = b2: only delta is left
    lam = {0: Scalar(1, 1), 1: Scalar(-1), 2: Scalar(0, -1)}
    assert _check_against_classify_first(c, a, lam, None) == [(1, 1, 1)]
    # one dominant coordinate, which the split keeps in the prefix
    big = Quiver((0, 1, 2), [(0, 1)] + [(0, 2)] * 20 + [(1, 2)] * 20)
    a = (1, 1, 40)
    assert classify_root(big, a) is not RootClass.NOT_ROOT
    assert _split_point(a) == 3
    for lam in ({}, {0: 1, 1: -1}, {0: 40, 2: -1}, {0: Scalar(1, 1), 1: Scalar(-1, -1)}):
        for lattice in (None, [[1, -1, 0]]):
            _check_against_classify_first(big, a, lam, lattice)


def test_split_keeps_the_table_within_the_square_root_of_the_box():
    rng = random.Random(20261023)
    shapes = [(1,), (5,), (1, 1, 40), (40, 1, 1), (4, 3, 2, 1, 3, 2, 1, 3, 2, 1)]
    shapes += [tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8))) for _ in range(200)]
    for a in shapes:
        h = _split_point(a)
        box = math.prod(x + 1 for x in a)
        prefix = math.prod(x + 1 for x in a[:h])
        suffix = math.prod(x + 1 for x in a[h:])
        assert suffix <= prefix and suffix <= math.isqrt(box), a
        # the least prefix + suffix over every split with suffix <= prefix
        best = min(
            math.prod(x + 1 for x in a[:k]) + math.prod(x + 1 for x in a[k:])
            for k in range(len(a) + 1)
            if math.prod(x + 1 for x in a[k:]) <= math.prod(x + 1 for x in a[:k])
        )
        assert prefix + suffix == best, a


def test_form_zeros_is_the_filtered_box_walk():
    rng = random.Random(20261024)
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 5)))
        forms = [[rng.randint(-3, 3) for _ in a] for _ in range(rng.randint(0, 3))]
        want = [b for b in _box(a) if _rows_vanish(forms)(b)]
        assert list(_form_zeros(a, forms)) == want, (a, forms)


# ---------------------------------------------------------------------------
# the box walk draws on the budget
# ---------------------------------------------------------------------------


def _generic_rank4_triple():
    # the box under alpha = (4, 3,2,1, 3,2,1, 3,2,1) holds 5 * 24**3 = 69,120
    # vectors; generic eigenvalues leave no proper sub-root orthogonal to lambda
    eigs = [
        [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(-5, 17)],
        [Fraction(4, 19), Fraction(-6, 23), Fraction(7, 29), Fraction(1, 31)],
        [Fraction(2, 37), Fraction(3, 41), Fraction(-1, 43)],
    ]
    eigs[2].append(-sum(sum(e) for e in eigs))
    return [OrbitSpec(4, [(e, (1,)) for e in es]) for es in eigs]


def test_budget_stops_rank4_triple_before_the_box_walk():
    orbits = _generic_rank4_triple()
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="lattice-point enumeration"):
        fuchsian_rigidity(orbits, budget=10)
    assert time.perf_counter() - t0 < 0.1


def test_rank4_triple_decides_under_the_default_budget_in_a_second():
    # classifying every one of the 69,120 box vectors takes seconds, so only
    # the lambda-orthogonal ones may reach classify_root
    orbits = _generic_rank4_triple()
    t0 = time.perf_counter()
    rigidity = fuchsian_rigidity(orbits, budget=DEFAULT_BUDGET)
    assert time.perf_counter() - t0 < 1.0
    assert rigidity is FuchsianRigidity.INFINITE


def test_rank4_triple_without_a_budget_matches_the_default():
    orbits = _generic_rank4_triple()
    assert fuchsian_rigidity(orbits, budget=None) is fuchsian_rigidity(orbits)


def _generic_rank5_triple():
    # alpha = (5, 4,3,2,1, 4,3,2,1, 4,3,2,1): a box of 6 * 120**3 = 10,368,000
    # vectors, far over the default budget
    eigs = [
        [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(-5, 17), Fraction(1, 53)],
        [Fraction(4, 19), Fraction(-6, 23), Fraction(7, 29), Fraction(1, 31), Fraction(2, 59)],
        [Fraction(2, 37), Fraction(3, 41), Fraction(-1, 43), Fraction(5, 47)],
    ]
    eigs[2].append(-sum(sum(e) for e in eigs))
    return [OrbitSpec(5, [(e, (1,)) for e in es]) for es in eigs]


def test_rank5_triple_without_a_budget_decides_in_a_second():
    # walking the 10.4 M box vectors takes about 20 s; the join visits a
    # prefix box of 3,600 and a suffix box of 2,880
    orbits = _generic_rank5_triple()
    assert math.prod(x + 1 for x in build_cb_data(orbits).alpha) == 10_368_000
    t0 = time.perf_counter()
    rigidity = fuchsian_rigidity(orbits, budget=None)
    assert time.perf_counter() - t0 < 1.0
    assert rigidity is FuchsianRigidity.INFINITE


def test_rank5_triple_under_the_default_budget_stops_at_the_box():
    with pytest.raises(BudgetExceededError) as err:
        fuchsian_rigidity(_generic_rank5_triple())
    assert str(err.value) == "lattice-point enumeration exceeded budget of 2000000"


def test_a_huge_box_over_a_small_budget_stops_within_a_second():
    # three nilpotent orbits with one Jordan block of size n: the box under
    # alpha = (n, n-1..1, n-1..1, n-1..1) holds (n + 1) (n!)^3 vectors, a
    # number of 390,815 digits that took 4.1 s to form in full (2-core x86-64)
    n = 32_000
    data = build_cb_data([OrbitSpec(n, [(0, (n,))])] * 3)
    alpha = data.alpha
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        best_p_sums(data.quiver, alpha, [], 1000)
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == "lattice-point enumeration exceeded budget of 1000"


def test_affine_d4_nilpotent_4delta_is_empty_within_three_seconds():
    # four nilpotent (2^4) orbits of gl_8: affine D4 with alpha = 4 delta and
    # lambda = 0, so delta + 3 delta does not drop p; enumerating the
    # decompositions took about 9 s to reach one that shows it
    orbits = [OrbitSpec(8, [(0, (2, 2, 2, 2))])] * 4
    t0 = time.perf_counter()
    assert fuchsian_rigidity(orbits) is FuchsianRigidity.EMPTY
    assert time.perf_counter() - t0 < 3.0


def test_every_budgeted_search_defaults_to_the_default_budget():
    for fn in (in_sigma_lambda, positive_roots_leq, fuchsian_rigidity, HiroeData.readings,
               certify_slope):
        assert inspect.signature(fn).parameters["budget"].default == DEFAULT_BUDGET, fn
