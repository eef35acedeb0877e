"""The shared Sigma-criterion engine against the two searches it replaced.

`_reference_in_sigma_lambda` and `_reference_exists_on_data` are the former
bodies of `rootsys.in_sigma_lambda` and `unramified._exists_on_data`, each
with its own box walk and its own lambda pairing in `Scalar` arithmetic; the
second also keeps its own lattice test.  On seeded inputs with no budget the
engine must give the same verdicts.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from dskit.core import OrbitSpec, Scalar
from dskit.errors import BudgetExceededError
from dskit.fuchsian import build_cb_data, fuchsian_rigidity
from dskit.rootsys import (
    RootClass,
    classify_root,
    decompositions,
    in_sigma_lambda,
    p_value,
    sigma_candidates,
)
from dskit.unramified import (
    UnramBlock,
    UnramFormalType,
    _exists_on_data,
    build_hiroe_data,
    unramified_ds_exists,
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


def _reference_in_lattice(data, vec):
    pos = {v: k for k, v in enumerate(data.cartan.vertices)}
    return all(
        sum(vec[pos[v]] for v in lhs) == sum(vec[pos[v]] for v in rhs)
        for lhs, rhs in data.lattice_pairs
    )


def _reference_exists_on_data(data, ell_ge_2):
    a = data.alpha_vector()
    if classify_root(data.cartan, a) is RootClass.NOT_ROOT:
        return False
    if _reference_dot(data.cartan, a, data.lam):
        return False
    candidates = [
        vec
        for vec in itertools.product(*(range(x + 1) for x in a))
        if any(vec) and vec != a
        and _reference_in_lattice(data, vec)
        and not _reference_dot(data.cartan, vec, data.lam)
    ]
    p_alpha = p_value(data.cartan, a)
    min_parts = 2 if ell_ge_2 else 3
    for decomp in decompositions(a, candidates, None, min_parts=min_parts):
        if sum(p_value(data.cartan, g) for g in decomp) >= p_alpha:
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
            total = sum((o.trace() for o in orbits), Scalar(0))
            last = orbits[-1]
            # shift the last orbit by -total/n to make the traces sum to zero
            orbits[-1] = last.translated(-total / n)
        return orbits


def _box_size(data):
    return math.prod(x + 1 for x in data.alpha_vector())


def _fuchsian_cases(seed, count):
    """Star-quiver data with at most _MAX_STAR_BOX vectors below alpha."""
    rng = random.Random(seed)
    while count:
        n = rng.choice([2, 2, 3, 3, 4])
        k = rng.choice([3, 4]) if n < 4 else 3
        data = build_cb_data(_draw_orbits(rng, n, k, trace_zero=rng.random() < 0.85))
        if _box_size(data) <= _MAX_STAR_BOX:
            count -= 1
            yield data


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
            total = sum((t.residue_trace() for t in types), Scalar(0))
            last = types[-1].blocks[-1]
            shifted = last.residue.translated(-total / last.dim)
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
        want = _reference_in_sigma_lambda(data.cartan, data.alpha, data.lam)
        assert in_sigma_lambda(data.cartan, data.alpha, data.lam, budget=None) == want, data.alpha
        verdicts.append(want)
        searched += bool(sigma_candidates(data.cartan, data.alpha_vector(), data.lam, None))
    # both verdicts occur, and many tuples have lambda-orthogonal sub-roots
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40
    assert searched >= 60


def test_exists_on_data_matches_former_search():
    verdicts = []
    lattices = 0
    ranks = set()
    for types, data in _unramified_cases(seed=20261019, count=200):
        ranks.add(types[0].n)
        candidates = data.candidates(None)
        for ell_ge_2 in (False, True):
            want = _reference_exists_on_data(data, ell_ge_2)
            got = _exists_on_data(data, candidates, ell_ge_2=ell_ge_2, budget=None)
            assert got == want, (types, ell_ge_2)
            assert unramified_ds_exists(types, ell_ge_2=ell_ge_2, budget=None) == want
            verdicts.append(want)
        lattices += bool(data.lattice_pairs)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40
    assert lattices >= 20
    assert ranks == {2, 3, 4}


# ---------------------------------------------------------------------------
# the box walk draws on the budget
# ---------------------------------------------------------------------------


def test_budget_stops_rank4_triple_before_the_box_walk():
    # a generic rank-4 triple: the box under alpha = (4, 3,2,1, 3,2,1, 3,2,1)
    # holds 5 * 24**3 = 69,120 vectors, far over a budget of 10
    eigs = [
        [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13), Fraction(-5, 17)],
        [Fraction(4, 19), Fraction(-6, 23), Fraction(7, 29), Fraction(1, 31)],
        [Fraction(2, 37), Fraction(3, 41), Fraction(-1, 43)],
    ]
    eigs[2].append(-sum(sum(e) for e in eigs))
    orbits = [OrbitSpec(4, [(e, (1,)) for e in es]) for es in eigs]
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="lattice-point enumeration"):
        fuchsian_rigidity(orbits, budget=10)
    assert time.perf_counter() - t0 < 0.1
