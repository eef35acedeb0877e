"""The paper's own identities as oracles: checks that share no code with the
deciders.

- The dimension count.  The moduli space has dimension 2 p(alpha) =
  sum_i dim O_i - 2 (n^2 - 1) (Katz's rigidity index for Fuchsian tuples,
  *Rigid local systems* 1996; Boalch, *Publ. IHES* 2012; Hiroe-Yamakawa,
  *Adv. Math.* 2014).  For an unramified type with blocks (n_j, q_j, R_j),
  dim O = sum_{j != j'} n_j n_j' (deg(q_j - q_j') + 1) + sum_j dim O(R_j),
  deg being the pole order in z^-1: a block g = 1 + z^m X off the diagonal
  fixes the type only for m > deg.  It needs only the orbits and the q's.
- Reflection invariance.  Crawley-Boevey-Holland reflection functors keep
  membership of Sigma_lambda (*Duke* 1998; Crawley-Boevey, *Compositio*
  2001): for lambda_i != 0, alpha is in Sigma_lambda iff s_i alpha is in
  Sigma_{r_i lambda}, with (r_i lambda)_j = lambda_j - C_ij lambda_i.
"""

import itertools
import math
import random
from fractions import Fraction

from dskit.core import OrbitSpec, orbit_dim, partitions_of
from dskit.fuchsian import build_cb_data
from dskit.rootsys import in_sigma_lambda, p_value
from dskit.unramified import UnramBlock, UnramFormalType, build_hiroe_data
from exact_oracles import Scalar, cartan_rows, lambda_forms, lambda_values, orbit_trace, translated, triple

# no two differ by an integer, so every orbit drawn from them is nonresonant
_SPREAD = [Scalar(Fraction(k, 5)) for k in range(-2, 3)] + [
    Scalar(Fraction(1, 5), 1), Scalar(0, Fraction(1, 2))]
# small denominators make sub-sums of eigenvalues vanish, so lambda kills
# proper sub-roots and the Sigma search has decompositions to weigh
_SMALL = [Fraction(p, q) for q in (1, 2, 3) for p in range(-2 * q, 2 * q + 1)]
# the Sigma search walks the box below alpha; larger boxes only cost time
_MAX_BOX = 900


def _orbit(rng, n, eigs):
    """An orbit on gl_n with the given distinct eigenvalues, each with a
    random multiplicity and a random Jordan type."""
    cuts = sorted(rng.sample(range(1, n), len(eigs) - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return OrbitSpec(n, [(triple(e), rng.choice(list(partitions_of(m)))) for e, m in zip(eigs, mults)])


def _spread_orbit(rng, n):
    return _orbit(rng, n, rng.sample(_SPREAD, rng.randint(1, n)))


def _deg(q1, q2):
    """The pole order in z^-1 of q1 - q2, 0 when they agree."""
    pairs = itertools.zip_longest(q1, q2, fillvalue=(0, 0, 1))
    return max((m for m, (a, b) in enumerate(pairs, 1) if a != b), default=0)


def _type_dim(t):
    return sum(
        a.dim * b.dim * (_deg(a.q, b.q) + 1)
        for a, b in itertools.permutations(t.blocks, 2)
    ) + sum(orbit_dim(b.residue) for b in t.blocks)


def _q(rng):
    deg = rng.randint(1, 3)
    return [rng.randint(-2, 2) for _ in range(deg - 1)] + [rng.choice([-2, -1, 1, 2])]


def _irregular_type(rng, n, ell):
    cuts = sorted(rng.sample(range(1, n), ell - 1))
    dims = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    qs = set()
    while len(qs) < ell:
        qs.add(tuple(_q(rng)))
    return UnramFormalType(
        [UnramBlock(list(q), d, _spread_orbit(rng, d)) for q, d in zip(sorted(qs), dims)]
    )


def test_dimension_count_of_star_tuples():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(2, 4)
        orbits = [_spread_orbit(rng, n) for _ in range(rng.randint(3, 4))]
        data = build_cb_data(orbits)
        count = sum(map(orbit_dim, orbits)) - 2 * (n * n - 1)
        assert 2 * p_value(data.quiver, data.alpha) == count, orbits


def test_dimension_count_of_unramified_types():
    rng = random.Random(8)
    later_bases = cross_arrows = 0
    for _ in range(2000):
        n = rng.randint(2, 4)
        types = [_irregular_type(rng, n, rng.randint(1, min(n, 3)))]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                types.append(_irregular_type(rng, n, rng.randint(2, min(n, 3))))
            else:
                types.append(UnramFormalType([UnramBlock([], n, _spread_orbit(rng, n))]))
        data = build_hiroe_data(types)
        count = sum(map(_type_dim, types)) - 2 * (n * n - 1)
        assert 2 * p_value(data.quiver, data.alpha) == count, types
        later_bases += len(data.lattice_forms)
        cross_arrows += any(len(t) == 2 and t[0] == 0 and h[0] != 0 for t, h in data.quiver.arrows)
    # later types with ell >= 2 occur, so L and the cross arrows are built: seed 8
    # gives 1,200 such types, and cross arrows in 980 of the 2,000 draws
    assert later_bases >= 1000 and cross_arrows >= 800, (later_bases, cross_arrows)


def _trace_zero_star(rng):
    """Three or four nonresonant orbits on gl_n, n = 2..4, with eigenvalues
    of small denominators and traces summing to zero."""
    n = rng.randint(2, 4)
    k = rng.randint(3, 4 if n < 4 else 3)
    orbits = []
    while len(orbits) < k:
        eigs = rng.sample(_SMALL, rng.randint(1, n))
        if all((x - y).denominator != 1 for x, y in itertools.combinations(eigs, 2)):
            orbits.append(_orbit(rng, n, eigs))
    total = sum((orbit_trace(o) for o in orbits), Scalar(0))
    orbits[-1] = translated(orbits[-1], -total / n)
    return orbits


def test_reflections_keep_sigma_lambda():
    rng = random.Random(11)
    tuples = pairs = pairs_in = 0
    for _ in range(800):
        data = build_cb_data(_trace_zero_star(rng))
        q = data.quiver
        alpha = data.alpha
        if math.prod(x + 1 for x in alpha) > _MAX_BOX:
            continue
        tuples += 1
        verdict = in_sigma_lambda(q, alpha, data.lam, budget=None)
        values = lambda_values(data)
        lam = [values[v] for v in q.vertices]
        c = cartan_rows(q)
        for i, v in enumerate(q.vertices):
            reflected = list(alpha)
            reflected[i] -= sum(c[i][j] * x for j, x in enumerate(alpha))
            if not lam[i] or min(reflected) < 0 or not any(reflected):
                continue
            moved = {u: lam[j] - c[i][j] * lam[i] for j, u in enumerate(q.vertices)}
            assert in_sigma_lambda(q, reflected, lambda_forms(q, moved), budget=None) == verdict, (alpha, v)
            pairs += 1
            pairs_in += verdict
    # seed 11 keeps 645 tuples, which give 1,748 pairs, 857 of them in Sigma_lambda
    assert tuples >= 600 and pairs >= 1500, (tuples, pairs)
    assert 600 <= pairs_in <= pairs - 600, pairs_in
