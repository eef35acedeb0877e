"""End-to-end acceptance checks for the nine headline capabilities.

One test per criterion.  Each prints a single ``[criterion N] PASS`` line on
success; a failing assertion is the FAIL line (run with ``-s`` to see the
PASS lines as they happen).  Everything runs in exact arithmetic -- there are
no tolerances anywhere, only equalities and the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from dskit import linalg
from dskit.core import (
    OrbitSpec,
    as_partition,
    min_partition_with_r_parts,
    orbit_dim,
    partitions_of,
)
from dskit.coxeter import (
    coxeter_ds_decide,
    h1_dimension,
    is_rigid_coxeter_gl,
    residue_representative,
)
from dskit.errors import ResonantError
from dskit.formal import (
    CertifiedSlope,
    CoxeterFormalType,
    certify_slope,
    omega_power,
    regsing_normalize,
)
from dskit.fuchsian import FuchsianRigidity, fuchsian_rigidity
from dskit.rootsys import (
    Quiver,
    in_sigma_lambda,
    p_value,
)
from dskit.unramified import UnramBlock, UnramFormalType, count_rank2_moduli
from exact_oracles import (
    Scalar,
    dominance_leq,
    dot_lambda,
    filtration_degree,
    from_terms,
    gauge_identity_holds,
    identity,
    is_integer,
    iwahori,
    jordan_matrix,
    kron,
    lambda_forms,
    laurent,
    mat_of,
    mat_sub,
    negated,
    nullspace,
    orbit_trace,
    positive_roots_leq,
    scalar_coeff,
    transpose,
    triple,
)


def _pass(num, detail):
    print(f"[criterion {num}] PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. rank-2 triples: existence matches the trace/cross-sum criterion
# ---------------------------------------------------------------------------


def test_criterion_1_rank2_triple_grid():
    """>= 200 Gaussian-rational instances, exact, under five seconds.

    For three regular semisimple rank-2 orbits the additive problem has an
    irreducible solution iff the traces sum to zero and every one-eigenvalue-
    from-each-orbit triple has nonzero sum; every solvable instance is a
    rigid singleton.
    """
    t0 = time.monotonic()
    rng = random.Random(20260819)

    def draw():
        re = Fraction(rng.randrange(-10, 11), 7)
        im = Fraction(rng.randrange(-2, 3), 7) if rng.random() < 0.3 else Fraction(0)
        return Scalar(re, im)

    checked = seen_true = seen_false = 0
    while checked < 220:
        eigs = []
        for _ in range(3):
            while True:
                x, y = draw(), draw()
                if x != y and not is_integer(x - y):
                    break
            eigs.append((x, y))
        if checked % 2 == 0:
            # force the trace condition so both verdicts appear in bulk
            x = eigs[2][0]
            c2 = -(eigs[0][0] + eigs[0][1] + eigs[1][0] + eigs[1][1] + x)
            if is_integer(c2 - x):  # equal to x, or resonant with it
                continue
            eigs[2] = (x, c2)
        orbits = [OrbitSpec(2, [(triple(x), (1,)), (triple(y), (1,))]) for x, y in eigs]

        trace_zero = not (orbit_trace(orbits[0]) + orbit_trace(orbits[1]) + orbit_trace(orbits[2]))
        cross_ok = all(
            bool(a + b + c)
            for a in eigs[0]
            for b in eigs[1]
            for c in eigs[2]
        )
        expected = trace_zero and cross_ok
        rigidity = fuchsian_rigidity(orbits)
        assert (rigidity is not FuchsianRigidity.EMPTY) == expected
        if expected:
            assert rigidity is FuchsianRigidity.RIGID_SINGLETON
            seen_true += 1
        else:
            seen_false += 1
        checked += 1

    elapsed = time.monotonic() - t0
    assert checked >= 200
    assert seen_true >= 5 and seen_false >= 5
    assert elapsed < 5.0
    _pass(1, f"{checked} instances ({seen_true} solvable, {seen_false} not) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. positive roots below the D4-star dimension vector
# ---------------------------------------------------------------------------


def test_criterion_2_star_positive_roots():
    q = Quiver([0, 1, 2, 3], [(1, 0), (2, 0), (3, 0)])
    roots = positive_roots_leq(q, (2, 1, 1, 1))
    expected = {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
        (1, 1, 1, 1), (2, 1, 1, 1),
    }
    assert len(roots) == 12
    assert set(roots) == expected
    _pass(2, "exactly the 12 positive roots below (2,1,1,1) on the 3-arm star")


# ---------------------------------------------------------------------------
# 3. two singular points never suffice
# ---------------------------------------------------------------------------


def _random_orbit(rng, n):
    """A random nonscalar, nonresonant orbit with denominator-7 eigenvalues."""
    while True:
        d = rng.randrange(1, n + 1)
        cuts = sorted(rng.sample(range(1, n), d - 1)) if d > 1 else []
        mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        ks = rng.sample(range(-10, 11), d)
        blocks = [
            (Fraction(k, 7), rng.choice(list(partitions_of(m))))
            for k, m in zip(ks, mults)
        ]
        o = OrbitSpec(n, blocks)
        if not o.is_scalar() and o.is_nonresonant():
            return o


def test_criterion_3_pairs_are_always_empty():
    rng = random.Random(94)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(15):
            pair = [_random_orbit(rng, n), _random_orbit(rng, n)]
            assert fuchsian_rigidity(pair) is FuchsianRigidity.EMPTY
            checked += 1
    assert checked == 45
    _pass(3, f"all {checked} random nonscalar pairs (n = 2, 3, 4) unsolvable")


# ---------------------------------------------------------------------------
# 4. the rank-2 slope-1 moduli count
# ---------------------------------------------------------------------------


def _leading_pair(c, d):
    return UnramFormalType([
        UnramBlock([1], 1, OrbitSpec(1, [(c, (1,))])),
        UnramBlock([-1], 1, OrbitSpec(1, [(d, (1,))])),
    ])


def test_criterion_4_rank2_moduli_counts():
    t = _leading_pair(Fraction(1, 3), Fraction(2, 3))
    teq = _leading_pair(Fraction(1, 2), Fraction(1, 2))
    rows = [
        # det O = cd, c != d: three components
        (t, OrbitSpec(2, [(Fraction(-1, 3), (1,)), (Fraction(-2, 3), (1,))]), 3),
        # det O = c^2, c = d, nonscalar orbit: two
        (teq, OrbitSpec(2, [(Fraction(-1, 2), (2,))]), 2),
        # det O != cd: one
        (t, OrbitSpec(2, [(Fraction(-1, 5), (1,)), (Fraction(-4, 5), (1,))]), 1),
        # scalar orbit, c = d, eigenvalue -c: one
        (teq, OrbitSpec(2, [(Fraction(-1, 2), (1, 1))]), 1),
        # trace mismatch: zero
        (t, OrbitSpec(2, [(0, (1,)), (Fraction(1, 3), (1,))]), 0),
    ]
    got = [count_rank2_moduli(tt, o) for tt, o, _ in rows]
    assert got == [want for _, _, want in rows] == [3, 2, 1, 1, 0]

    # single-block branch (one residue only): exactly the negated residue
    res = OrbitSpec(2, [(Fraction(1, 3), (1,)), (Fraction(1, 5), (1,))])
    t1 = UnramFormalType([UnramBlock([1], 2, res)])
    assert count_rank2_moduli(t1, negated(res)) == 1
    assert count_rank2_moduli(t1, res) == 0
    _pass(4, "moduli counts 3/2/1/1/0 across the five rows, single-block branch exact")


# ---------------------------------------------------------------------------
# 5. certified slopes
# ---------------------------------------------------------------------------


def test_criterion_5_certified_slopes():
    t0 = time.monotonic()
    for n in range(2, 11):
        v = certify_slope(omega_power(n, -1))
        assert isinstance(v, CertifiedSlope) and v.slope == Fraction(1, n)
        assert v.witness.depth == v.slope
        w = certify_slope(omega_power(n, -(n + 1)))
        assert isinstance(w, CertifiedSlope) and w.slope == Fraction(n + 1, n)
        assert w.witness.depth == w.slope
    for r in (1, 2, 3):
        m = from_terms(3, [(-r, [[Scalar(i) if i == j else Scalar(0)
                                 for j in range(1, 4)]
                                for i in range(1, 4)]),
                           (-r + 1, mat_of([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))])
        v = certify_slope(m)
        assert isinstance(v, CertifiedSlope) and v.slope == Fraction(r)
        assert v.witness.parahoric.J == (0,)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(5, f"slopes 1/n and (n+1)/n for n = 2..10 and r for diagonal leading terms "
             f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. regular-singular normalization solves the substitution identity
# ---------------------------------------------------------------------------


def test_criterion_6_normalization_substitution():
    rng = random.Random(1863)
    order = 6
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        diag = rng.sample([Fraction(i, 7) for i in range(1, 7)], n)
        b0 = [[Scalar(diag[i]) if i == j else Scalar(0) for j in range(n)]
              for i in range(n)]
        if rng.random() < 0.5:
            # non-diagonal residues too: strict upper part keeps the spectrum
            for i in range(n):
                for j in range(i + 1, n):
                    b0[i][j] = Scalar(rng.randint(-2, 2))
        coeffs = {0: b0}
        for k in range(1, order):
            if rng.random() < 0.8:
                coeffs[k] = [[Scalar(rng.randint(-3, 3)) for _ in range(n)]
                             for _ in range(n)]
        m = laurent(n, coeffs)
        g = regsing_normalize(m, order)
        assert gauge_identity_holds(m, g, order)
        assert scalar_coeff(g, 0) == identity(n)
        checked += 1
    assert checked == 100
    _pass(6, f"gauge identity holds exactly through order {order} on {checked} instances")


def test_criterion_6_a_dense_nonreal_8x8_gauge_within_one_second():
    # B_0 has eigenvalues m/9 + (m mod 3)/2 i, m = 0..7, no two an integer
    # apart, on an upper-triangular matrix hidden by a unipotent similarity
    # (row i += row i-1, then column i-1 -= column i, from the bottom up)
    n, order = 8, 4
    rng = random.Random(1864)
    b0 = [[Scalar(Fraction(i, 9), Fraction(i % 3, 2)) if i == j
           else Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) if j > i else Scalar(0)
           for j in range(n)] for i in range(n)]
    for i in range(n - 1, 0, -1):
        b0[i] = [x + y for x, y in zip(b0[i], b0[i - 1])]
        for row in b0:
            row[i - 1] = row[i - 1] - row[i]
    assert sum(x != 0 for i, row in enumerate(b0) for x in row[:i]) >= n
    coeffs = {0: b0}
    for k in range(1, order):
        coeffs[k] = [[Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
                      for _ in range(n)] for _ in range(n)]
    m = laurent(n, coeffs)
    t0 = time.monotonic()
    g = regsing_normalize(m, order)
    elapsed = time.monotonic() - t0
    assert gauge_identity_holds(m, g, order)
    assert scalar_coeff(g, 0) == identity(n)
    assert elapsed < 1.0
    _pass(6, f"dense non-real {n} x {n} gauge through order {order} in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 7. rank-2 Coxeter-type decision over an exhaustive orbit family
# ---------------------------------------------------------------------------


def test_criterion_7_rank2_coxeter_family():
    t = CoxeterFormalType(2, 1, 0)
    grid = [Fraction(k, 5) for k in range(-5, 6)]
    checked = trues = resonant = 0

    for c in grid:
        o = OrbitSpec(2, [(c, (2,))])
        expected = (c == 0)  # the regular nilpotent orbit
        assert coxeter_ds_decide(t, o) == expected
        trues += expected
        checked += 1

        scal = OrbitSpec(2, [(c, (1, 1))])
        assert coxeter_ds_decide(t, scal) is False  # scalar, never regular
        checked += 1

    for i, c in enumerate(grid):
        for d in grid[i + 1:]:
            o = OrbitSpec(2, [(c, (1,)), (d, (1,))])
            if (d - c).denominator == 1:
                with pytest.raises(ResonantError):
                    coxeter_ds_decide(t, o)
                resonant += 1
                continue
            expected = (c + d == 0)  # regular semisimple with zero trace
            assert coxeter_ds_decide(t, o) == expected
            trues += expected
            checked += 1

    assert checked == 70 and resonant == 7
    # the nilpotent orbit plus the +-k/5 pairs for k = 1..4 (the +-1 pair
    # differs by the integer 2, so it lands in the resonant bucket)
    assert trues == 5
    _pass(7, f"decision matches the nilpotent/trace-zero rule on all {checked} orbits")


# ---------------------------------------------------------------------------
# 8. rigidity of the minimal orbits and their matrix representatives
# ---------------------------------------------------------------------------


def test_criterion_8_minimal_orbit_rigidity():
    t0 = time.monotonic()
    pairs = 0
    for n in range(2, 13):
        for r in range(1, n + 2):
            if gcd(r, n) != 1:
                continue
            parts = min_partition_with_r_parts(r, n)
            o = OrbitSpec(n, [(0, parts)])
            expected = (n - 1) % r == 0 or (n + 1) % r == 0
            h1 = h1_dimension(n, r, o)
            assert h1 >= 0
            assert (h1 == 0) == expected
            assert is_rigid_coxeter_gl(n, r, o) == expected
            pairs += 1

    reps = 0
    for n in range(1, 9):
        for r in range(1, n + 2):
            m = residue_representative(n, r)
            assert linalg.jordan_type_of_nilpotent(m) == min_partition_with_r_parts(r, n)
            reps += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(8, f"h1 = 0 iff r divides n-1 or n+1 on {pairs} coprime pairs; "
             f"{reps} matrix representatives match their Jordan types in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. the combinatorial substrate agrees with its definitions
# ---------------------------------------------------------------------------


def _dominance_meet(p, q):
    length = max(len(p), len(q))
    pp = list(p) + [0] * (length - len(p))
    qq = list(q) + [0] * (length - len(q))
    pref, sp, sq = [], 0, 0
    for i in range(length):
        sp += pp[i]
        sq += qq[i]
        pref.append(min(sp, sq))
    diffs = [pref[0]] + [pref[i] - pref[i - 1] for i in range(1, length)]
    assert all(diffs[i] >= diffs[i + 1] for i in range(len(diffs) - 1))
    return tuple(x for x in diffs if x > 0)


def _sigma_brute(q, alpha, lam):
    """Direct evaluation of the membership definition, no shortcuts."""
    a = q.as_vector(alpha)
    roots = positive_roots_leq(q, a)
    if a not in roots or dot_lambda(q, a, lam):
        return False
    cands = [b for b in roots if b != a and not dot_lambda(q, b, lam)]
    pa = p_value(q, a)
    strict = True

    def rec(rem, start, count, psum):
        nonlocal strict
        if not strict:
            return
        if not any(rem):
            if count >= 2 and psum >= pa:
                strict = False
            return
        for i in range(start, len(cands)):
            b = cands[i]
            if all(b[j] <= rem[j] for j in range(len(rem))):
                rec(tuple(x - y for x, y in zip(rem, b)), i, count + 1,
                    psum + p_value(q, b))

    rec(a, 0, 0, Fraction(0))
    return strict


def test_criterion_9_substrate_definitions():
    # (a) dominance is a partial order with prefix-min meets, m <= 10
    for m in range(1, 11):
        ps = list(partitions_of(m))
        for p in ps:
            assert dominance_leq(p, p)
        for p in ps:
            for q in ps:
                if dominance_leq(p, q) and dominance_leq(q, p):
                    assert p == q
                meet = _dominance_meet(p, q)
                assert as_partition(meet) == meet
                assert dominance_leq(meet, p) and dominance_leq(meet, q)
                for s in ps:
                    if dominance_leq(s, p) and dominance_leq(s, q):
                        assert dominance_leq(s, meet)
                    if dominance_leq(p, q) and dominance_leq(q, s):
                        assert dominance_leq(p, s)

    # (b) the Iwahori grading: closed form == lattice-chain definition
    for n in range(1, 7):
        iw = iwahori(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for k in range(-2, 3):
                    d = iw.graded_degree(a, b, k)
                    assert d == k * n + (b - a)
                    assert filtration_degree(iw, a, b, k) == d

    # (c) root-membership: implementation vs the raw definition
    star = Quiver([0, 1, 2, 3], [(1, 0), (2, 0), (3, 0)])
    path = Quiver([0, 1, 2], [(0, 1), (1, 2)])
    wide = Quiver([0, 1, 2, 3, 4], [(1, 0), (2, 0), (3, 0), (4, 0)])
    h = Fraction(1, 7)
    cases = [
        (star, (2, 1, 1, 1), {0: h, 1: -2 * h, 2: h, 3: -h}),   # generic, killed
        (star, (2, 1, 1, 1), {0: h, 1: h, 2: h, 3: h}),          # not killed
        (star, (2, 1, 1, 1), {0: 0, 1: 0, 2: 0, 3: 0}),          # everything killed
        (star, (2, 1, 1, 1), {0: h, 1: -2 * h, 2: 0, 3: 0}),     # two arms killed
        (star, (1, 1, 1, 0), {0: h, 1: -h, 2: 0, 3: 0}),
        (path, (1, 1, 1), {0: h, 1: h, 2: -2 * h}),
        (path, (1, 1, 1), {0: 0, 1: 0, 2: 0}),
        (wide, (2, 1, 1, 1, 1), {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}),  # imaginary root
        (wide, (2, 1, 1, 1, 1), {0: h, 1: -h, 2: -h, 3: 0, 4: 0}),
    ]
    agreements = 0
    for q, alpha, lam in cases:
        assert in_sigma_lambda(q, alpha, lambda_forms(q, lam)) == _sigma_brute(q, alpha, lam)
        agreements += 1

    # (d) orbit dimension vs the kernel of ad on matrices, n <= 5
    rng = random.Random(5)
    orbits = []
    for n in range(1, 6):
        orbits += [OrbitSpec(n, [(0, p)]) for p in partitions_of(n)]
    orbits += [_random_orbit(rng, n) for n in (2, 3, 4, 5) for _ in range(5)]
    for o in orbits:
        x = jordan_matrix(o)
        ad = mat_sub(
            kron(x, identity(o.n)),
            kron(identity(o.n), transpose(x)),
        )
        assert orbit_dim(o) == o.n * o.n - len(nullspace(ad))

    _pass(9, f"dominance lattice (m <= 10), Iwahori degrees (n <= 6), "
             f"{agreements} membership cross-checks, {len(orbits)} orbit dimensions")
