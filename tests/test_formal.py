import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from dskit import formal, linalg
from dskit.core import as_triple
from dskit.errors import BudgetExceededError, InputError, ResonantError, TruncationError
from dskit.formal import (
    CertifiedSlope,
    CoxeterFormalType,
    RegularSingularCandidate,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
    _depths,
    certify_slope,
    is_fundamental,
    leading_stratum,
    omega_power,
    regsing_normalize,
)
from dskit.laurent import LaurentMatrix
from dskit.rootsys import DEFAULT_BUDGET
from exact_oracles import (
    Scalar,
    block_sizes,
    coxeter_canonical_type,
    coxeter_matrix,
    eq_mod,
    filtration_degree,
    full_scan_slope,
    gauge_identity_holds,
    identity,
    is_nonresonant,
    iwahori,
    katz_invariant,
    lattice_exponent,
    laurent,
    mat_of,
    mat_scale,
    maximal,
    monomial,
    nested_loop_f,
    one,
    parahoric_sets,
    power,
    representative_p_coeffs,
    scalar_coeff,
    scalar_monomials,
    scalar_regsing_normalize,
    series_add,
    series_mul,
    series_scale,
    standard_parahorics,
    triple,
    two_walk_certify_slope,
    zeros,
)
import exact_oracles

mono = monomial


def terms(n, *monomials):
    """The sum of value * E_ij z^deg over the (deg, i, j, value) given, no two
    on one entry, built as one coefficient dict."""
    coeffs = {}
    for deg, i, j, value in monomials:
        coeffs.setdefault(deg, zeros(n, n))[i - 1][j - 1] = Scalar.of(value)
    return laurent(n, coeffs)


def _diag(*entries, plus=()):
    """diag(entries) at z^0, plus the monomials (deg, i, j, value) given."""
    return terms(len(entries), *((0, i, i, x) for i, x in enumerate(entries, 1)), *plus)


# ---------------------------------------------------------------------------
# parahorics and filtration degrees
# ---------------------------------------------------------------------------


def test_parahoric_validation_and_normalization():
    with pytest.raises(InputError):
        StandardParahoric(0, (0,))
    with pytest.raises(InputError):
        StandardParahoric(3, (1, 2))  # 0 missing
    with pytest.raises(InputError):
        StandardParahoric(3, (0, 3))  # out of range
    with pytest.raises(InputError, match=r"^J must lie inside 0\.\.2$"):
        StandardParahoric(3, (0, -1))  # contains 0, but -1 is out of range
    # a float is refused by name, not truncated
    with pytest.raises(InputError, match=r"^an entry of J must be an integer, got 1\.5$"):
        StandardParahoric(3, [0, 1.5])
    with pytest.raises(InputError, match=r"^n must be an integer, got 3\.0$"):
        StandardParahoric(3.0, [0])
    p = StandardParahoric(4, [2, 0, 2])
    assert p.J == (0, 2)
    assert p.e == 2
    assert block_sizes(p) == (2, 2)
    assert iwahori(3).J == (0, 1, 2)
    assert maximal(3).J == (0,)
    assert block_sizes(iwahori(4)) == (1, 1, 1, 1)


def test_standard_parahorics_enumeration():
    for n in range(1, 10):
        ps = standard_parahorics(n)
        assert len(ps) == 2 ** (n - 1)
        # the walk's order is the sorted list of combinations, and the f of
        # each graded degree the nested loop over the steps of one period
        assert [p.J for p in ps] == parahoric_sets(n)
        for p in ps:
            f = nested_loop_f(n, p.J)
            assert all(p.graded_degree(a, b, 0) == f[a] - f[b]
                       for a in range(1, n + 1) for b in range(1, n + 1)), p
    assert [p.J for p in standard_parahorics(3)] == [(0,), (0, 1), (0, 1, 2), (0, 2)]


def test_lattice_exponents_iwahori_chain():
    p = iwahori(2)
    # L^0 = o + o, L^1 = o + z o, L^2 = z L^0
    assert [lattice_exponent(p, 0, i) for i in (1, 2)] == [0, 0]
    assert [lattice_exponent(p, 1, i) for i in (1, 2)] == [0, 1]
    assert [lattice_exponent(p, 2, i) for i in (1, 2)] == [1, 1]
    assert [lattice_exponent(p, -1, i) for i in (1, 2)] == [-1, 0]
    with pytest.raises(InputError):
        lattice_exponent(p, 0, 3)


def test_iwahori_degree_closed_form():
    for n in (2, 3, 4):
        p = iwahori(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for k in (-2, -1, 0, 1):
                    assert p.graded_degree(a, b, k) == k * n + (b - a)
    p3 = iwahori(3)
    assert p3.graded_degree(1, 3, -1) == -1
    assert p3.graded_degree(1, 2, -1) == -2
    assert p3.graded_degree(2, 3, -1) == -2


def test_maximal_degree_is_z_exponent():
    p = maximal(3)
    for a, b in itertools.product(range(1, 4), repeat=2):
        for k in (-2, 0, 2):
            assert p.graded_degree(a, b, k) == k


def test_degree_periodicity_and_range():
    for n in range(1, 5):
        for p in standard_parahorics(n):
            for a, b in itertools.product(range(1, n + 1), repeat=2):
                d = p.graded_degree(a, b, 0)
                assert abs(d) <= p.e - 1
                for k in (-2, -1, 1, 3):
                    assert p.graded_degree(a, b, k) == d + k * p.e


def test_definitional_filtration_agrees_with_closed_form():
    for n in range(1, 6):
        for p in standard_parahorics(n):
            for a, b in itertools.product(range(1, n + 1), repeat=2):
                for k in (-2, -1, 0, 1, 2):
                    assert filtration_degree(p, a, b, k) == p.graded_degree(a, b, k)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


FG2_TERMS = ((-1, 1, 2, 1), (0, 2, 1, 1))
FG2 = terms(2, *FG2_TERMS)


def test_stratum_validation():
    iw = iwahori(2)
    s = Stratum(iw, 1, FG2)
    assert s.depth == Fraction(1, 2)
    with pytest.raises(InputError):  # not homogeneous: E11 z^-1 has degree -2
        Stratum(iw, 1, terms(2, *FG2_TERMS, (-1, 1, 1, 1)))
    with pytest.raises(InputError):
        Stratum(iw, 1, LaurentMatrix(2, {}))
    with pytest.raises(InputError):
        Stratum(maximal(3), 1, FG2)


def test_is_fundamental():
    iw = iwahori(2)
    assert is_fundamental(Stratum(iw, 1, FG2))  # square is z^-1 I
    assert not is_fundamental(Stratum(iw, 1, mono(2, -1, 1, 2, 1)))
    gl = maximal(2)
    assert is_fundamental(Stratum(gl, 1, terms(2, (-1, 1, 1, 1), (-1, 2, 2, 2))))
    # scalar z^-1 leading term is as fundamental as it gets
    assert is_fundamental(Stratum(gl, 1, laurent(2, {-1: identity(2)})))


def test_leading_stratum_selects_minimal_degree():
    iw = iwahori(2)
    m = terms(2, *FG2_TERMS, (0, 1, 1, 5))  # E11 has degree 0, off the leading part
    s = leading_stratum(iw, m)
    assert s.depth_num == 1
    assert s.leading == FG2
    gl = maximal(2)
    s2 = leading_stratum(gl, m)
    assert s2.depth_num == 1
    assert s2.leading == mono(2, -1, 1, 2, 1)
    assert not is_fundamental(s2)


def test_leading_stratum_builds_one_matrix_per_degree(monkeypatch):
    n = 4
    m = laurent(n, {-1: [[Scalar(i + j + 1) for j in range(n)] for i in range(n)]})
    built = []
    zero = linalg.zero_gaussian
    monkeypatch.setattr(linalg, "zero_gaussian", lambda *args: built.append(args[0]) or zero(*args))
    s = leading_stratum(maximal(n), m)
    assert s.leading == m
    assert built == [n]  # 16 monomials of minimal degree, all at z^-1


def test_leading_stratum_guards():
    iw = iwahori(2)
    with pytest.raises(InputError):
        leading_stratum(iw, LaurentMatrix(2, {}))
    with pytest.raises(InputError):
        leading_stratum(maximal(3), FG2)
    # an unknown z^1 coefficient could reach the same degree as E12 z^0
    m = laurent(2, {0: [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]}, trunc=1)
    with pytest.raises(TruncationError):
        leading_stratum(iw, m)


# ---------------------------------------------------------------------------
# slope certification
# ---------------------------------------------------------------------------


def test_certify_slope_cyclic_powers():
    for n in range(2, 6):
        for k in range(1, n + 2):
            v = certify_slope(omega_power(n, -k))
            assert isinstance(v, CertifiedSlope)
            assert v.slope == Fraction(k, n)
            assert is_fundamental(v.witness)
            assert v.witness.depth == v.slope


def test_certify_slope_diagonal_leading():
    m = terms(3, (-2, 1, 1, 1), (-2, 2, 2, 2), (-2, 3, 3, 3), (-1, 1, 2, 1), (-1, 3, 1, 4))
    v = certify_slope(m)
    assert isinstance(v, CertifiedSlope)
    assert v.slope == 2
    assert v.witness.parahoric.J == (0,)


def test_certify_slope_regular_singular_candidates():
    assert isinstance(certify_slope(LaurentMatrix(2, {})), RegularSingularCandidate)
    assert isinstance(certify_slope(_diag(1, Fraction(1, 2))), RegularSingularCandidate)
    m = _diag(1, 2, plus=[(3, 1, 2, 1)])
    assert isinstance(certify_slope(m), RegularSingularCandidate)


def test_certify_slope_nilpotent_pole_gives_upper_bound():
    v = certify_slope(mono(2, -1, 1, 2, 1))
    assert isinstance(v, UpperBoundOnly)
    assert v.bound == Fraction(1, 2)
    assert v.witness.parahoric.J == (0, 1)
    assert not is_fundamental(v.witness)


def test_certify_slope_charges_every_parahoric_to_the_budget():
    m = mono(5, -1, 1, 5, 1)
    want = certify_slope(m)
    got = certify_slope(m, budget=16)
    assert (got.bound, got.witness.parahoric.J) == (want.bound, want.witness.parahoric.J)
    with pytest.raises(BudgetExceededError, match="16 standard parahorics"):
        certify_slope(m, budget=15)
    # without a pole nothing is scanned, so nothing is charged
    assert isinstance(certify_slope(_diag(1, 2, 3), budget=0), RegularSingularCandidate)
    # 2^21 parahorics at n = 22 exceed the default budget before any is built
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="2097152 standard parahorics"):
        certify_slope(mono(22, -1, 1, 22, 1), budget=DEFAULT_BUDGET)
    assert time.perf_counter() - t0 < 0.1


def test_certify_slope_defaults_to_the_default_budget():
    # the 2^21 parahorics at n = 22 do not fit the budget a bare call gets
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="exceeded budget of 2000000"):
        certify_slope(mono(22, -1, 1, 22, 1))
    assert time.perf_counter() - t0 < 0.1


def test_certify_slope_truncation_guard():
    m = laurent(2, {-1: identity(2)}, trunc=0)
    with pytest.raises(TruncationError):
        certify_slope(m)
    # known through z^0 is enough for a depth-1 certificate
    ok = laurent(2, {-1: identity(2)}, trunc=1)
    v = certify_slope(ok)
    assert isinstance(v, CertifiedSlope) and v.slope == 1


def test_fundamental_depths_agree_across_parahorics():
    cases = [omega_power(n, -k) for n in (2, 3, 4) for k in range(1, n + 2)]
    cases.append(terms(3, (-2, 1, 1, 1), (-2, 2, 2, 2), (-2, 3, 3, 3)))
    for m in cases:
        v = certify_slope(m)
        assert isinstance(v, CertifiedSlope)
        strata = [leading_stratum(p, m) for p in standard_parahorics(m.n)]
        depths = {s.depth for s in strata if is_fundamental(s)}
        assert depths == {v.slope}
        # a fundamental stratum attains the least depth over all parahorics
        assert min(s.depth for s in strata) == v.slope


def _random_connection(rng):
    n = rng.randint(1, 7)
    pole = rng.randint(0, 3)
    density = rng.choice([0.2, 0.35, 0.5])
    # a strictly upper triangular leading coefficient is nilpotent at the
    # maximal parahoric, so the scan has to look past J = (0,); a diagonal
    # or scalar one ties every parahoric at depth = pole
    lead = rng.choice(["any", "any", "upper", "upper", "diagonal", "scalar"])
    allowed = {
        "any": lambda i, j: True,
        "upper": lambda i, j: j > i,
        "diagonal": lambda i, j: i == j,
    }

    def draw():
        return Scalar(rng.choice([-2, -1, 1, 2]), rng.choice([0] * 5 + [1]))

    coeffs = {}
    for k in range(-pole, 2):
        if k == -pole and lead == "scalar":
            coeffs[k] = mat_scale(draw(), identity(n))
            continue
        keep = allowed[lead] if k == -pole else allowed["any"]
        mat = zeros(n, n)
        for i in range(n):
            for j in range(n):
                if keep(i, j) and rng.random() < density:
                    mat[i][j] = draw()
        coeffs[k] = mat
    # a truncation at or below z^0 must be refused; above, it drops terms
    trunc = rng.randint(-pole, 2) if rng.random() < 0.25 else None
    return laurent(n, coeffs, trunc)


def test_certify_slope_matches_full_scan_oracle():
    rng = random.Random(2013)
    seen = Counter()
    for _ in range(1000):
        m = _random_connection(rng)
        try:
            want, strata, fundamental = full_scan_slope(m)
        except TruncationError as exc:
            with pytest.raises(TruncationError) as got:
                certify_slope(m)
            assert str(got.value) == str(exc)
            seen["TruncationError"] += 1
            continue
        got = certify_slope(m)
        assert got == want  # slope or bound, and witness J, depth_num, leading
        assert [is_fundamental(s) for s in strata] == fundamental
        seen[type(want).__name__] += 1
        if isinstance(want, CertifiedSlope) and want.witness.parahoric.J != (0,):
            seen["past_first"] += 1
        if m.n >= 3 and len({s.depth for s in strata}) == 1:
            seen["all_tie"] += 1
        if m.trunc is not None:
            seen["truncated"] += 1
        if m.n == 7:
            seen["n=7"] += 1
        if isinstance(want, UpperBoundOnly):
            ties = sum(s.depth == want.bound for s in strata)
            seen["unique nilpotent least-depth stratum" if ties == 1
                 else "several least-depth strata, all nilpotent"] += 1
    assert len(seen) == 10 and min(seen.values()) >= 20, seen


def test_carried_degrees_match_the_f_table():
    # seed 20261201: 300 draws at n = 1..8 with 1 to 12 entries (k, a, b); at
    # every J the walk carries, each entry's degree is k e + f_a - f_b with f
    # from the nested loop, and the depth is minus their least
    rng = random.Random(20261201)
    for _ in range(300):
        n = rng.randint(1, 8)
        entries = [(rng.randint(-3, 2), rng.randint(1, n), rng.randint(1, n))
                   for _ in range(rng.randint(1, 12))]
        walked = []
        # one walk of all the entries beside one walk of each entry alone
        for (J, e, r), *alone in zip(_depths(n, entries), *(_depths(n, [x]) for x in entries)):
            f = nested_loop_f(n, J)
            degrees = [k * e + f[a] - f[b] for k, a, b in entries]
            assert [(Jx, ex) for Jx, ex, _ in alone] == [(J, e)] * len(entries)
            assert [-rx for _, _, rx in alone] == degrees
            assert r == -min(degrees)
            walked.append(tuple(J))
        assert walked == parahoric_sets(n)


def _slope_outcome(certify, m, budget):
    try:
        return certify(m, budget)
    except (TruncationError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)


def test_certify_slope_matches_the_two_walk_oracle(monkeypatch):
    # seed 20261202: 1,500 draws of _random_connection under no budget, the
    # default, exactly 2^(n-1) nodes or one fewer; the one walk and the two
    # walks give equal verdicts, witnesses and messages, and the one walk
    # builds exactly the first stratum the two walks build
    built = []

    def spy(p, m):
        built.append(p.J)
        return leading_stratum(p, m)

    monkeypatch.setattr(formal, "leading_stratum", spy)
    monkeypatch.setattr(exact_oracles, "leading_stratum", spy)
    rng = random.Random(20261202)
    seen = Counter()
    for _ in range(1500):
        m = _random_connection(rng)
        budget = rng.choice([None, DEFAULT_BUDGET, 1 << (m.n - 1), (1 << (m.n - 1)) - 1])
        built.clear()
        got = _slope_outcome(certify_slope, m, budget)
        one = built[:]
        built.clear()
        want = _slope_outcome(two_walk_certify_slope, m, budget)
        assert got == want, m
        assert one == built[:1], m
        kind = want[0] if isinstance(want, tuple) else type(want).__name__
        if kind in ("CertifiedSlope", "UpperBoundOnly"):
            kind += " after one stratum" if len(built) == 1 else " after several"
        seen[kind] += 1
    # the two walks certify after several strata only at a nilpotent first tie
    # and a fundamental later one, which the lemma of certify_slope rules out
    assert set(seen) == {"RegularSingularCandidate", "TruncationError", "BudgetExceededError",
                         "CertifiedSlope after one stratum", "UpperBoundOnly after one stratum",
                         "UpperBoundOnly after several"}, seen
    assert min(seen.values()) >= 20, seen


def _planted_connection(rng):
    """A connection with a planted stratum at a random standard parahoric J*
    other than the first: a homogeneous term of graded degree -r there, so of
    depth r/e with r <= 3e and coefficients in {-1, 1, 2, 3}, plus noise of
    higher degree at J*."""
    n = rng.randint(2, 7)
    p = rng.choice(standard_parahorics(n)[1:])
    r = rng.randint(1, 3 * p.e)
    coeffs = {}

    def put(k, a, b):
        re = coeffs.setdefault(k, linalg.zero_gaussian(n))[0]
        re[a - 1][b - 1] = rng.choice([-1, 1, 2, 3])

    entries = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    # E_ab z^k has degree k e + d at J*, with d its degree at k = 0
    degree0 = {(a, b): p.graded_degree(a, b, 0) for a, b in entries}
    planted = [(a, b) for a, b in entries if (-r - degree0[a, b]) % p.e == 0]
    for a, b in [x for x in planted if rng.random() < 0.5] or [rng.choice(planted)]:
        put((-r - degree0[a, b]) // p.e, a, b)
    for a, b in rng.sample(entries, rng.randint(0, n)):
        # the least k whose degree passes -r, or the one after it
        put((-r - degree0[a, b]) // p.e + 1 + rng.randint(0, 1), a, b)
    return LaurentMatrix(n, coeffs)


def test_tied_least_depth_strata_never_mix_fundamental_and_nilpotent():
    # seed 20261203: 1,000 draws of _planted_connection; one walk and two walks
    # give equal verdicts, and at every draw with a pole the strata of each
    # depth are all fundamental or all nilpotent, and none above the least
    # depth is fundamental: the lemma of certify_slope, so the first stratum
    # of least depth decides.  969 draws have a pole; 614 of them tie at the
    # least depth, 109 with a nilpotent first stratum; 2,884 depth classes
    # tie, and 1,943 lie above a fundamental least depth
    rng = random.Random(20261203)
    seen = Counter()
    for _ in range(1000):
        m = _planted_connection(rng)
        got = certify_slope(m)
        assert got == two_walk_certify_slope(m), m
        if isinstance(got, RegularSingularCandidate):
            seen["no pole"] += 1
            continue
        by_depth, tested = {}, {}
        for p in standard_parahorics(m.n):
            s = leading_stratum(p, m)
            # is_fundamental reads the leading term alone, and its monomials fix it
            key = tuple(s.leading.monomials())
            if key not in tested:
                tested[key] = is_fundamental(s)
            by_depth.setdefault(s.depth, []).append(tested[key])
        least = min(by_depth)
        fundamental = by_depth[least]
        assert isinstance(got, CertifiedSlope if fundamental[0] else UpperBoundOnly)
        if len(fundamental) > 1:
            seen["tie, fundamental" if fundamental[0] else "tie, nilpotent"] += 1
        for depth, kinds in by_depth.items():
            assert len(set(kinds)) == 1, (m, depth)
            assert depth == least or not kinds[0], (m, depth)
            seen["tied depth class"] += len(kinds) > 1
            seen["nilpotent class above a fundamental one"] += depth > least and fundamental[0]
    assert seen["tie, nilpotent"] >= 100, seen
    assert seen["tie, fundamental"] >= 400, seen
    assert seen["tied depth class"] >= 2000, seen
    assert seen["nilpotent class above a fundamental one"] >= 1000, seen


def test_certify_slope_holds_o_of_n_memory():
    # the 2^15 parahorics at n = 16 are walked, never kept
    m = omega_power(16, -1)
    tracemalloc.start()
    try:
        v = certify_slope(m)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.slope == Fraction(1, 16)
    assert peak < 1_000_000, peak


def _integer_connection(rng):
    """M of d + M dz/z at n = 2..5 over Z[i], at degrees -pole..1 with a pole
    of order <= 3; its leading coefficient is dense, strictly upper
    triangular (so nilpotent), diagonal or scalar."""
    n, pole = rng.randint(2, 5), rng.randint(0, 3)
    lead = rng.choice(["any", "upper", "diagonal", "scalar"])
    keep = {"any": lambda a, b: True, "upper": lambda a, b: b > a,
            "diagonal": lambda a, b: a == b, "scalar": lambda a, b: a == b}

    def draw():
        return rng.choice([-2, -1, 1, 2]), rng.choice([0, 0, 0, 1])

    coeffs = {}
    for k in range(-pole, 2):
        re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        scalar = draw()
        for a in range(n):
            for b in range(n):
                if k > -pole or keep[lead](a, b):
                    x = scalar if k == -pole and lead == "scalar" else (
                        draw() if rng.random() < 0.4 else (0, 0))
                    re[a][b], im[a][b] = x
        coeffs[k] = (re, im, 1)
    return LaurentMatrix(n, coeffs)


def _unimodular(rng, n):
    """A product P of elementary integer matrices, so unimodular over Z, and
    its inverse."""
    p = [[int(a == b) for b in range(n)] for a in range(n)]
    inv = [row[:] for row in p]
    for _ in range(rng.randint(1, 2 * n)):
        # times E = I + c E_ab on the right of P, and E^-1 = I - c E_ab on
        # the left of P^-1
        a, b = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in p:
            row[b] += c * row[a]
        inv[a] = [x - c * y for x, y in zip(inv[a], inv[b])]
    assert _int_mul(p, inv) == [[int(a == b) for b in range(n)] for a in range(n)]
    return p, inv


def _int_mul(x, y):
    return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]


def _conjugate_by(p, inv, m):
    """P M P^-1, coefficient by coefficient, with M's truncation."""
    return LaurentMatrix(m.n, {k: (_int_mul(_int_mul(p, re), inv),
                                   _int_mul(_int_mul(p, im), inv), den)
                               for k, (re, im, den) in m.coeffs.items()}, m.trunc)


def _conjugate(rng, m):
    """P M P^-1 for P from `_unimodular`, the gauge transform of M by the
    constant P."""
    return _conjugate_by(*_unimodular(rng, m.n), m)


def _shear(rng, m):
    """z^D M z^-D + D for D = diag(d) with 0 <= d_a <= 2: entry (a, b) moves
    by d_a - d_b degrees, and D is added at z^0."""
    n = m.n
    d = [rng.randint(0, 2) for _ in range(n)]
    coeffs = {}

    def at(k):
        return coeffs.setdefault(k, ([[0] * n for _ in range(n)], [[0] * n for _ in range(n)]))

    for k, (re, im, _den) in m.coeffs.items():  # _integer_connection's den is 1
        for a in range(n):
            for b in range(n):
                out_re, out_im = at(k + d[a] - d[b])
                out_re[a][b] += re[a][b]
                out_im[a][b] += im[a][b]
    for a in range(n):
        at(0)[0][a][a] += d[a]
    return LaurentMatrix(n, {k: (re, im, 1) for k, (re, im) in coeffs.items()})


def test_the_slope_verdicts_of_two_gauges_agree():
    # seed 7, 1,500 draws of _integer_connection under each kind of gauge: the
    # slope is a gauge invariant, so two CertifiedSlope verdicts give one
    # slope, a certified slope never exceeds the other side's UpperBoundOnly
    # bound, and a RegularSingularCandidate (slope 0) never meets a certified
    # (positive) slope.  This checks the lemma of certify_slope from outside:
    # the full-scan and two-walk oracles read the same strata it does.
    # Conjugation gives 839 CC, 85 CU, 142 UU and 434 RR pairs (C certified,
    # U upper bound, R regular singular candidate); the shear gives 444 CC,
    # 500 CU, 8 UC, 130 UU, 214 RR, and 204 RU or UR, where it makes or
    # removes an apparent pole
    rng = random.Random(7)
    pairs = Counter()
    for gauge in (_conjugate, _shear):
        for _ in range(1500):
            m = _integer_connection(rng)
            v, w = certify_slope(m), certify_slope(gauge(rng, m))
            pairs[gauge.__name__, type(v).__name__[0] + type(w).__name__[0]] += 1
            if isinstance(v, CertifiedSlope) and isinstance(w, CertifiedSlope):
                assert v.slope == w.slope, m
            for x, y in ((v, w), (w, v)):
                if isinstance(x, CertifiedSlope) and isinstance(y, UpperBoundOnly):
                    assert x.slope <= y.bound, m
                if isinstance(x, RegularSingularCandidate):
                    assert not isinstance(y, CertifiedSlope), m
    assert min(pairs["_conjugate", "CC"], pairs["_shear", "CC"]) >= 300, pairs
    assert pairs["_conjugate", "CU"] + pairs["_conjugate", "UC"] >= 50, pairs
    assert pairs["_shear", "CU"] + pairs["_shear", "UC"] >= 300, pairs
    assert pairs["_shear", "RU"] + pairs["_shear", "UR"] >= 100, pairs


def test_the_slope_verdicts_agree_with_the_katz_invariant_of_a_cyclic_vector():
    # seed 5, 1,500 draws of _integer_connection with n <= 4, each degree's
    # coefficient put over a denominator from {1, 1, 2, 3}: katz_invariant reads
    # the slope off a cyclic vector's differential operator and shares no code
    # with certify_slope.  A certified slope is the invariant, an upper bound is
    # at least it, and a regular singular candidate has invariant 0.  The draws
    # give 907 CertifiedSlope, 123 UpperBoundOnly (all strictly above the
    # invariant, 26 of them regular singular, which slope leaves at exit 3) and
    # 470 RegularSingularCandidate
    for n in (3, 4, 5):
        assert katz_invariant(omega_power(n, -1)) == Fraction(1, n)
    rng = random.Random(5)
    kinds = Counter()
    while sum(kinds[k] for k in "CUR") < 1500:
        m = _integer_connection(rng)
        if m.n > 4:
            continue
        m = LaurentMatrix(m.n, {k: (re, im, rng.choice([1, 1, 2, 3]))
                                for k, (re, im, _) in m.coeffs.items()})
        kappa, verdict = katz_invariant(m), certify_slope(m)
        kinds[type(verdict).__name__[0]] += 1
        if isinstance(verdict, CertifiedSlope):
            assert verdict.slope == kappa, m
        elif isinstance(verdict, UpperBoundOnly):
            assert verdict.bound >= kappa, m
            kinds["strict"] += verdict.bound > kappa
            kinds["regular"] += kappa == 0
        else:
            assert isinstance(verdict, RegularSingularCandidate) and kappa == 0, m
    assert kinds["C"] >= 600 and kinds["R"] >= 300, kinds
    assert kinds["U"] >= 80 and kinds["strict"] >= 80 and kinds["regular"] >= 15, kinds


# ---------------------------------------------------------------------------
# exact nonresonance
# ---------------------------------------------------------------------------


def test_is_nonresonant():
    assert is_nonresonant([[Scalar(0), Scalar(0)], [Scalar(0), Scalar(Fraction(1, 2))]])
    assert not is_nonresonant([[Scalar(0), Scalar(0)], [Scalar(0), Scalar(1)]])
    assert is_nonresonant([[Scalar(0), Scalar(0)], [Scalar(0), Scalar(0)]])
    # eigenvalues +-i differ by 2i, not a rational integer
    rot = [[Scalar(0), Scalar(-1)], [Scalar(1), Scalar(0)]]
    assert is_nonresonant(rot)
    # eigenvalues +-1 differ by 2
    swap = [[Scalar(0), Scalar(1)], [Scalar(1), Scalar(0)]]
    assert not is_nonresonant(swap)
    with pytest.raises(InputError):  # eigenvalues +-sqrt(2)
        is_nonresonant([[Scalar(0), Scalar(2)], [Scalar(1), Scalar(0)]])
    with pytest.raises(InputError):
        is_nonresonant([[Scalar(0), Scalar(1)]])


# ---------------------------------------------------------------------------
# regular-singular normalization
# ---------------------------------------------------------------------------


def test_regsing_normalize_worked_example():
    m = _diag(0, Fraction(1, 2), plus=[(1, 1, 2, 1)])
    g = regsing_normalize(m, 4)
    assert scalar_coeff(g, 0) == identity(2)
    assert scalar_coeff(g, 1)[0][1] == Scalar(2)
    assert sum(1 for _ in LaurentMatrix(2, {1: g.coeff(1)}).monomials()) == 1
    assert scalar_coeff(g, 2) == zeros(2, 2)
    assert scalar_coeff(g, 3) == zeros(2, 2)
    assert g.trunc == 4


def test_regsing_normalize_without_higher_terms_is_identity():
    b0 = _diag(Fraction(1, 3), Fraction(1, 7))
    g = regsing_normalize(b0, 5)
    assert eq_mod(g, one(2), 5)


def test_regsing_normalize_substitution_identity():
    rng = random.Random(7)
    order = 6
    for _ in range(25):
        n = rng.randint(1, 3)
        # distinct diagonal residues inside (0,1) so no two differ by an integer
        diag = rng.sample([Fraction(i, 7) for i in range(1, 7)], n)
        coeffs = {0: [[Scalar(diag[i]) if i == j else Scalar(0) for j in range(n)]
                      for i in range(n)]}
        for k in range(1, order):
            if rng.random() < 0.7:
                coeffs[k] = [[Scalar(rng.randint(-3, 3)) for _ in range(n)]
                             for _ in range(n)]
        m = laurent(n, coeffs)
        g = regsing_normalize(m, order)
        assert gauge_identity_holds(m, g, order)


def test_regsing_normalize_substitution_identity_nondiagonal_residue():
    m = terms(2, (0, 1, 2, 1), (0, 2, 2, Fraction(1, 2)), (1, 2, 1, 3), (2, 1, 1, 1))
    g = regsing_normalize(m, 6)
    assert gauge_identity_holds(m, g, 6)


def test_regsing_normalize_errors():
    with pytest.raises(InputError):
        regsing_normalize(_diag(0, Fraction(1, 2)), 0)
    with pytest.raises(InputError):  # genuine pole
        regsing_normalize(mono(2, -1, 1, 2, 1), 3)
    resonant = _diag(0, 1, plus=[(1, 1, 2, 1)])
    with pytest.raises(ResonantError, match="differ by 1"):
        regsing_normalize(resonant, 3)
    wide = _diag(0, 2, plus=[(2, 1, 2, 1)])  # obstruction enters at k = 2
    with pytest.raises(ResonantError, match="differ by 2"):
        regsing_normalize(wide, 3)
    # resonance only matters up to the requested order
    g = regsing_normalize(wide, 2)
    assert scalar_coeff(g, 1) == zeros(2, 2)
    truncated = laurent(2, {0: zeros(2, 2)}, trunc=2)
    with pytest.raises(TruncationError):
        regsing_normalize(truncated, 3)


def test_regsing_normalize_resonant_residue_with_consistent_steps_gets_a_gauge():
    # the eigenvalues 0 and 1 differ by 1, but with no higher terms every step
    # is consistent; its free coordinates are set to zero, giving the identity
    g = regsing_normalize(_diag(0, 1), 4)
    assert eq_mod(g, one(2), 4)
    assert g.trunc == 4


def test_regsing_normalize_resonant_residue_raises_at_an_inconsistent_step():
    m = laurent(2, {0: mat_of([[0, 0], [0, 1]]), 1: mat_of([[1, 1], [1, 1]])})
    with pytest.raises(ResonantError, match="differ by 1"):
        regsing_normalize(m, 4)


def test_regsing_normalize_resonant_gap_with_vanishing_obstruction():
    # eigenvalue gap 2, but the z^2 obstruction cancels: the gauge exists
    m = _diag(0, 2, plus=[(1, 1, 2, 1)])
    g = regsing_normalize(m, 4)
    assert scalar_coeff(g, 1)[0][1] == Scalar(-1)
    assert gauge_identity_holds(m, g, 4)


def _random_regsing(rng, n, order, kind):
    """An upper-triangular residue with Gaussian-integer coefficients below
    the order.  "generic": distinct eigenvalues, some non-real, no two
    differing by an integer; "nonreal": the same with at least one non-real
    eigenvalue, and coefficients above z^0 with denominators 1 to 3;
    "resonant": some pairs differ by 1 or 2; "diagonal": resonant, but every
    coefficient is diagonal, so each singular step is consistent and its
    free coordinates are set to zero."""
    pool = [Scalar(Fraction(k, 7)) for k in range(-3, 4)] + [
        Scalar(0, 1), Scalar(Fraction(1, 7), Fraction(-2, 7))]
    if kind == "nonreal":
        z = rng.choice(pool[-2:])
        eigs = [z] + rng.sample([x for x in pool if x != z], n - 1)
    else:
        eigs = rng.sample(pool, n)
    if kind in ("resonant", "diagonal"):
        eigs[rng.randrange(n)] = eigs[0] + rng.choice([1, 2])
    residue = [[eigs[i] if i == j else Scalar(rng.randint(-2, 2)) if j > i and kind != "diagonal"
                else Scalar(0) for j in range(n)] for i in range(n)]
    coeffs = {0: residue}
    for k in range(1, order):
        coeffs[k] = [[Scalar(rng.randint(-3, 3), rng.choice([0, 0, 0, 1]))
                      if i == j or kind != "diagonal" else Scalar(0)
                      for j in range(n)] for i in range(n)]
        if kind == "nonreal":
            coeffs[k] = [[x * Fraction(1, rng.randint(1, 3)) for x in row] for row in coeffs[k]]
    return laurent(n, coeffs)


def _gauge_or_error(normalize, m, order):
    try:
        return normalize(m, order)
    except ResonantError as exc:
        return str(exc)


def _normalize(m, order):
    return regsing_normalize(m, order)


def test_regsing_normalize_matches_the_echelon_solve_oracle(monkeypatch):
    rng = random.Random(2026)
    # n = 5 with a dense generic residue is left out at order 8 only to
    # keep the Scalar oracle fast
    inputs = [
        (_random_regsing(rng, n, order, kind), order)
        for order in (6, 8)
        for n, kind in [(1, "generic"), (2, "generic"), (3, "generic"), (4, "generic"),
                        (5, "generic"), (2, "resonant"), (3, "resonant"), (4, "resonant"),
                        (3, "diagonal"), (5, "diagonal")]
        if (n, kind, order) != (5, "generic", 8)
    ]
    rng = random.Random(2040)
    extra = []
    while len(extra) < 120:
        kind = rng.choice(["nonreal", "resonant", "diagonal"])
        n, order = rng.randint(1, 5), rng.randint(2, 8)
        if n < 5 or order <= 5:
            extra.append((_random_regsing(rng, n, order, kind), order))
    shifts = []
    solve = linalg.sylvester_solve

    def spy(op, k, rhs):
        shifts.append(k)
        return solve(op, k, rhs)

    monkeypatch.setattr(linalg, "sylvester_solve", spy)
    got = [_gauge_or_error(_normalize, m, order) for m, order in inputs + extra]
    assert shifts.count(1) == len(inputs + extra), shifts
    monkeypatch.undo()
    want = [_gauge_or_error(scalar_regsing_normalize, m, order) for m, order in inputs + extra]
    assert got == want
    raised = sum(isinstance(g, str) for g in got[: len(inputs)])
    assert 2 <= raised <= len(inputs) - 13, got
    raised = sum(isinstance(g, str) for g in got[len(inputs) :])
    assert 10 <= raised <= len(extra) - 60, raised
    # seed 2411: 60 M with gaps in their degrees, n = 1..3.  Each keeps B_0
    # and its top degree, 0..4, and each degree between with probability
    # 1/2; a top degree 0 is a constant M.  With D the larger of the top
    # degree and 1, the order runs from D + 1 to 6 D, so the recursion keeps
    # only the last D gauge terms.  The residues have no two eigenvalues an
    # integer apart, or are diagonal with every coefficient diagonal, so no
    # shift up to D is inconsistent; in 40 % of the draws at n >= 2 with
    # order > D + 1, one eigenvalue is moved to b_00 + r, r from D + 1 to
    # order - 1, so that ResonantError can come at a shift past D.  Counts
    # at this seed: 9 constant M, 51 draws with a shift past D, 8
    # ResonantErrors, all past D
    rng = random.Random(2411)
    gapped = []
    for _ in range(60):
        n, top = rng.randint(1, 3), rng.randint(0, 4)
        d = max(top, 1)
        order = rng.randint(d + 1, 6 * d)
        m = _random_regsing(rng, n, top + 1, rng.choice(["generic", "nonreal", "diagonal"]))
        coeffs = {k: scalar_coeff(m, k) for k in range(top + 1)
                  if k in (0, top) or rng.random() < 0.5}
        if n > 1 and order > d + 1 and rng.random() < 0.4:
            coeffs[0][-1][-1] = coeffs[0][0][0] + rng.randint(d + 1, order - 1)
        gapped.append((laurent(n, coeffs), order, d))
    got = [_gauge_or_error(regsing_normalize, m, order) for m, order, _ in gapped]
    assert got == [_gauge_or_error(scalar_regsing_normalize, m, order) for m, order, _ in gapped]
    late = [(int(g.rsplit(" ", 1)[1]), d)
            for g, (_, _, d) in zip(got, gapped) if isinstance(g, str)]
    assert all(k > d for k, d in late), late
    counts = (sum(len(m.coeffs) <= 1 for m, _, _ in gapped),
              sum(order > d + 1 for _, order, d in gapped), len(late))
    assert counts[0] >= 6 and counts[1] >= 40 and counts[2] >= 5, counts


def test_regsing_normalize_returns_its_gauge_in_lowest_terms():
    # seed 2404: 30 draws of each `_random_regsing` kind at n = 1..4 and
    # orders 1..8, 20 constant M (a residue alone) and 20 M with B_k
    # dropped at one to three k < order.  `regsing_normalize` returns the
    # g_k as the solve left them, so the gauge must be what `LaurentMatrix`
    # keeps of the same coefficients: each over a positive least
    # denominator, and no zero one.  Counts at this seed: 6 resonant errors,
    # 45 gauges with a zero g_k dropped, 37 of them the identity alone
    rng = random.Random(2404)
    kinds = ["generic", "nonreal", "resonant", "diagonal"]
    draws = [(_random_regsing(rng, rng.randint(1, 4), rng.randint(1, 8), kind), rng.randint(1, 8))
             for kind in kinds for _ in range(30)]
    for _ in range(20):
        order = rng.randint(1, 8)
        draws.append((_random_regsing(rng, rng.randint(1, 4), 1, rng.choice(kinds)), order))
    for _ in range(20):
        order = rng.randint(4, 8)
        m = _random_regsing(rng, rng.randint(1, 4), order, rng.choice(kinds[:2]))
        dropped = rng.sample(range(1, order), rng.randint(1, 3))
        draws.append((LaurentMatrix(m.n, {k: c for k, c in m.coeffs.items() if k not in dropped},
                                    m.trunc), order))
    counts = Counter()
    for m, order in draws:
        try:
            gauge = regsing_normalize(m, order)
        except ResonantError:
            counts["resonant"] += 1
            continue
        assert gauge == LaurentMatrix(m.n, gauge.coeffs, order), (m, order)
        assert gauge.trunc == order and 0 in gauge.coeffs, (m, order)
        for re, im, den in gauge.coeffs.values():
            assert den > 0 and (any(map(any, re)) or any(map(any, im))), (m, order)
        counts["dropped"] += len(gauge.coeffs) < order
        counts["identity"] += len(gauge.coeffs) == 1 < order
    assert counts["resonant"] >= 3 and counts["dropped"] >= 40 and counts["identity"] >= 30, counts


def test_regsing_normalize_holds_memory_in_the_support_of_m():
    # M = diag(1/7, 2/7) + E_12 z and the constant M = diag(1/7, 2/7) at
    # order 1,000: the recursion stacks only B_1 and keeps only the last
    # gauge term, so its peak does not grow with the order.  Each peaked
    # near 3 KB; with one block stacked per order below the order it was
    # 340 KB, and with every gauge term kept in the row block 66 KB
    b0 = ([[1, 0], [0, 2]], [[0, 0], [0, 0]], 7)
    e12 = ([[0, 1], [0, 0]], [[0, 0], [0, 0]], 1)
    for coeffs, terms in [({0: b0, 1: e12}, [0, 1]), ({0: b0}, [0])]:
        m = LaurentMatrix(2, coeffs)
        tracemalloc.start()
        try:
            gauge = regsing_normalize(m, 1000)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(gauge.coeffs) == terms and gauge.trunc == 1000
        assert peak < 20_000, peak


def test_the_gauge_of_a_conjugate_is_the_conjugate_gauge():
    # seed 2306, 200 non-resonant M from _random_regsing ("generic" or
    # "nonreal", n = 2..5, order 4..6) and unimodular integer P: the gauge
    # transform by the constant P takes M's gauge g to P g P^-1, which is
    # then the gauge of P M P^-1, coefficient by coefficient, because a
    # non-resonant gauge is unique.  M's residue is upper triangular, so g
    # comes from back substitution; P B_0 P^-1 is not triangular in 162 of
    # the draws, and there its gauge comes from Jameson's route
    rng = random.Random(2306)
    jameson = 0
    for _ in range(200):
        n, order = rng.randint(2, 5), rng.randint(4, 6)
        m = _random_regsing(rng, n, order, rng.choice(["generic", "nonreal"]))
        p, inv = _unimodular(rng, n)
        conj = _conjugate_by(p, inv, m)
        assert linalg.sylvester_operator(m.coeff(0))[1] is None
        jameson += linalg.sylvester_operator(conj.coeff(0))[1] is not None
        g = regsing_normalize(m, order)
        assert regsing_normalize(conj, order) == _conjugate_by(p, inv, g), (m, p)
    assert jameson >= 150, jameson


def test_regsing_normalize_makes_no_scalar_products(monkeypatch):
    m = _random_regsing(random.Random(2041), 4, 8, "nonreal")
    want = scalar_regsing_normalize(m, 8)
    assert any(x.im for k in range(8) for row in scalar_coeff(want, k) for x in row)

    def no_product(a, b):
        raise AssertionError("Scalar product in the gauge recursion")

    # every Scalar matrix product multiplies Scalars
    monkeypatch.setattr(Scalar, "__mul__", no_product)
    monkeypatch.setattr(Scalar, "__rmul__", no_product)
    assert regsing_normalize(m, 8) == want


# ---------------------------------------------------------------------------
# the cyclic uniformizer and Coxeter canonical types
# ---------------------------------------------------------------------------


def test_omega_power_identities():
    for n in (1, 2, 3, 5):
        zi = laurent(n, {1: identity(n)})
        assert omega_power(n, n) == zi
        assert omega_power(n, 0) == one(n)
        assert power(omega_power(n, 1), n) == zi
        for k, l in [(-1, 1), (2, 3), (-4, 7), (-2, -3)]:
            assert series_mul(omega_power(n, k), omega_power(n, l)) == omega_power(n, k + l)


def test_omega_minus_one_layout():
    w = omega_power(3, -1)
    assert list(scalar_monomials(w)) == [
        (-1, 1, 3, Scalar(1)),
        (0, 2, 1, Scalar(1)),
        (0, 3, 2, Scalar(1)),
    ]


def test_coxeter_type_validation():
    # a general p is the oracle's: the slope checks first, then its degree
    with pytest.raises(InputError, match=r"^need gcd\(r, n\) = 1, got r=2, n=4$"):
        coxeter_matrix(4, 2, [1, 0, 1])  # gcd 2
    with pytest.raises(InputError, match="^p must have degree exactly 2: expected 3 coefficients, got 2$"):
        coxeter_matrix(3, 2, [1, 1])  # wrong length
    with pytest.raises(InputError, match="^leading coefficient of p must be nonzero$"):
        coxeter_matrix(3, 2, [1, 1, 0])  # leading zero
    with pytest.raises(InputError, match="^need n >= 1 and r >= 1$"):
        coxeter_matrix(0, 1, [0, 1])
    # a float is refused by name before it reaches gcd
    with pytest.raises(InputError, match=r"^n must be an integer, got 3\.5$"):
        CoxeterFormalType(3.5, 2, 0)
    with pytest.raises(InputError, match=r"^r must be an integer, got 2\.0$"):
        CoxeterFormalType(3, 2.0, 0)
    t = CoxeterFormalType(3, 2, Fraction(1, 3))
    assert representative_p_coeffs(t) == (Scalar(Fraction(1, 3)), Scalar(0), Scalar(1))
    assert t.p0 == triple(Scalar(Fraction(1, 3)))
    # the record holds n, r and p(0), and nothing that grows with r
    assert CoxeterFormalType.__slots__ == ("n", "r", "p0") and not hasattr(t, "__dict__")
    for name in ("n", "r", "p0"):
        with pytest.raises(AttributeError):
            setattr(t, name, 0)
    assert t == CoxeterFormalType(3, 2, triple(Scalar(Fraction(1, 3))))
    big = CoxeterFormalType(2, 4000001, 0)
    assert (big.n, big.r) == (2, 4000001) and big.p0 == as_triple(0)
    assert coxeter_matrix(3, 2, [0, 5, 1]) == series_add(
        series_scale(omega_power(3, -1), 5), omega_power(3, -2)
    )
    with pytest.raises(InputError, match=r"^need gcd\(r, n\) = 1, got r=4000000, n=2$"):
        CoxeterFormalType(2, 4000000, 1)  # gcd 2
    with pytest.raises(InputError, match="^need n >= 1 and r >= 1$"):
        CoxeterFormalType(0, 1, 1)
    with pytest.raises(InputError, match="^need n >= 1 and r >= 1$"):
        CoxeterFormalType(0, 2, 1)  # the size check comes before the gcd check


def test_coxeter_type_matrix():
    a = Fraction(5, 2)
    assert coxeter_matrix(2, 1, [0, a]) == series_scale(omega_power(2, -1), a)
    full = coxeter_matrix(3, 2, [7, 2, 1])
    # 7 + 2 omega_3^-1 + omega_3^-2, with omega_3^-1 = z^-1 E13 + E21 + E32
    # and omega_3^-2 = z^-1 (E12 + E23) + E31
    expect = laurent(3, {
        -1: mat_of([[0, 1, 2], [0, 0, 1], [0, 0, 0]]),
        0: mat_of([[7, 0, 0], [2, 7, 0], [1, 2, 7]]),
    })
    assert full == expect


def test_coxeter_type_slope_is_r_over_n():
    for n, r in [(2, 1), (3, 2), (2, 3), (5, 2), (4, 3)]:
        t = CoxeterFormalType(n, r, Fraction(1, 5))
        v = certify_slope(coxeter_matrix(n, r, representative_p_coeffs(t)))
        assert isinstance(v, CertifiedSlope)
        assert v.slope == Fraction(r, n)


def test_coxeter_canonical_type_materializes_and_validates():
    t = coxeter_canonical_type(3, 2, [Fraction(1, 2), 0, 1])
    assert t.p0 == triple(Scalar(Fraction(1, 2)))
    with pytest.raises(InputError):
        coxeter_canonical_type(4, 2, [1, 0, 1])
