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
        # the walk's order is the sorted list of combinations, and its f the
        # nested loop over the steps of one period
        assert [p.J for p in ps] == parahoric_sets(n)
        assert [p._f for p in ps] == [nested_loop_f(n, p.J) for p in ps]
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
    # walks give equal verdicts, witnesses and messages, and build the same
    # strata in the same order
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
        assert one == built, m
        kind = want[0] if isinstance(want, tuple) else type(want).__name__
        if kind in ("CertifiedSlope", "UpperBoundOnly"):
            kind += " after one stratum" if len(one) == 1 else " after several"
        seen[kind] += 1
    # a certificate after several strata would need a nilpotent first tie and a
    # fundamental later one, which no seeded draw has shown
    assert set(seen) == {"RegularSingularCandidate", "TruncationError", "BudgetExceededError",
                         "CertifiedSlope after one stratum", "UpperBoundOnly after one stratum",
                         "UpperBoundOnly after several"}, seen
    assert min(seen.values()) >= 20, seen


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
