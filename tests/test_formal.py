import itertools
import random
import time
from fractions import Fraction

import pytest

from dskit import linalg
from dskit.core import Scalar
from dskit.errors import BudgetExceededError, InputError, ResonantError, TruncationError
from dskit.formal import (
    CertifiedSlope,
    CoxeterFormalType,
    FormalConnection,
    RegularSingularCandidate,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
    certify_slope,
    coxeter_canonical_type,
    is_fundamental,
    leading_stratum,
    omega_power,
    regsing_normalize,
    standard_parahorics,
)
from dskit.laurent import LaurentMatrix
from dskit.rootsys import DEFAULT_BUDGET
from exact_oracles import echelon_solve, filtration_degree, is_nonresonant, mat_of, one, power

mono = LaurentMatrix.monomial


def _conn(m):
    return FormalConnection(m)


def _diag(*entries):
    n = len(entries)
    acc = LaurentMatrix.zero(n)
    for i, x in enumerate(entries, start=1):
        if x:
            acc = acc + mono(n, 0, i, i, x)
    return acc


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
    assert p.block_sizes() == (2, 2)
    assert StandardParahoric.iwahori(3).J == (0, 1, 2)
    assert StandardParahoric.maximal(3).J == (0,)
    assert StandardParahoric.iwahori(4).block_sizes() == (1, 1, 1, 1)


def test_standard_parahorics_enumeration():
    for n in range(1, 6):
        ps = standard_parahorics(n)
        assert len(ps) == 2 ** (n - 1)
        js = [p.J for p in ps]
        assert js == sorted(js)
        assert js[0] == (0,)
    assert [p.J for p in standard_parahorics(3)] == [(0,), (0, 1), (0, 1, 2), (0, 2)]


def test_lattice_exponents_iwahori_chain():
    p = StandardParahoric.iwahori(2)
    # L^0 = o + o, L^1 = o + z o, L^2 = z L^0
    assert [p.lattice_exponent(0, i) for i in (1, 2)] == [0, 0]
    assert [p.lattice_exponent(1, i) for i in (1, 2)] == [0, 1]
    assert [p.lattice_exponent(2, i) for i in (1, 2)] == [1, 1]
    assert [p.lattice_exponent(-1, i) for i in (1, 2)] == [-1, 0]
    with pytest.raises(InputError):
        p.lattice_exponent(0, 3)


def test_iwahori_degree_closed_form():
    for n in (2, 3, 4):
        p = StandardParahoric.iwahori(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for k in (-2, -1, 0, 1):
                    assert p.graded_degree(a, b, k) == k * n + (b - a)
    p3 = StandardParahoric.iwahori(3)
    assert p3.graded_degree(1, 3, -1) == -1
    assert p3.graded_degree(1, 2, -1) == -2
    assert p3.graded_degree(2, 3, -1) == -2


def test_maximal_degree_is_z_exponent():
    p = StandardParahoric.maximal(3)
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


FG2 = mono(2, -1, 1, 2, 1) + mono(2, 0, 2, 1, 1)


def test_stratum_validation():
    iw = StandardParahoric.iwahori(2)
    s = Stratum(iw, 1, FG2)
    assert s.depth == Fraction(1, 2)
    with pytest.raises(InputError):  # not homogeneous: E11 z^-1 has degree -2
        Stratum(iw, 1, FG2 + mono(2, -1, 1, 1, 1))
    with pytest.raises(InputError):
        Stratum(iw, 1, LaurentMatrix.zero(2))
    with pytest.raises(InputError):
        Stratum(StandardParahoric.maximal(3), 1, FG2)


def test_is_fundamental():
    iw = StandardParahoric.iwahori(2)
    assert is_fundamental(Stratum(iw, 1, FG2))  # square is z^-1 I
    assert not is_fundamental(Stratum(iw, 1, mono(2, -1, 1, 2, 1)))
    gl = StandardParahoric.maximal(2)
    assert is_fundamental(Stratum(gl, 1, mono(2, -1, 1, 1, 1) + mono(2, -1, 2, 2, 2)))
    # scalar z^-1 leading term is as fundamental as it gets
    assert is_fundamental(Stratum(gl, 1, LaurentMatrix(2, {-1: linalg.identity(2)})))


def test_leading_stratum_selects_minimal_degree():
    iw = StandardParahoric.iwahori(2)
    m = FG2 + mono(2, 0, 1, 1, 5)  # E11 has degree 0, off the leading part
    s = leading_stratum(iw, _conn(m))
    assert s.depth_num == 1
    assert s.leading == FG2
    gl = StandardParahoric.maximal(2)
    s2 = leading_stratum(gl, _conn(m))
    assert s2.depth_num == 1
    assert s2.leading == mono(2, -1, 1, 2, 1)
    assert not is_fundamental(s2)


def test_leading_stratum_builds_one_matrix_per_degree(monkeypatch):
    n = 4
    m = LaurentMatrix(n, {-1: [[Scalar(i + j + 1) for j in range(n)] for i in range(n)]})
    built = []
    zeros = linalg.zeros
    monkeypatch.setattr(linalg, "zeros", lambda *shape: built.append(shape) or zeros(*shape))
    s = leading_stratum(StandardParahoric.maximal(n), _conn(m))
    assert s.leading == m
    assert built == [(n, n)]  # 16 monomials of minimal degree, all at z^-1


def test_leading_stratum_guards():
    iw = StandardParahoric.iwahori(2)
    with pytest.raises(InputError):
        leading_stratum(iw, _conn(LaurentMatrix.zero(2)))
    with pytest.raises(InputError):
        leading_stratum(StandardParahoric.maximal(3), _conn(FG2))
    # an unknown z^1 coefficient could reach the same degree as E12 z^0
    m = LaurentMatrix(2, {0: [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]}, trunc=1)
    with pytest.raises(TruncationError):
        leading_stratum(iw, _conn(m))


# ---------------------------------------------------------------------------
# slope certification
# ---------------------------------------------------------------------------


def test_certify_slope_cyclic_powers():
    for n in range(2, 6):
        for k in range(1, n + 2):
            v = certify_slope(_conn(omega_power(n, -k)))
            assert isinstance(v, CertifiedSlope)
            assert v.slope == Fraction(k, n)
            assert is_fundamental(v.witness)
            assert v.witness.depth == v.slope


def test_certify_slope_diagonal_leading():
    m = mono(3, -2, 1, 1, 1) + mono(3, -2, 2, 2, 2) + mono(3, -2, 3, 3, 3) \
        + mono(3, -1, 1, 2, 1) + mono(3, -1, 3, 1, 4)
    v = certify_slope(_conn(m))
    assert isinstance(v, CertifiedSlope)
    assert v.slope == 2
    assert v.witness.parahoric.J == (0,)


def test_certify_slope_regular_singular_candidates():
    assert isinstance(certify_slope(_conn(LaurentMatrix.zero(2))), RegularSingularCandidate)
    assert isinstance(certify_slope(_conn(_diag(1, Fraction(1, 2)))), RegularSingularCandidate)
    m = _diag(1, 2) + mono(2, 3, 1, 2, 1)
    assert isinstance(certify_slope(_conn(m)), RegularSingularCandidate)


def test_certify_slope_nilpotent_pole_gives_upper_bound():
    v = certify_slope(_conn(mono(2, -1, 1, 2, 1)))
    assert isinstance(v, UpperBoundOnly)
    assert v.bound == Fraction(1, 2)
    assert v.witness.parahoric.J == (0, 1)
    assert not is_fundamental(v.witness)


def test_certify_slope_charges_every_parahoric_to_the_budget():
    c = _conn(mono(5, -1, 1, 5, 1))
    want = certify_slope(c)
    got = certify_slope(c, budget=16)
    assert (got.bound, got.witness.parahoric.J) == (want.bound, want.witness.parahoric.J)
    with pytest.raises(BudgetExceededError, match="16 standard parahorics"):
        certify_slope(c, budget=15)
    # without a pole nothing is scanned, so nothing is charged
    assert isinstance(certify_slope(_conn(_diag(1, 2, 3)), budget=0), RegularSingularCandidate)
    # 2^21 parahorics at n = 22 exceed the default budget before any is built
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="2097152 standard parahorics"):
        certify_slope(_conn(mono(22, -1, 1, 22, 1)), budget=DEFAULT_BUDGET)
    assert time.perf_counter() - t0 < 0.1


def test_certify_slope_defaults_to_the_default_budget():
    # the 2^21 parahorics at n = 22 do not fit the budget a bare call gets
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="exceeded budget of 2000000"):
        certify_slope(_conn(mono(22, -1, 1, 22, 1)))
    assert time.perf_counter() - t0 < 0.1


def test_certify_slope_truncation_guard():
    m = LaurentMatrix(2, {-1: linalg.identity(2)}, trunc=0)
    with pytest.raises(TruncationError):
        certify_slope(_conn(m))
    # known through z^0 is enough for a depth-1 certificate
    ok = LaurentMatrix(2, {-1: linalg.identity(2)}, trunc=1)
    v = certify_slope(_conn(ok))
    assert isinstance(v, CertifiedSlope) and v.slope == 1


def test_fundamental_depths_agree_across_parahorics():
    cases = [omega_power(n, -k) for n in (2, 3, 4) for k in range(1, n + 2)]
    cases.append(mono(3, -2, 1, 1, 1) + mono(3, -2, 2, 2, 2) + mono(3, -2, 3, 3, 3))
    for m in cases:
        v = certify_slope(_conn(m))
        assert isinstance(v, CertifiedSlope)
        strata = [leading_stratum(p, _conn(m)) for p in standard_parahorics(m.n)]
        depths = {s.depth for s in strata if is_fundamental(s)}
        assert depths == {v.slope}
        # a fundamental stratum attains the least depth over all parahorics
        assert min(s.depth for s in strata) == v.slope


def _laurent_fundamental(s):
    return not power(s.leading, s.leading.n).is_zero()


def _full_scan(c):
    """Slope certification by brute force, kept as the oracle for the pruned
    scan: the leading stratum at every standard parahoric, with the Laurent
    power beta^n as nilpotency test.  Returns the verdict and the strata."""
    m = c.matrix
    v = m.valuation()
    if v is None or v >= 0:
        return RegularSingularCandidate(), []
    strata = [leading_stratum(p, c) for p in standard_parahorics(m.n)]
    fundamental = [s for s in strata if _laurent_fundamental(s)]
    if fundamental:
        return CertifiedSlope(fundamental[0].depth, fundamental[0]), strata
    least = min(s.depth for s in strata)
    return UpperBoundOnly(least, next(s for s in strata if s.depth == least)), strata


def _random_connection(rng):
    n = rng.randint(1, 5)
    pole = rng.randint(0, 3)
    density = rng.choice([0.2, 0.35, 0.5])
    # a strictly upper triangular leading coefficient is nilpotent at the
    # maximal parahoric, so the scan has to look past J = (0,)
    upper = rng.random() < 0.4
    coeffs = {}
    for k in range(-pole, 2):
        mat = linalg.zeros(n, n)
        for i in range(n):
            for j in range(n):
                if (k == -pole and upper and j <= i) or rng.random() >= density:
                    continue
                mat[i][j] = Scalar(rng.choice([-2, -1, 1, 2]), rng.choice([0] * 5 + [1]))
        coeffs[k] = mat
    return _conn(LaurentMatrix(n, coeffs))


def test_certify_slope_matches_full_scan_oracle():
    rng = random.Random(2013)
    kinds = {CertifiedSlope: 0, UpperBoundOnly: 0, RegularSingularCandidate: 0}
    past_first = 0
    for _ in range(300):
        c = _random_connection(rng)
        want, strata = _full_scan(c)
        got = certify_slope(c)
        assert got == want  # slope or bound, and witness J, depth_num, leading
        for s in strata:
            assert is_fundamental(s) == _laurent_fundamental(s)
        kinds[type(want)] += 1
        if isinstance(want, CertifiedSlope) and want.witness.parahoric.J != (0,):
            past_first += 1
    assert min(kinds.values()) >= 20 and past_first >= 20, (kinds, past_first)


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
    b0 = _diag(0, Fraction(1, 2))
    m = b0 + mono(2, 1, 1, 2, 1)
    g = regsing_normalize(_conn(m), 4)
    assert g.coeff(0) == linalg.identity(2)
    assert g.coeff(1)[0][1] == Scalar(2)
    assert sum(1 for _ in LaurentMatrix(2, {1: g.coeff(1)}).monomials()) == 1
    assert g.coeff(2) == linalg.zeros(2, 2)
    assert g.coeff(3) == linalg.zeros(2, 2)
    assert g.trunc == 4


def test_regsing_normalize_without_higher_terms_is_identity():
    b0 = _diag(Fraction(1, 3), Fraction(1, 7))
    g = regsing_normalize(_conn(b0), 5)
    assert g.eq_mod(one(2), 5)


def _substitution_holds(m, g, order):
    b0 = LaurentMatrix(m.n, {0: m.coeff(0)})
    return (g * m - g.z_ddz()).eq_mod(b0 * g, order)


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
        m = LaurentMatrix(n, coeffs)
        g = regsing_normalize(_conn(m), order)
        assert _substitution_holds(m, g, order)


def test_regsing_normalize_substitution_identity_nondiagonal_residue():
    b0 = LaurentMatrix(2, {0: [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(Fraction(1, 2))]]})
    m = b0 + mono(2, 1, 2, 1, 3) + mono(2, 2, 1, 1, 1)
    g = regsing_normalize(_conn(m), 6)
    assert _substitution_holds(m, g, 6)


def test_regsing_normalize_errors():
    with pytest.raises(InputError):
        regsing_normalize(_conn(_diag(0, Fraction(1, 2))), 0)
    with pytest.raises(InputError):  # genuine pole
        regsing_normalize(_conn(mono(2, -1, 1, 2, 1)), 3)
    resonant = _diag(0, 1) + mono(2, 1, 1, 2, 1)
    with pytest.raises(ResonantError, match="differ by 1"):
        regsing_normalize(_conn(resonant), 3)
    wide = _diag(0, 2) + mono(2, 2, 1, 2, 1)  # obstruction enters at k = 2
    with pytest.raises(ResonantError, match="differ by 2"):
        regsing_normalize(_conn(wide), 3)
    # resonance only matters up to the requested order
    g = regsing_normalize(_conn(wide), 2)
    assert g.coeff(1) == linalg.zeros(2, 2)
    truncated = LaurentMatrix(2, {0: linalg.zeros(2, 2)}, trunc=2)
    with pytest.raises(TruncationError):
        regsing_normalize(_conn(truncated), 3)


def test_regsing_normalize_resonant_residue_with_consistent_steps_gets_a_gauge():
    # the eigenvalues 0 and 1 differ by 1, but with no higher terms every step
    # is consistent; its free coordinates are set to zero, giving the identity
    g = regsing_normalize(_conn(_diag(0, 1)), 4)
    assert g.eq_mod(one(2), 4)
    assert g.trunc == 4


def test_regsing_normalize_resonant_residue_raises_at_an_inconsistent_step():
    ones = LaurentMatrix(2, {1: mat_of([[1, 1], [1, 1]])})
    with pytest.raises(ResonantError, match="differ by 1"):
        regsing_normalize(_conn(_diag(0, 1) + ones), 4)


def test_regsing_normalize_resonant_gap_with_vanishing_obstruction():
    # eigenvalue gap 2, but the z^2 obstruction cancels: the gauge exists
    m = _diag(0, 2) + mono(2, 1, 1, 2, 1)
    g = regsing_normalize(_conn(m), 4)
    assert g.coeff(1)[0][1] == Scalar(-1)
    assert _substitution_holds(m, g, 4)


def _random_regsing(rng, n, order, kind):
    """An upper-triangular residue with Gaussian-integer coefficients below
    the order.  "generic": distinct eigenvalues, some non-real, no two
    differing by an integer; "resonant": some pairs differ by 1 or 2;
    "diagonal": resonant, but every coefficient is diagonal, so each singular
    step is consistent and its free coordinates are set to zero."""
    pool = [Scalar(Fraction(k, 7)) for k in range(-3, 4)] + [
        Scalar(0, 1), Scalar(Fraction(1, 7), Fraction(-2, 7))]
    eigs = rng.sample(pool, n)
    if kind != "generic":
        eigs[rng.randrange(n)] = eigs[0] + rng.choice([1, 2])
    residue = [[eigs[i] if i == j else Scalar(rng.randint(-2, 2)) if j > i and kind != "diagonal"
                else Scalar(0) for j in range(n)] for i in range(n)]
    coeffs = {0: residue}
    for k in range(1, order):
        coeffs[k] = [[Scalar(rng.randint(-3, 3), rng.choice([0, 0, 0, 1]))
                      if i == j or kind != "diagonal" else Scalar(0)
                      for j in range(n)] for i in range(n)]
    return LaurentMatrix(n, coeffs)


def _gauge_or_error(m, order):
    try:
        return regsing_normalize(_conn(m), order)
    except ResonantError as exc:
        return str(exc)


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
    got = [_gauge_or_error(m, order) for m, order in inputs]
    monkeypatch.setattr(linalg, "solve", echelon_solve)
    want = [_gauge_or_error(m, order) for m, order in inputs]
    assert got == want
    raised = sum(isinstance(g, str) for g in got)
    assert 2 <= raised <= len(got) - 13, got


# ---------------------------------------------------------------------------
# the cyclic uniformizer and Coxeter canonical types
# ---------------------------------------------------------------------------


def test_omega_power_identities():
    for n in (1, 2, 3, 5):
        zi = LaurentMatrix(n, {1: linalg.identity(n)})
        assert omega_power(n, n) == zi
        assert omega_power(n, 0) == one(n)
        assert power(omega_power(n, 1), n) == zi
        for k, l in [(-1, 1), (2, 3), (-4, 7), (-2, -3)]:
            assert omega_power(n, k) * omega_power(n, l) == omega_power(n, k + l)


def test_omega_minus_one_layout():
    w = omega_power(3, -1)
    assert list(w.monomials()) == [
        (-1, 1, 3, Scalar(1)),
        (0, 2, 1, Scalar(1)),
        (0, 3, 2, Scalar(1)),
    ]


def test_coxeter_type_validation():
    with pytest.raises(InputError):
        CoxeterFormalType(4, 2, [1, 0, 1])  # gcd 2
    with pytest.raises(InputError):
        CoxeterFormalType(3, 2, [1, 1])  # wrong length
    with pytest.raises(InputError):
        CoxeterFormalType(3, 2, [1, 1, 0])  # leading zero
    with pytest.raises(InputError):
        CoxeterFormalType(0, 1, [0, 1])
    t = CoxeterFormalType.from_p0(3, 2, Fraction(1, 3))
    assert t.p_coeffs == (Scalar(Fraction(1, 3)), Scalar(0), Scalar(1))
    assert t.p0 == Scalar(Fraction(1, 3))
    assert t.p_terms == ((0, Scalar(Fraction(1, 3))), (2, Scalar(1)))
    big = CoxeterFormalType.from_p0(2, 4000001, 0)
    assert big.p_terms == ((4000001, Scalar(1)),) and big.p0 == 0
    assert CoxeterFormalType(3, 2, [0, 5, 1]).p_terms == ((1, Scalar(5)), (2, Scalar(1)))
    with pytest.raises(InputError):
        CoxeterFormalType.from_p0(2, 4000000, 1)  # gcd 2
    with pytest.raises(InputError):
        CoxeterFormalType.from_p0(0, 1, 1)


def test_coxeter_type_matrix():
    a = Fraction(5, 2)
    t = CoxeterFormalType(2, 1, [0, a])
    assert t.matrix() == omega_power(2, -1).scale(a)
    full = CoxeterFormalType(3, 2, [7, 2, 1])
    expect = one(3).scale(7) + omega_power(3, -1).scale(2) + omega_power(3, -2)
    assert full.matrix() == expect


def test_coxeter_type_slope_is_r_over_n():
    for n, r in [(2, 1), (3, 2), (2, 3), (5, 2), (4, 3)]:
        t = CoxeterFormalType.from_p0(n, r, Fraction(1, 5))
        v = certify_slope(_conn(t.matrix()))
        assert isinstance(v, CertifiedSlope)
        assert v.slope == Fraction(r, n)


def test_coxeter_canonical_type_materializes_and_validates():
    t = coxeter_canonical_type(3, 2, [Fraction(1, 2), 0, 1])
    assert t.p0 == Scalar(Fraction(1, 2))
    with pytest.raises(InputError):
        coxeter_canonical_type(4, 2, [1, 0, 1])
