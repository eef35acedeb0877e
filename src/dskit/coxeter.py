"""Deligne-Simpson decisions for Coxeter-type connections on the line.

One irregular point with canonical form p(omega^{-1}) of slope r/n, one
regular-singular point with prescribed adjoint orbit: nonemptiness, the
rigidity dimension, and the rigid/not-rigid lookup for homogeneous types of
the classical families and E7.
"""

from __future__ import annotations

import operator
from math import gcd

from . import linalg
from .core import OrbitSpec, _int_str, as_int, orbit_dim
from .errors import InputError, ResonantError
from .formal import CoxeterFormalType, omega_power
from .frozen import Frozen


def coxeter_ds_decide(ftype: CoxeterFormalType, o: OrbitSpec) -> bool:
    """Nonemptiness for (formal type, orbit): the residue-trace condition
    n p(0) + Tr(O) = 0 together with at most r Jordan blocks per eigenvalue,
    which is O dominating the orbit of its own characteristic polynomial
    with the most balanced partition into at most r parts at each root.
    The trace condition is tested on integers over den(p0) * o.den."""
    if o.n != ftype.n:
        raise InputError(
            f"orbit lives in gl_{o.n} but the formal type has n = {ftype.n}"
        )
    if not o.is_nonresonant():
        raise ResonantError(
            "orbit eigenvalues must be pairwise distinct modulo Z"
        )
    re, im, den = ftype.p0
    w = [sum(part) for part in o.parts]
    if (ftype.n * re * o.den + sum(map(operator.mul, o.re, w)) * den
            or ftype.n * im * o.den + sum(map(operator.mul, o.im, w)) * den):
        return False
    return all(len(part) <= ftype.r for part in o.parts)


def _check_unipotent_filter(n: int, r: int, o: OrbitSpec) -> None:
    if n < 1 or r < 1:
        raise InputError("need n >= 1 and r >= 1")
    if o.n != n:
        raise InputError(f"orbit lives in gl_{o.n}, expected gl_{n}")
    if not o.is_nilpotent():
        raise InputError("orbit must be nilpotent")
    blocks = len(o.parts[0])
    if blocks > r:
        raise InputError(f"orbit has {blocks} Jordan blocks, outside the <= {r} filter")


def h1_dimension(n: int, r: int, o: OrbitSpec) -> int:
    """dim H^1 = dim(O) + (r - n - 1)(n - 1) for a nilpotent orbit with at
    most r blocks (slope r/n in lowest terms)."""
    _check_unipotent_filter(n, r, o)
    if gcd(r, n) != 1:
        raise InputError(f"need gcd(r, n) = 1, got r={r}, n={n}")
    val = orbit_dim(o) + (r - n - 1) * (n - 1)
    assert val >= 0, "the rigidity dimension is never negative on the filter"
    return val


def is_rigid_coxeter_gl(n: int, r: int, o: OrbitSpec) -> bool:
    """Rigidity in the unipotent-monodromy regime: gcd(r, n) = 1 and h^1 = 0.

    This is the closed rule, O balanced (dominance-least with <= r blocks)
    and r | n -+ 1.  For r <= n write n = k r + s, 0 <= s < r: the balanced
    orbit's dual partition is (r^k, s), so its h^1 is (s - 1)(r - 1 - s).
    dim O grows strictly with dominance, so on the filter h^1 = 0 iff O is
    balanced and s is 1 or r - 1, that is, r | n -+ 1.  For r > n the
    balanced orbit is 0, and h^1 = (r - n - 1)(n - 1) = 0 iff r = n + 1 or
    n = 1.  The gcd conjunct is needed: at r | n, r > 1, h^1 = 1 - r < 0 on
    the balanced orbit, and the closed rule is false whenever gcd(r, n) != 1."""
    _check_unipotent_filter(n, r, o)
    return gcd(r, n) == 1 and h1_dimension(n, r, o) == 0


_FAMILIES = ("A", "B", "C", "D", "E7")
_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 3, "E7": 7}


class SimpleTypeQuery(Frozen):
    """Row key for the homogeneous rigidity table: family, the rank parameter
    as the table prints it (family A_{n-1} is keyed by the matrix size n),
    and the slope numerator r."""

    __slots__ = ("family", "rank", "r")

    family: str
    rank: int
    r: int

    def __init__(self, family: str, rank: int, r: int):
        fam = str(family).upper()
        if fam not in _FAMILIES:
            raise InputError(
                f"unknown family {family!r}; expected one of {_FAMILIES}"
            )
        rank = as_int(rank, "rank")
        r = as_int(r, "r")
        if fam == "E7":
            if rank != 7:
                raise InputError("family E7 has rank 7")
        elif rank < _MIN_RANK[fam]:
            raise InputError(f"family {fam} needs rank >= {_MIN_RANK[fam]}")
        if r < 1:
            raise InputError(f"need r >= 1, got {r}")
        super().__init__(fam, rank, r)

    def coxeter_number(self) -> int:
        n = self.rank
        return {"A": n, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "E7": 18}[
            self.family
        ]


def rigid_table_readings(qy: SimpleTypeQuery) -> tuple[bool, bool]:
    """Rigidity of the homogeneous type of slope r/h, by the either-divisor
    and by the both-divisors reading of the comma-separated divisibility
    rows (families B and D); the other rows read the same both ways.  True
    when r = 1 or r = h + 1, false outside 1 <= r <= h + 1, and by the
    family row in between.
    """
    h = qy.coxeter_number()
    r = qy.r
    if gcd(r, h) != 1:
        raise InputError(
            f"slope numerator must be coprime to the Coxeter number: "
            f"gcd({r}, {_int_str(h)}) != 1"
        )
    n = qy.rank
    if r == 1 or r == h + 1:
        conds = (True,)
    elif not 1 < r < h:
        conds = (False,)
    elif qy.family == "A":
        conds = ((n - 1) % r == 0 or (n + 1) % r == 0,)
    elif qy.family == "C":
        conds = ((2 * n - 1) % r == 0 or (2 * n + 1) % r == 0,)
    elif qy.family == "E7":
        conds = (r == 7,)
    elif qy.family == "B":
        conds = ((n + 1) % r == 0, (2 * n + 1) % r == 0)
    else:  # D
        conds = ((2 * n) % r == 0, (2 * n - 1) % r == 0)
    return any(conds), all(conds)


def residue_representative(n: int, r: int) -> linalg.Gaussian:
    """The residue term of the homogeneous form omega^{-r} dz/z, the z^0
    coefficient of omega_power(n, -r), as a Z[i] triple over 1: ones on the
    r-th subdiagonal (the zero matrix once r >= n).  Its Jordan type is the
    balanced partition min_partition_with_r_parts(r, n)."""
    if n < 1 or r < 1:
        raise InputError("need n >= 1 and r >= 1")
    return omega_power(n, -r).coeff(0)
