"""The contract of the package's records, one named instance each.

Each record is a plain class with `__slots__` and no `__dict__`.  Two
records built alike are equal; changing any one compared field makes them
differ.  Frozen records hash alike when equal and refuse assignment and
deletion of every slot; `CBData` and `HiroeData` are mutable and unhashable.
A record whose fields hold a `LaurentMatrix` (a stratum and the slope
verdicts built on one) refuses to hash, as its matrix does.
"""

from fractions import Fraction

import pytest

from dskit.core import OrbitSpec
from dskit.coxeter import SimpleTypeQuery
from dskit.errors import InputError
from dskit.formal import (
    CertifiedSlope,
    CoxeterFormalType,
    RegularSingularCandidate,
    StandardParahoric,
    Stratum,
    UpperBoundOnly,
)
from dskit.frozen import Frozen
from dskit.fuchsian import CBData
from dskit.laurent import LaurentMatrix
from dskit.rootsys import Quiver
from dskit.unramified import HiroeData, UnramBlock, UnramFormalType


def _orbit():
    return OrbitSpec(3, [(Fraction(1, 2), (2,)), ((0, 1, 1), (1,))])


def _quiver():
    return Quiver([0, (1, 1), (2, 1)], [((1, 1), 0), ((2, 1), 0)])


def _stratum():
    # z^-1 E_13 at J = {0}: degree -1, so depth 1
    leading = LaurentMatrix(3, {-1: ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3, 1)})
    return Stratum(StandardParahoric(3, [0]), 1, leading)


def _block():
    return UnramBlock([1, (0, 1, 2)], 1, OrbitSpec(1, [(Fraction(1, 3), (1,))]))


# name: (build an instance, the compared fields with a value that differs)
RECORDS = {
    "OrbitSpec": (_orbit, {"n": 4, "den": 3, "re": (0, 5), "im": (1, 1), "parts": ((1,), (1, 1))}),
    "SimpleTypeQuery": (lambda: SimpleTypeQuery("b", 4, 3),
                        {"family": "D", "rank": 5, "r": 1}),
    "StandardParahoric": (lambda: StandardParahoric(4, [2, 0]), {"n": 5, "J": (0, 1)}),
    "Stratum": (_stratum, {"parahoric": StandardParahoric(3, [0, 1]), "depth_num": 2,
                           "leading": LaurentMatrix(3, {})}),
    "CertifiedSlope": (lambda: CertifiedSlope(Fraction(1, 3), _stratum()),
                       {"slope": Fraction(2, 3), "witness": None}),
    "UpperBoundOnly": (lambda: UpperBoundOnly(Fraction(1, 2), _stratum()),
                       {"bound": Fraction(1), "witness": None}),
    "RegularSingularCandidate": (RegularSingularCandidate, {}),
    "CoxeterFormalType": (lambda: CoxeterFormalType(3, 2, Fraction(-1, 3)),
                          {"n": 5, "r": 3, "p0": (1, 0, 3)}),
    "Quiver": (_quiver, {"vertices": (0, (1, 1), (2, 2)), "arrows": (((2, 1), 0),)}),
    "UnramBlock": (_block, {"q": ((1, 0, 1),), "dim": 2,
                            "residue": OrbitSpec(1, [(0, (1,))])}),
    "UnramFormalType": (lambda: UnramFormalType([_block()]), {"blocks": ()}),
    "CBData": (lambda: CBData(_quiver(), (2, 1, 1), ([0, 1, -1], [0, 0, 0], 3)),
               {"quiver": Quiver([0], []), "alpha": (2, 1, 0), "lam": ([0, 1, -1], [0, 0, 0], 5)}),
    "HiroeData": (lambda: HiroeData(_quiver(), (2, 1, 1), ([0, 1, -1], [0, 0, 0], 3), ((0, 1, -1),)),
                  {"quiver": Quiver([0], []), "alpha": (2, 1, 0),
                   "lam": ([0, 1, -1], [0, 0, 0], 5), "lattice_forms": ()}),
}
MUTABLE = {"CBData", "HiroeData"}
UNHASHABLE = {"Stratum", "CertifiedSlope", "UpperBoundOnly"}  # they hold a LaurentMatrix


def _slots(cls):
    return [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hashing_and_immutability(name):
    build, changes = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == b and not (a != b) and a is not b
    assert not hasattr(a, "__dict__")
    # every field takes part in ==: a copy with one slot changed differs
    for field, value in changes.items():
        c = build()
        object.__setattr__(c, field, value)
        assert c != a and a != c, field
    assert set(changes) <= set(_slots(type(a)))
    # a record of another type is never equal
    assert a != object() and (a == 1) is False
    if name in MUTABLE:
        assert not isinstance(a, Frozen)
        with pytest.raises(TypeError):
            hash(a)
        a.alpha = (9,)
        assert a.alpha == (9,) and a != b
        return
    assert isinstance(a, Frozen)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in _slots(type(a)):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_lists_the_compared_fields(name):
    build, changes = RECORDS[name]
    a = build()
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in changes)
    assert repr(a) == f"{name}({fields})"


def test_the_quiver_compares_vertices_and_arrows_only():
    a, b = _quiver(), _quiver()
    object.__setattr__(b, "_index", {})
    object.__setattr__(b, "_neighbours", ())
    assert a == b and hash(a) == hash(b)
    assert "_index" not in repr(a) and "_neighbours" not in repr(a)


def test_a_stratum_validates_its_leading_term_when_built():
    p = StandardParahoric(3, [0])
    e13 = LaurentMatrix(3, {-1: ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3, 1)})
    with pytest.raises(InputError, match="^leading term is not homogeneous of degree -2$"):
        Stratum(p, 2, e13)
    with pytest.raises(InputError, match="^leading term must be nonzero$"):
        Stratum(p, 1, LaurentMatrix(3, {}))
    with pytest.raises(InputError, match="^leading term size does not match the parahoric$"):
        Stratum(StandardParahoric(2, [0]), 1, e13)
    assert Stratum(p, 1, e13).depth == 1
