import ast
from pathlib import Path

import pytest

import dskit
from dskit import cli, core, jsonio
from dskit import (
    InputError,
    LaurentMatrix,
    OrbitSpec,
    Quiver,
    UnramBlock,
    UnramFormalType,
)


def test_every_public_name_imported_by_the_package_is_exported():
    tree = ast.parse(Path(dskit.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert "residue_arm" in imported
    assert sorted(imported - set(dskit.__all__)) == []
    assert all(hasattr(dskit, name) for name in dskit.__all__)


# The Scalar matrix algebra that no decider runs lives in tests/exact_oracles.py:
# LaurentMatrix holds M of d + M dz/z over Z[i], and the deciders compute on Z[i].
# So do the second routes to an answer: the Coxeter dominance reading, a general
# p (CoxeterFormalType holds n, r and p(0)), the listed standard parahorics and
# the parahoric walk that carries no degrees.
# lambda is built as integer forms, so neither linalg nor rootsys reads a Scalar.
_NOT_PUBLIC = {
    dskit: ("CharPolySpec", "ds_generator", "standard_parahorics"),
    dskit.LaurentMatrix: ("__add__", "__sub__", "__neg__", "__mul__", "scale", "z_ddz",
                          "eq_mod", "_check_same_size", "_known_below",
                          "_effective_valuation", "zero", "monomial"),
    dskit.laurent: ("_INF",),
    dskit.linalg: ("mat_add", "mat_scale", "mat_mul", "mat_eq", "rank", "from_gaussian",
                   "identity", "dims", "copy_matrix", "is_zero_matrix", "gaussian", "zeros",
                   "Matrix", "Scalar", "ZERO"),
    dskit.rootsys: ("_lambda_numerators", "linalg", "Scalar", "ScalarLike"),
    # orbits hold integers, so no helper scales Scalar factors to them
    dskit.fuchsian: ("_integer_arms", "ScalarLike"),
    dskit.coxeter: ("CharPolySpec", "ds_generator"),
    dskit.formal: ("standard_parahorics", "_parahoric_walk", "Scalar", "ScalarLike"),
    dskit.CoxeterFormalType: ("matrix", "p_coeffs", "from_p0", "p_terms"),
    # a Gaussian rational has one integer form, the reduced triple of core.as_triple:
    # the Scalar views of an orbit and the Scalar cells of a document are oracles
    dskit.OrbitSpec: ("multiplicity", "from_cells", "blocks", "eigenvalues", "trace",
                      "determinant", "negated"),
    dskit.Scalar: ("is_integer", "sort_key"),
    core: ("_cell", "_fill", "ZERO", "weight"),
    jsonio: ("parse_scalar", "scalar_json", "Scalar", "ZERO", "Fraction"),
    cli: ("_factor",),
    dskit.unramified: ("Scalar", "ScalarLike"),
    # alpha is held as a vector aligned with the vertices, like lambda and L
    dskit.CBData: ("alpha_vector",),
}


def test_the_scalar_matrix_algebra_is_left_to_the_tests():
    present = [
        f"{owner.__name__}.{name}"
        for owner, names in _NOT_PUBLIC.items()
        for name in names
        if hasattr(owner, name)
    ]
    assert present == []


def _scalar_orbit(c):
    return OrbitSpec(1, [(c, (1,))])


_TYPE = UnramFormalType([UnramBlock([q], 1, _scalar_orbit(1)) for q in (1, -1)])
_NO_POLE = LaurentMatrix(2, {})

# each input is decided without a search, so a budget is never charged
_UNCHARGED = {
    # (1, 1) is not a root of two vertices without arrows
    "in_sigma_lambda": lambda b: dskit.in_sigma_lambda(Quiver([0, 1], []), (1, 1), ([0, 0], [0, 0], 1), b),
    # the eigenvalues sum to 2, so alpha . lambda != 0
    "fuchsian_rigidity": lambda b: dskit.fuchsian_rigidity([_scalar_orbit(1)] * 2, budget=b),
    "HiroeData.readings": lambda b: dskit.build_hiroe_data([_TYPE]).readings(b),
    # no pole, so no parahoric is scanned
    "certify_slope": lambda b: dskit.certify_slope(_NO_POLE, b),
}


@pytest.mark.parametrize("entry", sorted(_UNCHARGED))
def test_a_negative_budget_is_malformed_at_every_public_entry(entry):
    decide = _UNCHARGED[entry]
    with pytest.raises(InputError, match=r"^budget must be 0 or more, got -1$"):
        decide(-1)
    assert decide(0) == decide(None)
