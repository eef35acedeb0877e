import ast
import json
import os
import subprocess
import sys
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
# The Gaussian rational type with arithmetic is the oracle exact_oracles.Scalar:
# the package reads and writes reduced triples (core.parse_gaussian,
# core.gaussian_str).  core.Scalar is a name with no fields, no parser and no
# arithmetic, kept for the benchmark's tracer, which counts calls to its
# __init__ (core.scalars_created).
_NOT_PUBLIC = {
    dskit: ("CharPolySpec", "ds_generator", "standard_parahorics", "Scalar", "ScalarLike"),
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
    core.Scalar: ("is_integer", "sort_key", "re", "im", "parse", "of", "_TOKEN", "__add__",
                  "__sub__", "__mul__", "__truediv__", "__neg__", "__bool__"),
    core: ("_cell", "_fill", "ZERO", "weight", "ScalarLike", "Rational", "_scalar", "_set_re",
           "_set_im"),
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


_SRC = Path(dskit.__file__).resolve().parents[1]
_SCHEMA = "ds-kit/1"
# modules that only building a record or a signature needs, and that import
# dskit.cli must not load
_NOT_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# one valid request of every subcommand, on documents written by _documents
_REQUESTS = [
    ["fuchsian-ds", "--input", "{orbits}"],
    ["unramified-ds", "--input", "{types}"],
    ["coxeter-ds", "--n", "2", "--r", "1", "--p0=1/2-i", "--orbit", "{orbit}"],
    ["rigidity", "--n", "2", "--r", "1", "--orbit", "{orbit}"],
    ["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"],
    ["slope", "--matrix", "{matrix}"],
    ["normalize-regsing", "--matrix", "{regsing}", "--order", "3"],
    ["count-rank2", "--input", "{count}"],
    ["quiver-export", "--input", "{orbits}", "--out", "{dot}"],
]

_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import dskit.cli
loaded = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(dskit.cli.run(argv))
print(json.dumps({"new": sorted(loaded - before), "codes": codes,
                  "later": sorted(set(sys.modules) - loaded)}))
"""


def _documents(tmp_path):
    def cell(num, den=1):
        return [num, den, 0, 1]

    def orbit(n, blocks):
        return {"n": n, "blocks": [{"eig": e, "partition": p} for e, p in blocks]}

    def block(q, res):
        return {"q": q, "dim": res["n"], "residue": res}

    def entries(n, on):
        return [[cell(int(on(i, j))) for j in range(n)] for i in range(n)]

    nilp = orbit(2, [(cell(0), [2])])
    docs = {
        "orbits": {"orbits": [nilp] * 4},
        "orbit": {"orbit": nilp},
        "types": {"types": [{"blocks": [block([cell(1)], orbit(1, [(cell(0), [1])])),
                                        block([cell(-1)], orbit(1, [(cell(0), [1])]))]}]},
        "count": {"formal_type": {"blocks": [block([cell(1)], orbit(1, [(cell(1, 3), [1])])),
                                             block([cell(-1)], orbit(1, [(cell(1, 5), [1])]))]},
                  "orbit": orbit(2, [(cell(-1, 3), [1]), (cell(-1, 5), [1])])},
        # omega_3^-1 and diag(1/3, 0) + E_12 z
        "matrix": {"matrix": {"n": 3, "terms": [
            {"deg": -1, "entries": entries(3, lambda i, j: (i, j) == (0, 2))},
            {"deg": 0, "entries": entries(3, lambda i, j: i == j + 1)}]}},
        "regsing": {"matrix": {"n": 2, "terms": [
            {"deg": 0, "entries": [[cell(1, 3), cell(0)], [cell(0), cell(0)]]},
            {"deg": 1, "entries": entries(2, lambda i, j: i < j)}]}},
    }
    paths = {"dot": str(tmp_path / "q.dot")}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema": _SCHEMA, **doc}))
        paths[name] = str(path)
    return paths


def test_import_loads_every_module_a_request_runs_and_no_dataclass_machinery(tmp_path):
    # a fresh interpreter without site, as a console script starts: importing
    # dskit.cli loads every module of the package and none of the modules that
    # build dataclasses, and one valid request of each subcommand loads no
    # further module of the package, so no import is deferred into a request
    paths = _documents(tmp_path)
    argvs = [[a.format(**paths) for a in argv] for argv in _REQUESTS]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(_REQUESTS)
    package = {"dskit"} | {f"dskit.{f.stem}" for f in Path(dskit.__file__).parent.glob("*.py")
                           if f.stem != "__init__"}
    assert package - {"dskit.__main__"} <= set(got["new"])
    assert [m for m in got["later"] if m.split(".")[0] == "dskit"] == []
    assert [m for m in _NOT_AT_IMPORT if m in got["new"] or m in got["later"]] == []


def test_no_module_of_the_package_imports_inside_a_function():
    # every import is at module level, and no module has a PEP 562 __getattr__
    for path in sorted(Path(dskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        nested = [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
        assert nested == [], nested
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "__getattr__" not in names, path.name
