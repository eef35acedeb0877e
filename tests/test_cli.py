import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dskit import cli
from dskit.cli import _build_parser, run
from dskit.errors import InputError
from dskit.rootsys import DEFAULT_BUDGET
from exact_oracles import Scalar, ZERO, parse_scalar, scalar_gauge_json

SCHEMA = "ds-kit/1"


def _sc(num, den=1):
    return [num, den, 0, 1]


def _orbit(n, blocks):
    return {
        "n": n,
        "blocks": [{"eig": eig, "partition": list(part)} for eig, part in blocks],
    }


NILP2 = _orbit(2, [(_sc(0), (2,))])

D4_GENERIC = [
    _orbit(2, [(_sc(1, 7), (1,)), (_sc(2, 7), (1,))]),
    _orbit(2, [(_sc(3, 7), (1,)), (_sc(4, 7), (1,))]),
    _orbit(2, [(_sc(-3, 7), (1,)), (_sc(-1), (1,))]),
]

WITNESS_TYPES = [
    {
        "blocks": [
            {"q": [_sc(1)], "dim": 1, "residue": _orbit(1, [(_sc(1, 3), (1,))])},
            {"q": [_sc(-1)], "dim": 1, "residue": _orbit(1, [(_sc(2, 3), (1,))])},
        ]
    },
    {
        "blocks": [
            {"q": [], "dim": 2,
             "residue": _orbit(2, [(_sc(-1, 3), (1,)), (_sc(-2, 3), (1,))])}
        ]
    },
]


def _write(tmp_path, name, **fields):
    doc = {"schema": SCHEMA, **fields}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _least_time(call, times=5):
    """The least wall time of `times` calls of call, and their results: one
    host stall cannot fail a time bound, and each result is still checked."""
    seconds, results = [], []
    for _ in range(times):
        t0 = time.perf_counter()
        results.append(call())
        seconds.append(time.perf_counter() - t0)
    return min(seconds), results


def _verdict(capsys, argv, code):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    v = json.loads(captured.out)
    assert v["schema"] == SCHEMA
    assert set(v) == {"schema", "command", "inputs_digest", "result", "notes"}
    assert isinstance(v["inputs_digest"], str) and len(v["inputs_digest"]) == 64
    return v


def _error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


# ---------------------------------------------------------------------------
# fuchsian-ds
# ---------------------------------------------------------------------------


def test_fuchsian_ds_generic_triple(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    v = _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    assert v["command"] == "fuchsian-ds"
    assert v["result"] == {"exists": True, "rigidity": "RigidSingleton"}
    assert v["notes"] == []


def test_fuchsian_ds_empty_verdict(tmp_path, capsys):
    path = _write(tmp_path, "nilp3.json", orbits=[NILP2] * 3)
    v = _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    assert v["result"] == {"exists": False, "rigidity": "Empty"}


def test_fuchsian_ds_infinite_verdict(tmp_path, capsys):
    path = _write(tmp_path, "nilp4.json", orbits=[NILP2] * 4)
    v = _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    assert v["result"] == {"exists": True, "rigidity": "Infinite"}


def test_fuchsian_ds_budget_exhaustion(tmp_path, capsys):
    big = _orbit(4, [(_sc(0), (2, 2))])
    path = _write(tmp_path, "big.json", orbits=[big] * 4)
    v = _verdict(capsys, ["fuchsian-ds", "--input", path, "--budget", "10"], 3)
    assert v["result"]["kind"] == "Inconclusive"
    assert "budget" in v["result"]["reason"]
    assert v["notes"]


def test_fuchsian_ds_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    assert run(["fuchsian-ds", "--input", path]) == 0
    first = capsys.readouterr().out
    assert run(["fuchsian-ds", "--input", path]) == 0
    assert capsys.readouterr().out == first


def test_fuchsian_ds_rejects_empty_orbit_list(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", orbits=[])
    err = _error(capsys, ["fuchsian-ds", "--input", path])
    assert "orbits" in err


def test_fuchsian_ds_field_errors_carry_paths(tmp_path, capsys):
    bad = {"n": 2, "blocks": [{"eig": [1, 0, 0, 1], "partition": [2]}]}
    path = _write(tmp_path, "bad.json", orbits=[bad])
    err = _error(capsys, ["fuchsian-ds", "--input", path])
    assert "orbits[0].blocks[0].eig" in err


def test_fuchsian_ds_with_explicit_sequences(tmp_path, capsys):
    doc_orbits = [
        _orbit(2, [(_sc(0), (2,))]),
        _orbit(2, [(_sc(0), (2,))]),
        _orbit(2, [(_sc(0), (2,))]),
    ]
    seqs = [[_sc(0), _sc(0)]] * 3
    path = _write(tmp_path, "seq.json", orbits=doc_orbits, sequences=seqs)
    v = _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    assert v["result"]["exists"] is False
    short = _write(tmp_path, "short.json", orbits=doc_orbits, sequences=seqs[:2])
    _error(capsys, ["fuchsian-ds", "--input", short])


# ---------------------------------------------------------------------------
# unramified-ds
# ---------------------------------------------------------------------------


def test_unramified_ds_flag_sensitivity_both_directions(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    note = ("flag-sensitive: the parts>=3 reading gives True, the parts>=2 "
            "reading (--flag ell-ge-2) gives False; this verdict follows the {} reading")
    v = _verdict(capsys, ["unramified-ds", "--input", path], 0)
    assert v["result"] == {"exists": True}
    assert v["notes"] == [note.format("parts>=3")]

    v2 = _verdict(capsys, ["unramified-ds", "--input", path, "--flag", "ell-ge-2"], 0)
    assert v2["result"] == {"exists": False}
    assert v2["notes"] == [note.format("parts>=2")]
    assert v2["inputs_digest"] == v["inputs_digest"]  # flags are not inputs


def test_unramified_ds_agreeing_modes_have_no_note(tmp_path, capsys):
    lone = [WITNESS_TYPES[0]]
    path = _write(tmp_path, "lone.json", types=lone)
    v = _verdict(capsys, ["unramified-ds", "--input", path], 0)
    assert v["result"] == {"exists": False}
    assert v["notes"] == []


# Tensoring with a rank-1 connection whose only pole is a double pole at the
# first point is an equivalence that keeps irreducibility, so one block with
# q = (1,) and residue R_0, followed by regular types R_1 ... R_k, must answer
# as `fuchsian-ds` does on (R_0, ..., R_k).  On these four orbits at n = 4,
# each one eigenvalue with its Jordan type, the parts>=2 reading does and the
# parts>=3 reading does not.
TWIST_ORBITS = [
    _orbit(4, [(_sc(-6), (3, 1))]),
    _orbit(4, [(_sc(-1), (2, 1, 1))]),
    _orbit(4, [(_sc(-4), (3, 1))]),
    _orbit(4, [(_sc(11), (3, 1))]),
]
TWIST_TYPES = [{"blocks": [{"q": [_sc(1)], "dim": 4, "residue": TWIST_ORBITS[0]}]}] + [
    {"blocks": [{"q": [], "dim": 4, "residue": r}]} for r in TWIST_ORBITS[1:]
]


def test_rank1_twist_of_a_fuchsian_tuple_is_flag_sensitive(tmp_path, capsys):
    orbits = _write(tmp_path, "orbits.json", orbits=TWIST_ORBITS)
    v = _verdict(capsys, ["fuchsian-ds", "--input", orbits], 0)
    assert v["result"] == {"exists": False, "rigidity": "Empty"}
    assert v["notes"] == []

    types = _write(tmp_path, "twist.json", types=TWIST_TYPES)
    note = ("flag-sensitive: the parts>=3 reading gives True, the parts>=2 "
            "reading (--flag ell-ge-2) gives False; this verdict follows the {} reading")
    v = _verdict(capsys, ["unramified-ds", "--input", types], 0)
    assert v["result"] == {"exists": True}
    assert v["notes"] == [note.format("parts>=3")]
    v = _verdict(capsys, ["unramified-ds", "--input", types, "--flag", "ell-ge-2"], 0)
    assert v["result"] == {"exists": False}
    assert v["notes"] == [note.format("parts>=2")]


# n = 4: type 0 has a block with q = z^-2, dimension 3 and residue -2 (1),
# 5/3 (1,1), and a block with q = z^-1, dimension 1 and residue -2 (1); type 1
# is regular with residue 1/6 (2,2).  alpha = (3, 1, 2, 2) is a real root with
# p = 0.  L has no form, and the parts>=2 reading finds (1,1,1,1), an
# imaginary root with p = 1, and (2,0,1,1), which is not a root, with p = -1:
# their p-sum is p(alpha).  Type 1 has no base vertex, so its -eta^1 = -1/6 is
# added to lambda at both base vertices of type 0.
N4_WITNESS_TYPES = [
    {"blocks": [
        {"q": [_sc(0), _sc(1)], "dim": 3,
         "residue": _orbit(3, [(_sc(-2), (1,)), (_sc(5, 3), (1, 1))])},
        {"q": [_sc(1)], "dim": 1, "residue": _orbit(1, [(_sc(-2), (1,))])},
    ]},
    {"blocks": [{"q": [], "dim": 4, "residue": _orbit(4, [(_sc(1, 6), (2, 2))])}]},
]


def test_n4_witness_is_flag_sensitive_through_non_root_parts(tmp_path, capsys):
    path = _write(tmp_path, "n4.json", types=N4_WITNESS_TYPES)
    note = ("flag-sensitive: the parts>=3 reading gives True, the parts>=2 "
            "reading (--flag ell-ge-2) gives False; this verdict follows the {} reading")
    v = _verdict(capsys, ["unramified-ds", "--input", path], 0)
    assert v["result"] == {"exists": True}
    assert v["notes"] == [note.format("parts>=3")]
    v = _verdict(capsys, ["unramified-ds", "--input", path, "--flag", "ell-ge-2"], 0)
    assert v["result"] == {"exists": False}
    assert v["notes"] == [note.format("parts>=2")]
    assert run(["quiver-export", "--input", path]) == 0
    nodes = [line for line in capsys.readouterr().out.splitlines() if "label=" in line]
    assert nodes == [
        '  "[0,1]" [label="[0,1]\\nalpha=3\\nlambda=11/6"];',
        '  "[0,2]" [label="[0,2]\\nalpha=1\\nlambda=11/6"];',
        '  "[0,1,1]" [label="[0,1,1]\\nalpha=2\\nlambda=-11/3"];',
        '  "[1,1,1]" [label="[1,1,1]\\nalpha=2\\nlambda=0"];',
    ]


def test_unramified_ds_requires_irregular_first(tmp_path, capsys):
    path = _write(tmp_path, "rev.json", types=[WITNESS_TYPES[1], WITNESS_TYPES[0]])
    err = _error(capsys, ["unramified-ds", "--input", path])
    assert "irregular" in err


# The witness box 0 <= beta <= alpha holds 8 vectors, and the table of best
# p-sums takes 4 steps: from the empty sum to each of the two candidates, and
# from each candidate to alpha.  Both readings are read off that one table,
# so a budget of 12 decides both and a budget of 11 neither.


def test_unramified_ds_budget_covers_both_readings_or_neither(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    argv = ["unramified-ds", "--input", path, "--flag", "ell-ge-2", "--budget"]
    v = _verdict(capsys, argv + ["12"], 0)
    assert v["result"] == {"exists": False}
    assert v["notes"] == [
        "flag-sensitive: the parts>=3 reading gives True, the parts>=2 reading "
        "(--flag ell-ge-2) gives False; this verdict follows the parts>=2 reading"
    ]
    v = _verdict(capsys, argv + ["11"], 3)
    reason = "decomposition search exceeded budget of 3 nodes"
    assert v["result"] == {"kind": "Inconclusive", "reason": reason}
    assert v["notes"] == [reason]


def test_unramified_ds_budget_below_box_is_inconclusive(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    v = _verdict(capsys, ["unramified-ds", "--input", path, "--budget", "7"], 3)
    reason = "lattice-point enumeration exceeded budget of 7"
    assert v["result"] == {"kind": "Inconclusive", "reason": reason}
    assert v["notes"] == [reason]


# The Kronecker quiver with alpha = 1000 delta: two blocks of dim 1000 whose
# q differ in the z^-3 term, with scalar residues 1 and -1.  The candidates
# are k delta for k < 1000, and the enumeration of decompositions recursed
# once per part, past the interpreter's stack.


def test_unramified_ds_deep_alpha_decides_without_a_traceback(tmp_path):
    types = [{"blocks": [
        {"q": [_sc(0), _sc(0), _sc(c)], "dim": 1000,
         "residue": _orbit(1000, [(_sc(r), (1,) * 1000)])}
        for c, r in ((1, 1), (2, -1))
    ]}]
    path = _write(tmp_path, "kronecker.json", types=types)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dskit.cli", "unramified-ds", "--input", path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    v = json.loads(proc.stdout)
    assert v["result"] == {"exists": False}
    assert v["notes"] == []


# ---------------------------------------------------------------------------
# coxeter-ds and rigidity
# ---------------------------------------------------------------------------


def test_coxeter_ds(tmp_path, capsys):
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    v = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0",
                          "--orbit", path], 0)
    assert v["result"] == {"exists": True}
    shifted = _write(
        tmp_path, "orb2.json",
        orbit=_orbit(2, [(_sc(0), (1,)), (_sc(-1, 2), (1,))]),
    )
    v2 = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "1/4",
                           "--orbit", shifted], 0)
    assert v2["result"] == {"exists": True}
    v3 = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "1/3",
                           "--orbit", shifted], 0)
    assert v3["result"] == {"exists": False}


def test_coxeter_ds_negative_p0_needs_equals(tmp_path, capsys):
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    v = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0=-1/2",
                          "--orbit", path], 0)
    assert v["result"] == {"exists": False}
    # the mirror image of the p0 = 1/4 case of test_coxeter_ds
    mirrored = _write(
        tmp_path, "orb2.json",
        orbit=_orbit(2, [(_sc(0), (1,)), (_sc(1, 2), (1,))]),
    )
    v2 = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0=-1/4",
                           "--orbit", mirrored], 0)
    assert v2["result"] == {"exists": True}
    # after a space argparse reads -1/2 as an option, so --p0 has no value
    assert run(["coxeter-ds", "--n", "2", "--r", "1", "--p0", "-1/2",
                "--orbit", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p0: expected one argument" in captured.err
    assert run(["coxeter-ds", "--help"]) == 0
    assert "--p0=-1/2" in capsys.readouterr().out


def test_coxeter_ds_gcd_guard(tmp_path, capsys):
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    err = _error(capsys, ["coxeter-ds", "--n", "2", "--r", "2", "--p0", "0",
                          "--orbit", path])
    assert "gcd" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the digit limit came with 3.10.7 and 3.11")
def test_coxeter_ds_p0_past_the_conversion_limit_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    many = "9" * 5000
    for p0 in (many, f"1/{many}", f"{many}i", f"1+{many}i"):
        err = _error(capsys, ["coxeter-ds", "--n", "2", "--r", "1", "--p0", p0,
                              "--orbit", path])
        assert err.startswith("error: cannot parse scalar: Exceeds the limit")
        assert err.count("\n") == 1


def test_coxeter_ds_large_r_at_once(tmp_path, capsys):
    # the formal type holds n, r and p(0), not the r + 1 coefficients of p
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    argv = ["coxeter-ds", "--n", "2", "--r", "4000001", "--p0", "0", "--orbit", path]
    best, verdicts = _least_time(lambda: _verdict(capsys, argv, 0))
    assert best < 0.5
    assert all(v["result"] == {"exists": True} for v in verdicts)


def test_rigidity(tmp_path, capsys):
    path = _write(tmp_path, "bal.json", orbit=_orbit(5, [(_sc(0), (2, 2, 1))]))
    v = _verdict(capsys, ["rigidity", "--n", "5", "--r", "3", "--orbit", path], 0)
    assert v["result"] == {"rigid": True}
    path2 = _write(tmp_path, "bal6.json", orbit=_orbit(6, [(_sc(0), (2, 2, 1, 1))]))
    v2 = _verdict(capsys, ["rigidity", "--n", "6", "--r", "4", "--orbit", path2], 0)
    assert v2["result"] == {"rigid": False}
    bad = _write(tmp_path, "ss.json", orbit=_orbit(2, [(_sc(1, 2), (2,))]))
    _error(capsys, ["rigidity", "--n", "2", "--r", "1", "--orbit", bad])
    # three Jordan blocks, past r = 2
    wide = _write(tmp_path, "111.json", orbit=_orbit(3, [(_sc(0), (1, 1, 1))]))
    err = _error(capsys, ["rigidity", "--n", "3", "--r", "2", "--orbit", wide])
    assert err == "error: orbit has 3 Jordan blocks, outside the <= 2 filter\n"


# ---------------------------------------------------------------------------
# rigidity-table
# ---------------------------------------------------------------------------


def test_rigidity_table_flag_sensitivity(capsys):
    note = ("flag-sensitive: the either-divisor reading gives True, the both-divisors "
            "reading (--flag table-conjunction) gives False; this verdict follows the "
            "{} reading")
    v = _verdict(capsys, ["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"], 0)
    assert v["result"] == {"rigid": True}
    assert v["notes"] == [note.format("either-divisor")]

    v2 = _verdict(capsys, ["rigidity-table", "--type", "B", "--rank", "4",
                           "--r", "3", "--flag", "table-conjunction"], 0)
    assert v2["result"] == {"rigid": False}
    assert v2["notes"] == [note.format("both-divisors")]


def test_rigidity_table_agreeing_row(capsys):
    v = _verdict(capsys, ["rigidity-table", "--type", "A", "--rank", "6", "--r", "5"], 0)
    assert v["result"] == {"rigid": True}
    assert v["notes"] == []


def test_each_flag_subcommand_calls_its_decider_once(tmp_path, capsys, monkeypatch):
    import dskit.cli
    from dskit.unramified import HiroeData

    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HiroeData, "readings", spy("readings", HiroeData.readings))
    monkeypatch.setattr(dskit.cli, "rigid_table_readings",
                        spy("table", dskit.cli.rigid_table_readings))
    types = _write(tmp_path, "types.json", types=WITNESS_TYPES)
    table = ["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"]
    for argv, flag, name in [(["unramified-ds", "--input", types], "ell-ge-2", "readings"),
                             (table, "table-conjunction", "table")]:
        for extra in ([], ["--flag", flag]):
            calls.clear()
            v = _verdict(capsys, argv + extra, 0)
            assert calls == [name], (argv, extra)
            # both readings came from the one call: the two disagree here
            assert len(v["notes"]) == 1 and v["notes"][0].startswith("flag-sensitive:")


def test_fuchsian_ds_classifies_alpha_once_and_passes_no_mapping(tmp_path, capsys, monkeypatch):
    import inspect
    from collections.abc import Mapping

    from dskit import rootsys

    classified, mappings = [], []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            mappings.extend(name for x in (*args, *kwargs.values()) if isinstance(x, Mapping))
            if name == "classify_root":
                classified.append(tuple(args[1]))
            return fn(*args, **kwargs)
        return wrapper

    # every function of rootsys, under each name a dskit module binds it to,
    # and every method of Quiver
    functions = {f for _, f in inspect.getmembers(rootsys, inspect.isfunction)
                 if f.__module__ == rootsys.__name__}
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dskit"]:
        for name, f in list(vars(module).items()):
            if inspect.isfunction(f) and f in functions:
                monkeypatch.setattr(module, name, spy(f.__name__, f))
    for name, f in list(vars(rootsys.Quiver).items()):
        if inspect.isfunction(f) and not name.startswith("__"):
            monkeypatch.setattr(rootsys.Quiver, name, spy(name, f))

    hyper3 = [
        _orbit(3, [(_sc(1, 5), (1,)), (_sc(2, 5), (1,)), (_sc(4, 5), (1,))]),
        _orbit(3, [(_sc(1, 7), (1,)), (_sc(3, 7), (1,)), (_sc(5, 7), (1,))]),
        _orbit(3, [(_sc(0), (1, 1)), (_sc(-94, 35), (1,))]),
    ]
    e6 = hyper3[:2] + [_orbit(3, [(_sc(1, 11), (1,)), (_sc(2, 11), (1,)),
                                  (_sc(-(539 + 495 + 105), 385), (1,))])]
    # alpha is classified once, in sigma_candidates: the type comes from p(alpha),
    # and in_sigma_lambda's real-root check reads p(alpha) too
    for orbits, alpha, rigidity in [
        (D4_GENERIC, (2, 1, 1, 1), "RigidSingleton"),
        ([NILP2] * 4, (2, 1, 1, 1, 1), "Infinite"),
        ([NILP2] * 3, (2, 1, 1, 1), "Empty"),
        (hyper3, (3, 2, 1, 2, 1, 2), "RigidSingleton"),
        (e6, (3, 2, 1, 2, 1, 2, 1), "Infinite"),
    ]:
        classified.clear()
        v = _verdict(capsys, ["fuchsian-ds", "--input", _write(tmp_path, "o.json", orbits=orbits)], 0)
        assert v["result"]["rigidity"] == rigidity
        assert classified.count(alpha) == 1, (rigidity, classified)
    assert mappings == []


def test_rigidity_table_guards(capsys):
    err = _error(capsys, ["rigidity-table", "--type", "A", "--rank", "4", "--r", "2"])
    assert "gcd" in err or "coprime" in err
    _error(capsys, ["rigidity-table", "--type", "F", "--rank", "4", "--r", "1"])


# ---------------------------------------------------------------------------
# slope and normalize-regsing
# ---------------------------------------------------------------------------


def _laurent_doc(n, terms, trunc=None):
    return {
        "n": n,
        "trunc": trunc,
        "terms": [{"deg": d, "entries": e} for d, e in terms],
    }


def test_slope_certified(tmp_path, capsys):
    z = _sc(0)
    fg = _laurent_doc(2, [
        (-1, [[z, _sc(1)], [z, z]]),
        (0, [[z, z], [_sc(1), z]]),
    ])
    path = _write(tmp_path, "fg.json", matrix=fg)
    v = _verdict(capsys, ["slope", "--matrix", path], 0)
    assert v["result"] == {
        "kind": "CertifiedSlope", "slope": "1/2", "witness_parahoric": [0, 1],
    }


def test_slope_upper_bound_exits_3(tmp_path, capsys):
    z = _sc(0)
    nilp = _laurent_doc(2, [(-1, [[z, _sc(1)], [z, z]])])
    path = _write(tmp_path, "nilp.json", matrix=nilp)
    v = _verdict(capsys, ["slope", "--matrix", path], 3)
    assert v["result"]["kind"] == "UpperBoundOnly"
    assert v["result"]["bound"] == "1/2"
    assert v["result"]["witness_parahoric"] == [0, 1]
    assert v["notes"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the digit limit came with 3.10.7 and 3.11")
def test_slope_past_the_digit_limit_is_inconclusive(tmp_path, capsys):
    # degrees of 4,300 digits, the most a document holds, give depths of 4,301:
    # E_12 z^-m at n = 2 is bounded by (2m - 1)/2 at J = (0, 1), and
    # z^(1-m) omega_3^-1 at n = 3 has the certified slope (3m - 2)/3
    z, one = _sc(0), _sc(1)
    m = 10**4300 - 1
    nilp = _laurent_doc(2, [(-m, [[z, one], [z, z]])])
    omega = _laurent_doc(3, [(-m, [[z, z, one], [z, z, z], [z, z, z]]),
                             (1 - m, [[z, z, z], [one, z, z], [z, one, z]])])
    for name, doc in (("nilp.json", nilp), ("omega.json", omega)):
        path = _write(tmp_path, name, matrix=doc)
        v = _verdict(capsys, ["slope", "--matrix", path], 3)
        reason = v["result"]["reason"]
        assert v["result"] == {"kind": "Inconclusive", "reason": reason}
        assert reason.startswith("the result holds an integer too long to print: Exceeds the limit")
        assert f"({sys.get_int_max_str_digits()} digits)" in reason
        assert v["notes"] == [reason]
    # a pole of 4,299 digits prints its depth
    m //= 10
    path = _write(tmp_path, "nilp.json", matrix=_laurent_doc(2, [(-m, [[z, one], [z, z]])]))
    v = _verdict(capsys, ["slope", "--matrix", path], 3)
    assert v["result"]["bound"] == f"{2 * m - 1}/2"
    path = _write(tmp_path, "omega.json", matrix=_laurent_doc(3, [
        (-m, [[z, z, one], [z, z, z], [z, z, z]]),
        (1 - m, [[z, z, z], [one, z, z], [z, one, z]]),
    ]))
    v = _verdict(capsys, ["slope", "--matrix", path], 0)
    assert v["result"] == {
        "kind": "CertifiedSlope", "slope": f"{3 * m - 2}/3", "witness_parahoric": [0, 1, 2],
    }


def test_slope_budget_below_parahoric_count_is_inconclusive(tmp_path, capsys):
    # E_15 z^-1 is nilpotent at every parahoric; n = 5 has 2^4 = 16 of them
    entries = [[_sc(0)] * 5 for _ in range(5)]
    entries[0][4] = _sc(1)
    path = _write(tmp_path, "e15.json", matrix=_laurent_doc(5, [(-1, entries)]))
    v = _verdict(capsys, ["slope", "--matrix", path, "--budget", "4"], 3)
    reason = "parahoric scan exceeded budget of 4: 16 standard parahorics at n = 5"
    assert v["result"] == {"kind": "Inconclusive", "reason": reason}
    assert v["notes"] == [reason]

    v = _verdict(capsys, ["slope", "--matrix", path], 3)
    assert v["result"] == {
        "kind": "UpperBoundOnly", "bound": "1/5", "witness_parahoric": [0, 1, 2, 3, 4],
    }


def test_slope_regular_singular_candidate(tmp_path, capsys):
    doc = _laurent_doc(2, [(0, [[_sc(1), _sc(0)], [_sc(0), _sc(1, 2)]])])
    path = _write(tmp_path, "rs.json", matrix=doc)
    v = _verdict(capsys, ["slope", "--matrix", path], 0)
    assert v["result"] == {"kind": "RegularSingularCandidate"}
    assert any("not certified" in note for note in v["notes"])


def test_normalize_regsing(tmp_path, capsys):
    z = _sc(0)
    doc = _laurent_doc(2, [
        (0, [[z, z], [z, _sc(1, 2)]]),
        (1, [[z, _sc(1)], [z, z]]),
    ])
    path = _write(tmp_path, "m.json", matrix=doc)
    v = _verdict(capsys, ["normalize-regsing", "--matrix", path, "--order", "3"], 0)
    gauge = v["result"]["gauge"]
    assert gauge["n"] == 2
    assert gauge["trunc"] == 3
    by_deg = {t["deg"]: t["entries"] for t in gauge["terms"]}
    assert by_deg[0] == [[_sc(1), z], [z, _sc(1)]]
    assert by_deg[1] == [[z, _sc(2)], [z, z]]
    assert 2 not in by_deg  # zero coefficient is dropped from the support


def test_normalize_regsing_makes_no_scalar(tmp_path, capsys, monkeypatch):
    # a non-real B_0 with eigenvalues 1/3 and -1/2 + i, unreduced cells, a negative
    # denominator and a term past trunc: the document is read, solved and
    # printed on integers
    z = _sc(0)
    doc = _laurent_doc(2, [
        (0, [[[2, 6, 0, 1], [1, -2, 3, 4]], [z, [1, -2, 2, 2]]]),
        (1, [[_sc(1), [0, -3, 2, 5]], [[4, 8, 0, 1], z]]),
        (3, [[_sc(-2, 3), z], [z, [0, 1, 1, -7]]]),
        (6, [[_sc(5), z], [z, z]]),
    ], trunc=5)
    path = _write(tmp_path, "m.json", matrix=doc)
    made = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    v = _verdict(capsys, ["normalize-regsing", "--matrix", path, "--order", "5"], 0)
    assert [t["deg"] for t in v["result"]["gauge"]["terms"]] == [0, 1, 2, 3, 4]
    assert made == []


def test_normalize_regsing_resonant_is_input_error(tmp_path, capsys):
    z = _sc(0)
    doc = _laurent_doc(2, [
        (0, [[z, z], [z, _sc(1)]]),
        (1, [[z, _sc(1)], [z, z]]),
    ])
    path = _write(tmp_path, "res.json", matrix=doc)
    err = _error(capsys, ["normalize-regsing", "--matrix", path, "--order", "3"])
    assert "differ by 1" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the digit limit came with 3.10.7 and 3.11")
def test_normalize_regsing_gauge_past_the_digit_limit_is_inconclusive(tmp_path, capsys):
    # B_0 = 1/3, B_1 = 10^-1000: g_k has a denominator of about 1000 k digits,
    # past the interpreter's int-to-str limit of 4,300 from g_5 on
    doc = _laurent_doc(1, [(0, [[_sc(1, 3)]]), (1, [[_sc(1, 10**1000)]])])
    path = _write(tmp_path, "big.json", matrix=doc)
    v = _verdict(capsys, ["normalize-regsing", "--matrix", path, "--order", "6"], 3)
    reason = v["result"]["reason"]
    assert v["result"] == {"kind": "Inconclusive", "reason": reason}
    assert reason.startswith("the result holds an integer too long to print: Exceeds the limit")
    assert f"({sys.get_int_max_str_digits()} digits)" in reason
    assert v["notes"] == [reason]
    # one order less prints the gauge
    v = _verdict(capsys, ["normalize-regsing", "--matrix", path, "--order", "5"], 0)
    assert v["result"]["gauge"]["trunc"] == 5


# ---------------------------------------------------------------------------
# count-rank2
# ---------------------------------------------------------------------------


def test_count_rank2(tmp_path, capsys):
    path = _write(
        tmp_path, "count.json",
        formal_type=WITNESS_TYPES[0],
        orbit=_orbit(2, [(_sc(-1, 3), (1,)), (_sc(-2, 3), (1,))]),
    )
    v = _verdict(capsys, ["count-rank2", "--input", path], 0)
    assert v["result"] == {"count": 3}
    off = _write(
        tmp_path, "count0.json",
        formal_type=WITNESS_TYPES[0],
        orbit=_orbit(2, [(_sc(0), (1,)), (_sc(1, 3), (1,))]),
    )
    v2 = _verdict(capsys, ["count-rank2", "--input", off], 0)
    assert v2["result"] == {"count": 0}


# three regular nilpotent orbits at n = 1000: a star with arms of 999 vertices,
# 2,998 in all, whose box under alpha is far over any budget
NILP1000 = _orbit(1000, [(_sc(0), (1000,))])


def test_fuchsian_ds_large_star_over_budget_answers_at_once(tmp_path, capsys):
    # a dense 2,998 x 2,998 Cartan matrix took seconds and 160 MB here
    path = _write(tmp_path, "nilp1000.json", orbits=[NILP1000] * 3)
    best, verdicts = _least_time(lambda: _verdict(capsys, ["fuchsian-ds", "--input", path], 3))
    assert best < 1.0
    for v in verdicts:
        assert v["result"] == {
            "kind": "Inconclusive",
            "reason": "lattice-point enumeration exceeded budget of 2000000",
        }


# ---------------------------------------------------------------------------
# quiver-export
# ---------------------------------------------------------------------------


def test_quiver_export_raw_dot(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    assert run(["quiver-export", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph dskit {")
    assert out.count("alpha=") == 4
    assert out.count("->") == 3
    assert '"0" [label="0\\nalpha=2' in out
    assert '"[1,1]" -> "0";' in out


def test_quiver_export_to_file(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    assert run(["quiver-export", "--input", path]) == 0
    raw = capsys.readouterr().out
    out_file = tmp_path / "quiver.dot"
    v = _verdict(capsys, ["quiver-export", "--input", path, "--out", str(out_file)], 0)
    assert v["result"] == {"written": str(out_file), "vertices": 4}
    assert out_file.read_text() == raw


def test_quiver_export_to_an_unwritable_path(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    for out in (tmp_path / "missing" / "quiver.dot", tmp_path):
        err = _error(capsys, ["quiver-export", "--input", path, "--out", str(out)])
        assert err.startswith(f"error: cannot write {out}: ")


def test_quiver_export_types_document(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    assert run(["quiver-export", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count("alpha=") == 3
    assert '"[0,1]"' in out and '"[1,1,1]"' in out
    assert out.count("->") == 2


def test_quiver_export_large_star_at_once(tmp_path, capsys):
    path = _write(tmp_path, "nilp1000.json", orbits=[NILP1000] * 3)
    best, runs = _least_time(lambda: (run(["quiver-export", "--input", path]),
                                      capsys.readouterr().out))
    assert best < 1.0
    for code, out in runs:
        assert code == 0
        assert out.count("alpha=") == 2998
        assert out.count("->") == 2997


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the reader goes away before the first byte: a 232 kB DOT file fails in
    # `run`'s write, a short verdict only in the flush at shutdown
    big = _write(tmp_path, "nilp1000.json", orbits=[NILP1000] * 3)
    small = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["quiver-export", "--input", big], ["fuchsian-ds", "--input", small]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "dskit.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, argv
        assert err == b"", err.decode()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the digit limit came with 3.10.7 and 3.11")
def test_quiver_export_past_the_digit_limit_is_inconclusive(tmp_path, capsys):
    # three rank-1 orbits with eigenvalues 1/(10^4000 + d): the central vertex
    # gets lambda = -(their sum), a denominator of about 12,000 digits
    big = 10**4000
    path = _write(tmp_path, "big.json",
                  orbits=[_orbit(1, [(_sc(1, big + d), (1,))]) for d in (1, 3, 7)])
    out = tmp_path / "quiver.dot"
    for argv in (["quiver-export", "--input", path], ["quiver-export", "--input", path,
                                                       "--out", str(out)]):
        v = _verdict(capsys, argv, 3)
        reason = v["result"]["reason"]
        assert v["result"] == {"kind": "Inconclusive", "reason": reason}
        assert reason.startswith("the quiver holds an integer too long to print: Exceeds the limit")
        assert f"({sys.get_int_max_str_digits()} digits)" in reason
        assert v["notes"] == [reason]
    assert not out.exists()
    # the same orbits decide as usual
    _verdict(capsys, ["fuchsian-ds", "--input", path], 0)


def test_quiver_export_needs_orbits_or_types(tmp_path, capsys):
    path = _write(tmp_path, "neither.json", stuff=[1])
    err = _error(capsys, ["quiver-export", "--input", path])
    assert "'orbits' or 'types'" in err


# ---------------------------------------------------------------------------
# document-level failures
# ---------------------------------------------------------------------------


def test_bad_schema_tag(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "ds-kit/2", "orbits": []}))
    err = _error(capsys, ["fuchsian-ds", "--input", str(path)])
    assert "schema" in err


def test_unreadable_and_invalid_files(tmp_path, capsys):
    err = _error(capsys, ["fuchsian-ds", "--input", str(tmp_path / "missing.json")])
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    err2 = _error(capsys, ["fuchsian-ds", "--input", str(bad)])
    assert "invalid JSON" in err2


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bytes.json"
    bad.write_bytes(b"\xff\xfe")
    err = _error(capsys, ["fuchsian-ds", "--input", str(bad)])
    assert err.startswith(f"error: {bad}: invalid JSON: 'utf-8' codec can't decode")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    err = _error(capsys, ["fuchsian-ds", "--input", str(deep)])
    assert err.startswith(f"error: {deep}: invalid JSON: maximum recursion depth exceeded")


def test_integer_past_the_conversion_limit_is_an_input_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"schema": "ds-kit/1", "orbits": [{"n": ' + "9" * 5000 + "}]}")
    err = _error(capsys, ["fuchsian-ds", "--input", str(big)])
    if hasattr(sys, "get_int_max_str_digits"):  # the limit came with 3.10.7 and 3.11
        assert err.startswith(f"error: {big}: invalid JSON: Exceeds the limit")


# the most digits a document or an option holds; twice this is past the limit
_WIDEST = 10**4300 - 1
_WIDE_ORBIT = _orbit(2, [(_sc(0), (_WIDEST, _WIDEST))])
_WIDE_SUM = f"partition weights sum to an integer of {(2 * _WIDEST).bit_length()} bits, expected n=2"


_WIDE_CASES = [
    (["fuchsian-ds", "--input"], {"orbits": [_WIDE_ORBIT] * 3}, f"orbits[0]: {_WIDE_SUM}"),
    (["quiver-export", "--input"], {"orbits": [_WIDE_ORBIT] * 3}, f"orbits[0]: {_WIDE_SUM}"),
    (["unramified-ds", "--input"],
     {"types": [{"blocks": [{"q": [], "dim": 2, "residue": _WIDE_ORBIT}]}]},
     f"types[0].blocks[0].residue: {_WIDE_SUM}"),
    (["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0", "--orbit"], {"orbit": _WIDE_ORBIT},
     f"orbit: {_WIDE_SUM}"),
    (["rigidity", "--n", "2", "--r", "1", "--orbit"], {"orbit": _WIDE_ORBIT},
     f"orbit: {_WIDE_SUM}"),
    (["count-rank2", "--input"], {"formal_type": WITNESS_TYPES[0], "orbit": _WIDE_ORBIT},
     f"orbit: {_WIDE_SUM}"),
    # type B at rank 5 10^4299 has the Coxeter number 10^4300
    (["rigidity-table", "--type", "B", "--rank", str(5 * 10**4299), "--r", "2"], None,
     "slope numerator must be coprime to the Coxeter number: "
     f"gcd(2, an integer of {(10**4300).bit_length()} bits) != 1"),
]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the digit limit came with 3.10.7 and 3.11")
@pytest.mark.parametrize("argv, fields, message", _WIDE_CASES,
                         ids=[argv[0] for argv, _, _ in _WIDE_CASES])
def test_a_message_past_the_digit_limit_is_an_input_error(tmp_path, capsys, argv, fields,
                                                          message):
    if fields is not None:
        argv = [*argv, _write(tmp_path, "wide.json", **fields)]
    assert _error(capsys, argv) == f"error: {message}\n"


def _doc(**fields):
    return {"schema": SCHEMA, **fields}


_FUCHSIAN = ["fuchsian-ds", "--input"]
_UNRAM = ["unramified-ds", "--input"]
_SLOPE = ["slope", "--matrix"]
_COXETER = ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0", "--orbit"]
_BLOCK = {"eig": _sc(0), "partition": [2]}
_SCALAR_SHAPE = "scalar must be a 4-tuple of integers [re_num, re_den, im_num, im_den]"


def _unram_block(**change):
    return {"q": [_sc(1)], "dim": 1, "residue": _orbit(1, [(_sc(0), (1,))]), **change}


def _term(**change):
    return {"deg": -1, "entries": [[_sc(1)]], **change}


# (argv before the document path, document, stderr after "error: ")
MALFORMED_DOCUMENTS = [
    (_FUCHSIAN, [1], "$: document must be a JSON object"),
    (_FUCHSIAN, {"schema": "ds-kit/2"}, "schema: expected 'ds-kit/1', got 'ds-kit/2'"),
    (_FUCHSIAN, _doc(orbits=[]), "orbits: must be a nonempty array"),
    (_FUCHSIAN, _doc(orbits=[5]), "orbits[0]: orbit must be an object"),
    (_FUCHSIAN, _doc(orbits=[{"n": "2", "blocks": [_BLOCK]}]), "orbits[0].n: must be an integer"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": []}]),
     "orbits[0].blocks: must be a nonempty array"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": [7]}]),
     "orbits[0].blocks[0]: block must be an object"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": [{"partition": [2]}]}]),
     "orbits[0].blocks[0].eig: missing"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": [{"eig": _sc(0), "partition": []}]}]),
     "orbits[0].blocks[0].partition: must be a nonempty array of integers"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": [{"eig": [0, 1, 0], "partition": [2]}]}]),
     f"orbits[0].blocks[0].eig: {_SCALAR_SHAPE}"),
    (_FUCHSIAN, _doc(orbits=[{"n": 2, "blocks": [{"eig": [1, 0, 0, 1], "partition": [2]}]}]),
     "orbits[0].blocks[0].eig: scalar denominator must be nonzero"),
    (_FUCHSIAN, _doc(orbits=[{"n": 3, "blocks": [_BLOCK]}]),
     "orbits[0]: partition weights sum to 2, expected n=3"),
    (_FUCHSIAN, _doc(orbits=[NILP2], sequences=[5]), "sequences[0]: must be an array of scalars"),
    (_FUCHSIAN, _doc(orbits=[NILP2], sequences=[]),
     "sequences: must be an array, one entry per orbit"),
    (_UNRAM, _doc(types=[]), "types: must be a nonempty array"),
    (_UNRAM, _doc(types=[5]), "types[0]: formal type must be an object"),
    (_UNRAM, _doc(types=[{"blocks": []}]), "types[0].blocks: must be a nonempty array"),
    (_UNRAM, _doc(types=[{"blocks": [5]}]), "types[0].blocks[0]: block must be an object"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(q="1/z")]}]),
     "types[0].blocks[0].q: must be an array of scalars (coefficients of z^-1, z^-2, ...)"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(q=[[1, 1]])]}]),
     f"types[0].blocks[0].q[0]: {_SCALAR_SHAPE}"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(dim=True)]}]),
     "types[0].blocks[0].dim: must be an integer"),
    (_UNRAM, _doc(types=[{"blocks": [{"q": [], "dim": 1}]}]),
     "types[0].blocks[0].residue: missing"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(residue={"n": 1})]}]),
     "types[0].blocks[0].residue.blocks: must be a nonempty array"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(dim=2)]}]),
     "types[0].blocks[0]: residue orbit lives on gl_1, block has dim 2"),
    (_UNRAM, _doc(types=[{"blocks": [_unram_block(), _unram_block()]}]),
     "types[0]: blocks must have pairwise distinct q_j"),
    (_SLOPE, _doc(), "matrix: missing"),
    (_SLOPE, _doc(matrix=5), "matrix: matrix must be an object"),
    (_SLOPE, _doc(matrix={"n": 0, "terms": []}), "matrix.n: must be a positive integer"),
    (_SLOPE, _doc(matrix={"n": 1, "trunc": 1.5, "terms": []}),
     "matrix.trunc: must be an integer or null"),
    (_SLOPE, _doc(matrix={"n": 1}), "matrix.terms: must be an array"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [5]}), "matrix.terms[0]: term must be an object"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [_term(deg="-1")]}),
     "matrix.terms[0].deg: must be an integer"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [_term(), _term()]}),
     "matrix.terms[1].deg: duplicate degree -1"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [_term(entries=[])]}),
     "matrix.terms[0].entries: must be an array of 1 rows"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [_term(entries=[[_sc(1), _sc(1)]])]}),
     "matrix.terms[0].entries[0]: must be an array of 1 scalars"),
    (_SLOPE, _doc(matrix={"n": 1, "terms": [_term(entries=[[[1, 1, 0]]])]}),
     f"matrix.terms[0].entries[0][0]: {_SCALAR_SHAPE}"),
    (_COXETER, _doc(), "orbit: missing"),
]


def test_every_malformed_document_path_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for argv, doc, message in MALFORMED_DOCUMENTS:
        path.write_text(json.dumps(doc))
        assert run(argv + [str(path)]) == 2, message
        captured = capsys.readouterr()
        assert captured.out == "", message
        assert captured.err == f"error: {message}\n"


def test_parse_scalar_reads_zero_cells_as_zero_and_keeps_its_messages():
    for cell in ([0, 5, 0, -3], [0, 1, 0, 1], [0, -7, 0, 2]):
        assert parse_scalar(cell, "c") is ZERO
    assert parse_scalar([3, 6, 0, 5], "c") == Scalar(Fraction(1, 2))
    assert parse_scalar([0, 5, 2, -4], "c") == Scalar(0, Fraction(-1, 2))
    denominator = "c: scalar denominator must be nonzero"
    for cell, message in [
        ([0, 0, 0, 1], denominator),
        ([0, 1, 0, 0], denominator),
        ([0, 0, 0, 0], denominator),
        ([False, 1, 0, 1], f"c: {_SCALAR_SHAPE}"),
        ([0, 1, False, 1], f"c: {_SCALAR_SHAPE}"),
        ([0, True, 0, 1], f"c: {_SCALAR_SHAPE}"),
    ]:
        with pytest.raises(InputError) as exc:
            parse_scalar(cell, "c")
        assert str(exc.value) == message, cell


def test_unknown_command_and_flag(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["rigidity-table", "--type", "A", "--rank", "6", "--r", "5",
                "--flag", "bogus"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# each option only on the subcommands that read it
# ---------------------------------------------------------------------------


def _option_layout():
    """{subcommand: {option: choices or the default}} for --budget and --flag."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.option_strings[0]: tuple(a.choices) if a.choices else a.default
               for a in p._actions if a.dest in ("budget", "flag")}
        for name, p in sub.choices.items()
    }


def test_budget_and_flag_appear_only_where_they_act():
    layout = _option_layout()
    assert layout == {
        "fuchsian-ds": {"--budget": DEFAULT_BUDGET},
        "unramified-ds": {"--budget": DEFAULT_BUDGET, "--flag": ("ell-ge-2",)},
        "coxeter-ds": {},
        "rigidity": {},
        "rigidity-table": {"--flag": ("table-conjunction",)},
        "slope": {"--budget": DEFAULT_BUDGET},
        "normalize-regsing": {},
        "count-rank2": {},
        "quiver-export": {},
    }
    # one value per --budget, one per --flag choice
    values = sum(len(v) if isinstance(v, tuple) else 1
                 for opts in layout.values() for v in opts.values())
    assert values == 5


def test_the_option_table_and_the_parser_agree():
    # the parser is built from cli._COMMANDS alone: an option added to one
    # and not the other fails here
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    assert [a.help for a in sub._choices_actions] == [h for h, _, _ in cli._COMMANDS.values()]
    for name, p in sub.choices.items():
        built = [(a.option_strings, a.dest, a.type, a.choices, a.required, a.default, a.help)
                 for a in p._actions if a.dest != "help"]
        table = [([option], dest, int if kind is int else None,
                  None if kind in (int, str) else (kind,), required, default, text)
                 for option, (dest, kind, required, default, text)
                 in cli._COMMANDS[name][1].items()]
        assert built == table, name


# ---------------------------------------------------------------------------
# the fast reader answers only where argparse answers the same
# ---------------------------------------------------------------------------

_ODD_VALUES = ["", "-1", "-1/2", " 7", "1_000", "x"]
_STRAYS = ["--bogus", "--budget", "--flag", "--input", "stray", "-h", "--help", "--", "-x"]
_LINES_SEED, _LINES_DRAWN = 20261020, 60_000


def _value(rng, kind):
    if kind is int:
        return str(rng.choice([0, 1, 2, 5, 12, 100, 2_000_000]))
    return "doc.json" if kind is str else kind


def _draw_line(rng):
    """A command line drawn from the option table, with mutations: = forms,
    odd values, repeated, missing, abbreviated and stray options, -h and --."""
    command = rng.choice(list(cli._COMMANDS))
    options = cli._COMMANDS[command][1]
    picked = [o for o, (_, _, required, _, _) in options.items()
              if rng.random() < (0.95 if required else 0.5)]
    rng.shuffle(picked)
    pairs = [[o, _value(rng, options[o][1])] for o in picked]
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        k = rng.randrange(len(pairs) + 1)
        mutation = rng.randrange(6)
        if mutation == 0 and pairs:  # an odd value
            rng.choice(pairs)[1:] = [rng.choice(_ODD_VALUES)]
        elif mutation == 1 and pairs:  # a repeat
            pairs.insert(k, list(rng.choice(pairs)))
        elif mutation == 2 and pairs:  # an abbreviation
            pair = rng.choice(pairs)
            if len(pair[0]) > 3:
                pair[0] = pair[0][:rng.randrange(3, len(pair[0]))]
        elif mutation == 3:  # a stray option, with or without a value
            pairs.insert(k, [rng.choice(_STRAYS)] + ([] if rng.random() < 0.5 else ["5"]))
        elif mutation == 4:  # an option of another subcommand
            other = cli._COMMANDS[rng.choice(list(cli._COMMANDS))][1]
            option = rng.choice(list(other))
            pairs.insert(k, [option, _value(rng, other[option][1])])
        elif mutation == 5 and pairs:  # a missing value
            rng.choice(pairs)[1:] = []
    argv = [command]
    for pair in pairs:
        if len(pair) == 2 and rng.random() < 0.3:
            argv.append("=".join(pair))
        else:
            argv.extend(pair)
    if rng.random() < 0.02:
        argv.insert(0, rng.choice(["--budget", "-h", "--"]))
    return argv


def _argparse_reading(argv):
    """vars of argparse's namespace without subparser, where run() would
    accept the line, else None."""
    if cli._option_before_command(argv) is not None:
        return None
    try:
        ns, extra = _build_parser().parse_known_args(argv)
    except SystemExit:
        return None
    if extra or getattr(ns, "budget", 0) < 0:
        return None
    got = vars(ns)
    del got["subparser"]
    return got


def test_a_well_formed_line_reads_as_argparse_reads_it(capsys):
    rng = random.Random(_LINES_SEED)
    answered = 0
    for _ in range(_LINES_DRAWN):
        argv = _draw_line(rng)
        ns = cli._read_well_formed(argv)
        if ns is not None:
            answered += 1
            assert vars(ns) == _argparse_reading(argv), argv
    # argparse wrote no usage: it accepted every line the fast reader read
    assert capsys.readouterr() == ("", "")
    # both paths are reached: about a third of the lines are read by the table
    assert _LINES_DRAWN // 5 < answered < _LINES_DRAWN * 4 // 5, answered


def test_the_fast_reader_declines_each_kind_of_malformed_line():
    base = ["slope", "--matrix", "m.json"]
    assert vars(cli._read_well_formed(base + ["--budget=5"])) == {
        "command": "slope", "matrix": "m.json", "budget": 5}
    for argv in (
        [], ["--budget", "5", *base], ["slop", "--matrix", "m.json"], ["slope"],
        base + ["--budget"], base + ["--budget=-7"], base + ["--budget", "-7"],
        base + ["--budget", "many"], base + ["--budget", ""], base + ["--budget="],
        ["slope", "--matrix", ""], ["slope", "--matrix="],
        base + ["--matrix", "n.json"], base + ["--bud", "5"], base + ["-h"],
        base + ["--help"], base + ["--"], base + ["stray"], base + ["--order", "3"],
        ["unramified-ds", "--input", "t.json", "--flag", "bogus"],
        ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "-1/2", "--orbit", "o.json"],
    ):
        assert cli._read_well_formed(argv) is None, argv


def _load_workloads():
    # the benchmark's request builder, read from bench/ and left as it is
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_request_takes_the_fast_path():
    workloads = _load_workloads()
    argvs = [[a.replace("{doc}", "doc.json").replace("{out}", "q.dot") for a in req.argv]
             for seed in (1, 2, 3, 7) for w in workloads.WORKLOADS
             for req in workloads.make_requests(w, seed)]
    assert len(argvs) == 1708
    for argv in argvs:
        ns = cli._read_well_formed(argv)
        assert ns is not None, argv
        assert vars(ns) == _argparse_reading(argv), argv


def test_options_a_subcommand_does_not_read_exit_2(tmp_path, capsys):
    orbit = _write(tmp_path, "orb.json", orbit=NILP2)
    z = _sc(0)
    matrix = _write(tmp_path, "m.json", matrix=_laurent_doc(2, [(0, [[z, z], [z, z]])]))
    orbits = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    types = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    for argv in (
        ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0", "--orbit", orbit,
         "--budget", "5"],
        ["normalize-regsing", "--matrix", matrix, "--order", "3", "--budget", "5"],
        ["fuchsian-ds", "--input", orbits, "--flag", "ell-ge-2"],
        ["unramified-ds", "--input", types, "--flag", "table-conjunction"],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err, argv
        # the subcommand refuses, with its own usage, and names the option
        assert captured.err.startswith(f"usage: ds-kit {argv[0]} "), captured.err
        option, value = argv[-2:]
        assert f"ds-kit {argv[0]}: error: " in captured.err, captured.err
        assert option in captured.err and value in captured.err, captured.err


def test_negative_budget_exits_2_with_the_subcommand_usage(tmp_path, capsys):
    orbits = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    types = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    z = _sc(0)
    matrix = _write(tmp_path, "m.json", matrix=_laurent_doc(2, [(-1, [[z, _sc(1)], [z, z]])]))
    inputs = {"fuchsian-ds": ["--input", orbits], "unramified-ds": ["--input", types],
              "slope": ["--matrix", matrix]}
    for command, args in inputs.items():
        for budget in (["--budget", "-1"], ["--budget=-7"]):
            argv = [command, *args, *budget]
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith(f"usage: ds-kit {command} "), captured.err
            value = budget[-1].rsplit("=", 1)[-1]
            assert captured.err.endswith(
                f"ds-kit {command}: error: argument --budget: must be 0 or more, got {value}\n"
            ), captured.err
        # a budget of 0 is a count like any other: the search stops at once
        v = _verdict(capsys, [command, *args, "--budget", "0"], 3)
        assert v["result"]["kind"] == "Inconclusive"
        assert "exceeded budget of 0" in v["result"]["reason"]


def test_option_before_the_subcommand_is_named(tmp_path, capsys):
    orbit = _write(tmp_path, "orb.json", orbit=NILP2)
    cox = ["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0", "--orbit", orbit]
    for argv, option in (
        (["--budget", "5", *cox], "--budget"),
        (["--flag", "ell-ge-2", "unramified-ds", "--input", orbit], "--flag"),
        (["--budget=5", *cox], "--budget=5"),
        (["--budget", "5"], "--budget"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage: ds-kit "), captured.err
        assert f"ds-kit: error: unrecognized arguments: {option}\n" in captured.err, captured.err
        assert "invalid choice" not in captured.err
    assert run(["--help"]) == 0
    assert "coxeter-ds" in capsys.readouterr().out
    assert run(["--budget", "5", "--help"]) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# one parser for every run in a process
# ---------------------------------------------------------------------------


def test_flag_does_not_leak_into_the_next_run(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    v = _verdict(capsys, ["unramified-ds", "--input", path, "--flag", "ell-ge-2"], 0)
    assert v["result"] == {"exists": False}
    v = _verdict(capsys, ["unramified-ds", "--input", path], 0)
    assert v["result"] == {"exists": True}
    assert "follows the parts>=3" in v["notes"][0]


def test_malformed_arguments_after_a_run_still_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    for argv in (
        ["fuchsian-ds"],
        ["fuchsian-ds", "--input", path, "--budget", "many"],
        ["fuchsian-ds", "--input", path, "--flag", "bogus"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err
    _verdict(capsys, ["fuchsian-ds", "--input", path], 0)


def test_help_exits_0_after_a_run(tmp_path, capsys):
    path = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    _verdict(capsys, ["fuchsian-ds", "--input", path], 0)
    assert run(["--help"]) == 0
    assert "fuchsian-ds" in capsys.readouterr().out
    assert run(["slope", "--help"]) == 0
    assert "parahorics" in capsys.readouterr().out


def test_parser_is_built_on_the_first_run_not_at_import():
    code = (
        "import dskit.cli as cli\n"
        "assert cli._build_parser.cache_info().currsize == 0\n"
        "assert cli.run(['--help']) == 0\n"
        "assert cli.run(['--help']) == 0\n"
        "info = cli._build_parser.cache_info()\n"
        "assert (info.misses, info.hits) == (1, 1), info\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the package needs only the standard library
# ---------------------------------------------------------------------------

_BLOCK_SYMPY = """
import importlib.abc
import json
import sys


class NoSympy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoSympy())
import dskit

assert "sympy" not in sys.modules
import dskit.cli

for argv, code in json.loads(sys.argv[1]):
    assert dskit.cli.run(argv) == code, argv
assert not [m for m in sys.modules if m == "sympy" or m.startswith("sympy.")]
try:
    import sympy
except ImportError:
    pass
else:
    raise AssertionError("sympy was not blocked")
"""


def test_every_subcommand_runs_with_sympy_blocked(tmp_path):
    z = _sc(0)
    orbits = _write(tmp_path, "d4.json", orbits=D4_GENERIC)
    types = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    orbit = _write(tmp_path, "orb.json", orbit=NILP2)
    balanced = _write(tmp_path, "bal.json", orbit=_orbit(5, [(z, (2, 2, 1))]))
    fg = _write(tmp_path, "fg.json", matrix=_laurent_doc(2, [
        (-1, [[z, _sc(1)], [z, z]]), (0, [[z, z], [_sc(1), z]])]))
    regsing = _write(tmp_path, "m.json", matrix=_laurent_doc(2, [
        (0, [[z, z], [z, _sc(1, 2)]]), (1, [[z, _sc(1)], [z, z]])]))
    count = _write(tmp_path, "count.json", formal_type=WITNESS_TYPES[0],
                   orbit=_orbit(2, [(_sc(-1, 3), (1,)), (_sc(-2, 3), (1,))]))
    requests = [
        (["fuchsian-ds", "--input", orbits], 0),
        (["unramified-ds", "--input", types], 0),
        (["coxeter-ds", "--n", "2", "--r", "1", "--p0", "0", "--orbit", orbit], 0),
        (["rigidity", "--n", "5", "--r", "3", "--orbit", balanced], 0),
        (["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"], 0),
        (["slope", "--matrix", fg], 0),
        (["normalize-regsing", "--matrix", regsing, "--order", "3"], 0),
        (["count-rank2", "--input", count], 0),
        (["quiver-export", "--input", orbits], 0),
    ]
    assert {argv[0] for argv, _ in requests} == set(_option_layout())
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_SYMPY, json.dumps(requests)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_each_verdict_is_the_text_of_json_dumps(tmp_path, capsys, monkeypatch):
    # one verdict of each subcommand, the budget-capped fuchsian-ds among
    # them, through a spy on the writer that `run` prints with; the gauge of
    # normalize-regsing is a LaurentMatrix, which json writes by its Scalar
    # canonical form
    from dskit import jsonio

    seen = []
    dumps = jsonio.dumps

    def spy(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(jsonio, "dumps", spy)
    orb = _write(tmp_path, "orb.json", orbit=NILP2)
    z = _sc(0)
    requests = [
        (["fuchsian-ds", "--input", _write(tmp_path, "d4.json", orbits=D4_GENERIC)], 0),
        (["fuchsian-ds", "--budget", "10", "--input",
          _write(tmp_path, "big.json", orbits=[_orbit(4, [(_sc(0), (2, 2))])] * 4)], 3),
        (["unramified-ds", "--input", _write(tmp_path, "w.json", types=WITNESS_TYPES)], 0),
        (["coxeter-ds", "--n", "2", "--r", "1", "--p0", "1/4", "--orbit", orb], 0),
        (["rigidity", "--n", "2", "--r", "1", "--orbit", orb], 0),
        (["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"], 0),
        (["slope", "--matrix", _write(tmp_path, "s.json", matrix=_laurent_doc(
            2, [(-1, [[z, _sc(1)], [z, z]]), (0, [[z, z], [_sc(1), z]])]))], 0),
        (["normalize-regsing", "--order", "3", "--matrix", _write(tmp_path, "m.json", matrix=_laurent_doc(
            2, [(0, [[_sc(-1, 2), z], [z, _sc(1, 3)]]), (1, [[z, _sc(1)], [_sc(3), z]])]))], 0),
        (["count-rank2", "--input", _write(tmp_path, "c.json", formal_type=WITNESS_TYPES[0],
                                           orbit=_orbit(2, [(_sc(-1, 3), (1,)), (_sc(-2, 3), (1,))]))], 0),
        (["quiver-export", "--out", str(tmp_path / "q.dot"), "--input",
          _write(tmp_path, "q.json", orbits=D4_GENERIC)], 0),
    ]
    for argv, code in requests:
        assert run(argv) == code, argv
        out = capsys.readouterr().out
        want = json.dumps(seen[-1], sort_keys=True, indent=2, default=scalar_gauge_json)
        assert out == want + "\n", argv
    assert len(seen) == len(requests)
    assert {v["command"] for v in seen} == set(_option_layout())
    assert seen[1]["result"]["kind"] == "Inconclusive"
