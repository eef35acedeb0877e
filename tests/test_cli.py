import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dskit.cli import _build_parser, run
from dskit.rootsys import DEFAULT_BUDGET

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


def test_unramified_ds_requires_irregular_first(tmp_path, capsys):
    path = _write(tmp_path, "rev.json", types=[WITNESS_TYPES[1], WITNESS_TYPES[0]])
    err = _error(capsys, ["unramified-ds", "--input", path])
    assert "irregular" in err


# The witness box 0 <= beta <= alpha holds 8 vectors.  A budget of 11 leaves
# 3 decomposition nodes: enough for the parts>=2 reading to find a flat
# decomposition, not enough for the parts>=3 reading to rule one out.


def test_unramified_ds_budget_fits_selected_reading_only(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    argv = ["unramified-ds", "--input", path, "--flag", "ell-ge-2", "--budget", "11"]
    v = _verdict(capsys, argv, 0)
    assert v["result"] == {"exists": False}
    assert v["notes"] == [
        "flag-sensitivity comparison skipped: enumeration budget exceeded"
    ]


def test_unramified_ds_budget_below_box_is_inconclusive(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    v = _verdict(capsys, ["unramified-ds", "--input", path, "--budget", "7"], 3)
    reason = "lattice-point enumeration exceeded budget of 7"
    assert v["result"] == {"kind": "Inconclusive", "reason": reason}
    assert v["notes"] == [reason]


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


def test_coxeter_ds_large_r_at_once(tmp_path, capsys):
    # p(x) = x^r + p0 is kept by its two terms, not by r + 1 coefficients
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    t0 = time.perf_counter()
    v = _verdict(capsys, ["coxeter-ds", "--n", "2", "--r", "4000001", "--p0", "0",
                          "--orbit", path], 0)
    assert time.perf_counter() - t0 < 0.5
    assert v["result"] == {"exists": True}


def test_rigidity(tmp_path, capsys):
    path = _write(tmp_path, "bal.json", orbit=_orbit(5, [(_sc(0), (2, 2, 1))]))
    v = _verdict(capsys, ["rigidity", "--n", "5", "--r", "3", "--orbit", path], 0)
    assert v["result"] == {"rigid": True}
    path2 = _write(tmp_path, "bal6.json", orbit=_orbit(6, [(_sc(0), (2, 2, 1, 1))]))
    v2 = _verdict(capsys, ["rigidity", "--n", "6", "--r", "4", "--orbit", path2], 0)
    assert v2["result"] == {"rigid": False}
    bad = _write(tmp_path, "ss.json", orbit=_orbit(2, [(_sc(1, 2), (2,))]))
    _error(capsys, ["rigidity", "--n", "2", "--r", "1", "--orbit", bad])


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


def test_normalize_regsing_resonant_is_input_error(tmp_path, capsys):
    z = _sc(0)
    doc = _laurent_doc(2, [
        (0, [[z, z], [z, _sc(1)]]),
        (1, [[z, _sc(1)], [z, z]]),
    ])
    path = _write(tmp_path, "res.json", matrix=doc)
    err = _error(capsys, ["normalize-regsing", "--matrix", path, "--order", "3"])
    assert "differ by 1" in err


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
    t0 = time.perf_counter()
    v = _verdict(capsys, ["fuchsian-ds", "--input", path], 3)
    assert time.perf_counter() - t0 < 1.0
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


def test_quiver_export_types_document(tmp_path, capsys):
    path = _write(tmp_path, "unram.json", types=WITNESS_TYPES)
    assert run(["quiver-export", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count("alpha=") == 3
    assert '"[0,1]"' in out and '"[1,1,1]"' in out
    assert out.count("->") == 2


def test_quiver_export_large_star_at_once(tmp_path, capsys):
    path = _write(tmp_path, "nilp1000.json", orbits=[NILP1000] * 3)
    t0 = time.perf_counter()
    assert run(["quiver-export", "--input", path]) == 0
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
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
