import json

import pytest

from dskit.cli import run

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
    v = _verdict(capsys, ["unramified-ds", "--input", path], 0)
    assert v["result"] == {"exists": True}
    assert len(v["notes"]) == 1
    assert "parts>=3 reading gives True" in v["notes"][0]
    assert "parts>=2 reading (--flag ell-ge-2) gives False" in v["notes"][0]
    assert "follows the parts>=3" in v["notes"][0]

    v2 = _verdict(capsys, ["unramified-ds", "--input", path, "--flag", "ell-ge-2"], 0)
    assert v2["result"] == {"exists": False}
    assert "follows the parts>=2" in v2["notes"][0]
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


def test_coxeter_ds_gcd_guard(tmp_path, capsys):
    path = _write(tmp_path, "orb.json", orbit=NILP2)
    err = _error(capsys, ["coxeter-ds", "--n", "2", "--r", "2", "--p0", "0",
                          "--orbit", path])
    assert "gcd" in err


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
    v = _verdict(capsys, ["rigidity-table", "--type", "B", "--rank", "4", "--r", "3"], 0)
    assert v["result"] == {"rigid": True}
    assert len(v["notes"]) == 1
    assert "either-divisor reading gives True" in v["notes"][0]
    assert "both-divisors reading (--flag table-conjunction) gives False" in v["notes"][0]

    v2 = _verdict(capsys, ["rigidity-table", "--type", "B", "--rank", "4",
                           "--r", "3", "--flag", "table-conjunction"], 0)
    assert v2["result"] == {"rigid": False}
    assert "follows the both-divisors" in v2["notes"][0]


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


def test_unknown_command_and_flag(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["rigidity-table", "--type", "A", "--rank", "6", "--r", "5",
                "--flag", "bogus"]) == 2
    capsys.readouterr()
