"""Orbits as integers from the document to the decision.

`jsonio.parse_orbit` reduces each eigenvalue cell once, and `OrbitSpec`
holds the eigenvalues as integer real and imaginary numerators over the lcm
of their denominators; `residue_arm` returns the factors' numerators.  The
Scalar route it replaced (`scalar_parse_orbit_list`, `ScalarOrbit`,
`scalar_residue_arm` and `scalar_star_lambda` in exact_oracles) must give
the same digests, arms, lambda and error messages on seeded documents, and
no `Scalar` is made on the way from a document to a verdict.
"""

import json
import random
from fractions import Fraction

from dskit.cli import _parse_orbit_list, run
from dskit.core import partitions_of, residue_arm
from dskit.errors import InputError
from dskit.fuchsian import build_cb_data
from dskit.jsonio import digest_of
import exact_oracles
from exact_oracles import (
    Scalar,
    arm_factors,
    lambda_values,
    orbit_blocks,
    pairwise_congruent_pair,
    scalar_parse_orbit_list,
    scalar_residue_arm,
    scalar_star_lambda,
)

SCHEMA = "ds-kit/1"

# denominators 1, 2, 3, 5 and 12 and imaginary parts 0, +-1/2, 1/3 and 1
_RE = [Fraction(p, q) for q in (1, 2, 3, 5, 12) for p in range(-2 * q, 2 * q + 1)]
_IM = [Fraction(0)] * 5 + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(1)]


def _cell(rng, value):
    """value = (re, im) as a cell [re_num, re_den, im_num, im_den], each
    part scaled by 1 to 4 and its sign moved to the denominator at random:
    unreduced, with negative denominators and zeros over any denominator."""
    out = []
    for x in value:
        k = rng.randint(1, 4) * rng.choice([1, -1])
        out += [k * x.numerator, k * x.denominator]
    return out


def _orbit_doc(rng, n):
    """An orbit on gl_n with 1 to n distinct eigenvalues, blocks in random order."""
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    mults = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    eigs = set()
    while len(eigs) < k:
        eigs.add((rng.choice(_RE), rng.choice(_IM)))
    blocks = [[e, rng.choice(list(partitions_of(m)))] for e, m in zip(eigs, mults)]
    rng.shuffle(blocks)
    return {"n": n, "blocks": [{"eig": _cell(rng, e), "partition": list(p)} for e, p in blocks]}


def _value(cell):
    return Fraction(cell[0], cell[1]), Fraction(cell[2], cell[3])


def _sequence(rng, orbit):
    """Each eigenvalue as often as its largest part, each time written anew, shuffled."""
    seq = [_cell(rng, _value(b["eig"])) for b in orbit["blocks"] for _ in range(b["partition"][0])]
    rng.shuffle(seq)
    return seq


_BAD_CELLS = ([1, 0, 0, 1], [1, 2, 0], [True, 1, 0, 1], "1/2", [1, 2, 0, 0], None)


def _malform(rng, doc):
    """One defect, or a resonance, in doc; the name of what was done."""
    orbits = doc["orbits"]
    o = rng.choice(orbits)
    blk = rng.choice(o["blocks"])
    kind = rng.choice(["cell", "missing", "duplicate", "partition", "n", "weight",
                       "resonant", "sizes", "sequence", "factor", "count"])
    if kind == "cell":
        blk["eig"] = rng.choice(_BAD_CELLS)
    elif kind == "missing":
        del blk["eig"]
    elif kind == "duplicate":
        o["blocks"].append({"eig": _cell(rng, _value(blk["eig"])), "partition": [1]})
        o["n"] += 1
    elif kind == "partition":
        blk["partition"] = rng.choice([[1, 2], [0], [], ["1"], [2, -1], [1.0]])
    elif kind == "n":
        o["n"] = rng.choice(["2", None, 2.0, True])
    elif kind == "weight":
        o["n"] += rng.choice([-1, 1, -o["n"]])
    elif kind == "resonant":
        re, im = _value(blk["eig"])
        o["blocks"].append({"eig": _cell(rng, (re + rng.choice([-2, -1, 1]), im)),
                            "partition": [1]})
        o["n"] += 1
    elif kind == "sizes":
        doc["orbits"].append(_orbit_doc(rng, o["n"] + 1))
    elif kind == "sequence":
        doc["sequences"] = rng.choice([5, [], [[]] * (len(orbits) + 1), [7] * len(orbits)])
    else:
        seqs = doc.setdefault("sequences", [_sequence(rng, x) for x in orbits])
        seq = rng.choice(seqs)
        if kind == "factor":
            k = rng.randrange(len(seq))
            re, im = _value(seq[k])
            seq[k] = rng.choice([_cell(rng, (re + Fraction(1, 2), im)), rng.choice(_BAD_CELLS)])
        else:
            seq.pop() if rng.random() < 0.5 else seq.append(seq[0])
    return kind


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except InputError as exc:
        return type(exc).__name__, str(exc)


def test_the_integer_route_matches_the_scalar_route_on_seeded_documents():
    # seed 20261105: 600 fuchsian-ds documents of 2 to 4 orbits on gl_1 .. gl_4,
    # 40% of them with factor sequences and 45% with one defect or resonance
    rng = random.Random(20261105)
    counts = dict.fromkeys(["decided", "resonant", "parse_error", "arm_error", "sequenced",
                            "nonreal", "mixed"], 0)
    kinds = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        doc = {"orbits": [_orbit_doc(rng, n) for _ in range(rng.randint(2, 4))]}
        if rng.random() < 0.4:
            doc["sequences"] = [_sequence(rng, o) for o in doc["orbits"]]
        if rng.random() < 0.45:
            kinds.add(_malform(rng, doc))
        old = _outcome(scalar_parse_orbit_list, doc)
        new = _outcome(_parse_orbit_list, doc)
        if old[0] != "ok" or new[0] != "ok":
            assert new == old, doc
            counts["parse_error"] += 1
            continue
        (old_orbits, old_seqs, old_payload), (orbits, seqs, payload) = old[1], new[1]
        assert payload == old_payload and digest_of(payload) == digest_of(old_payload), doc
        counts["sequenced"] += seqs is not None
        eigs = [e for o in old_orbits for e, _ in o.blocks]
        counts["nonreal"] += any(e.im for e in eigs)
        counts["mixed"] += len({x.denominator for e in eigs for x in (e.re, e.im)}) > 1
        arms_ok = True
        for k, (o, old_o) in enumerate(zip(orbits, old_orbits)):
            assert (o.n, orbit_blocks(o)) == (old_o.n, old_o.blocks), doc
            s, old_s = (None, None) if seqs is None else (seqs[k], old_seqs[k])
            want = _outcome(scalar_residue_arm, old_o, old_s)
            got = _outcome(lambda: (residue_arm(o, s)[0], arm_factors(o, s)))
            assert got == want, doc
            arms_ok = arms_ok and want[0] == "ok"
        if not arms_ok:
            counts["arm_error"] += 1
            continue
        if len({o.n for o in orbits}) > 1:
            assert _outcome(build_cb_data, orbits, seqs) == (
                "InputError", "all orbits must share the same matrix size n")
            continue
        resonant = [i for i, o in enumerate(old_orbits, start=1)
                    if pairwise_congruent_pair([e for e, _ in o.blocks]) is not None]
        if resonant:
            assert _outcome(build_cb_data, orbits, seqs) == (
                "ResonantError",
                f"orbit {resonant[0]} has two eigenvalues differing by a nonzero integer")
            counts["resonant"] += 1
            continue
        data = build_cb_data(orbits, seqs)
        assert lambda_values(data) == scalar_star_lambda(old_orbits, old_seqs), doc
        counts["decided"] += 1
    assert len(kinds) == 11, kinds
    assert min(counts.values()) >= 30, counts


def _s(a, b=1, c=0, d=1):
    return [a, b, c, d]


def _orbit(n, blocks):
    return {"n": n, "blocks": [{"eig": e, "partition": p} for e, p in blocks]}


def _spy(monkeypatch):
    """The (re, im) parts of every Scalar made from now on."""
    made = []
    init, scalar = Scalar.__init__, exact_oracles._scalar
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    # Scalar arithmetic builds its results past __init__
    monkeypatch.setattr(exact_oracles, "_scalar", lambda *args: made.append(args) or scalar(*args))
    return made


def test_no_scalar_is_made_from_a_fuchsian_document_to_its_verdict(tmp_path, monkeypatch, capsys):
    # a rank-2 triple with traces summing to zero: non-real eigenvalues over
    # mixed denominators, unreduced cells, and explicit factor sequences
    doc = {"schema": SCHEMA, "orbits": [
        _orbit(2, [(_s(2, 6, -1, -2), [2])]),
        _orbit(2, [(_s(2, 7), [1]), (_s(0, 1, -1), [1])]),
        _orbit(2, [(_s(-1, 5), [1]), (_s(-79, 105), [1])]),
    ], "sequences": [[_s(1, 3, 1, 2), _s(-1, -3, 2, 4)], [_s(0, 5, -1), _s(4, 14)],
                     [_s(79, -105), _s(-1, 5)]]}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    made = _spy(monkeypatch)
    assert run(["fuchsian-ds", "--input", str(path)]) == 0
    assert made == []
    assert json.loads(capsys.readouterr().out)["result"] == {
        "exists": True, "rigidity": "RigidSingleton"}


def _block(q, n, blocks):
    return {"q": q, "dim": n, "residue": _orbit(n, blocks)}


def test_unramified_and_count_documents_make_no_scalar_and_coxeter_only_its_p0(
        tmp_path, monkeypatch, capsys):
    # type 0 with q of two lengths, a baseless type and a later type with two
    # blocks, residue traces summing to zero; the q cells are non-real and
    # not in lowest terms
    types = [
        {"blocks": [_block([_s(2, 2, 0, 3)], 1, [(_s(1, 3), [1])]),
                    _block([_s(-3, 3), _s(4, 2, 2, -6)], 2, [(_s(0, 1, 1, 2), [1]), (_s(1, 5), [1])])]},
        {"blocks": [_block([], 3, [(_s(-1, 3), [2]), (_s(1, 7), [1])])]},
        {"blocks": [_block([_s(2, 1, 1, 2)], 1, [(_s(0), [1])]),
                    _block([_s(0, 4), _s(3, 3)], 2, [(_s(-1, 210, -1, 4), [1, 1])])]},
    ]
    unram = tmp_path / "types.json"
    unram.write_text(json.dumps({"schema": SCHEMA, "types": types}))
    # rank 2, slope 1: residues c = 1/3 + i/2 and d = 1/5 - i, q cells unreduced,
    # and O with the eigenvalues -c and -d, so the count is 3
    count = tmp_path / "count.json"
    count.write_text(json.dumps({"schema": SCHEMA, "formal_type": {"blocks": [
        _block([_s(2, 2)], 1, [(_s(2, 6, 1, 2), [1])]),
        _block([_s(-1, 1, 3, -3)], 1, [(_s(1, 5, -1), [1])]),
    ]}, "orbit": _orbit(2, [(_s(-1, 3, -1, 2), [1]), (_s(-1, 5, 1), [1])])}))
    # p(0) = 1/2 - i at n = 2, and O = (-1/2 + i) (2), so n p(0) + Tr O = 0
    coxeter = tmp_path / "coxeter.json"
    coxeter.write_text(json.dumps({"schema": SCHEMA, "orbit": _orbit(2, [(_s(-2, 4, 3, 3), [2])])}))
    made = _spy(monkeypatch)

    def result(argv):
        assert run(argv) == 0
        return json.loads(capsys.readouterr().out)["result"]

    assert result(["unramified-ds", "--input", str(unram)]) == {"exists": True}
    assert result(["count-rank2", "--input", str(count)]) == {"count": 3}
    assert made == []
    assert result(["coxeter-ds", "--n", "2", "--r", "1", "--p0=1/2-i", "--orbit", str(coxeter)]) == {
        "exists": True}
    # --p0 is read as its reduced triple, so coxeter-ds makes no Scalar either
    assert made == []
