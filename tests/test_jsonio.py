import hashlib
import json
import random
import re
from collections import Counter
from math import gcd

import pytest

from dskit import jsonio
from dskit.core import as_triple, parse_gaussian
from dskit.errors import InputError, ResonantError, TruncationError
from dskit.formal import regsing_normalize
from dskit.laurent import LaurentMatrix
from exact_oracles import (
    former_parse_laurent,
    former_parse_orbit_list,
    former_parse_type_list,
    laurent,
    scalar_gauge_json,
    text_mode_load_document,
    scalar_laurent_json,
    scalar_parse_laurent,
)

# escapes, a DEL, non-ASCII in and beyond the BMP, and control characters
ALPHABET = 'ab Z0"\\/\b\f\n\r\t\x00\x1f\x7fé€ 😀'


def _text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _leaf(rng):
    return rng.choice([
        lambda: _text(rng),
        lambda: rng.choice([True, False, 1, 0, -1, None]),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([-1, 1]) * rng.randint(0, 10**60),
    ])()


def _tree(rng, depth):
    kind = rng.random() if depth < 5 else 1.0
    if kind < 0.3:
        return {_text(rng): _tree(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if kind < 0.45:  # flat int lists take the writer's one join
        return [rng.randint(-10**30, 10**30) for _ in range(rng.randint(0, 5))]
    if kind < 0.65:
        return [_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return _leaf(rng)


def _nodes(tree):
    yield tree
    for child in tree.values() if type(tree) is dict else tree if type(tree) is list else ():
        yield from _nodes(child)


def test_dumps_matches_json_dumps_on_random_trees():
    rng = random.Random(2301)
    kinds = dict.fromkeys(["empty_list", "empty_dict", "bool_next_to_int", "non_ascii_key",
                           "control_value", "big_negative"], 0)
    for _ in range(2000):
        tree = _tree(rng, 0)
        assert jsonio.dumps(tree) == json.dumps(tree, sort_keys=True, indent=2), tree
        nodes = list(_nodes(tree))
        lists = [t for t in nodes if type(t) is list]
        dicts = [t for t in nodes if type(t) is dict]
        kinds["empty_list"] += [] in lists
        kinds["empty_dict"] += {} in dicts
        kinds["bool_next_to_int"] += any(
            any(type(x) is bool for x in t) and any(type(x) is int for x in t) for t in lists)
        kinds["non_ascii_key"] += any(k > "\x7f" for t in dicts for k in t)
        kinds["control_value"] += any(type(t) is str and min(t, default="a") < " " for t in nodes)
        kinds["big_negative"] += any(type(t) is int and t < -10**20 for t in nodes)
    assert min(kinds.values()) >= 50, kinds


def _int_array(rng, shape):
    if not shape:
        return rng.choice([rng.randint(-9, 9), rng.choice([-1, 1]) * rng.randint(0, 10**40)])
    return [_int_array(rng, shape[1:]) for _ in range(shape[0])]


def _inner_lists(array):
    """The lists below the top one, each with its depth, top one at 0."""
    for x in array:
        if type(x) is list:
            yield x, 1
            yield from ((y, d + 1) for y, d in _inner_lists(x))


def test_dumps_writes_rectangular_int_arrays_as_json_does():
    # seed 2405, 800 int arrays of depth 1 to 4, each dimension 1 to 4 long
    # and 1 a third of the time; three in four then spoiled by one of a
    # ragged row, an empty inner list or a bool among the ints.  Each is
    # written alone and inside a dict, one level deeper.  Counts at this
    # seed: 305 rectangular arrays, with a length of 1 in dimension 1, 2, 3
    # and 4 in 190, 85, 72 and 43 of them; 145 ragged, 150 with an empty
    # list and 200 with a bool
    rng = random.Random(2405)
    ones = [0] * 4
    spoiled = Counter()
    for _ in range(800):
        shape = [rng.choice([1, rng.randint(1, 4)]) for _ in range(rng.randint(1, 4))]
        array = _int_array(rng, shape)
        spoil = rng.choice([None, "ragged", "empty", "bool"])
        inner = list(_inner_lists(array))
        if spoil == "ragged" and inner:
            row, depth = rng.choice(inner)
            row.append(_int_array(rng, shape[depth + 1 :]))
        elif spoil == "empty" and inner:
            row, _ = rng.choice(inner)
            row.clear()
        elif spoil == "bool":
            leaf = rng.choice([row for row, depth in inner if depth == len(shape) - 1] or [array])
            leaf[rng.randrange(len(leaf))] = rng.choice([True, False])
        else:
            spoil = None
            for d, size in enumerate(shape):
                ones[d] += size == 1
        spoiled[spoil] += 1
        for obj in (array, {"a": [array, 0]}):
            assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2), obj
    assert min(ones) >= 40 and min(spoiled.values()) >= 100, (ones, spoiled)


@pytest.mark.parametrize("obj", [
    [[1, 2], [3, 4.0]], [[1, 2], [3, (4,)]], [[1, 2], (3, 4)], [[[1]], [[1.0]]], (1, 2),
])
def test_dumps_refuses_a_float_or_a_tuple_in_an_int_array(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


def test_dumps_refuses_an_int_past_the_digit_limit_as_json_does():
    for obj in ([[1, 10**4999], [2, 3]], [10**4999], [[[-(10**4999)]]]):
        with pytest.raises(ValueError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(ValueError):
            jsonio.dumps(obj)


def _coefficient(rng, n):
    """An n x n coefficient (re, im, den) with entries now and then zero,
    non-real, negative or past 64 bits, over a den of either sign, which
    `LaurentMatrix` keeps over its least positive denominator."""
    def entry():
        return rng.choice([0, rng.randint(-12, 12), rng.choice([-1, 1]) * rng.randint(0, 10**25)])
    den = rng.choice([1, 2, 3, 6, 7, 12, -4, -9])
    re = [[entry() for _ in range(n)] for _ in range(n)]
    im = [[entry() if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
    return re, im, den


def _gauge(rng, n):
    """The gauge of d + M dz/z to a random order 1..4, M with B_0 upper
    triangular, its eigenvalues (k + i m_k) / 7, k = 1..n, non-resonant."""
    b0 = ([[7 * rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)],
          [[0] * n for _ in range(n)], 7)
    for k in range(n):
        b0[0][k][k], b0[1][k][k] = k + 1, rng.choice([0, 0, 1, -2])
    order = rng.randint(1, 4)
    m = LaurentMatrix(n, {0: b0, **{deg: _coefficient(rng, n) for deg in range(1, order)}})
    return regsing_normalize(m, order)


def _kinds_of(m, kinds):
    kinds["trunc_none" if m.trunc is None else "trunc_int"] += 1
    kinds["zero_matrix"] += m.is_zero()
    for re, im, den in m.coeffs.values():
        cells = [(x, y) for xr, yr in zip(re, im) for x, y in zip(xr, yr)]
        kinds["nonreal"] += any(y for _, y in cells)
        kinds["negative"] += any(x < 0 or y < 0 for x, y in cells)
        kinds["unreduced"] += any(x and gcd(x, den) > 1 for x, _ in cells)


def test_dumps_writes_a_laurent_matrix_as_json_writes_its_canonical_form():
    # seed 4401, 1,200 draws at n = 1..6: a gauge of `regsing_normalize` one
    # time in three, else a matrix of zero to four terms at degrees -3..5
    # with a trunc of None or -2..7, now and then dropping every term.  Each
    # is written alone, as the gauge of a verdict and inside a list, and must
    # be the text json.dumps gives with the Scalar canonical form
    # (`scalar_gauge_json`) as its default.  Counts at this seed: 369 gauges,
    # 257 zero matrices, trunc None 441 times and an int 759 times, and
    # 1,338 non-real, 1,507 negative and 1,223 unreduced terms
    rng = random.Random(4401)
    kinds = Counter()
    for _ in range(1200):
        n = rng.randint(1, 6)
        if rng.random() < 1 / 3:
            m = _gauge(rng, n)
            kinds["gauge"] += 1
        else:
            degs = rng.sample(range(-3, 6), rng.choice([0, 1, 2, 4]))
            m = LaurentMatrix(n, {deg: _coefficient(rng, n) for deg in degs},
                              rng.choice([None, rng.randint(-2, 7)]))
        kinds[f"n={n}"] += 1
        _kinds_of(m, kinds)
        verdict = {"schema": jsonio.SCHEMA, "command": "normalize-regsing", "inputs_digest": "0" * 64,
                   "result": {"gauge": m}, "notes": []}
        for obj in (m, verdict, [m, {"m": m}]):
            want = json.dumps(obj, sort_keys=True, indent=2, default=scalar_gauge_json)
            assert jsonio.dumps(obj) == want, want
    assert len(kinds) == 13 and min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize("m", [
    LaurentMatrix(1, {0: ([[10**4400]], [[0]], 1)}),
    LaurentMatrix(2, {1: ([[1, 0], [0, 1]], [[0, 0], [0, 0]], 10**4400 + 1)}, 3),
    LaurentMatrix(1, {10**4400: ([[1]], [[0]], 1)}),
    LaurentMatrix(1, {0: ([[1]], [[0]], 1)}, 10**4400),
])
def test_dumps_refuses_a_laurent_matrix_past_the_digit_limit_as_json_does(m):
    with pytest.raises(ValueError):
        json.dumps(m, sort_keys=True, indent=2, default=scalar_gauge_json)
    with pytest.raises(ValueError):
        jsonio.dumps({"gauge": m})


def test_dumps_keeps_bools_apart_from_ints():
    for obj in ([True, 1, False, 0], {"t": True, "one": 1}, [1, True], [0, False]):
        assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    1.5, (1, 2), [1, 2.0], {"x": (0,)}, {"x": [[1], (2,)]}, {1: 2}, {"a": 1, None: 2}, b"x",
])
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


def _cell(rng, kinds):
    """One cell [re_num, re_den, im_num, im_den]: unreduced, with negative
    denominators, zeros written over any denominator, non-real, or now and
    then malformed."""
    x = rng.random()
    if x < 0.004:
        kinds["malformed"] += 1
        return rng.choice([[1, 0, 0, 1], [0, 1, 2, 0], [1, 1, 0], [True, 1, 0, 1], [1, 1, 0, 1.0],
                           "1/2", None])
    if x < 0.3:
        kinds["zero_written"] += 1
        return [0, rng.choice([-5, -3, -1, 1, 2, 7]), 0, rng.choice([-4, -1, 1, 5])]
    f = rng.choice([1, 1, 2, 3, -1, -2, -4])
    cell = [rng.randint(-4, 4) * f, rng.choice([1, 2, 3, 5]) * f, 0, 1]
    if rng.random() < 0.3:
        g = rng.choice([1, 2, -3])
        cell[2:] = [rng.randint(-3, 3) * g, rng.choice([1, 2, 7]) * g]
    kinds["unreduced"] += abs(f) > 1 and cell[0] != 0
    kinds["negative_den"] += cell[1] < 0 or cell[3] < 0
    kinds["nonreal"] += cell[2] != 0
    return cell


def _laurent_doc(rng, kinds):
    """A Laurent-matrix document at n = 1..3: terms at degrees 0..6 in any
    order, some all zero, a truncation that now and then drops terms."""
    n = rng.randint(1, 3)
    degs = rng.sample(range(7), rng.randint(1, 5))
    terms = []
    for deg in degs:
        zero = rng.random() < 0.15
        kinds["zero_term"] += zero
        terms.append({"deg": deg, "entries": [
            [[0, rng.choice([1, -2]), 0, 1] if zero else _cell(rng, kinds) for _ in range(n)]
            for _ in range(n)]})
    trunc = rng.choice([None, None, rng.randint(1, 7)])
    kinds["past_trunc"] += trunc is not None and max(degs) >= trunc
    return {"n": n, "trunc": trunc, "terms": terms}


def _scalar_route(doc, order):
    """The digest's canonical form and the printed gauge on Scalars: each cell
    a `Fraction` pair, the gauge read back by `from_gaussian` and written by
    json."""
    n, trunc, coeffs = scalar_parse_laurent(doc)
    canonical = scalar_laurent_json(n, trunc, coeffs)
    m = laurent(n, coeffs, trunc)
    return canonical, json.dumps(scalar_gauge_json(regsing_normalize(m, order)),
                                 sort_keys=True, indent=2)


def _integer_route(doc, order):
    """The same on the package's integers: M as `parse_laurent` reads it, which
    must hold each term as `LaurentMatrix.__init__` would keep it and be the
    matrix its canonical form writes, and the gauge as `dumps` writes it."""
    m, canonical = jsonio.parse_laurent(doc)
    assert m == LaurentMatrix(m.n, m.coeffs, m.trunc) and scalar_gauge_json(m) == canonical
    return canonical, jsonio.dumps(regsing_normalize(m, order))


def _outcome(route, doc, order):
    try:
        canonical, gauge = route(doc, order)
    except (InputError, ResonantError, TruncationError) as exc:
        return type(exc).__name__, str(exc)
    return (jsonio.digest_of({"matrix": canonical, "order": order}),
            jsonio.digest_of({"matrix": canonical}), gauge)


def test_the_integer_route_matches_the_scalar_route():
    # seed 2402, 1,200 documents: the digests of `normalize-regsing` and
    # `slope` and the printed gauge must be the same bytes on both routes, and
    # so must every error.  They give 1,013 gauges, 128 truncation errors, 53
    # malformed documents and 6 resonant residues.
    rng = random.Random(2402)
    kinds = dict.fromkeys(["unreduced", "negative_den", "zero_written", "nonreal", "zero_term",
                           "past_trunc", "malformed"], 0)
    outcomes = {}
    for _ in range(1200):
        doc = _laurent_doc(rng, kinds)
        order = rng.randint(1, 5)
        want = _outcome(_scalar_route, doc, order)
        assert _outcome(_integer_route, doc, order) == want, doc
        kind = want[0] if len(want) == 2 else "gauge"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert min(kinds.values()) >= 20, kinds
    assert outcomes["gauge"] >= 800 and min(outcomes.values()) >= 5, outcomes



def _orbit_doc(rng):
    """An orbit document of one to three blocks, its cells now and then
    unreduced or non-real; two blocks may share an eigenvalue, which
    parse_orbit refuses."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        f = rng.choice([1, 2, -3])
        eig = [rng.randint(-9, 9) * f, rng.choice([1, 2, 3, 5]) * f, 0, 1]
        if rng.random() < 0.3:
            eig[2:] = [rng.randint(-3, 3), rng.choice([1, 2, -7])]
        part = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))), reverse=True)
        blocks.append({"eig": eig, "partition": part})
    return {"n": sum(sum(b["partition"]) for b in blocks), "blocks": blocks}


def _orbit_list_payload(rng, kinds):
    doc = {"orbits": [_orbit_doc(rng) for _ in range(rng.randint(1, 4))]}
    if rng.random() < 0.3:
        doc["sequences"] = [[_cell(rng, kinds) for _ in range(rng.randint(0, 3))]
                            for _ in doc["orbits"]]
    return jsonio.parse_orbit_list(doc)[2]


def _type_list_payload(rng, kinds):
    residues = [_orbit_doc(rng) for _ in range(rng.randint(1, 3))]
    types = [{"blocks": [{"q": [_cell(rng, kinds) for _ in range(rng.randint(1, 2))],
                          "dim": res["n"], "residue": res} for res in residues]}
             for _ in range(rng.randint(1, 2))]
    return jsonio.parse_type_list({"types": types})[1]


def _laurent_payload(rng, kinds):
    canonical = jsonio.parse_laurent(_laurent_doc(rng, kinds))[1]
    return {"matrix": canonical, **({"order": rng.randint(1, 9)} if rng.random() < 0.5 else {})}


def _coxeter_payload(rng, kinds):
    # the fields of coxeter-ds, rigidity and rigidity-table, with n and r
    # now and then past 64 bits
    n, r = (rng.choice([rng.randint(1, 9), rng.randint(1, 10**30)]) for _ in range(2))
    if rng.random() < 0.2:
        return {"family": rng.choice(["A", "B", "C", "D", "E7"]), "rank": n, "r": r}
    orbit = jsonio.orbit_json(jsonio.parse_orbit(_orbit_doc(rng)))
    if rng.random() < 0.3:
        return {"n": n, "r": r, "orbit": orbit}
    p0 = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if rng.random() < 0.5:
        p0 += f"{rng.randint(-9, 9):+d}/{rng.randint(1, 9)}i"
    return {"n": n, "r": r, "p0": jsonio.lowest_cell(*parse_gaussian(p0)), "orbit": orbit}


_PAYLOADS = {"orbit list": _orbit_list_payload, "type list": _type_list_payload,
             "Laurent matrix": _laurent_payload, "Coxeter fields": _coxeter_payload}


def test_digest_of_is_sha256_of_the_compact_sorted_json():
    # seed 3601, 300 draws from each of the four payload makers: each payload
    # a parser accepts digests to hashlib.sha256 of json.dumps(payload,
    # sort_keys=True, separators=(",", ":")), whichever sha256 jsonio took
    rng = random.Random(3601)
    kinds = dict.fromkeys(["unreduced", "negative_den", "zero_written", "nonreal", "zero_term",
                           "past_trunc", "malformed"], 0)
    digested = dict.fromkeys(_PAYLOADS, 0)
    for name, make in _PAYLOADS.items():
        for _ in range(300):
            try:
                payload = make(rng, kinds)
            except InputError:
                continue
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            assert jsonio.digest_of(payload) == hashlib.sha256(text.encode()).hexdigest(), text
            digested[name] += 1
    assert min(digested.values()) >= 150, digested


class _List(list):
    pass


class _Int(int):
    pass


def _read_cell(obj):
    """A cell as every parser reads it: its triple, or the shape error at c."""
    return jsonio._cell(obj) or jsonio._check_scalar(obj, "c")


def test_the_parsers_accept_exactly_the_types_json_load_makes():
    # a subclass of list or int, which json.load never makes, is refused with
    # the message a bool or a float gets
    orbit = {"n": 1, "blocks": [{"eig": [0, 1, 0, 1], "partition": [1]}]}
    assert jsonio.parse_orbit(orbit).n == 1
    cell = "scalar must be a 4-tuple of integers [re_num, re_den, im_num, im_den]"
    for eig in (_List([0, 1, 0, 1]), [0, _Int(1), 0, 1], [0, True, 0, 1]):
        with pytest.raises(InputError, match=rf"^orbit\.blocks\[0\]\.eig: {re.escape(cell)}$"):
            jsonio.parse_orbit({"n": 1, "blocks": [{"eig": eig, "partition": [1]}]})
    for part in (_List([1]), [_Int(1)], [True], [1.0]):
        with pytest.raises(InputError, match=r"^orbit\.blocks\[0\]\.partition: must be a "
                                             r"nonempty array of integers$"):
            jsonio.parse_orbit({"n": 1, "blocks": [{"eig": [0, 1, 0, 1], "partition": part}]})
    for n in (_Int(1), True):
        with pytest.raises(InputError, match=r"^orbit\.n: must be an integer$"):
            jsonio.parse_orbit({"n": n, "blocks": orbit["blocks"]})
    assert jsonio.lowest_cell(*as_triple(_read_cell([2, -4, 0, 3]))) == [-1, 2, 0, 1]
    for bad in (_List([1, 2, 0, 1]), [_Int(1), 2, 0, 1]):
        with pytest.raises(InputError, match=rf"^c: {re.escape(cell)}$"):
            _read_cell(bad)
    with pytest.raises(InputError, match=r"^c: scalar denominator must be nonzero$"):
        _read_cell([1, 0, 0, 1])


# a zero denominator on either part, a bool, a float, three or five entries,
# a string and null
_BAD_CELLS = {"zero_den": ([1, 0, 0, 1], [0, 1, 2, 0]),
              "bool": ([True, 1, 0, 1], [0, 1, 0, False]),
              "float": ([1, 1, 0, 1.0], [0.5, 1, 0, 1]),
              "short": ([1, 1, 0], [1, 1, 0, 1, 1]),
              "other": ("1/2", None)}


def _spoil(rng, rows, kinds):
    """Now and then one cell of rows (lists of cells) replaced by a malformed one."""
    rows = [r for r in rows if r]
    if rows and rng.random() < 0.25:
        kind = rng.choice(sorted(_BAD_CELLS))
        kinds[kind] += 1
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice(_BAD_CELLS[kind])


def _sequence_doc(rng, kinds):
    orbits = [_orbit_doc(rng) for _ in range(rng.randint(1, 3))]
    seqs = [[_cell(rng, kinds) for _ in range(rng.randint(0, 4))] for _ in orbits]
    _spoil(rng, seqs, kinds)
    return {"orbits": orbits, "sequences": seqs}


def _q_doc(rng, kinds):
    types = []
    for _ in range(rng.randint(1, 2)):
        residues = [_orbit_doc(rng) for _ in range(rng.randint(1, 3))]
        qs = [[_cell(rng, kinds) for _ in range(rng.randint(0, 3))] for _ in residues]
        _spoil(rng, qs, kinds)
        types.append({"blocks": [{"q": q, "dim": res["n"], "residue": res}
                                 for q, res in zip(qs, residues)]})
    return {"types": types}


def _matrix_doc(rng, kinds):
    doc = _laurent_doc(rng, kinds)
    _spoil(rng, [row for term in doc["terms"] for row in term["entries"]], kinds)
    return doc


def _reading(parse, doc):
    try:
        parsed = parse(doc)
    except InputError as exc:
        return "InputError", str(exc)
    return parsed, jsonio.digest_of(parsed[-1])


def test_the_one_cell_reader_matches_the_former_route():
    # seed 3701, 400 documents of each shape: factor sequences, q coefficients
    # and Laurent matrices, read by `_cell` with one reduction in the record
    # and by the former route, which reduced each cell first (`reduced_cell`,
    # `cell_triple`, the canonical form built beside M).  The parsed values,
    # the payloads, their digests and every message must be the same.  They
    # give 294, 190 and 300 parsed documents and 106, 210 and 100 errors.
    rng = random.Random(3701)
    kinds = dict.fromkeys(["unreduced", "negative_den", "zero_written", "nonreal", "zero_term",
                           "past_trunc", "malformed", *_BAD_CELLS], 0)
    shapes = {"sequences": (_sequence_doc, former_parse_orbit_list, jsonio.parse_orbit_list),
              "q": (_q_doc, former_parse_type_list, jsonio.parse_type_list),
              "matrix": (_matrix_doc, former_parse_laurent, jsonio.parse_laurent)}
    outcomes = {}
    for name, (make, former, parse) in shapes.items():
        for _ in range(400):
            doc = make(rng, kinds)
            want = _reading(former, doc)
            assert _reading(parse, doc) == want, doc
            key = (name, "error" if want[0] == "InputError" else "parsed")
            outcomes[key] = outcomes.get(key, 0) + 1
    assert min(kinds.values()) >= 30, kinds
    assert len(outcomes) == 6 and min(outcomes.values()) >= 90, outcomes


_DOC = b'{"schema": "ds-kit/1", "matrix": {"n": 1, "terms": []}}'

# each file as bytes: malformed and well-formed documents with CR LF, lone CR
# and mixed line ends, a raw CR in a string, a BOM, bytes that are not UTF-8,
# an empty file, a non-object, nesting 100,000 deep and a 5,000-digit integer
_FILES = {
    "crlf_missing_comma": b'{\r\n  "schema": "ds-kit/1",\r\n  "matrix": {"n": 1 "terms": []}\r\n}\r\n',
    "cr_missing_comma": b'{\r  "schema": "ds-kit/1",\r  "matrix": {"n": 1 "terms": []}\r}\r',
    "mixed_missing_value": b'{\n\r\n\r"schema": "ds-kit/1",\r\n "x": [1, 2,\r\r\n ]}',
    "crlf_unterminated": b'{\r\n"schema": "ds-kit/1",\r\n"x": "abc\r\n}',
    "cr_in_string": b'{"schema": "ds-kit/1", "x": "a\rb"}',
    "crlf_schema": b'{\r\n"schema": "ds-kit/2"\r\n}\r\n',
    "crlf_document": _DOC.replace(b", ", b",\r\n"),
    "cr_document": _DOC.replace(b", ", b",\r"),
    "bom": b"\xef\xbb\xbf" + _DOC,
    "crlf_bom": b"\xef\xbb\xbf" + _DOC.replace(b", ", b",\r\n"),
    "invalid_byte": b'{\r\n"schema": "ds-kit/1",\r\n"x": "\xff"}',
    "truncated_sequence": b'{"schema": "ds-kit/1", "x": "\xe2\x82',
    "encoded_surrogate": b'{"schema": "ds-kit/1", "x": "\xed\xa0\x80"}',
    "non_ascii": '{"schema": "ds-kit/1", "x": "é€😀\\r"}'.encode(),
    "empty": b"",
    "line_ends_only": b"\r\n\r",
    "not_an_object": b"[1,\r\n 2]",
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "deep_field": b'{"schema": "ds-kit/1", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "long_int": b'{"schema": "ds-kit/1", "n": ' + b"7" * 5000 + b"}",
}


def _loaded(load, path):
    try:
        return load(path)
    except InputError as exc:
        return "InputError", str(exc)


def test_load_document_reads_bytes_as_text_mode_does(tmp_path):
    # the same document or the same message as json.load(open(path,
    # encoding="utf-8")) on each file above, a missing path and a directory
    paths = {"missing": tmp_path / "missing.json", "directory": tmp_path}
    for name, data in _FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    got = {name: _loaded(jsonio.load_document, str(path)) for name, path in paths.items()}
    for name, path in paths.items():
        assert got[name] == _loaded(text_mode_load_document, str(path)), name
    docs = [name for name, v in got.items() if type(v) is dict]
    assert sorted(docs) == ["cr_document", "crlf_document", "non_ascii"], got
    assert got["crlf_document"] == json.loads(_DOC) and got["non_ascii"]["x"] == "é€😀\r"
    assert "line 3 column 21 (char 46)" in got["crlf_missing_comma"][1]
    assert "line 3 column 21 (char 46)" in got["cr_missing_comma"][1]
    assert "can't decode byte 0xff in position 32" in got["invalid_byte"][1]
    assert "Unexpected UTF-8 BOM" in got["bom"][1] and "recursion" in got["deep"][1]
    assert "digits" in got["long_int"][1] and got["missing"][1].startswith("cannot read")
