"""JSON (de)serialization for the ds-kit/1 document schema.

Every parse error names the offending field with a dotted path so CLI users
can find it; serializers emit the canonical form the input digests are
computed over.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import Any, NoReturn

from . import linalg
from .core import OrbitSpec, cell_triple
from .errors import InputError
from .laurent import LaurentMatrix
from .unramified import UnramBlock, UnramFormalType

SCHEMA = "ds-kit/1"


def _fail(path: str, msg: str) -> NoReturn:
    raise InputError(f"{path}: {msg}")


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# Cells: a Gaussian rational as [re_num, re_den, im_num, im_den].
# ---------------------------------------------------------------------------


def _check_scalar(obj: Any, path: str) -> None:
    if not isinstance(obj, list) or len(obj) != 4 or not all(_is_int(x) for x in obj):
        _fail(path, "scalar must be a 4-tuple of integers "
                    "[re_num, re_den, im_num, im_den]")
    if obj[1] == 0 or obj[3] == 0:
        _fail(path, "scalar denominator must be nonzero")


# ---------------------------------------------------------------------------
# Orbits.
# ---------------------------------------------------------------------------


def parse_orbit(obj: Any, path: str = "orbit") -> OrbitSpec:
    """An orbit document: each eigenvalue cell [a, b, c, d] is checked once
    and passed as the triple (a d, c b, b d), which `OrbitSpec` reduces, and
    the orbit holds the eigenvalues as integers."""
    if not isinstance(obj, dict):
        _fail(path, "orbit must be an object")
    n = obj.get("n")
    if not _is_int(n):
        _fail(f"{path}.n", "must be an integer")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        _fail(f"{path}.blocks", "must be a nonempty array")
    pairs = []
    for k, blk in enumerate(blocks):
        bpath = f"{path}.blocks[{k}]"
        if not isinstance(blk, dict):
            _fail(bpath, "block must be an object")
        if "eig" not in blk:
            _fail(f"{bpath}.eig", "missing")
        part = blk.get("partition")
        # a list of exact ints passes the first test, subclasses of list or int the second
        if not (type(part) is list and set(map(type, part)) == {int}
                or isinstance(part, list) and part and all(map(_is_int, part))):
            _fail(f"{bpath}.partition", "must be a nonempty array of integers")
        eig = blk["eig"]
        if not (type(eig) is list and len(eig) == 4 and set(map(type, eig)) == {int}
                and eig[1] and eig[3]):
            _check_scalar(eig, f"{bpath}.eig")
            eig = list(map(int, eig))  # a subclass of list or int
        a, b, c, d = eig
        pairs.append(((a * d, c * b, b * d), part))
    try:
        return OrbitSpec(n, pairs)
    except InputError as exc:
        _fail(path, str(exc))


def orbit_json(o: OrbitSpec) -> dict[str, Any]:
    """The canonical form of o: each eigenvalue as a cell in lowest terms."""
    return {
        "n": o.n,
        "blocks": [
            {"eig": lowest_cell(x, y, o.den), "partition": list(part)}
            for x, y, part in zip(o.re, o.im, o.parts)
        ],
    }


# ---------------------------------------------------------------------------
# Unramified formal types.
# ---------------------------------------------------------------------------


def parse_unram_type(obj: Any, path: str = "type") -> UnramFormalType:
    if not isinstance(obj, dict):
        _fail(path, "formal type must be an object")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        _fail(f"{path}.blocks", "must be a nonempty array")
    parsed = []
    for k, blk in enumerate(blocks):
        bpath = f"{path}.blocks[{k}]"
        if not isinstance(blk, dict):
            _fail(bpath, "block must be an object")
        q = blk.get("q")
        if not isinstance(q, list):
            _fail(f"{bpath}.q", "must be an array of scalars "
                               "(coefficients of z^-1, z^-2, ...)")
        dim = blk.get("dim")
        if not _is_int(dim):
            _fail(f"{bpath}.dim", "must be an integer")
        if "residue" not in blk:
            _fail(f"{bpath}.residue", "missing")
        residue = parse_orbit(blk["residue"], f"{bpath}.residue")
        qs = [cell_triple(*reduced_cell(c, f"{bpath}.q[{m}]")) for m, c in enumerate(q)]
        try:
            parsed.append(UnramBlock(qs, dim, residue))
        except InputError as exc:
            _fail(bpath, str(exc))
    try:
        return UnramFormalType(parsed)
    except InputError as exc:
        _fail(path, str(exc))


def unram_type_json(d: UnramFormalType) -> dict[str, Any]:
    return {
        "blocks": [
            {
                "q": [lowest_cell(*c) for c in b.q],
                "dim": b.dim,
                "residue": orbit_json(b.residue),
            }
            for b in d.blocks
        ],
    }


# ---------------------------------------------------------------------------
# Laurent matrices.
# ---------------------------------------------------------------------------


def parse_laurent(obj: Any, path: str = "matrix") -> tuple[LaurentMatrix, dict[str, Any]]:
    """The matrix M of a Laurent-matrix document, and its canonical form: the
    form `laurent_json` writes, over which the input digest is taken.

    Each cell is checked once and reduced to lowest terms with a positive
    denominator.  The canonical form keeps the reduced cells of each nonzero
    term below trunc, in increasing degree; M holds each such term as one
    Z[i] triple over the lcm of its denominators.
    """
    if not isinstance(obj, dict):
        _fail(path, "matrix must be an object")
    n = obj.get("n")
    if not _is_int(n) or n < 1:
        _fail(f"{path}.n", "must be a positive integer")
    trunc = obj.get("trunc")
    if trunc is not None and not _is_int(trunc):
        _fail(f"{path}.trunc", "must be an integer or null")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        _fail(f"{path}.terms", "must be an array")
    seen: set[int] = set()
    coeffs: dict[int, linalg.Gaussian] = {}
    canonical = []
    for k, term in enumerate(terms):
        tpath = f"{path}.terms[{k}]"
        if not isinstance(term, dict):
            _fail(tpath, "term must be an object")
        deg = term.get("deg")
        if not _is_int(deg):
            _fail(f"{tpath}.deg", "must be an integer")
        if deg in seen:
            _fail(f"{tpath}.deg", f"duplicate degree {deg}")
        seen.add(deg)
        entries = term.get("entries")
        if not isinstance(entries, list) or len(entries) != n:
            _fail(f"{tpath}.entries", f"must be an array of {n} rows")
        cells = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                _fail(f"{tpath}.entries[{i}]", f"must be an array of {n} scalars")
            reduced = list(map(_reduced, row))
            if None in reduced:
                reduced = [reduced_cell(cell, f"{tpath}.entries[{i}][{j}]")
                           for j, cell in enumerate(row)]
            cells.append(reduced)
        flat = [c for r in cells for c in r]
        if trunc is not None and deg >= trunc or not any(c[0] or c[2] for c in flat):
            continue
        den = lcm(*[c[1] for c in flat], *[c[3] for c in flat])
        coeffs[deg] = ([[c[0] * (den // c[1]) for c in r] for r in cells],
                       [[c[2] * (den // c[3]) for c in r] for r in cells], den)
        canonical.append({"deg": deg, "entries": cells})
    canonical.sort(key=lambda t: t["deg"])
    return LaurentMatrix(n, coeffs, trunc), {"n": n, "trunc": trunc, "terms": canonical}


def _reduced(cell: Any) -> list[int] | None:
    """The scalar cell [re_num, re_den, im_num, im_den] with each part in
    lowest terms over a positive denominator (0 as 0/1), or None unless cell
    is a list of four ints, not bools, with nonzero denominators."""
    if type(cell) is not list or len(cell) != 4:
        return None
    a, b, c, d = cell
    if not (type(a) is type(b) is type(c) is type(d) is int and b and d):
        return None
    g, h = gcd(a, b), gcd(c, d)
    if b < 0:
        g = -g
    if d < 0:
        h = -h
    return [a // g, b // g, c // h, d // h]


def reduced_cell(obj: Any, path: str) -> list[int]:
    """The scalar cell obj in lowest terms, as `_reduced` gives it, or the
    shape error at path."""
    cell = _reduced(obj)
    if cell is None:
        _check_scalar(obj, path)
        cell = _reduced(list(map(int, obj)))  # a subclass of list or int
    return cell


def lowest_cell(x: int, y: int, den: int) -> list[int]:
    """The cell of (x + i y) / den, den > 0, in lowest terms."""
    g, h = gcd(x, den), gcd(y, den)
    return [x // g, den // g, y // h, den // h]


def laurent_json(m: LaurentMatrix) -> dict[str, Any]:
    """The canonical form of m: its nonzero terms in increasing degree, each
    cell [re_num, re_den, im_num, im_den] in lowest terms."""
    terms = []
    for deg in m.support():
        re, im, den = m.coeffs[deg]
        entries = []
        for xr, yr in zip(re, im):
            entries.append([lowest_cell(x, y, den) for x, y in zip(xr, yr)])
        terms.append({"deg": deg, "entries": entries})
    return {"n": m.n, "trunc": m.trunc, "terms": terms}


# ---------------------------------------------------------------------------
# Documents and digests.
# ---------------------------------------------------------------------------


def load_document(path: str) -> dict[str, Any]:
    """Read a ds-kit/1 JSON document from a file, checking the schema tag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("$", "document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {doc.get('schema')!r}")
    return doc


def dumps(obj: Any) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), written without
    json's pure-Python encoder, which indent selects.

    obj is built of dict with str keys, list, str, int, bool and None, exactly
    those types and not subclasses of them; any other type, a tuple or float
    among them, raises TypeError.  An int past the interpreter's digit limit
    raises ValueError, as in json.
    """
    return _dumps(obj, "\n")


def _dumps(obj: Any, nl: str) -> str:
    """`dumps` of obj at the indentation that the line break nl carries."""
    t = type(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        if set(map(type, obj)) == {int}:
            items: Any = map(int.__repr__, obj)
        else:
            items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is str:
        return encode_basestring_ascii(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        fields = []
        for k, v in sorted(obj.items()):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            fields.append(encode_basestring_ascii(k) + ": " + _dumps(v, inner))
        return "{" + inner + ("," + inner).join(fields) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is int:
        return int.__repr__(obj)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def digest_of(payload: Any) -> str:
    """sha256 over the canonical serialization of the parsed inputs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
