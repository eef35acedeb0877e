"""JSON (de)serialization for the ds-kit/1 document schema.

Every parse error names the offending field with a dotted path so CLI users
can find it; serializers emit the canonical form the input digests are
computed over.  The parsers take exactly the types `json.load` makes, so an
integer is `type(x) is int` and a bool is refused.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import Any, NoReturn

from . import linalg
from .core import OrbitSpec, Triple, as_triple
from .errors import InputError
from .laurent import LaurentMatrix
from .unramified import UnramBlock, UnramFormalType

try:  # the built-in sha256, as random takes sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

SCHEMA = "ds-kit/1"
# the text json.dumps(payload, sort_keys=True, separators=(",", ":")) gives
# for the trees jsonio builds, which hold no cycle
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _fail(path: str, msg: str) -> NoReturn:
    raise InputError(f"{path}: {msg}")


# ---------------------------------------------------------------------------
# Cells: a Gaussian rational as [re_num, re_den, im_num, im_den].
# ---------------------------------------------------------------------------


def _check_scalar(obj: Any, path: str) -> None:
    if type(obj) is not list or len(obj) != 4 or set(map(type, obj)) != {int}:
        _fail(path, "scalar must be a 4-tuple of integers "
                    "[re_num, re_den, im_num, im_den]")
    if obj[1] == 0 or obj[3] == 0:
        _fail(path, "scalar denominator must be nonzero")


def _cell(obj: Any) -> Triple | None:
    """The triple (a d, c b, b d) of the cell [a, b, c, d], a/b + i c/d, not
    reduced, or None for anything `_check_scalar` refuses.  Every cell is read
    as `_cell(obj) or _check_scalar(obj, path)`, and the record it goes to
    reduces it (`as_triple`, or `LaurentMatrix` for a term)."""
    if type(obj) is not list or len(obj) != 4:
        return None
    a, b, c, d = obj
    if not (type(a) is type(b) is type(c) is type(d) is int and b and d):
        return None
    return a * d, c * b, b * d


# ---------------------------------------------------------------------------
# Orbits.
# ---------------------------------------------------------------------------


def parse_orbit(obj: Any, path: str = "orbit") -> OrbitSpec:
    """An orbit document: each eigenvalue cell is read by `_cell`, which
    `OrbitSpec` reduces, and the orbit holds the eigenvalues as integers."""
    if not isinstance(obj, dict):
        _fail(path, "orbit must be an object")
    n = obj.get("n")
    if type(n) is not int:
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
        if type(part) is not list or set(map(type, part)) != {int}:
            _fail(f"{bpath}.partition", "must be a nonempty array of integers")
        eig = blk["eig"]
        pairs.append((_cell(eig) or _check_scalar(eig, f"{bpath}.eig"), part))
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


def parse_orbit_list(
    doc: dict[str, Any],
) -> tuple[list[OrbitSpec], list[list[Triple]] | None, dict[str, Any]]:
    """The orbits of doc, its factor sequences if given, each factor the
    reduced triple (re, im, den) of (re + i im) / den, and the digest payload."""
    orbits_json = doc.get("orbits")
    if not isinstance(orbits_json, list) or not orbits_json:
        _fail("orbits", "must be a nonempty array")
    orbits = [parse_orbit(o, f"orbits[{k}]") for k, o in enumerate(orbits_json)]
    payload: dict[str, Any] = {"orbits": [orbit_json(o) for o in orbits]}
    seqs_json = doc.get("sequences")
    if seqs_json is None:
        return orbits, None, payload
    if not isinstance(seqs_json, list) or len(seqs_json) != len(orbits):
        _fail("sequences", "must be an array, one entry per orbit")
    seqs = []
    for k, seq in enumerate(seqs_json):
        if not isinstance(seq, list):
            _fail(f"sequences[{k}]", "must be an array of scalars")
        seqs.append([as_triple(_cell(c) or _check_scalar(c, f"sequences[{k}][{m}]"))
                     for m, c in enumerate(seq)])
    payload["sequences"] = [[lowest_cell(*t) for t in seq] for seq in seqs]
    return orbits, seqs, payload


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
        if type(dim) is not int:
            _fail(f"{bpath}.dim", "must be an integer")
        if "residue" not in blk:
            _fail(f"{bpath}.residue", "missing")
        residue = parse_orbit(blk["residue"], f"{bpath}.residue")
        qs = [_cell(c) or _check_scalar(c, f"{bpath}.q[{m}]") for m, c in enumerate(q)]
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


def parse_type_list(doc: dict[str, Any]) -> tuple[list[UnramFormalType], dict[str, Any]]:
    """The formal types of doc and the digest payload."""
    types_json = doc.get("types")
    if not isinstance(types_json, list) or not types_json:
        _fail("types", "must be a nonempty array")
    types = [parse_unram_type(t, f"types[{k}]") for k, t in enumerate(types_json)]
    return types, {"types": [unram_type_json(t) for t in types]}


# ---------------------------------------------------------------------------
# Laurent matrices.
# ---------------------------------------------------------------------------


def parse_laurent(obj: Any, path: str = "matrix") -> tuple[LaurentMatrix, dict[str, Any]]:
    """The matrix M of a Laurent-matrix document, and its canonical form
    `laurent_json(M)`, over which the input digest is taken.

    Each cell is read by `_cell`, and each term is passed as its triples
    over the lcm of their denominators: `LaurentMatrix` drops the zero terms
    and those at or past trunc, and keeps the rest over their least
    denominator.
    """
    if not isinstance(obj, dict):
        _fail(path, "matrix must be an object")
    n = obj.get("n")
    if type(n) is not int or n < 1:
        _fail(f"{path}.n", "must be a positive integer")
    trunc = obj.get("trunc")
    if trunc is not None and type(trunc) is not int:
        _fail(f"{path}.trunc", "must be an integer or null")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        _fail(f"{path}.terms", "must be an array")
    coeffs: dict[int, linalg.Gaussian] = {}
    for k, term in enumerate(terms):
        tpath = f"{path}.terms[{k}]"
        if not isinstance(term, dict):
            _fail(tpath, "term must be an object")
        deg = term.get("deg")
        if type(deg) is not int:
            _fail(f"{tpath}.deg", "must be an integer")
        if deg in coeffs:
            _fail(f"{tpath}.deg", f"duplicate degree {deg}")
        entries = term.get("entries")
        if not isinstance(entries, list) or len(entries) != n:
            _fail(f"{tpath}.entries", f"must be an array of {n} rows")
        cells = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                _fail(f"{tpath}.entries[{i}]", f"must be an array of {n} scalars")
            cells.append([_cell(c) or _check_scalar(c, f"{tpath}.entries[{i}][{j}]")
                          for j, c in enumerate(row)])
        den = lcm(*[t[2] for r in cells for t in r])
        coeffs[deg] = ([[x * (den // d) for x, _, d in r] for r in cells],
                       [[y * (den // d) for _, y, d in r] for r in cells], den)
    m = LaurentMatrix(n, coeffs, trunc)
    return m, laurent_json(m)


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


def required(doc: dict[str, Any], key: str) -> Any:
    """The field key of a document, which must be present."""
    if key not in doc:
        _fail(key, "missing")
    return doc[key]


def dumps(obj: Any) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), written without
    json's pure-Python encoder, which indent selects.

    obj is built of dict with str keys, list, str, int, bool and None, exactly
    those types and not subclasses of them; any other type, a tuple or float
    among them, raises TypeError.  An int past the interpreter's digit limit
    raises ValueError, as in json.  A rectangular array of ints, one whose
    lists at each level all have one nonzero length and whose leaves all
    have type int, is written by one `%` format, built once for its shape
    and indentation (`_array_format`).
    """
    return _dumps(obj, "\n")


def _dumps(obj: Any, nl: str) -> str:
    """`dumps` of obj at the indentation that the line break nl carries."""
    t = type(obj)
    if t is list:
        if not obj:
            return "[]"
        # the shape of obj, down through the levels whose lists all have one
        # nonzero length; flat holds the lists or leaves of the lowest one
        shape, flat = [len(obj)], obj
        while type(flat[0]) is list and set(map(type, flat)) == {list}:
            if set(map(len, flat)) != {len(flat[0])} or not flat[0]:
                break
            shape.append(len(flat[0]))
            flat = list(chain.from_iterable(flat))
        if set(map(type, flat)) == {int}:
            return _array_format(tuple(shape), nl) % tuple(flat)
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"
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


@lru_cache(maxsize=64)
def _array_format(shape: tuple[int, ...], nl: str) -> str:
    """The `%` format that writes a rectangular int array of this shape, its
    entries in row-major order, as `_dumps` at the line break nl."""
    inner = nl + "  "
    item = _array_format(shape[1:], inner) if len(shape) > 1 else "%d"
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def digest_of(payload: Any) -> str:
    """sha256 over the canonical serialization of the parsed inputs."""
    return sha256(_CANONICAL.encode(payload).encode("utf-8")).hexdigest()
