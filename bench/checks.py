"""Verdict checks that do not rely on ``dskit``.

``check`` returns a list of problems with one verdict (empty when it passes).
Independent checks recompute the answer from a closed form or verify the
certificate the verdict carries with this module's own exact arithmetic;
regression checks compare the verdict bytes with ``refs.json``, recorded by
``record_refs.py``.  Every verdict's ``inputs_digest`` is recomputed here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction
from typing import Any

from workloads import SCHEMA, digest

# Gaussian rationals as (re, im) pairs of Fractions; sparse matrices as
# {(row, col): value} with 0-based indices and no zero entries.
ZERO = (Fraction(0), Fraction(0))


def _g(c: list[int]) -> tuple[Fraction, Fraction]:
    return (Fraction(c[0], c[1]), Fraction(c[2], c[3]))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _spmul(a: dict, b: dict) -> dict:
    rows: dict[int, list] = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), u in a.items():
        for j, v in rows.get(k, ()):
            out[(i, j)] = _add(out.get((i, j), ZERO), _mul(u, v))
    return {key: v for key, v in out.items() if v != ZERO}


def nilpotent(m: dict, n: int) -> bool:
    """m^n == 0 for an n x n sparse matrix."""
    p = dict(m)
    for _ in range(n - 1):
        if not p:
            return True
        p = _spmul(p, m)
    return not p


def _monomials(mdoc: dict) -> list[tuple[int, int, int, tuple]]:
    """(deg, a, b, value) with 1-based a, b for every nonzero entry."""
    out = []
    for term in mdoc["terms"]:
        for a, row in enumerate(term["entries"], start=1):
            for b, c in enumerate(row, start=1):
                v = _g(c)
                if v != ZERO:
                    out.append((term["deg"], a, b, v))
    return out


# ---------------------------------------------------------------------------
# Parahoric strata from the lattice-chain definition.
# ---------------------------------------------------------------------------


def parahorics(n: int) -> list[tuple[int, ...]]:
    """Every J with 0 in J inside 0..n-1, in lexicographic order."""
    return sorted((0,) + c for k in range(n) for c in itertools.combinations(range(1, n), k))


def _exponent(n: int, J: tuple[int, ...], j: int, i: int) -> int:
    """z-exponent of e_i in L^j, where L^j = span(z e_i : i > n - k_j; e_i else)
    and L^(j+e) = z L^j."""
    q, s = divmod(j, len(J))
    return q + (1 if i > n - J[s] else 0)


def filtration_degree(n: int, J: tuple[int, ...], a: int, b: int, k: int) -> int:
    """Largest s with E_ab z^k L^i inside L^(i+s) for every i."""
    e = len(J)
    for s in range(k * e + e, k * e - e - 1, -1):
        if all(_exponent(n, J, j + s, a) <= k + _exponent(n, J, j, b) for j in range(e)):
            return s
    raise AssertionError("degree outside k*e +- e")


def stratum(n: int, J: tuple[int, ...], monos) -> tuple[Fraction, bool]:
    """(depth, fundamental) of the leading stratum at the parahoric J.  The
    leading term is homogeneous, so evaluating it at z = 1 is a ring map and
    beta^n = 0 iff beta(1)^n = 0."""
    degs = [filtration_degree(n, J, a, b, k) for k, a, b, _ in monos]
    dmin = min(degs)
    beta1 = {(a - 1, b - 1): v for (k, a, b, v), d in zip(monos, degs) if d == dmin}
    return Fraction(-dmin, len(J)), not nilpotent(beta1, n)


# ---------------------------------------------------------------------------
# Per-family checks.
# ---------------------------------------------------------------------------


def _check_slope(req, code, v, errs):
    mdoc = req["doc"]["matrix"]
    n = mdoc["n"]
    monos = _monomials(mdoc)
    res = v["result"]
    exp = req["expect"]
    kind = res.get("kind")
    if "kind" in exp and kind != exp["kind"]:
        errs.append(f"kind {kind}, expected {exp['kind']}")
        return
    if "slope" in exp and res.get("slope") != exp["slope"]:
        errs.append(f"slope {res.get('slope')}, expected {exp['slope']}")
    if "witness_parahoric" in exp and res.get("witness_parahoric") != exp["witness_parahoric"]:
        errs.append(f"witness {res.get('witness_parahoric')}, expected {exp['witness_parahoric']}")
    if "pole" in exp:
        lead = {(a - 1, b - 1): val for k, a, b, val in monos if k == -exp["pole"]}
        if not nilpotent(lead, n):  # fundamental already at J = (0,)
            if (kind, res.get("slope"), res.get("witness_parahoric")) != (
                    "CertifiedSlope", str(exp["pole"]), [0]):
                errs.append(f"expected slope {exp['pole']} at [0], got {res}")
                return
    if kind not in ("CertifiedSlope", "UpperBoundOnly"):
        errs.append(f"unexpected kind {kind}")
        return
    J = tuple(res["witness_parahoric"])
    depth, fund = stratum(n, J, monos)
    claimed = Fraction(res["slope"] if kind == "CertifiedSlope" else res["bound"])
    if depth != claimed:
        errs.append(f"witness {list(J)} has depth {depth}, verdict says {claimed}")
    # the witness is the first fundamental stratum, or none is fundamental
    scan = [p for p in parahorics(n) if p < J] if kind == "CertifiedSlope" else parahorics(n)
    strata = [stratum(n, p, monos) for p in scan]
    if any(f for _, f in strata):
        errs.append("a parahoric before the witness is already fundamental")
    if kind == "CertifiedSlope":
        if not fund or code != 0:
            errs.append(f"certified witness is not fundamental (exit {code})")
    else:
        if fund or code != 3:
            errs.append(f"upper-bound witness is fundamental (exit {code})")
        if claimed != min(d for d, _ in strata):
            errs.append("bound is not the least depth")


def _read_laurent(mdoc: dict) -> dict[int, dict]:
    return {
        t["deg"]: {(a, b): _g(c) for a, row in enumerate(t["entries"])
                   for b, c in enumerate(row) if _g(c) != ZERO}
        for t in mdoc["terms"]
    }


def _check_gauge(req, code, v, errs):
    """g M - z g' == B0 g (mod z^order) and g_0 = I, in exact arithmetic."""
    order = req["expect"]["order"]
    m = _read_laurent(req["doc"]["matrix"])
    gdoc = v["result"].get("gauge")
    if code != 0 or not isinstance(gdoc, dict):
        errs.append(f"no gauge (exit {code})")
        return
    n = req["doc"]["matrix"]["n"]
    if gdoc.get("n") != n or gdoc.get("trunc") != order:
        errs.append("gauge has the wrong size or truncation")
        return
    g = _read_laurent(gdoc)
    if g.get(0) != {(i, i): (Fraction(1), Fraction(0)) for i in range(n)}:
        errs.append("g_0 is not the identity")
    b0 = m.get(0, {})
    for k in range(order):
        lhs: dict = {}
        for i in range(k + 1):
            for key, val in _spmul(g.get(i, {}), m.get(k - i, {})).items():
                lhs[key] = _add(lhs.get(key, ZERO), val)
        for key, val in g.get(k, {}).items():
            lhs[key] = _add(lhs.get(key, ZERO), _mul((Fraction(-k), Fraction(0)), val))
        for key, val in _spmul(b0, g.get(k, {})).items():
            lhs[key] = _add(lhs.get(key, ZERO), (-val[0], -val[1]))
        if any(val != ZERO for val in lhs.values()):
            errs.append(f"gauge identity fails at z^{k}")
            return


_FLAG_NOTE = re.compile(
    r"the parts>=3 reading gives (True|False), the parts>=2 reading "
    r"\(--flag ell-ge-2\) gives (True|False)"
)


def _check_unramified_notes(v, errs):
    """Both readings in the flag note; parts>=2 true implies parts>=3 true."""
    exists = v["result"].get("exists")
    for note in v["notes"]:
        m = _FLAG_NOTE.search(note)
        if m:
            three, two = m.group(1) == "True", m.group(2) == "True"
            if three != exists or two == three or (two and not three):
                errs.append(f"inconsistent flag note: {note}")


def _check_quiver(req, code, v, out_text, errs):
    res = v["result"]
    want = req["expect"]["vertices"]
    if code != 0 or res.get("vertices") != want:
        errs.append(f"quiver has {res.get('vertices')} vertices, expected {want}")
    nodes = 0 if out_text is None else out_text.count("[label=")
    if out_text is None or not out_text.startswith("digraph") or nodes != want:
        errs.append(f"DOT file has {nodes} node lines, expected {want}")


def check(req: dict, code: int, stdout: str, out_text: str | None,
          refs: dict[str, Any]) -> list[str]:
    """Problems with one verdict; ``req`` is ``Request.to_json()``."""
    errs: list[str] = []
    family = req["family"]
    ref = refs.get(req["ref_key"]) if req["reference"] == "regression" else None
    if req["reference"] == "regression" and ref is None:
        return [f"no recorded reference for {req['command']} {req['ref_key'][:12]}"]
    if ref is not None and family != "fuchsian-budget":
        got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if code != ref["exit"] or got != ref["stdout_sha256"]:
            errs.append(f"verdict bytes differ from the recorded reference (exit {code})")
    try:
        v = json.loads(stdout)
    except ValueError:
        return errs + [f"stdout is not a verdict (exit {code}): {stdout[:80]!r}"]
    if set(v) != {"schema", "command", "inputs_digest", "result", "notes"}:
        return errs + [f"verdict keys {sorted(v)}"]
    if v["schema"] != SCHEMA or v["command"] != req["command"]:
        errs.append("wrong schema or command")
    if v["inputs_digest"] != digest(req["payload"]):
        errs.append("wrong inputs_digest")
    res, exp = v["result"], req["expect"]

    if family in ("fuchsian-rank2-triple", "fuchsian-generic"):
        if code != 0 or res != {"exists": exp["exists"], "rigidity": exp["rigidity"]}:
            errs.append(f"got {res}, expected {exp}")
    elif family == "fuchsian-budget":
        inconclusive = code == 3 and res.get("kind") == "Inconclusive" and "budget" in res.get("reason", "")
        if not inconclusive and (code != ref["exit"] or res != ref["result"]):
            errs.append(f"budget-capped verdict {res} (exit {code}) is neither Inconclusive nor the reference")
    elif family == "unramified":
        if code != 0 or res != {"exists": False} or v["notes"]:
            errs.append(f"nonzero residue-trace sum must give false, got {res}")
    elif family == "unramified-regression":
        _check_unramified_notes(v, errs)
    elif family == "count-rank2":
        if code != 0 or res != {"count": exp["count"]}:
            errs.append(f"count {res}, expected {exp['count']}")
    elif family == "quiver":
        _check_quiver(req, code, v, out_text, errs)
    elif family == "slope":
        _check_slope(req, code, v, errs)
    elif family == "gauge":
        _check_gauge(req, code, v, errs)
    elif family in ("coxeter-ds", "rigidity"):
        if code != 0 or res != exp:
            errs.append(f"got {res}, expected {exp}")
    elif family != "regression":
        errs.append(f"no checker for family {family}")
    return errs
