"""Command-line surface.

Every decision subcommand prints one verdict document to stdout:

    {"schema": "ds-kit/1", "command": ..., "inputs_digest": ...,
     "result": ..., "notes": [...]}

serialized with sorted keys so identical inputs produce byte-identical
output.  Exit code 0 means decided, 2 means malformed input (message on
stderr, no verdict), 3 means inconclusive (budget exhausted or only an upper
bound); the exit-3 verdict is still emitted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Sequence

from . import jsonio
from .core import OrbitSpec, Triple, cell_triple, gaussian_str, parse_gaussian
from .coxeter import SimpleTypeQuery, coxeter_ds_decide, is_rigid_coxeter_gl, rigid_table_readings
from .errors import BudgetExceededError, InputError
from .formal import (
    CertifiedSlope,
    CoxeterFormalType,
    RegularSingularCandidate,
    certify_slope,
    regsing_normalize,
)
from .fuchsian import CBData, FuchsianRigidity, build_cb_data, fuchsian_rigidity
from .rootsys import DEFAULT_BUDGET
from .unramified import build_hiroe_data, count_rank2_moduli


# the --flag of each subcommand that has one: its value, the reading the
# verdict follows by default, and the one the flag selects
_READINGS = {
    "unramified-ds": ("ell-ge-2", "parts>=3", "parts>=2"),
    "rigidity-table": ("table-conjunction", "either-divisor", "both-divisors"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first run and reused by every later one."""
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help="cap on search nodes: each box vector 0 <= beta <= alpha, then "
             "each step of the table of best p-sums; for slope, each of the 2^(n-1) "
             f"standard parahorics (default {DEFAULT_BUDGET:,}); both readings of "
             "unramified-ds come from one table, so they fit together or not at all",
    )

    ap = argparse.ArgumentParser(
        prog="ds-kit",
        description="Deligne-Simpson existence and rigidity decisions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fuchsian-ds", parents=[budget],
        help="decide the additive problem for residue orbits at sum zero",
    )
    p.add_argument("--input", required=True, help="JSON file with 'orbits'")

    p = sub.add_parser(
        "unramified-ds", parents=[budget],
        help="decide existence for a tuple of unramified formal types",
    )
    p.add_argument("--input", required=True, help="JSON file with 'types'")
    p.add_argument(
        "--flag", choices=_READINGS["unramified-ds"][:1],
        help="follow the parts>=2 reading of condition (2), decompositions "
             "into two or more parts, instead of the printed parts>=3; a "
             "disagreement between the two readings surfaces in notes",
    )

    p = sub.add_parser(
        "coxeter-ds",
        help="decide existence for a Coxeter formal type plus one orbit",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p0", required=True,
                   help="scalar, e.g. 0 or 2-i; a negative one takes =, as in --p0=-1/2")
    p.add_argument("--orbit", required=True, help="JSON file with 'orbit'")

    p = sub.add_parser(
        "rigidity",
        help="rigidity of a nilpotent orbit for slope r/n (gl_n)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--orbit", required=True, help="JSON file with 'orbit'")

    p = sub.add_parser(
        "rigidity-table",
        help="rigidity of the homogeneous type of slope r/h for a simple type",
    )
    p.add_argument("--type", required=True, dest="family",
                   help="A, B, C, D, or E7")
    p.add_argument("--rank", type=int, required=True,
                   help="rank parameter as the table prints it "
                        "(family A is keyed by matrix size n)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--flag", choices=_READINGS["rigidity-table"][:1],
        help="follow the both-divisors reading of the two-condition rows "
             "(types B and D) instead of the either-divisor one; a "
             "disagreement between the two readings surfaces in notes",
    )

    p = sub.add_parser(
        "slope", parents=[budget],
        help="certify the slope of d + M dz/z from a fixed trivialization",
    )
    p.add_argument("--matrix", required=True, help="JSON file with 'matrix'")

    p = sub.add_parser(
        "normalize-regsing",
        help="gauge a simple-pole connection to its residue term",
    )
    p.add_argument("--matrix", required=True, help="JSON file with 'matrix'")
    p.add_argument("--order", type=int, required=True,
                   help="work modulo z^order")

    p = sub.add_parser(
        "count-rank2",
        help="moduli count for rank-2 slope-1 unramified data plus one orbit",
    )
    p.add_argument("--input", required=True,
                   help="JSON file with 'formal_type' and 'orbit'")

    p = sub.add_parser(
        "quiver-export",
        help="render the decision quiver (with alpha/lambda labels) as DOT",
    )
    p.add_argument("--input", required=True,
                   help="JSON file with 'orbits' or 'types'")
    p.add_argument("--out", default=None,
                   help="write DOT here and emit a verdict instead of raw DOT")
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return ap


# ---------------------------------------------------------------------------
# Input documents.
# ---------------------------------------------------------------------------


def _parse_orbit_list(
    doc: dict[str, Any],
) -> tuple[list[OrbitSpec], list[list[Triple]] | None, dict[str, Any]]:
    """The orbits, the factor sequences if given, each factor the reduced
    triple (re, im, den) of (re + i im) / den, and the digest payload."""
    orbits_json = doc.get("orbits")
    if not isinstance(orbits_json, list) or not orbits_json:
        raise InputError("orbits: must be a nonempty array")
    orbits = [jsonio.parse_orbit(o, f"orbits[{k}]") for k, o in enumerate(orbits_json)]
    payload: dict[str, Any] = {"orbits": [jsonio.orbit_json(o) for o in orbits]}
    seqs_json = doc.get("sequences")
    if seqs_json is None:
        return orbits, None, payload
    if not isinstance(seqs_json, list) or len(seqs_json) != len(orbits):
        raise InputError("sequences: must be an array, one entry per orbit")
    cells = []
    for k, seq in enumerate(seqs_json):
        if not isinstance(seq, list):
            raise InputError(f"sequences[{k}]: must be an array of scalars")
        cells.append(
            [jsonio.reduced_cell(c, f"sequences[{k}][{m}]") for m, c in enumerate(seq)]
        )
    payload["sequences"] = cells
    seqs = [[cell_triple(*c) for c in seq] for seq in cells]
    return orbits, seqs, payload


def _parse_type_list(doc: dict[str, Any]) -> tuple[list, dict[str, Any]]:
    """The formal types and the digest payload."""
    types_json = doc.get("types")
    if not isinstance(types_json, list) or not types_json:
        raise InputError("types: must be a nonempty array")
    types = [jsonio.parse_unram_type(t, f"types[{k}]") for k, t in enumerate(types_json)]
    return types, {"types": [jsonio.unram_type_json(t) for t in types]}


def _require(doc: dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise InputError(f"{key}: missing")
    return doc[key]


# ---------------------------------------------------------------------------
# DOT rendering.
# ---------------------------------------------------------------------------


def _vertex_name(v: Any) -> str:
    if isinstance(v, tuple):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def quiver_dot(data: CBData) -> str:
    """Deterministic DOT text for a decision quiver: one node line per vertex
    (labelled with its alpha and lambda values) and one edge line per arrow
    instance, in construction order."""
    lines = ["digraph dskit {", "  rankdir=LR;", "  node [shape=ellipse];"]
    re, im, den = data.lam
    for v, a, x, y in zip(data.quiver.vertices, data.alpha, re, im):
        name = _vertex_name(v)
        lines.append(
            f'  "{name}" [label="{name}\\nalpha={a}\\nlambda={gaussian_str(x, y, den)}"];'
        )
    for tail, head in data.quiver.arrows:
        lines.append(f'  "{_vertex_name(tail)}" -> "{_vertex_name(head)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (result, exit_code) and fills
# ctx["digest"] / ctx["notes"] / ctx["raw"].
# ---------------------------------------------------------------------------


def _flag_reading(ns, ctx, readings: tuple[Any, Any]) -> Any:
    """The reading of an ambiguous criterion that --flag selects: the second
    when given, else the first.  When the two disagree, a note gives both."""
    flag, default, alt = _READINGS[ns.command]
    by_default, by_flag = readings
    if by_default != by_flag:
        ctx["notes"].append(
            f"flag-sensitive: the {default} reading gives {by_default}, the {alt} "
            f"reading (--flag {flag}) gives {by_flag}; this verdict follows the "
            f"{alt if ns.flag else default} reading"
        )
    return by_flag if ns.flag else by_default


def _too_long(ctx, what: str, exc: ValueError) -> tuple[Any, int]:
    """The exit-3 verdict for an answer holding an integer past the
    interpreter's int-to-str digit limit; its reason goes into the notes."""
    reason = f"{what} holds an integer too long to print: {exc}"
    ctx["notes"].append(reason)
    return {"kind": "Inconclusive", "reason": reason}, 3


def _cmd_fuchsian_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    orbits, seqs, payload = _parse_orbit_list(doc)
    ctx["digest"] = jsonio.digest_of(payload)
    rigidity = fuchsian_rigidity(orbits, seqs, budget=ns.budget)
    exists = rigidity is not FuchsianRigidity.EMPTY
    return {"exists": exists, "rigidity": rigidity.value}, 0


def _cmd_unramified_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    types, payload = _parse_type_list(doc)
    ctx["digest"] = jsonio.digest_of(payload)
    return {"exists": _flag_reading(ns, ctx, build_hiroe_data(types).readings(ns.budget))}, 0


def _cmd_coxeter_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.orbit)
    orbit = jsonio.parse_orbit(_require(doc, "orbit"), "orbit")
    ftype = CoxeterFormalType(ns.n, ns.r, parse_gaussian(ns.p0))
    ctx["digest"] = jsonio.digest_of({
        "n": ns.n, "r": ns.r, "p0": jsonio.lowest_cell(*ftype.p0),
        "orbit": jsonio.orbit_json(orbit),
    })
    return {"exists": coxeter_ds_decide(ftype, orbit)}, 0


def _cmd_rigidity(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.orbit)
    orbit = jsonio.parse_orbit(_require(doc, "orbit"), "orbit")
    ctx["digest"] = jsonio.digest_of({
        "n": ns.n, "r": ns.r, "orbit": jsonio.orbit_json(orbit),
    })
    return {"rigid": is_rigid_coxeter_gl(ns.n, ns.r, orbit)}, 0


def _cmd_rigidity_table(ns, ctx) -> tuple[Any, int]:
    qy = SimpleTypeQuery(ns.family, ns.rank, ns.r)
    ctx["digest"] = jsonio.digest_of(
        {"family": qy.family, "rank": qy.rank, "r": qy.r}
    )
    return {"rigid": _flag_reading(ns, ctx, rigid_table_readings(qy))}, 0


def _cmd_slope(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.matrix)
    m, canonical = jsonio.parse_laurent(_require(doc, "matrix"), "matrix")
    ctx["digest"] = jsonio.digest_of({"matrix": canonical})
    verdict = certify_slope(m, ns.budget)
    if isinstance(verdict, RegularSingularCandidate):
        ctx["notes"].append(
            "no pole in this trivialization; slope 0 is a candidate, not certified"
        )
        return {"kind": "RegularSingularCandidate"}, 0
    certified = isinstance(verdict, CertifiedSlope)
    try:
        depth = str(verdict.slope if certified else verdict.bound)
    except ValueError as exc:  # a depth past the interpreter's digit limit
        return _too_long(ctx, "the result", exc)
    witness = list(verdict.witness.parahoric.J)
    if certified:
        return {"kind": "CertifiedSlope", "slope": depth, "witness_parahoric": witness}, 0
    ctx["notes"].append(
        "no fundamental stratum among the standard parahorics in this "
        "trivialization; the minimal depth only bounds the slope above"
    )
    return {"kind": "UpperBoundOnly", "bound": depth, "witness_parahoric": witness}, 3


def _cmd_normalize_regsing(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.matrix)
    m, canonical = jsonio.parse_laurent(_require(doc, "matrix"), "matrix")
    ctx["digest"] = jsonio.digest_of({"matrix": canonical, "order": ns.order})
    gauge = regsing_normalize(m, ns.order)
    return {"gauge": jsonio.laurent_json(gauge)}, 0


def _cmd_count_rank2(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    d = jsonio.parse_unram_type(_require(doc, "formal_type"), "formal_type")
    orbit = jsonio.parse_orbit(_require(doc, "orbit"), "orbit")
    ctx["digest"] = jsonio.digest_of({
        "formal_type": jsonio.unram_type_json(d),
        "orbit": jsonio.orbit_json(orbit),
    })
    return {"count": count_rank2_moduli(d, orbit)}, 0


def _cmd_quiver_export(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    if "orbits" in doc:
        orbits, seqs, payload = _parse_orbit_list(doc)
        data: CBData = build_cb_data(orbits, seqs)
    elif "types" in doc:
        types, payload = _parse_type_list(doc)
        data = build_hiroe_data(types)
    else:
        raise InputError("input document needs 'orbits' or 'types'")
    ctx["digest"] = jsonio.digest_of(payload)
    try:
        dot = quiver_dot(data)
    except ValueError as exc:  # a lambda value past the interpreter's digit limit
        return _too_long(ctx, "the quiver", exc)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InputError(f"cannot write {ns.out}: {exc}") from exc
        return {"written": ns.out, "vertices": len(data.quiver.vertices)}, 0
    ctx["raw"] = dot
    return None, 0


_HANDLERS = {
    "fuchsian-ds": _cmd_fuchsian_ds,
    "unramified-ds": _cmd_unramified_ds,
    "coxeter-ds": _cmd_coxeter_ds,
    "rigidity": _cmd_rigidity,
    "rigidity-table": _cmd_rigidity_table,
    "slope": _cmd_slope,
    "normalize-regsing": _cmd_normalize_regsing,
    "count-rank2": _cmd_count_rank2,
    "quiver-export": _cmd_quiver_export,
}


def _option_before_command(argv: list[str]) -> str | None:
    """The first option before the subcommand other than -h/--help.  The top
    level takes no other, and would read the option's value as the
    subcommand."""
    for tok in argv:
        if tok in _HANDLERS or tok == "--":
            return None
        if tok.startswith("-") and tok != "-h" and not (len(tok) > 2 and "--help".startswith(tok)):
            return tok
    return None


def run(argv: Sequence[str]) -> int:
    args = list(argv)
    try:
        parser = _build_parser()
        misplaced = _option_before_command(args)
        if misplaced is not None:
            parser.error(f"unrecognized arguments: {misplaced}")
        ns, extra = parser.parse_known_args(args)
        if extra:
            # the subcommand's own usage lists the options it does take
            ns.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
        if getattr(ns, "budget", 0) < 0:
            # a count of nodes: a negative one is malformed, not a spent budget
            ns.subparser.error(f"argument --budget: must be 0 or more, got {ns.budget}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    ctx: dict[str, Any] = {"digest": None, "notes": [], "raw": None}
    try:
        result, code = _HANDLERS[ns.command](ns, ctx)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        result = {"kind": "Inconclusive", "reason": str(exc)}
        ctx["notes"].append(str(exc))
        code = 3
    if ctx["raw"] is not None:
        sys.stdout.write(ctx["raw"])
        return code
    verdict = {
        "schema": jsonio.SCHEMA,
        "command": ns.command,
        "inputs_digest": ctx["digest"],
        "result": result,
        "notes": ctx["notes"],
    }
    try:
        text = jsonio.dumps(verdict)
    except ValueError as exc:  # an integer past the interpreter's digit limit
        verdict["result"], code = _too_long(ctx, "the result", exc)
        text = jsonio.dumps(verdict)
    print(text)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """The console-script entry.  If stdout was closed early, exit 1 in
    silence, with stdout on os.devnull so the flush at shutdown cannot raise."""
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
