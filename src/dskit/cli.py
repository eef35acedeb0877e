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

import functools
import os
import sys
from types import SimpleNamespace
from typing import Any, Sequence

from . import jsonio
from .core import gaussian_str, parse_gaussian
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


def _read_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse would give a well-formed line, read straight
    from the option table, or None for any other line, which is left to
    argparse.  A well-formed line is a subcommand, then each of its options at
    most once by its exact name, as --opt value or --opt=value, every required
    one present.  A value is not empty, a separate one does not start with -
    (argparse could read it as an option), an int one is read by int() and a
    --flag value is its one choice; a --budget is 0 or more."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    given: dict[str, str] = {}
    i, n = 1, len(argv)
    while i < n:
        option, eq, value = argv[i].partition("=")
        if eq:
            i += 1
        elif i + 1 < n and not argv[i + 1].startswith("-"):
            value = argv[i + 1]
            i += 2
        else:
            return None
        if option not in options or option in given or not value:
            return None
        given[option] = value
    ns = {"command": argv[0]}
    for option, (dest, kind, required, default, _) in options.items():
        value = given.get(option)
        if value is None:
            if required:
                return None
            ns[dest] = default
        elif kind is int:
            try:
                ns[dest] = int(value)
            except ValueError:
                return None
        elif kind is str or value == kind:
            ns[dest] = value
        else:
            return None
    if ns.get("budget", 0) < 0:
        return None
    return SimpleNamespace(**ns)


@functools.cache
def _build_parser():
    """The argparse parser for the lines _read_well_formed declines, built on
    the first such line and reused by every later one.  Only such a line and
    --help import argparse, which a well-formed line never loads."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="ds-kit",
        description="Deligne-Simpson existence and rigidity decisions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for option, (dest, kind, required, default, text) in options.items():
            p.add_argument(
                option, dest=dest, required=required, default=default, help=text,
                metavar="N" if option == "--budget" else None,
                type=int if kind is int else None,
                choices=None if kind is int or kind is str else (kind,),
            )
        p.set_defaults(subparser=p)
    return ap


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


def _flag_reading(ns, ctx, readings: tuple[Any, Any], names: tuple[str, str]) -> Any:
    """The reading of an ambiguous criterion that --flag selects: the second
    when given, else the first.  When the two disagree, a note gives both by
    their names and the --flag value of ns.command's option table."""
    flag = _COMMANDS[ns.command][1]["--flag"][1]
    (by_default, by_flag), (default, alt) = readings, names
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
    orbits, seqs, payload = jsonio.parse_orbit_list(doc)
    ctx["digest"] = jsonio.digest_of(payload)
    rigidity = fuchsian_rigidity(orbits, seqs, budget=ns.budget)
    exists = rigidity is not FuchsianRigidity.EMPTY
    return {"exists": exists, "rigidity": rigidity.value}, 0


def _cmd_unramified_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    types, payload = jsonio.parse_type_list(doc)
    ctx["digest"] = jsonio.digest_of(payload)
    readings = build_hiroe_data(types).readings(ns.budget)
    return {"exists": _flag_reading(ns, ctx, readings, ("parts>=3", "parts>=2"))}, 0


def _cmd_coxeter_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.orbit)
    orbit = jsonio.parse_orbit(jsonio.required(doc, "orbit"), "orbit")
    ftype = CoxeterFormalType(ns.n, ns.r, parse_gaussian(ns.p0))
    ctx["digest"] = jsonio.digest_of({
        "n": ns.n, "r": ns.r, "p0": jsonio.lowest_cell(*ftype.p0),
        "orbit": jsonio.orbit_json(orbit),
    })
    return {"exists": coxeter_ds_decide(ftype, orbit)}, 0


def _cmd_rigidity(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.orbit)
    orbit = jsonio.parse_orbit(jsonio.required(doc, "orbit"), "orbit")
    ctx["digest"] = jsonio.digest_of({
        "n": ns.n, "r": ns.r, "orbit": jsonio.orbit_json(orbit),
    })
    return {"rigid": is_rigid_coxeter_gl(ns.n, ns.r, orbit)}, 0


def _cmd_rigidity_table(ns, ctx) -> tuple[Any, int]:
    qy = SimpleTypeQuery(ns.family, ns.rank, ns.r)
    ctx["digest"] = jsonio.digest_of(
        {"family": qy.family, "rank": qy.rank, "r": qy.r}
    )
    readings = rigid_table_readings(qy)
    return {"rigid": _flag_reading(ns, ctx, readings, ("either-divisor", "both-divisors"))}, 0


def _cmd_slope(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.matrix)
    m, canonical = jsonio.parse_laurent(jsonio.required(doc, "matrix"), "matrix")
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
    m, canonical = jsonio.parse_laurent(jsonio.required(doc, "matrix"), "matrix")
    ctx["digest"] = jsonio.digest_of({"matrix": canonical, "order": ns.order})
    gauge = regsing_normalize(m, ns.order)
    return {"gauge": gauge}, 0


def _cmd_count_rank2(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    d = jsonio.parse_unram_type(jsonio.required(doc, "formal_type"), "formal_type")
    orbit = jsonio.parse_orbit(jsonio.required(doc, "orbit"), "orbit")
    ctx["digest"] = jsonio.digest_of({
        "formal_type": jsonio.unram_type_json(d),
        "orbit": jsonio.orbit_json(orbit),
    })
    return {"count": count_rank2_moduli(d, orbit)}, 0


def _cmd_quiver_export(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.input)
    if "orbits" in doc:
        orbits, seqs, payload = jsonio.parse_orbit_list(doc)
        data: CBData = build_cb_data(orbits, seqs)
    elif "types" in doc:
        types, payload = jsonio.parse_type_list(doc)
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


_BUDGET = {"--budget": (
    "budget", int, False, DEFAULT_BUDGET,
    "cap on search nodes: each box vector 0 <= beta <= alpha, then "
    "each step of the table of best p-sums; for slope, each of the 2^(n-1) "
    f"standard parahorics (default {DEFAULT_BUDGET:,}); both readings of "
    "unramified-ds come from one table, so they fit together or not at all",
)}

# Every subcommand, in the order the usage lists them, as (help, options,
# handler).  An option maps to (dest, kind, required, default, help), where kind
# is int, str or the one value a --flag takes.  Both readers of a command line
# are built from this table: _read_well_formed, and argparse (_build_parser) for
# any line that reader declines; run dispatches through it.
_COMMANDS = {
    "fuchsian-ds": (
        "decide the additive problem for residue orbits at sum zero",
        {**_BUDGET, "--input": ("input", str, True, None, "JSON file with 'orbits'")},
        _cmd_fuchsian_ds,
    ),
    "unramified-ds": (
        "decide existence for a tuple of unramified formal types",
        {**_BUDGET,
         "--input": ("input", str, True, None, "JSON file with 'types'"),
         "--flag": ("flag", "ell-ge-2", False, None,
                    "follow the parts>=2 reading of condition (2), decompositions "
                    "into two or more parts, instead of the printed parts>=3; a "
                    "disagreement between the two readings surfaces in notes")},
        _cmd_unramified_ds,
    ),
    "coxeter-ds": (
        "decide existence for a Coxeter formal type plus one orbit",
        {"--n": ("n", int, True, None, None),
         "--r": ("r", int, True, None, None),
         "--p0": ("p0", str, True, None,
                  "scalar, e.g. 0 or 2-i; a negative one takes =, as in --p0=-1/2"),
         "--orbit": ("orbit", str, True, None, "JSON file with 'orbit'")},
        _cmd_coxeter_ds,
    ),
    "rigidity": (
        "rigidity of a nilpotent orbit for slope r/n (gl_n)",
        {"--n": ("n", int, True, None, None),
         "--r": ("r", int, True, None, None),
         "--orbit": ("orbit", str, True, None, "JSON file with 'orbit'")},
        _cmd_rigidity,
    ),
    "rigidity-table": (
        "rigidity of the homogeneous type of slope r/h for a simple type",
        {"--type": ("family", str, True, None, "A, B, C, D, or E7"),
         "--rank": ("rank", int, True, None,
                    "rank parameter as the table prints it "
                    "(family A is keyed by matrix size n)"),
         "--r": ("r", int, True, None, None),
         "--flag": ("flag", "table-conjunction", False, None,
                    "follow the both-divisors reading of the two-condition rows "
                    "(types B and D) instead of the either-divisor one; a "
                    "disagreement between the two readings surfaces in notes")},
        _cmd_rigidity_table,
    ),
    "slope": (
        "certify the slope of d + M dz/z from a fixed trivialization",
        {**_BUDGET, "--matrix": ("matrix", str, True, None, "JSON file with 'matrix'")},
        _cmd_slope,
    ),
    "normalize-regsing": (
        "gauge a simple-pole connection to its residue term",
        {"--matrix": ("matrix", str, True, None, "JSON file with 'matrix'"),
         "--order": ("order", int, True, None, "work modulo z^order")},
        _cmd_normalize_regsing,
    ),
    "count-rank2": (
        "moduli count for rank-2 slope-1 unramified data plus one orbit",
        {"--input": ("input", str, True, None, "JSON file with 'formal_type' and 'orbit'")},
        _cmd_count_rank2,
    ),
    "quiver-export": (
        "render the decision quiver (with alpha/lambda labels) as DOT",
        {"--input": ("input", str, True, None, "JSON file with 'orbits' or 'types'"),
         "--out": ("out", str, False, None,
                   "write DOT here and emit a verdict instead of raw DOT")},
        _cmd_quiver_export,
    ),
}


def _option_before_command(argv: list[str]) -> str | None:
    """The first option before the subcommand other than -h/--help.  The top
    level takes no other, and would read the option's value as the
    subcommand."""
    for tok in argv:
        if tok in _COMMANDS or tok == "--":
            return None
        if tok.startswith("-") and tok != "-h" and not (len(tok) > 2 and "--help".startswith(tok)):
            return tok
    return None


def run(argv: Sequence[str]) -> int:
    args = list(argv)
    ns = _read_well_formed(args)
    if ns is None:
        # any other line: argparse's reading, its usage and error text, --help
        # and abbreviations
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
        result, code = _COMMANDS[ns.command][2](ns, ctx)
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
