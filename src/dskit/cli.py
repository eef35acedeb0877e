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
import json
import sys
from typing import Any, Sequence

from . import jsonio
from .core import OrbitSpec, Scalar
from .coxeter import (
    SimpleTypeQuery,
    coxeter_ds_decide,
    is_rigid_coxeter_gl,
    rigid_table_simple_type,
)
from .errors import BudgetExceededError, DescentGuardError, InputError
from .formal import (
    CertifiedSlope,
    CoxeterFormalType,
    FormalConnection,
    RegularSingularCandidate,
    UpperBoundOnly,
    certify_slope,
    regsing_normalize,
)
from .fuchsian import CBData, FuchsianRigidity, build_cb_data, fuchsian_rigidity
from .rootsys import DEFAULT_BUDGET
from .unramified import HiroeData, _exists_on_data, build_hiroe_data

_FLAG_CHOICES = ("ell-ge-2", "table-conjunction")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--flag",
        action="append",
        default=[],
        choices=_FLAG_CHOICES,
        help="opt into an alternative reading of an ambiguous printed "
             "criterion; disagreements with the default surface in notes",
    )
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="cap on search nodes: each box vector 0 <= beta <= alpha, then "
             "each decomposition node (default 2,000,000); both readings of "
             "unramified-ds share one box walk",
    )

    ap = argparse.ArgumentParser(
        prog="ds-kit",
        description="Deligne-Simpson existence and rigidity decisions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fuchsian-ds", parents=[common],
        help="decide the additive problem for residue orbits at sum zero",
    )
    p.add_argument("--input", required=True, help="JSON file with 'orbits'")

    p = sub.add_parser(
        "unramified-ds", parents=[common],
        help="decide existence for a tuple of unramified formal types",
    )
    p.add_argument("--input", required=True, help="JSON file with 'types'")

    p = sub.add_parser(
        "coxeter-ds", parents=[common],
        help="decide existence for a Coxeter formal type plus one orbit",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p0", required=True, help="scalar, e.g. 0, -1/2, 2-i")
    p.add_argument("--orbit", required=True, help="JSON file with 'orbit'")

    p = sub.add_parser(
        "rigidity", parents=[common],
        help="rigidity of a nilpotent orbit for slope r/n (gl_n)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--orbit", required=True, help="JSON file with 'orbit'")

    p = sub.add_parser(
        "rigidity-table", parents=[common],
        help="rigidity of the homogeneous type of slope r/h for a simple type",
    )
    p.add_argument("--type", required=True, dest="family",
                   help="A, B, C, D, or E7")
    p.add_argument("--rank", type=int, required=True,
                   help="rank parameter as the table prints it "
                        "(family A is keyed by matrix size n)")
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser(
        "slope", parents=[common],
        help="certify the slope of d + M dz/z from a fixed trivialization",
    )
    p.add_argument("--matrix", required=True, help="JSON file with 'matrix'")

    p = sub.add_parser(
        "normalize-regsing", parents=[common],
        help="gauge a simple-pole connection to its residue term",
    )
    p.add_argument("--matrix", required=True, help="JSON file with 'matrix'")
    p.add_argument("--order", type=int, required=True,
                   help="work modulo z^order")

    p = sub.add_parser(
        "count-rank2", parents=[common],
        help="moduli count for rank-2 slope-1 unramified data plus one orbit",
    )
    p.add_argument("--input", required=True,
                   help="JSON file with 'formal_type' and 'orbit'")

    p = sub.add_parser(
        "quiver-export", parents=[common],
        help="render the decision quiver (with alpha/lambda labels) as DOT",
    )
    p.add_argument("--input", required=True,
                   help="JSON file with 'orbits' or 'types'")
    p.add_argument("--out", default=None,
                   help="write DOT here and emit a verdict instead of raw DOT")
    return ap


# ---------------------------------------------------------------------------
# Input documents.
# ---------------------------------------------------------------------------


def _parse_orbit_list(
    doc: dict[str, Any],
) -> tuple[list[OrbitSpec], list[list[Scalar]] | None, dict[str, Any]]:
    """The orbits, the factor sequences if given, and the digest payload."""
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
    seqs = []
    for k, seq in enumerate(seqs_json):
        if not isinstance(seq, list):
            raise InputError(f"sequences[{k}]: must be an array of scalars")
        seqs.append(
            [jsonio.parse_scalar(c, f"sequences[{k}][{m}]") for m, c in enumerate(seq)]
        )
    payload["sequences"] = [[jsonio.scalar_json(c) for c in seq] for seq in seqs]
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


def quiver_dot(data: CBData | HiroeData) -> str:
    """Deterministic DOT text for a decision quiver: one node line per vertex
    (labelled with its alpha and lambda values) and one edge line per arrow
    instance, in construction order."""
    lines = ["digraph dskit {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for v in data.quiver.vertices:
        name = _vertex_name(v)
        a = data.alpha.get(v, 0)
        lam = data.lam.get(v, Scalar(0))
        lines.append(
            f'  "{name}" [label="{name}\\nalpha={a}\\nlambda={lam}"];'
        )
    for tail, head in data.quiver.arrows:
        lines.append(f'  "{_vertex_name(tail)}" -> "{_vertex_name(head)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (result, exit_code) and fills
# ctx["digest"] / ctx["notes"] / ctx["raw"].
# ---------------------------------------------------------------------------


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
    budget = ns.budget if ns.budget is not None else DEFAULT_BUDGET
    use_two = "ell-ge-2" in ns.flag
    data = build_hiroe_data(types)
    candidates = data.candidates(budget)
    selected = _exists_on_data(data, candidates, ell_ge_2=use_two, budget=budget)
    try:
        other = _exists_on_data(data, candidates, ell_ge_2=not use_two, budget=budget)
    except BudgetExceededError:
        ctx["notes"].append(
            "flag-sensitivity comparison skipped: enumeration budget exceeded"
        )
    else:
        if other != selected:
            three = other if use_two else selected
            two = selected if use_two else other
            ctx["notes"].append(
                f"flag-sensitive: the parts>=3 reading gives {three}, the "
                f"parts>=2 reading (--flag ell-ge-2) gives {two}; this verdict "
                f"follows the {'parts>=2' if use_two else 'parts>=3'} reading"
            )
    return {"exists": selected}, 0


def _cmd_coxeter_ds(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.orbit)
    orbit = jsonio.parse_orbit(_require(doc, "orbit"), "orbit")
    p0 = Scalar.parse(ns.p0)
    ftype = CoxeterFormalType.from_p0(ns.n, ns.r, p0)
    ctx["digest"] = jsonio.digest_of({
        "n": ns.n, "r": ns.r, "p0": jsonio.scalar_json(p0),
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
    conj = "table-conjunction" in ns.flag
    val = rigid_table_simple_type(qy, conjunction=conj)
    other = rigid_table_simple_type(qy, conjunction=not conj)
    if other != val:
        disj = other if conj else val
        both = val if conj else other
        ctx["notes"].append(
            f"flag-sensitive: the either-divisor reading gives {disj}, the "
            f"both-divisors reading (--flag table-conjunction) gives {both}; "
            f"this verdict follows the "
            f"{'both-divisors' if conj else 'either-divisor'} reading"
        )
    return {"rigid": val}, 0


def _cmd_slope(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.matrix)
    m = jsonio.parse_laurent(_require(doc, "matrix"), "matrix")
    ctx["digest"] = jsonio.digest_of({"matrix": jsonio.laurent_json(m)})
    verdict = certify_slope(FormalConnection(m))
    if isinstance(verdict, CertifiedSlope):
        return {
            "kind": "CertifiedSlope",
            "slope": str(verdict.slope),
            "witness_parahoric": list(verdict.witness.parahoric.J),
        }, 0
    if isinstance(verdict, UpperBoundOnly):
        ctx["notes"].append(
            "no fundamental stratum among the standard parahorics in this "
            "trivialization; the minimal depth only bounds the slope above"
        )
        return {
            "kind": "UpperBoundOnly",
            "bound": str(verdict.bound),
            "witness_parahoric": list(verdict.witness.parahoric.J),
        }, 3
    assert isinstance(verdict, RegularSingularCandidate)
    ctx["notes"].append(
        "no pole in this trivialization; slope 0 is a candidate, not certified"
    )
    return {"kind": "RegularSingularCandidate"}, 0


def _cmd_normalize_regsing(ns, ctx) -> tuple[Any, int]:
    doc = jsonio.load_document(ns.matrix)
    m = jsonio.parse_laurent(_require(doc, "matrix"), "matrix")
    ctx["digest"] = jsonio.digest_of(
        {"matrix": jsonio.laurent_json(m), "order": ns.order}
    )
    gauge = regsing_normalize(FormalConnection(m), ns.order)
    return {"gauge": jsonio.laurent_json(gauge)}, 0


def _cmd_count_rank2(ns, ctx) -> tuple[Any, int]:
    from .unramified import count_rank2_moduli

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
        data: CBData | HiroeData = build_cb_data(orbits, seqs)
    elif "types" in doc:
        types, payload = _parse_type_list(doc)
        data = build_hiroe_data(types)
    else:
        raise InputError("input document needs 'orbits' or 'types'")
    ctx["digest"] = jsonio.digest_of(payload)
    dot = quiver_dot(data)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
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


def run(argv: Sequence[str]) -> int:
    try:
        ns = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    ctx: dict[str, Any] = {"digest": None, "notes": [], "raw": None}
    try:
        result, code = _HANDLERS[ns.command](ns, ctx)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, DescentGuardError) as exc:
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
    print(json.dumps(verdict, sort_keys=True, indent=2))
    return code


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
