"""Time-to-verdict benchmark for ds-kit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's requests from the seed, times ``import dskit.cli`` in
fresh processes, then drives ``dskit.cli.run`` in a closed loop with one
client: each request is sent after the previous verdict returns.  The loop
runs as several passes over the same requests, each in a fresh worker
process, and every verdict is checked outside the timed region.  The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced pass with ``--trace 1``.  Problems with
verdicts go to stderr and make ``correct`` false.

A shared machine runs the same code up to 2x slower for tens of seconds at
a time.  So every time is rescaled to a host of reference speed by a
calibration kernel timed around it (see ``worker.py``), a request's time is
its median over the passes, and the throughput is the requests over the sum
of those times.  The plain wall-time figures are printed on a comment line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import SCHEMA, WORKLOADS, make_requests  # noqa: E402

MIN_PASSES = 3
PROBES_PER_SLOT = 3  # set-up probes before each of the first passes, and after the last
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # span counts must not depend on set order
    env.pop("PYTHONPATH", None)
    return env


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def import_seconds(deadline: float) -> tuple[float, float]:
    """Wall time of `import dskit.cli` in a fresh process, and the same
    rescaled to the reference host."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--probe-import", str(SRC)],
        capture_output=True, text=True,
        env=_env(), cwd=ROOT, timeout=_remaining(deadline), check=True,
    )
    wall, scaled = out.stdout.split()
    return float(wall), float(scaled)


def write_documents(reqs, work: Path) -> list[list[str]]:
    argvs = []
    for i, req in enumerate(reqs):
        doc_path = work / f"{i}.json"
        if req.doc is not None:
            doc_path.write_text(json.dumps({"schema": SCHEMA, **req.doc}), encoding="utf-8")
        argvs.append([a.replace("{doc}", str(doc_path)).replace("{out}", str(work / f"{i}.dot"))
                      for a in req.argv])
    return argvs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "dskit" / "cli.py").is_file():
        print(f"error: no ds-kit sources at {SRC / 'dskit'}", file=sys.stderr)
        return 2
    refs_path = BENCH / "refs.json"
    refs = json.loads(refs_path.read_text()) if refs_path.is_file() else {}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        reqs = make_requests(args.workload, args.seed)
        argvs_path = work / "argvs.json"
        argvs_path.write_text(json.dumps(write_documents(reqs, work)))
        imports = []
        results = []
        run_t0 = time.monotonic()
        while True:
            # the set-up probes are spread over the run, between the first
            # passes and after the last, so that their median does not hang
            # on one phase of a shared machine
            if not args.trace and len(results) < MIN_PASSES:
                imports += [import_seconds(deadline) for _ in range(PROBES_PER_SLOT)]
            p = len(results)
            cfg = {
                "trace": bool(args.trace), "src": str(SRC), "argvs": str(argvs_path),
                "out": str(work / f"pass{p}.json"),
                "spans": str(out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"),
            }
            pass_t0 = time.monotonic()
            try:
                subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                    env=_env(), cwd=ROOT, check=True, timeout=_remaining(deadline),
                )
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                print(f"error: worker failed: {exc}", file=sys.stderr)
                return 1
            results.append(json.loads(Path(cfg["out"]).read_text()))
            if args.trace:
                break
            # another pass only if one more like the last still ends in time
            now = time.monotonic()
            if len(results) >= MIN_PASSES and now + (now - pass_t0) - run_t0 > args.seconds:
                imports += [import_seconds(deadline) for _ in range(PROBES_PER_SLOT)]
                break
        passes = len(results)

        # -- checks, outside the timed region --------------------------------------
        req_json = [r.to_json() for r in reqs]
        checked: dict[tuple, list[str]] = {}
        failed = attempted = 0
        scaled_s = [[] for _ in reqs]
        wall_s = [[] for _ in reqs]
        for res in results:
            for rec in res["records"]:
                attempted += 1
                req = req_json[rec["index"]]
                dot = work / f"{rec['index']}.dot"
                key = (rec["index"], rec["exit"], rec["stdout"], rec["exception"])
                if key not in checked:
                    if rec["exception"] is not None:
                        checked[key] = [f"escaped exception {rec['exception']}"]
                    elif rec["exit"] not in (0, 3):
                        checked[key] = [f"exit {rec['exit']}: {rec['stderr'].strip()[:200]}"]
                    else:
                        out_text = dot.read_text() if dot.is_file() else None
                        checked[key] = check(req, rec["exit"], rec["stdout"], out_text, refs)
                problems = checked[key]
                if problems:
                    failed += 1
                    print(f"FAIL {rec['pass']} #{rec['index']} {req['command']} "
                          f"[{req['series']}, {req['reference']} reference]: "
                          + "; ".join(problems), file=sys.stderr)
                if rec["pass"] == "untraced":
                    scaled_s[rec["index"]].append(rec["seconds"])
                    wall_s[rec["index"]].append(rec["wall_seconds"])

        n = len(reqs)
        times = [statistics.median(ts) for ts in scaled_s]
        if args.trace:
            res = results[0]
            values = dict(res["layer"])
            pass_s = defaultdict(float)
            for rec in res["records"]:
                pass_s[rec["pass"]] += rec["seconds"]
            values["trace.overhead_ratio"] = pass_s["untraced"] / pass_s["traced"]
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
            units["trace.overhead_ratio"] = "ratio"
        else:
            def timings(setup, times):
                return {
                    "setup_s": statistics.median(setup),
                    "verdict_p50_s": statistics.median(times),
                    "verdict_p90_s": statistics.quantiles(times, n=10)[8],
                    "verdicts_per_s": n / sum(times),
                }

            values = timings([scaled for _, scaled in imports], times)
            values["peak_rss_mb"] = max(res["peak_rss_mb"] for res in results)
            wall = timings([w for w, _ in imports], [statistics.median(ts) for ts in wall_s])
            print("# plain wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
            units = UNITS
            beyond = sum(1 for t in times if t > values["verdict_p90_s"])
            kinds = defaultdict(int)
            for r in req_json:
                kinds[r["reference"]] += 1
            print(f"# {args.workload} seed {args.seed}: {n} requests x {passes} passes, "
                  f"{beyond} beyond p90; error_rate {failed / attempted:.4f} "
                  f"({failed}/{attempted}); {kinds['independent']} independent and "
                  f"{kinds['regression']} regression-reference checks per pass")
            series = defaultdict(list)
            for i, r in enumerate(req_json):
                label = r["series"]
                if r["family"] == "slope":
                    try:
                        label += " " + json.loads(results[0]["records"][i]["stdout"])["result"]["kind"]
                    except (ValueError, KeyError):
                        label += " failed"
                series[label].append(times[i])
            for label in sorted(series):
                ts = series[label]
                print(f"series {args.workload} {label}: count={len(ts)} "
                      f"median_s={statistics.median(ts):.6f}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
