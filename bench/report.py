"""Run every workload and print each metric by name and unit.

    python3 bench/report.py [--seconds 20] [--seed 1] [--trace]

Runs ``run.py`` once per workload (untraced), prints the end-to-end metrics,
the error rate and the scaling series; with ``--trace`` it also runs the
traced pass and prints the per-layer metrics.  Exits 1 if any verdict check
failed or any run did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result, extra = run_one(workload, args.seed, args.seconds, trace)
            title = f"{workload} ({'traced' if trace else 'untraced'})"
            if result is None:
                print(f"{title}: FAILED, no result")
                ok = False
                continue
            print(f"{title}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"error_rate {result['failed'] / result['attempted']:.4f}")
            for line in extra:
                print(f"  {line}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    if not ok:
        print("FAILED: some verdicts did not check out (details above)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
