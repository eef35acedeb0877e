"""One fresh process of a benchmark run: imports ``dskit.cli`` and drives
``cli.run`` in a closed loop, one request at a time.

Usage: ``python3 bench/worker.py CONFIG_JSON``, where ``config["argvs"]``
names a JSON file with the argument lists of the requests, or
``python3 bench/worker.py --probe-import SRC`` to time ``import dskit.cli``.  Writes the raw outcome of
every request (exit code, stdout, seconds) to ``config["out"]``; the parent
checks them afterwards, so checking neither slows the loop nor adds to this
process's peak RSS.

Times are given twice: ``wall_seconds`` as the clock read them, and
``seconds`` rescaled to a host of reference speed.  The host's speed is the
time of a fixed ``Fraction`` kernel, measured when a request starts, when it
ends and every ``SAMPLE_S`` in between (from a SIGALRM handler, whose own
time is left out of both figures).  Each stretch between two measurements
counts ``wall * REF_KERNEL_S / kernel time``.  A shared host runs the same
code up to 2x slower for tens of seconds at a time, and that slowdown hits
the kernel and ds-kit alike, so the rescaled times keep only what ds-kit
itself costs.

Untraced: one pass over the requests.  Traced: one untraced pass, then the
same pass under the tracer, so span counts are the same on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction


REPICK_S = 0.25  # how often the loop moves to the least contended CPU
REF_KERNEL_S = 0.001  # kernel time of the reference host: about the fast phase of a 2-core VM
SAMPLE_S = 0.1  # how often the host's speed is measured again during a request
_ALL_CPUS = sorted(os.sched_getaffinity(0))


def _kernel() -> None:
    """A few milliseconds of Fraction arithmetic, the kind ds-kit does."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 13, i % 17 + 1) * Fraction(3, i % 5 + 2)


def kernel_seconds() -> float:
    """The kernel's least time over three runs: the host's speed right now."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def move_to_fastest_cpu() -> None:
    """Pin this process to the CPU that runs the kernel fastest right now.

    On a shared host one virtual CPU can run 1.5-2x slower than the other for
    seconds at a time (a busy neighbour on its sibling thread).
    """
    if len(_ALL_CPUS) < 2:
        return
    speed = {}
    for cpu in _ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = kernel_seconds()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class ScaledClock:
    """Times one request at a time in wall seconds and in seconds of the
    reference host.  With ``sample`` off, the speed is measured only at the
    ends of a request, so that no kernel time falls inside a traced span."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._on = False
        self._k = kernel_seconds()
        if sample:
            signal.signal(signal.SIGALRM, self._tick)

    def remeasure(self) -> None:
        """Measure the speed afresh, after the process moved to another CPU."""
        self._k = kernel_seconds()

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self._t = time.perf_counter()
        self._on = True
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _segment(self) -> None:
        t = time.perf_counter()
        k = kernel_seconds()
        self.wall += t - self._t
        self.scaled += (t - self._t) * REF_KERNEL_S / ((self._k + k) / 2)
        self._k = k
        self._t = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if self._on:
            self._on = False  # no nested tick while the kernel runs
            self._segment()
            self._on = True

    def stop(self) -> tuple[float, float]:
        """End the request; returns (wall seconds, reference seconds)."""
        self._on = False
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._segment()
        return self.wall, self.scaled


def probe_import(src: str) -> None:
    """Print the wall time of `import dskit.cli` in this fresh process, then
    the same rescaled to the reference host."""
    move_to_fastest_cpu()
    sys.path.insert(0, src)
    clock = ScaledClock()
    clock.start()
    import dskit.cli  # noqa: F401
    print(*clock.stop())


def main() -> None:
    if sys.argv[1] == "--probe-import":
        probe_import(sys.argv[2])
        return
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    move_to_fastest_cpu()
    import dskit.cli

    if not os.path.abspath(dskit.cli.__file__).startswith(os.path.abspath(cfg["src"])):
        raise SystemExit(f"dskit imported from {dskit.cli.__file__}, not {cfg['src']}")
    with open(cfg["argvs"], encoding="utf-8") as fh:
        argvs = json.load(fh)
    records: list[dict] = []

    def run_pass(pass_name: str, tracer=None) -> None:
        """Issue every request once."""
        run = dskit.cli.run
        clock = ScaledClock(sample=tracer is None)
        picked = time.perf_counter()
        for i, argv in enumerate(argvs):
            if time.perf_counter() - picked > REPICK_S:
                move_to_fastest_cpu()
                picked = time.perf_counter()
                clock.remeasure()
            buf, err = io.StringIO(), io.StringIO()
            exc_text = None
            if tracer is not None:
                tracer.current_request = i
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                clock.start()
                try:
                    code = run(argv)
                except Exception as exc:  # an escaped exception is a failed request
                    code = None
                    exc_text = f"{type(exc).__name__}: {exc}"
                wall, scaled = clock.stop()
            records.append({
                "pass": pass_name, "index": i, "exit": code, "stdout": buf.getvalue(),
                "stderr": err.getvalue(), "exception": exc_text, "wall_seconds": wall,
                "seconds": scaled,
            })

    run_pass("untraced")
    layer = None
    if cfg["trace"]:
        from dskit.errors import BudgetExceededError
        from spans import LAYER_METRICS, Summary, Tracer

        tracer = Tracer(BudgetExceededError)
        tracer.install_dskit()
        try:
            run_pass("traced", tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(cfg["spans"])
        summary = Summary(tracer)
        layer = {name: fn(summary, tracer.counters) for name, (_, fn) in LAYER_METRICS.items()}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump({
            "peak_rss_mb": peak_rss_mb, "records": records, "layer": layer,
        }, fh)


if __name__ == "__main__":
    main()
