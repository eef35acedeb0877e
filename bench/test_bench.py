"""Self-tests of the benchmark: the checkers reject tampered verdicts, the
generators are deterministic in the seed, and span self times add up.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import random
import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from checks import check  # noqa: E402
from spans import Summary, Tracer  # noqa: E402


def _refs():
    return json.loads((BENCH / "refs.json").read_text())


def _verdict(req: W.Request, tmp_path: Path) -> tuple[int, str, str | None]:
    """Run the request through dskit's CLI; returns (exit, stdout, DOT text)."""
    from dskit.cli import run

    doc = tmp_path / "doc.json"
    out = tmp_path / "out.dot"
    if req.doc is not None:
        doc.write_text(json.dumps({"schema": W.SCHEMA, **req.doc}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run([a.replace("{doc}", str(doc)).replace("{out}", str(out)) for a in req.argv])
    return code, buf.getvalue(), out.read_text() if out.exists() else None


def _tampered(stdout: str, edit) -> str:
    v = json.loads(stdout)
    edit(v)
    return json.dumps(v, sort_keys=True, indent=2) + "\n"


def _accepts_then_rejects(req, tmp_path, edit):
    refs = _refs()
    code, out, dot = _verdict(req, tmp_path)
    assert check(req.to_json(), code, out, dot, refs) == []
    assert check(req.to_json(), code, _tampered(out, edit), dot, refs) != []


def _flip_exists(v):
    v["result"]["exists"] = not v["result"]["exists"]


def _wrong_digest(v):
    v["inputs_digest"] = "0" * 64


def test_flipped_exists_is_rejected(tmp_path):
    rng = random.Random(3)
    _accepts_then_rejects(W.rank2_triple(rng, True), tmp_path, _flip_exists)
    _accepts_then_rejects(W.generic_tuple(rng, 3, 3), tmp_path, _flip_exists)
    _accepts_then_rejects(W.pool_entry("fuchsian-r3t", 0), tmp_path, _flip_exists)
    _accepts_then_rejects(W.pool_entry("unram-n2", 0), tmp_path, _flip_exists)


def test_wrong_slope_is_rejected(tmp_path):
    def wrong(v):
        v["result"]["slope"] = "1/2"

    _accepts_then_rejects(W.omega_slope(5, 1), tmp_path, wrong)
    rng = random.Random(4)
    _accepts_then_rejects(W.sparse_slope(rng, 4, 2), tmp_path, wrong)


def test_wrong_upper_bound_is_rejected(tmp_path):
    def wrong(v):
        v["result"]["bound"] = "1/7"

    _accepts_then_rejects(W.nilpotent_slope(5), tmp_path, wrong)


def test_perturbed_gauge_coefficient_is_rejected(tmp_path):
    def perturb(v):
        term = v["result"]["gauge"]["terms"][-1]
        term["entries"][0][0][0] += term["entries"][0][0][1]  # add 1 to one entry

    rng = random.Random(5)
    _accepts_then_rejects(W.gauge_request(rng, 3, 6), tmp_path, perturb)


@pytest.mark.parametrize("build", [
    lambda rng: W.rank2_triple(rng, False),
    lambda rng: W.omega_slope(4, 5),
    lambda rng: W.gauge_request(rng, 2, 6),
    lambda rng: W.count_rank2(rng),
    lambda rng: W.coxeter_request(rng),
    lambda rng: W.rigidity_request(rng),
    lambda rng: W.quiver_of_orbits(W.generic_tuple(rng, 2, 4).doc, "quiver"),
    lambda rng: W.unram_request(
        W.unram_tuple(rng, 3, 2, 2, 1, trace_zero=False), "t", "independent",
        {"exists": False}),
])
def test_wrong_inputs_digest_is_rejected(tmp_path, build):
    _accepts_then_rejects(build(random.Random(6)), tmp_path, _wrong_digest)


def test_regression_reference_pins_bytes(tmp_path):
    req = W.pool_entry("unram-n3", 1)
    code, out, _ = _verdict(req, tmp_path)
    refs = _refs()
    assert check(req.to_json(), code, out, None, refs) == []
    assert check(req.to_json(), code, out + " ", None, refs) != []
    assert check(req.to_json(), code, out, None, {}) != []


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_documents_depend_only_on_the_seed(workload):
    def blob(seed):
        return W.canonical([r.to_json() for r in W.make_requests(workload, seed)])

    assert blob(11) == blob(11)
    assert blob(11) != blob(12)


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _module(name: str, source: str, **bindings) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(bindings)
    exec(source, mod.__dict__)
    return mod


def test_self_times_sum_to_root_busy_and_shared_names_count_once():
    spin = _spin
    a = _module("fake.a", (
        "def leaf():\n    spin(0.002)\n"
        "def mid():\n    spin(0.001)\n    leaf()\n    leaf()\n"
        "def root():\n    spin(0.001)\n    mid()\n    leaf()\n"
        "def walk(k):\n    for i in range(k):\n        spin(0.0005)\n        yield i\n"
    ), spin=spin)
    # b binds a's leaf under its own name, as `from .a import leaf` does
    b = _module("fake.b", "def other():\n    leaf()\n    return sum(walk(3))\n",
                spin=spin, leaf=a.leaf, walk=a.walk)
    tr = Tracer()
    tr.install_modules([a, b])
    try:
        assert b.leaf is a.leaf
        a.root()
        assert b.other() == 3
    finally:
        tr.uninstall()
    assert not hasattr(a.leaf, "__wrapped__")

    s = Summary(tr)
    assert s.calls["a.leaf"] == 4  # 3 under root, 1 under other: once each
    assert s.calls["a.root"] == 1 and s.calls["b.other"] == 1
    assert s.value["a.walk"] == 3 and tr.counters["a.walk.calls"] == 1
    assert abs(s.total_self - s.root_busy) < 1e-9
    assert abs(s.root_busy - (s.busy["a.root"] + s.busy["b.other"])) < 1e-9
    assert s.self_s["a.mid"] >= 0.001 and s.busy["a.mid"] >= 0.005


def test_self_time_on_a_fixed_span_tree():
    """root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]."""
    tr = Tracer()
    ids = {name: tr.name_id(name) for name in ("x.root", "x.child", "y.grand")}
    spans = [("x.root", -1, 0, 10), ("x.child", 0, 1, 4), ("y.grand", 1, 2, 3),
             ("x.child", 0, 5, 9)]
    for name, parent, start, end in spans:
        tr.name.append(ids[name])
        tr.parent.append(parent)
        tr.request.append(0)
        tr.value.append(0)
        tr.start.append(start)
        tr.end.append(end)
        tr.flags.append(1 | (2 if name != "x.child" else 0))
    s = Summary(tr)
    assert s.self_s["x.root"] == 3
    assert s.self_s["x.child"] == 2 + 4
    assert s.self_s["y.grand"] == 1
    assert s.total_self == s.root_busy == 10
    assert s.busy["x"] == 10 and s.busy["y"] == 1


# ---------------------------------------------------------------------------
# Host-speed scaling.
# ---------------------------------------------------------------------------


def test_scaled_clock_samples_during_a_request_and_leaves_its_own_time_out():
    from worker import SAMPLE_S, ScaledClock

    clock = ScaledClock()
    ticks = []
    segment = clock._segment

    def counting_segment():
        ticks.append(time.perf_counter())
        segment()

    clock._segment = counting_segment
    t = time.perf_counter()
    clock.start()
    _spin(3.5 * SAMPLE_S)
    wall, scaled = clock.stop()
    elapsed = time.perf_counter() - t
    assert len(ticks) >= 3  # samples inside the request, then the one at stop
    # the spin ran 3.5 samples of wall time, handler included; the kernel
    # runs inside it are not counted
    assert 0.8 * 3.5 * SAMPLE_S < wall < 3.5 * SAMPLE_S <= elapsed
    assert scaled > 0
