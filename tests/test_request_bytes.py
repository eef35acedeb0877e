"""The bytes of every benchmark request, pinned.

Each request that `bench/workloads.make_requests` builds for the four
workloads at seeds 1, 2, 3 and 7 (1,708 in all) is written as `bench/run.py`
writes it and run in process through `cli.run`.  For each (workload, seed)
one sha256 covers, in request order, the JSON of [argv, exit code, stdout,
stderr] and the bytes of the DOT file the request wrote, with the working
directory replaced by a fixed token.  A change to the package that means to
keep every answer must keep the 16 sums.

A change that alters output on purpose re-pins them in one command, which
prints the sums in the form of `PINNED` below:

    PYTHONPATH=src python tests/test_request_bytes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (read only: the benchmark's request builder)

from dskit import cli  # noqa: E402

SEEDS = (1, 2, 3, 7)
TOKEN = "<work>"

# recorded before Record.__init__ filled the records' slots, which kept them
PINNED = {
    ("fuchsian", 1): "efce609323d26416b127a0619dbb38327f0ec165cd77eb168b70922d1c2fe4a1",
    ("fuchsian", 2): "442c80c5cf973902b8780bf0346d6e06320ef717e161b26f2b325a05d3dbd0b9",
    ("fuchsian", 3): "c1465d7d620ca018806271d5ecf4e6e9ed39aa4cc5886636f7cfca785b9aa51b",
    ("fuchsian", 7): "63c60ed6d534539ac515d29c9b0984a9329fbda33bb4f70b9fc48e899f6e885d",
    ("unramified", 1): "f0e9c6ee61b5c441e524ae510bdc5028db5b5e8a96bc2d9817cf0de8c3880042",
    ("unramified", 2): "e52c2c990ce160aa5ee5b07443c6589d64b318eaf4e47292b51b911aba175e4a",
    ("unramified", 3): "5a61b42c10d32df9f7bdab33757f5af37eaf8c35b9ef47db8be1d02690443bcc",
    ("unramified", 7): "60279fb212ca6f339f0add8f527276d6db3b03d14fee42ae226890d7653f9eca",
    ("slope", 1): "262dff920dd75d923fc4b962664f2ccfb32982ee5456fd431dd070ecaa9f3b65",
    ("slope", 2): "cc735f0782556bcfb80fd8438da246077e45920e4fe87eea3be1f782fa75dc24",
    ("slope", 3): "8bb9eecc8913ec6ec121857236281797bf759bb782702ccdbb771a0d60ffac61",
    ("slope", 7): "5bc43672472f147ff1885d7ce6c4a42360bd6b1a1799fb09c930c68225753039",
    ("gauge", 1): "08575cbe298f2af3dcce74e2232ddaa38b8e217f57e64bba302c6ed7f7fdb53d",
    ("gauge", 2): "97e9eed39d38a11cccb612f24d49ad04e0b4f71c20823246a613b88c256b5bce",
    ("gauge", 3): "3ffcc406514b69d6233b006517456329f8d04a94d7840ef784db798ac0675f60",
    ("gauge", 7): "f9d778b243321a5f43ff44c7ff1f473eceb255f4bbe65bc7c07c9c6ae4a0dad8",
}


def request_sums(work: Path) -> dict[tuple[str, int], str]:
    """One sha256 per (workload, seed) over the requests' argv, exit code,
    stdout, stderr and DOT bytes, each request run in `work`."""
    sums = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            h = hashlib.sha256()
            for i, req in enumerate(workloads.make_requests(workload, seed)):
                doc, dot = work / f"{i}.json", work / f"{i}.dot"
                if req.doc is not None:
                    doc.write_text(json.dumps({"schema": workloads.SCHEMA, **req.doc}),
                                   encoding="utf-8")
                argv = [a.replace("{doc}", str(doc)).replace("{out}", str(dot))
                        for a in req.argv]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                doc.unlink(missing_ok=True)
                record = [argv, code, out.getvalue(), err.getvalue()]
                h.update(json.dumps(record).replace(str(work), TOKEN).encode())
                if dot.exists():
                    h.update(dot.read_bytes())
                    dot.unlink()
            sums[workload, seed] = h.hexdigest()
    return sums


def test_every_benchmark_request_answers_byte_for_byte_as_pinned(tmp_path):
    sums = request_sums(tmp_path)
    assert len(sums) == 16
    moved = sorted(key for key, value in sums.items() if PINNED.get(key) != value)
    assert not moved, f"output moved for (workload, seed) {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("PINNED = {")
        for (workload, seed), value in request_sums(Path(tmp)).items():
            print(f'    ("{workload}", {seed}): "{value}",')
        print("}")
