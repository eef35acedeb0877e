"""Record the regression references in ``refs.json``.

    python3 bench/record_refs.py

Runs every pooled request (the families with no closed-form answer) once
through ``dskit.cli.run`` without a budget cap and stores its exit code, the
SHA-256 of its stdout and its result.  Re-record only on purpose: the
references pin the verdicts of the commit they were recorded at.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from dskit.cli import run  # noqa: E402
from workloads import SCHEMA, all_pool_requests  # noqa: E402


def main() -> None:
    refs = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        doc_path = str(Path(tmp) / "doc.json")
        for req in all_pool_requests():
            if req.doc is not None:
                Path(doc_path).write_text(json.dumps({"schema": SCHEMA, **req.doc}))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run([a.replace("{doc}", doc_path) for a in req.argv])
            out = buf.getvalue()
            refs[req.ref_key()] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
                "result": json.loads(out)["result"],
            }
    (BENCH / "refs.json").write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(refs)} references")


if __name__ == "__main__":
    main()
