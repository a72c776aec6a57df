"""Record the reference sha256 of every operation's output.

Run from the repository root when an intended change alters an
artifact; the benchmark's output gate compares against this file:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        for op in workloads.all_ops():
            (workdir / f"{op.config}.cfg").write_text(workloads.config_text(op.config))
            ok, output = workloads.run_op(op, workdir)
            if not ok:
                raise SystemExit(f"{op.key}: command failed")
            refs[op.key] = workloads.digest(output)
            if not workloads.check(op, output, refs):
                raise SystemExit(f"{op.key}: output fails its oracle")
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {workloads.REFS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
