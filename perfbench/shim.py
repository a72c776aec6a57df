"""Run one sseqlab command in a fresh interpreter with layer spans recorded.

    python3 perfbench/shim.py SPANS_JSON sseqlab-arguments...

The traced form of one cli-default operation: stdout and the exit code
are the command's own; the spans and counters go to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        import sseqlab.cli

        code = sseqlab.cli.main(args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
