"""Mutation audit: does some test fail when one operator or constant of a module changes?

Each mutant swaps one binary, augmented or comparison operator (``^``/``|``/``&``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``<<``/``>>``) or one integer
constant 0 or 1 in ``src/sseqlab/<module>.py``.  It runs in a copy of the repository,
so the tree itself is never edited.  Tier-1 (pyproject's test paths) runs first on the
unmutated copy; the audit stops if it fails, and otherwise times each mutant's tier-1
run out at ``TIMEOUT_FACTOR`` times that run's seconds (a mutant may loop).  Survivors
print as ``module:line: mutated source``, then one summary line per module that counts
the mutants a test failed, those that timed out and those that survived::

    python tests/mutation.py specseq fibration f2

Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_FACTOR = 4  # a mutant's tier-1 run may take this many times the unmutated run
SWAPS = {
    "^": "|", "|": "^", "&": "|", "+": "-", "-": "+", "<<": ">>", ">>": "<<",
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
}
OPERATORS = {  # ast operator class -> its token
    ast.BitXor: "^", ast.BitOr: "|", ast.BitAnd: "&", ast.Add: "+", ast.Sub: "-",
    ast.LShift: "<<", ast.RShift: ">>", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _offset(lines: list[str], line: int, col: int) -> int:
    """The character offset of (1-based line, 0-based column) in the joined source."""
    before = lines[line - 1].encode()[:col].decode()  # ast columns count UTF-8 bytes
    return sum(len(text) for text in lines[: line - 1]) + len(before)


def mutants(source: str) -> list[tuple[int, str]]:
    """(line, mutated module source) for each single swap, in source order."""
    lines = source.splitlines(keepends=True)
    sites: list[tuple[int, int, int, str]] = []  # (line, start, end, replacement)

    def between(left: ast.AST, right: ast.AST, op: ast.AST, suffix: str = "") -> None:
        """The operator ``op`` (``suffix`` after it in an augmented assignment) written
        between two nodes, as a swap site."""
        token = OPERATORS[type(op)]
        start = _offset(lines, left.end_lineno, left.end_col_offset)
        found = source.find(token + suffix, start, _offset(lines, right.lineno, right.col_offset))
        if found >= 0:
            line = source.count("\n", 0, found) + 1
            sites.append((line, found, found + len(token), SWAPS[token]))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in OPERATORS:
            between(node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign) and type(node.op) in OPERATORS:
            between(node.target, node.value, node.op, "=")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in OPERATORS:
                    between(left, right, op)
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            start = _offset(lines, node.lineno, node.col_offset)
            end = _offset(lines, node.end_lineno, node.end_col_offset)
            if source[start:end] in ("0", "1"):
                sites.append((node.lineno, start, end, "1" if node.value == 0 else "0"))
    return [(line, source[:start] + new + source[end:]) for line, start, end, new in sorted(sites)]


def run_tier1(copy: Path, timeout: float | None) -> tuple[str, float]:
    """Tier-1's verdict in ``copy`` ("failed", "timed out" or "passed") and its seconds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a same-size mutant must not reuse a stale .pyc
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    began = time.perf_counter()
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - began
    return ("failed" if result.returncode else "passed"), time.perf_counter() - began


def main(argv: list[str]) -> int:
    if not argv or not all((ROOT / "src" / "sseqlab" / f"{m}.py").is_file() for m in argv):
        print("usage:", __doc__.split("\n\n")[-2].strip(), file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="sseqlab-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        clean, seconds = run_tier1(copy, None)
        if clean != "passed":
            print("tier-1 does not pass on the unmutated copy", file=sys.stderr)
            return 1
        timeout = TIMEOUT_FACTOR * seconds
        print(f"unmutated tier-1: {seconds:.1f} s; timeout {timeout:.0f} s per mutant", flush=True)
        for module in argv:
            relative = Path("src", "sseqlab", f"{module}.py")
            source = (ROOT / relative).read_text()
            verdicts = []
            for line, mutated in mutants(source):
                (copy / relative).write_text(mutated)
                verdicts.append(run_tier1(copy, timeout)[0])
                if verdicts[-1] == "passed":
                    print(f"{module}:{line}: {mutated.splitlines()[line - 1].strip()}", flush=True)
            (copy / relative).write_text(source)
            print(f"{module}: {len(verdicts)} mutants, {verdicts.count('failed')} failed a test, "
                  f"{verdicts.count('timed out')} timed out, {verdicts.count('passed')} survived",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
