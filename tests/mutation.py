"""Mutation audit: does some test fail when one operator or constant of a module changes?

Each mutant swaps one binary, augmented or comparison operator (``^``/``|``/``&``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``<<``/``>>``) or one integer
constant 0 or 1 in ``src/sseqlab/<module>.py``.  It runs in a copy of the repository,
so the tree itself is never edited.  Tier-1 (pyproject's test paths) runs first on the
unmutated copy; the audit stops if it fails.  A mutant then runs in two stages: the
module's own ``tests/test_<module>.py`` (for a module with none, the file named in
``FIRST_STAGE``), when there is one, and only if that passes, tier-1.  Each stage times
out at ``TIMEOUT_FACTOR`` times its unmutated run (a mutant may loop), so a loop is cut
after seconds, not a tier-1 run's minute.  Each run starts its own session, and a
timeout kills the session's whole process group, so a process a test started (a demo,
say) goes with it; this needs POSIX.  Survivors print as ``module:line: mutated
source``, timed-out mutants as ``module:line: mutated source (timed out)``, then one
summary line per module that counts the mutants a test failed, those that timed out and
those that survived::

    python tests/mutation.py specseq fibration f2

Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_FACTOR = 4  # a mutant's tier-1 run may take this many times the unmutated run
FIRST_STAGE = {  # a module with no test file of its own -> the file that tests it
    "fibration": "tests/test_specseq.py", "configio": "tests/test_config.py",
}
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


def run(
    command: list[str], cwd: Path, env: dict | None, timeout: float | None
) -> tuple[str, float]:
    """The verdict of ``command`` ("failed", "timed out" or "passed") and its seconds.

    It runs as the leader of a new session; on a timeout its whole process group is killed
    before the verdict is given, so nothing it started keeps running."""
    began = time.perf_counter()
    with subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as process:
        try:
            returncode = process.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return "timed out", time.perf_counter() - began
    return ("failed" if returncode else "passed"), time.perf_counter() - began


def run_pytest(copy: Path, timeout: float | None, *paths: str) -> tuple[str, float]:
    """Pytest's verdict in ``copy`` on ``paths`` (tier-1 when none) and its seconds (``run``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a same-size mutant must not reuse a stale .pyc
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths]
    return run(command, copy, env, timeout)


Stage = tuple[tuple[str, ...], float]  # (pytest paths, tier-1 when empty; timeout in seconds)


def stages(copy: Path, module: str, tier1_seconds: float) -> list[Stage]:
    """The stages a mutant of ``module`` runs: its own test file (or its ``FIRST_STAGE``
    file) first, when there is one (timed here on the unmutated copy, where tier-1 has passed), then tier-1; each times
    out at ``TIMEOUT_FACTOR`` times its unmutated run."""
    own = FIRST_STAGE.get(module, f"tests/test_{module}.py")
    tier1 = ((), TIMEOUT_FACTOR * tier1_seconds)
    if not (copy / own).is_file():
        return [tier1]
    return [((own,), TIMEOUT_FACTOR * run_pytest(copy, None, own)[1]), tier1]


def judge(copy: Path, plan: list[Stage]) -> str:
    """A mutant's verdict: the first stage of ``plan`` that does not pass gives it ("failed"
    or "timed out"), so a later stage runs only for a survivor of the earlier ones."""
    for paths, timeout in plan:
        verdict = run_pytest(copy, timeout, *paths)[0]
        if verdict != "passed":
            return verdict
    return "passed"


def report(module: str, line: int, mutated: str, verdict: str) -> str:
    """A mutant's line, ``module:line: mutated source``, marked when it timed out."""
    shown = f"{module}:{line}: {mutated.splitlines()[line - 1].strip()}"
    return f"{shown} (timed out)" if verdict == "timed out" else shown


def main(argv: list[str]) -> int:
    if not argv or not all((ROOT / "src" / "sseqlab" / f"{m}.py").is_file() for m in argv):
        print("usage:", __doc__.split("\n\n")[-2].strip(), file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="sseqlab-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        clean, seconds = run_pytest(copy, None)
        if clean != "passed":
            print("tier-1 does not pass on the unmutated copy", file=sys.stderr)
            return 1
        print(f"unmutated tier-1: {seconds:.1f} s", flush=True)
        for module in argv:
            relative = Path("src", "sseqlab", f"{module}.py")
            source = (ROOT / relative).read_text()
            plan = stages(copy, module, seconds)
            shown = "; ".join(f"{' '.join(p) or 'tier-1'} {t:.0f} s" for p, t in plan)
            print(f"{module}: timeout per mutant: {shown}", flush=True)
            verdicts = []
            for line, mutated in mutants(source):
                (copy / relative).write_text(mutated)
                verdicts.append(judge(copy, plan))
                if verdicts[-1] != "failed":
                    print(report(module, line, mutated, verdicts[-1]), flush=True)
            (copy / relative).write_text(source)
            print(f"{module}: {len(verdicts)} mutants, {verdicts.count('failed')} failed a test, "
                  f"{verdicts.count('timed out')} timed out, {verdicts.count('passed')} survived",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
