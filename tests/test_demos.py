"""Every demo script must run clean from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path):
    # the child runs from tmp_path, so the package path must be absolute
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(  # a warning fails the demo, as it fails tier-1 in CI
        [sys.executable, "-W", "error", str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout  # every demo narrates something


def test_chart_demo_outputs_are_gitignored():
    ignored = (ROOT / ".gitignore").read_text()
    assert "chart_p6.svg" in ignored and "chart_p6.tikz" in ignored
