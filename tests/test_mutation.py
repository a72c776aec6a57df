"""The mutation audit: its mutant list, one swap per site in source order, its runner's
timeout, and its report lines."""

import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest


def load_mutation():
    path = Path(__file__).resolve().parent / "mutation.py"
    spec = importlib.util.spec_from_file_location("mutation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_swap_each_operator_and_constant_once_in_source_order():
    source = "x = a ^ b\nif x <= 0:\n    y = x == c\n"
    assert load_mutation().mutants(source) == [
        (1, "x = a | b\nif x <= 0:\n    y = x == c\n"),
        (2, "x = a ^ b\nif x < 0:\n    y = x == c\n"),
        (2, "x = a ^ b\nif x <= 1:\n    y = x == c\n"),
        (3, "x = a ^ b\nif x <= 0:\n    y = x != c\n"),
    ]


def test_a_timed_out_run_takes_the_process_it_started_with_it(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    child = (  # starts one sleeping grandchild, writes its pid, then outlives any timeout
        "import subprocess, sys, time\n"
        "grandchild = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(grandchild.pid))\n"
        "time.sleep(60)\n"
    )
    verdict, seconds = load_mutation().run([sys.executable, "-c", child], tmp_path, None, 0.8)
    assert verdict == "timed out" and seconds < 30
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 10  # the killed grandchild is an orphan until it is reaped
    with pytest.raises(ProcessLookupError):
        while time.monotonic() < deadline:
            os.kill(pid, 0)
            time.sleep(0.05)


@pytest.mark.parametrize("verdict, suffix", [("passed", ""), ("timed out", " (timed out)")])
def test_a_survivor_or_timeout_reports_its_module_line_and_mutated_source(verdict, suffix):
    mutated = "x = a | b\nif x < 0:\n    y = x == c\n"
    assert load_mutation().report("f2", 2, mutated, verdict) == f"f2:2: if x < 0:{suffix}"
