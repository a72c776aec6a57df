"""The mutation audit: its mutant list, one swap per site in source order, its two stages,
its runner's timeout, and its report lines."""

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


def test_a_module_with_a_test_file_runs_it_first_and_one_without_goes_to_tier1(
    monkeypatch, tmp_path
):
    mutation = load_mutation()
    timed = []
    def clean_run(copy, timeout, *paths):
        timed.append((copy, timeout, paths))
        return "passed", 1.5
    monkeypatch.setattr(mutation, "run_pytest", clean_run)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_f2.py").write_text("")
    assert mutation.stages(tmp_path, "f2", 15.0) == [(("tests/test_f2.py",), 6.0), ((), 60.0)]
    assert timed == [(tmp_path, None, ("tests/test_f2.py",))]  # the file's unmutated run
    assert mutation.stages(tmp_path, "configio", 15.0) == [((), 60.0)]
    assert len(timed) == 1


def test_a_module_in_the_first_stage_table_runs_its_named_file_first(monkeypatch, tmp_path):
    mutation = load_mutation()
    monkeypatch.setattr(mutation, "run_pytest", lambda copy, timeout, *paths: ("passed", 2.0))
    (tmp_path / "tests").mkdir()
    for module, named in mutation.FIRST_STAGE.items():
        (tmp_path / named).write_text("")
        assert mutation.stages(tmp_path, module, 15.0) == [((named,), 8.0), ((), 60.0)]
    assert mutation.FIRST_STAGE == {
        "fibration": "tests/test_specseq.py", "configio": "tests/test_config.py",
    }


@pytest.mark.parametrize("own, tier1, runs, verdict", [
    ("failed", None, 1, "failed"),
    ("timed out", None, 1, "timed out"),
    ("passed", "failed", 2, "failed"),
    ("passed", "timed out", 2, "timed out"),
    ("passed", "passed", 2, "passed"),
])
def test_only_a_survivor_of_its_test_file_runs_tier1(
    monkeypatch, tmp_path, own, tier1, runs, verdict
):
    mutation = load_mutation()
    plan = [(("tests/test_f2.py",), 6.0), ((), 60.0)]
    verdicts = {plan[0][0]: own, (): tier1}
    ran = []
    def scripted(copy, timeout, *paths):
        ran.append((paths, timeout))
        return verdicts[paths], 0.1
    monkeypatch.setattr(mutation, "run_pytest", scripted)
    assert mutation.judge(tmp_path, plan) == verdict
    assert ran == plan[:runs]
