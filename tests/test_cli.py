"""Tests for the command-line interface.

Commands run in-process through main(); determinism checks compare
bytes across repeated runs, both on stdout and on --out files.
"""

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sseqlab.cli
import sseqlab.config
import sseqlab.specseq
import sseqlab.steenrod
from sseqlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
G2 = str(ROOT / "g2.cfg")
ONEVAR = str(ROOT / "onevar.cfg")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- behaviour


def test_constraints_covers_full_enumeration_range():
    code, out, err = run_cli("--config", G2, "constraints")
    assert code == 0 and not err
    csv_part = out.split("# ==== constraints_log.txt ====")[0]
    lines = [l for l in csv_part.splitlines() if l and not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    by_source = {}
    for row in rows:
        by_source.setdefault((row[1], row[2]), []).append(row[0])
    assert set(by_source) == {("0", "5"), ("4", "5")}
    for pages in by_source.values():
        assert pages == ["2", "3", "4", "5", "6", ">=7"]
    admitted = [row for row in rows if row[5] == "admissible"]
    assert {(r[0], r[1], r[2], r[3], r[4]) for r in admitted} == {
        ("6", "0", "5", "6", "0"),
        ("6", "4", "5", "10", "0"),
    }
    rejected = [row for row in rows if row[5] == "rejected"]
    assert all(row[6] for row in rejected)  # every rejection carries a reason


def test_constraints_window_eleven_reports_extra_source(tmp_path):
    wide = tmp_path / "wide.cfg"
    wide.write_text(
        (ROOT / "g2.cfg").read_text().replace("degree_bound = 10", "degree_bound = 11")
    )
    code, out, _ = run_cli("--config", str(wide), "constraints")
    assert code == 0
    # the page-6 arrow out of (4,5) stays, and the wider window adds (6,5)
    assert "6,4,5,10,0,admissible" in out
    assert "6,6,5,12,0,admissible" in out


def test_constraints_zero_fibre_gives_empty_table(tmp_path):
    cfg = tmp_path / "nofibre.cfg"
    cfg.write_text("[base]\nx_4 = 4\nx_6 = 6\nx_7 = 7\n[fibre]\n")
    code, out, _ = run_cli("--config", str(cfg), "constraints")
    assert code == 0
    csv_part = out.split("# ==== constraints_log.txt ====")[0]
    rows = [l for l in csv_part.splitlines() if l and not l.startswith("#")]
    assert rows == ["page,source_s,source_t,target_s,target_t,status,reason"]


def test_uct_with_pinned_top_group_reports_exact_dim(tmp_path):
    text = (ROOT / "g2.cfg").read_text().replace(
        "8 = contains Z/2 ; Mimura-Toda (contains 2-torsion)",
        "8 = Z/2 ; pinned by hand",
    )
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(text)
    code, out, _ = run_cli("--config", str(cfg), "uct")
    assert code == 0
    assert "cohomology_dim,5,1," in out
    assert "cohomology_dim,5,>=1," not in out


def test_hit_invalid_table_lists_violations(tmp_path):
    cfg = tmp_path / "badsq.cfg"
    cfg.write_text("[base]\nt = 1\n[steenrod]\nsq0 t = t^2\n")
    code, _, err = run_cli("--config", str(cfg), "hit", "--bound", "4")
    assert code == 1
    assert "sq0" in err and "Sq^0(t)" in err


def test_uct_all_zero_table_prints_zero_dims(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        "[base]\nx_4 = 4\n[homotopy]\n"
        + "".join(f"{d} = 0 ; nothing there\n" for d in range(4, 9))
    )
    code, out, _ = run_cli("--config", str(cfg), "uct")
    assert code == 0
    for j in range(1, 6):
        assert f"cohomology_dim,{j},0," in out


def test_gauge_k4_single_branch():
    code, out, _ = run_cli("--config", G2, "gauge", "--k", "4")
    assert code == 0
    csv_part = out.split("# ==== gauge_log.txt ====")[0]
    data_rows = [
        l for l in csv_part.splitlines() if l and not l.startswith(("#", "k,"))
    ]
    assert data_rows == ["4,0,0,0,1,0,0,0,1,1,1,1,1,1,1"]  # k, class, branch, eps, dims


def test_gauge_k1_two_branches():
    code, out, _ = run_cli("--config", G2, "gauge", "--k", "1")
    assert code == 0
    csv_part = out.split("# ==== gauge_log.txt ====")[0]
    data_rows = [
        l for l in csv_part.splitlines() if l and not l.startswith(("#", "k,"))
    ]
    assert len(data_rows) == 2


def test_gauge_override_single_branch():
    code, out, _ = run_cli("--config", G2, "gauge", "--k", "1", "--epsilon", "1,3=1")
    assert code == 0
    csv_part = out.split("# ==== gauge_log.txt ====")[0]
    data_rows = [
        l for l in csv_part.splitlines() if l and not l.startswith(("#", "k,"))
    ]
    assert len(data_rows) == 1
    assert data_rows[0].endswith("1,0,0,0,1,0,0,1,1,0,0")


def test_gauge_contradicting_override_exits_one():
    code, _, err = run_cli("--config", G2, "gauge", "--k", "4", "--epsilon", "0=1")
    assert code == 1
    assert "contradicts" in err


def test_einfty_requires_resolved_unknowns():
    code, _, err = run_cli("--config", G2, "einfty")
    assert code == 1
    assert "unresolved" in err


def test_einfty_collapse_branch():
    code, out, _ = run_cli("--config", G2, "einfty", "--set", "eps=0")
    assert code == 0
    assert "all admissible differentials evaluated" in out


def test_extra_fibre_class_without_declarable_image(tmp_path):
    # d_4 (0,8) -> (4,5) is admissible, and no config syntax declares it
    cfg = tmp_path / "w8.cfg"
    cfg.write_text(
        (ROOT / "g2.cfg").read_text().replace("derive = homotopy", "derive = homotopy\n8 = w_8")
    )
    for argv in (("einfty", "--set", "eps=1"), ("sweep",), ("gauge", "--k", "5")):
        code, _, err = run_cli("--config", str(cfg), *argv)
        assert code == 1, argv
        assert "no image declared for d_4(w_8)" in err
        assert "Traceback" not in err
    for argv in (("constraints",), ("chart", "--page", "4", "--format", "svg")):
        code, _, err = run_cli("--config", str(cfg), *argv)
        assert code == 0 and not err, argv


def test_hit_without_steenrod_section_exits_one():
    code, _, err = run_cli("--config", G2, "hit", "--bound", "8")
    assert code == 1
    assert "steenrod" in err


def test_hit_one_variable_pattern():
    code, out, _ = run_cli("--config", ONEVAR, "hit", "--bound", "31")
    assert code == 0
    non_hit = []
    for line in out.splitlines():
        parts = line.split(",")
        if len(parts) == 5 and parts[0].isdigit() and parts[3] == "1":
            non_hit.append(int(parts[0]))
    assert non_hit == [0, 1, 3, 7, 15, 31]


def test_chart_rejects_bad_format():
    code, _, err = run_cli("--config", G2, "chart", "--page", "6", "--format", "png")
    assert code == 1


@pytest.mark.parametrize("page", ["1", "0", "-3"])
def test_chart_page_below_two_exits_one_and_writes_nothing(tmp_path, page):
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        "--config", G2, "--out", str(out), "chart", "--page", page, "--format", "svg"
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: chart page must be >= 2 (pages start at E_2), got {page}\n"
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_missing_config_exits_one():
    code, _, err = run_cli("--config", "no-such-file.cfg", "constraints")
    assert code == 1
    assert "cannot read" in err


def test_undecodable_config_exits_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe[base]\n")
    code, _, err = run_cli("--config", str(bad), "e2")
    assert code == 1
    assert "cannot read" in err


def test_malformed_config_reports_location(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[base]\nx = -1\n")
    code, _, err = run_cli("--config", str(bad), "e2")
    assert code == 1
    assert "line 2" in err



def test_negative_squaring_index_is_a_located_problem(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[base]\nt = 1\n[steenrod]\nsq-1 t = t\n")
    code, _, err = run_cli("--config", str(bad), "hit", "--bound", "3")
    assert code == 1
    assert "line 4: negative squaring index for t" in err


def test_mixed_degree_unknown_target_is_a_located_problem(tmp_path):
    bad = tmp_path / "bad.cfg"
    text = (ROOT / "g2.cfg").read_text()
    bad.write_text(text.replace("-> x_6\n", "-> x_6 + x_4\n"))
    code, _, err = run_cli("--config", str(bad), "sweep")
    assert code == 1
    line = 1 + text[: text.index("-> x_6\n")].count("\n")
    assert f"line {line}: polynomial is not homogeneous: degrees [4, 6]" in err

def test_malformed_json_config_exits_one_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"base": 5}')
    code, _, err = run_cli("--config", str(bad), "e2")
    assert code == 1
    assert "base: expected a JSON list" in err
    assert "Traceback" not in err


def test_bit_flags_name_their_flag_in_errors():
    code, _, err = run_cli("--config", G2, "einfty", "--set", "eps=2")
    assert code == 1
    assert "--set expects name=0 or name=1, got 'eps=2'" in err
    code, _, err = run_cli("--config", G2, "gauge", "--k", "1", "--epsilon", "1,3")
    assert code == 1
    assert "--epsilon expects label=0 or label=1, got '1,3'" in err


def test_repeated_bit_flag_names_are_rejected():
    code, _, err = run_cli("--config", G2, "einfty", "--set", "eps=1", "--set", "eps=0")
    assert code == 1
    assert "--set gives name 'eps' twice" in err
    code, _, err = run_cli(
        "--config", G2, "gauge", "--k", "1", "--epsilon", "1,3=1", "--epsilon", "1,3=1"
    )
    assert code == 1
    assert "--epsilon gives label '1,3' twice" in err


def test_out_at_an_existing_file_exits_one(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        code, stdout, err = run_cli("--config", G2, "--out", str(out), "e2")
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


def test_each_op_derives_and_checks_its_inputs_once(monkeypatch):
    # counted where each result is computed: the fibre truncation derived by the
    # config gate, the arrow walk, a squaring table's verdict, and the image
    # check, whose verdict stays on each resolved assignment
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    fibre = counted("fibre", sseqlab.config.fibre_truncation_dims)
    monkeypatch.setattr(sseqlab.config, "fibre_truncation_dims", fibre)
    arrows = counted("arrows", sseqlab.specseq.classify_arrows)
    verdict = counted("verdict", sseqlab.steenrod.validate_table)
    for module in (sseqlab.specseq, sseqlab.cli):
        monkeypatch.setattr(module, "classify_arrows", arrows, raising=False)
    for module in (sseqlab.steenrod, sseqlab.cli):
        monkeypatch.setattr(module, "validate_table", verdict)
    images = counted("images", sseqlab.specseq.check_images)
    monkeypatch.setattr(sseqlab.specseq, "check_images", images)
    ops = {
        "constraints": (G2, "constraints"),
        "e2": (G2, "e2"),
        "einfty": (G2, "einfty", "--set", "eps=1"),
        "sweep": (G2, "sweep"),
        "gauge": (G2, "gauge", "--k", "1"),
        "uct": (G2, "uct"),
        "chart": (G2, "chart", "--page", "6", "--format", "svg"),
        "hit": (ONEVAR, "hit", "--bound", "8"),
    }
    counts = {}
    for op, (config, *argv) in ops.items():
        calls.clear()
        assert run_cli("--config", config, *argv)[0] == 0, op
        counts[op] = dict(calls)
    for op, seen in counts.items():
        fibre_derivations = 0 if op == "hit" else 1  # onevar.cfg has no fibre to derive
        assert seen.get("fibre", 0) == fibre_derivations, (op, seen)
        assert seen.get("arrows", 0) <= 1, (op, seen)
    # one check per resolved assignment: einfty resolves one, sweep and gauge one per branch
    image_checks = {op: seen.get("images", 0) for op, seen in counts.items()}
    assert image_checks == {
        "constraints": 0, "e2": 0, "einfty": 1, "sweep": 2,
        "gauge": 2, "uct": 0, "chart": 0, "hit": 0,
    }
    assert counts["hit"] == {"verdict": 1}


def test_e2_log_names_each_unproven_fibre_degree(tmp_path):
    # pi_6 only known to contain Z/3: fibre degrees 3 and 4 are >=0, with no class derived
    cfg = tmp_path / "z3.cfg"
    cfg.write_text((ROOT / "g2.cfg").read_text().replace("6 = Z/3", "6 = contains Z/3"))
    code, out, err = run_cli("--config", str(cfg), "e2")
    assert (code, err) == (0, "")
    csv_part, log = out.split("# ==== e2_log.txt ====\n")
    rows = [line.split(",") for line in csv_part.splitlines()[2:]]
    assert csv_part.startswith("# ==== e2.csv ====\n") and rows
    assert all(t not in ("3", "4") for _s, t, *_ in rows)
    assert log.splitlines() == [
        "starting page, total degree <= 10",
        "fibre degree 3 is only >=0: e2.csv lists no class there, "
        "yet the degree is unproven, not zero",
        "fibre degree 4 is only >=0: e2.csv lists no class there, "
        "yet the degree is unproven, not zero",
    ]
    # with every degree proven there is no log, so the default artifacts are unchanged
    code, out, _ = run_cli("--config", G2, "e2")
    assert code == 0 and "e2_log.txt" not in out


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sseqlab ")]
    return [line.split(" #")[0].split() for line in lines]


def test_readme_commands_run(monkeypatch):
    commands = readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(ROOT)
    for argv in commands:
        code, out, err = run_cli(*argv[1:])
        assert (code, err) == (0, ""), argv
        assert out.startswith("# ==== "), argv


# ---------------------------------------------------------------- determinism


ALL_COMMANDS = [
    ("constraints",),
    ("e2",),
    ("einfty", "--set", "eps=0"),
    ("einfty", "--set", "eps=1"),
    ("sweep",),
    ("gauge", "--k", "1"),
    ("gauge", "--k", "4"),
    ("uct",),
    ("hit", "--bound", "8"),
    ("chart", "--page", "6", "--format", "svg"),
    ("chart", "--page", "6", "--format", "tikz"),
]


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "_".join(c))
def test_stdout_byte_identical_across_runs(command):
    first = run_cli("--config", G2, *command)
    second = run_cli("--config", G2, *command)
    assert first == second


def test_out_dir_files_byte_identical_across_runs(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        code, stdout, _ = run_cli(
            "--config", G2, "--out", str(out_dir), "gauge", "--k", "2"
        )
        assert code == 0 and stdout == ""
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_subprocess_entry_point():
    # the child inherits no import path from pytest's ``pythonpath`` setting
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-m", "sseqlab", "--config", G2, "e2"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert result.returncode == 0
    assert "u_5" in result.stdout


def test_cli_start_up_loads_no_code_generator_or_json():
    # a CLI child's environment: sources on the path, no PYTHON* flags, no bytecode writes
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "import sys, sseqlab.cli\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules])\n"
        "cfg = sseqlab.config.parse_config_json('{\"base\": [[\"t\", 1]]}')\n"
        "print(cfg.base.names, 'json' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["", "('t',) True"]
