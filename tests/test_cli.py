"""Tests for the command-line interface.

Commands run in-process through main(); determinism checks compare
bytes across repeated runs, both on stdout and on --out files.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

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
    result = subprocess.run(
        [sys.executable, "-m", "sseqlab", "--config", G2, "e2"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0
    assert "u_5" in result.stdout
