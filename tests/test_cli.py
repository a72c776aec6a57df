"""Tests for the command-line interface.

Commands run in-process through main(); determinism checks compare
bytes across repeated runs, both on stdout and on --out files.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sseqlab.cli
import sseqlab.config
import sseqlab.errors
import sseqlab.fibration
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


def test_gauge_class_with_a_known_nonzero_residue_is_pinned_by_the_rule(tmp_path):
    # class 2 holds no residue 0, so its known value is the rule's, not the trivial bundle's
    cfg = tmp_path / "c.cfg"
    cfg.write_text((ROOT / "g2.cfg").read_text().replace("class = 2\n", "class = 2 : 0\n"))
    code, out, err = run_cli("--config", str(cfg), "gauge", "--k", "2")
    assert (code, err) == (0, "")
    assert "\nclass 2: eps = 0 is pinned by the residue rule\n" in out
    csv_part = out.split("# ==== gauge_log.txt ====")[0]
    assert [l[:6] for l in csv_part.splitlines() if l.startswith("2,")] == ["2,2,0,"]


@pytest.mark.parametrize("modulus, classes, order", [
    (6, "class = 0 : 0\nclass = 2 4\nclass = 1 3 5\n", False),
    (8, "class = 0 : 0\nclass = 2 4 6\nclass = 1 3 5 7\n", True),
])
def test_gauge_names_a_2_primary_order_only_for_a_power_of_two(tmp_path, modulus, classes, order):
    cfg = tmp_path / "c.cfg"
    text = (ROOT / "g2.cfg").read_text().partition("[epsilon]")[0]
    cfg.write_text(f"{text}[epsilon]\nmodulus = {modulus}\n{classes}")
    code, out, err = run_cli("--config", str(cfg), "gauge", "--k", str(modulus))
    assert (code, err) == (0, "")
    note = f"\nresidue classes mod {modulus}: the scalar depends only on k mod {modulus}"
    clause = f" (the connecting map is k times a map of 2-primary order {modulus})"
    assert note + (clause if order else "") + "\n" in out
    assert ("2-primary" in out) == order


def test_uct_input_row_shows_a_free_rank_above_one(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text((ROOT / "g2.cfg").read_text().replace("3 = Z ;", "3 = Z^2 ;"))
    code, out, err = run_cli("--config", str(cfg), "uct")
    assert (code, err) == (0, "")
    assert "\ninput,3,Z^2,Mimura-Toda\n" in out


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



@pytest.mark.parametrize(
    "edits, flags, log",
    [
        (  # no page past 2 is built, and d_6 leaves the window from (0,5)
            [("degree_bound = 10", "degree_bound = 4")], ("--set", "eps=1"),
            "limit page (r = 2) for eps=1\n"
            "differentials not evaluated (target beyond the window):\n"
            "  d_6: (0,5) -> (6,0)\n",
        ),
        (  # the walk stops after page 6, and d_12 leaves the window from (0,11)
            [
                ("derive = homotopy", "derive = homotopy\n11 = w"),
                ("eps = d6 u_5 -> x_6", "eps = d6 u_5 -> x_6\ne = d12 w -> x_6^2"),
            ],
            ("--set", "eps=1", "--set", "e=1"),
            "limit page (r = 7) for e=1, eps=1\n"
            "differentials not evaluated (target beyond the window):\n"
            "  d_6: (6,5) -> (12,0)\n"
            "  d_12: (0,11) -> (12,0)\n",
        ),
    ],
    ids=["window-4", "declared-w-at-11"],
)
def test_einfty_lists_each_arrow_past_the_window_on_pages_the_walk_never_builds(
    tmp_path, edits, flags, log
):
    text = (ROOT / "g2.cfg").read_text()
    for old, new in edits:
        text = text.replace(old, new)
    cfg = tmp_path / "arrows.cfg"
    cfg.write_text(text)
    code, _, err = run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), "einfty", *flags)
    assert code == 0 and not err
    assert (tmp_path / "out" / "einfty_log.txt").read_text() == log


def test_a_contains_zero_in_shifted_degree_one_is_refused_at_the_derive_row(tmp_path):
    # pi_4 shifts to fibre degree 1, where "contains 0" may hide 2-torsion: the fibre is
    # not proven simply connected, so no command may apply Hurewicz to it
    cfg = tmp_path / "c0.cfg"
    cfg.write_text((ROOT / "g2.cfg").read_text().replace("4 = 0 ;", "4 = contains 0 ;"))
    for argv in (("uct",), ("e2",), ("einfty", "--set", "eps=1"), ("sweep",), ("constraints",),
                 ("chart", "--page", "6", "--format", "svg"), ("gauge", "--k", "5")):
        code, out, err = run_cli("--config", str(cfg), *argv)
        assert code == 1 and not out, argv
        assert err == "error: line 24: hurewicz transfer needs a 1-connected table\n", argv


def test_a_contains_zero_in_shifted_degree_two_is_the_classical_degree(tmp_path):
    cfg = tmp_path / "c5.cfg"
    cfg.write_text((ROOT / "g2.cfg").read_text().replace("5 = 0 ;", "5 = contains 0 ;"))
    code, out, err = run_cli("--config", str(cfg), "uct")
    assert code == 0 and not err
    assert "\nhomology,1,0,zero below connectivity 1\n" in out
    assert ("\nhomology,2,contains 0,Mimura-Toda [shifted 3 loops from degree 5]; "
            "hurewicz isomorphism (first nonvanishing degree)\n") in out
    dims = [line.split(",")[2] for line in out.splitlines() if line.startswith("cohomology_dim,")]
    assert dims == ["1", "0", ">=0", ">=0", "0", ">=1"]
    code, out, err = run_cli("--config", str(cfg), "einfty", "--set", "eps=1")
    assert code == 1 and not out
    assert err.startswith("error: fibre degree 2 is only bounded below")


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
    assert not out.exists()


SMALL = "[base]\nx = 2\n"
ONE_ARROW = SMALL + "[fibre]\n1 = e\n[unknowns]\n"
G2_TEXT = (ROOT / "g2.cfg").read_text()

# a JSON config deriving its fibre from pi_3 = Z and pi_8 = {group}, and declaring {fibre}
JSON_DERIVED = (
    '{{"base": [["x", 2]], "homotopy": {{"3": {{"group": "Z"}}, "4": {{"group": "0"}}, '
    '"5": {{"group": "0"}}, "6": {{"group": "0"}}, "7": {{"group": "0"}}, '
    '"8": {{"group": {group}}}}}, "fibre": {{"derive": true, "generators": {{{fibre}}}}}}}'
)
# a JSON config whose second unknown sets d_2 of the generator {second}
JSON_UNKNOWNS = (
    '{{"base": [["x", 2]], "fibre": {{"generators": {{"1": ["e"]}}}}, "unknowns": ['
    '{{"name": "a", "page": 2, "generator": "e", "target": "x"}}, '
    '{{"name": "b", "page": 2, "generator": "{second}", "target": "x"}}]}}'
)

# (config file name, its text, command, the one stderr line after "error: ")
REFUSALS = {
    "uct without homotopy": ("c.cfg", SMALL, ["uct"], "the uct command needs a homotopy section"),
    "degree bound zero": (
        "c.cfg", "degree_bound = 0\n" + SMALL, ["e2"], "line 1: degree_bound must be >= 1"
    ),
    "homotopy degree zero": (
        "c.cfg", SMALL + "[homotopy]\n0 = Z ; c\n", ["e2"], "line 4: homotopy degrees start at 1"
    ),
    "duplicate derive": (
        "c.cfg", SMALL + "[homotopy]\n3 = Z ; c\n[fibre]\nderive = homotopy\nderive = homotopy\n",
        ["e2"], "line 7: duplicate derive line",
    ),
    "duplicate fibre degree": (
        "c.cfg", SMALL + "[fibre]\n1 = e\n1 = f\n", ["e2"], "line 5: duplicate fibre degree 1"
    ),
    "duplicate unknown": (
        "c.cfg", ONE_ARROW + "a = d2 e -> x\na = d2 e -> x\n", ["e2"],
        "line 7: duplicate unknown 'a'",
    ),
    "epsilon modulus zero": (
        "c.cfg", SMALL + "[epsilon]\nmodulus = 0\n", ["e2"],
        "epsilon section: modulus must be positive",
    ),
    "epsilon known value five": (
        "c.cfg", SMALL + "[epsilon]\nmodulus = 1\nclass = 0 : 5\n", ["e2"],
        "epsilon section: known values must be 0 or 1",
    ),
    "hit bound below zero": (
        "c.cfg", (ROOT / "onevar.cfg").read_text(), ["hit", "--bound", "-1"],
        "bound must be nonnegative",
    ),
    "gauge override of an undeclared class": (
        "c.cfg", G2_TEXT, ["gauge", "--k", "1", "--epsilon", "7=1"],
        "override for unknown class '7'",
    ),
    "gauge without an epsilon section": (
        "c.cfg", ONE_ARROW + "a = d2 e -> x\n", ["gauge", "--k", "4"],
        "the gauge command needs an epsilon section",
    ),
    "gauge without an unknown": (
        "c.cfg", SMALL + "[epsilon]\nmodulus = 1\nclass = 0 : 0\n", ["gauge", "--k", "1"],
        "the gauge pipeline expects exactly one unknown, the transgressive scalar",
    ),
    "einfty value for an undeclared unknown": (
        "c.cfg", G2_TEXT, ["einfty", "--set", "nope=1"],
        "value given for undeclared unknown 'nope'",
    ),
    "fibre degree below its derived lower bound": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = contains Z/2 + Z/2 ;")
        .replace("derive = homotopy", "derive = homotopy\n5 = a").replace("d6 u_5", "d6 a"),
        ["e2"], "line 25: fibre degree 5 declares fewer classes than the derived lower bound 2",
    ),
    "json top level is a list": ("c.json", "[1, 2]", ["e2"], "top level must be a JSON object"),
    # a JSON flag is a boolean: a string or a list is not read by its truthiness
    "json exact as a string": (
        "c.json", '{"base": [["x", 8]], "homotopy": {"3": {"group": "Z/2", "exact": "false"}}}',
        ["e2"], "homotopy.3: exact must be true or false, got 'false'",
    ),
    "json derive as a string": (
        "c.json", '{"base": [["x", 2]], "fibre": {"derive": "false"}}', ["e2"],
        "fibre.derive: derive must be true or false, got 'false'",
    ),
    "json derive as a list": (
        "c.json", '{"base": [["x", 2]], "fibre": {"derive": []}}', ["e2"],
        "fibre.derive: derive must be true or false, got []",
    ),
    # in JSON, exactness is the "exact" field and nothing else
    "json group with the text form's inexact prefix": (
        "c.json",
        '{"base": [["x", 8]], "homotopy": {"3": {"group": "contains Z/2", "exact": true}}}',
        ["e2"],
        """homotopy.3: group 'contains Z/2' carries a text prefix; JSON says "exact": false""",
    ),
    # the trivial bundle's section forces eps = 0 on the class holding residue 0
    "epsilon value one on residue zero": (
        "c.cfg", G2_TEXT.replace("class = 0 : 0", "class = 0 : 1"), ["gauge", "--k", "4"],
        "epsilon section: class '0' holds residue 0: a section forces eps = 0",
    ),
    "json epsilon value one on residue zero": (
        "c.json",
        '{"base": [["x", 2]], "epsilon": {"modulus": 2, "classes": '
        '[{"residues": [1]}, {"residues": [0], "known": 1}]}}',
        ["e2"],
        "epsilon section: class '0' holds residue 0: a section forces eps = 0",
    ),
    # both would key the image of d_2(e) by (generator, page), so the later would win silently
    "two unknowns on one generator": (
        "c.cfg", ONE_ARROW + "a = d2 e -> x\nb = d2 e -> x\n",
        ["einfty", "--set", "a=1", "--set", "b=0"], "line 7: unknowns a and b both set d_2(e)",
    ),
    "unknown on an undeclared generator": (
        "c.cfg", G2_TEXT.replace("eps = d6 u_5", "eps = d6 nope"), ["e2"],
        "line 27: unknown eps: unknown fibre generator 'nope'",
    ),
    # the four refusals of an unknown that FibrationSpec makes, as a config reaches them
    "unknown on the unit class": (
        "c.cfg", ONE_ARROW + "e = d2 1 -> x\n", ["e2"],
        "line 6: unknown e: the unit class never supports a differential",
    ),
    "unknown with target zero": (
        "c.cfg", ONE_ARROW + "e = d2 e -> 0\n", ["e2"], "line 6: unknown e needs a nonzero target"
    ),
    "unknown off its transgression page": (
        "c.cfg", ONE_ARROW + "e = d3 e -> x\n", ["e2"],
        "line 6: unknown e: a base-row image forces page 2, got 3",
    ),
    "unknown target of the wrong degree": (
        "c.cfg", ONE_ARROW + "e = d2 e -> x^2\n", ["e2"],
        "line 6: unknown e: target must be homogeneous of degree 2",
    ),
    # a fibre name the spec would find twice is refused at its own line
    "fibre generator on two lines": (
        "c.cfg", G2_TEXT.replace("derive = homotopy", "derive = homotopy\n6 = v\n7 = v"),
        ["e2"], "line 26: duplicate fibre generator 'v'",
    ),
    "fibre generator twice on one line": (
        "c.cfg", G2_TEXT.replace("derive = homotopy", "derive = homotopy\n6 = v v"),
        ["e2"], "line 25: duplicate fibre generator 'v'",
    ),
    "fibre generator named as the unit": (
        "c.cfg", G2_TEXT.replace("derive = homotopy", "derive = homotopy\n6 = 1"),
        ["e2"], "line 25: fibre generator '1' is the unit's name",
    ),
    # a declared name that an undeclared derived degree's class would also get
    "fibre generator named as a derived class": (
        "c.cfg", G2_TEXT.replace("derive = homotopy", "derive = homotopy\n7 = u_5"),
        ["e2"], "line 25: fibre generator 'u_5' is the name derived for fibre degree 5",
    ),
    "fibre generator named as one of two derived classes": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = Z/2 + Z/2 ;").replace("d6 u_5", "d6 u_5_0")
        .replace("derive = homotopy", "derive = homotopy\n6 = v u_5_1"),
        ["e2"], "line 25: fibre generator 'u_5_1' is the name derived for fibre degree 5",
    ),
    "json fibre generator named as a derived class": (
        "c.json",
        '{"base": [["x", 2]], "homotopy": {"3": {"group": "Z"}, "4": {"group": "0"}, '
        '"5": {"group": "0"}, "6": {"group": "0"}, "7": {"group": "0"}, '
        '"8": {"group": "Z/2"}}, "fibre": {"derive": true, "generators": {"7": ["u_5"]}}}',
        ["e2"], "fibre.generators.7: fibre generator 'u_5' is the name derived for fibre degree 5",
    ),
    "json fibre generator in two degrees": (
        "c.json", '{"base": [["x", 2]], "fibre": {"generators": {"1": ["e"], "3": ["e"]}}}',
        ["e2"], "fibre.generators.3: duplicate fibre generator 'e'",
    ),
    "empty factor in a target": (
        "c.cfg", G2_TEXT.replace("-> x_6\n", "-> x_6*\n"), ["e2"],
        "line 27: empty factor in monomial 'x_6*'",
    ),
    "exponent that is not an integer": (
        "c.cfg", G2_TEXT.replace("-> x_6\n", "-> x_6^a\n"), ["e2"],
        "line 27: bad exponent 'a' in 'x_6^a'",
    ),
    "negative exponent": (
        "c.cfg", G2_TEXT.replace("-> x_6\n", "-> x_6^-1\n"), ["e2"],
        "line 27: negative exponent in 'x_6^-1'",
    ),
    "negative free rank": (
        "c.cfg", G2_TEXT.replace("3 = Z ;", "3 = Z^-1 ;"), ["e2"],
        "line 16: free rank must be nonnegative",
    ),
    "torsion coefficient one": (
        "c.cfg", G2_TEXT.replace("3 = Z ;", "3 = Z/1 ;"), ["e2"],
        "line 16: torsion coefficients must be >= 2",
    ),
    "json epsilon field unknown": (
        "c.json",
        '{"base": [["x", 2]], "epsilon": {"modulus": 1, "classes": [{"residues": [0]}], '
        '"nope": 1}}',
        ["e2"], "epsilon.nope: unknown field 'nope'",
    ),
    # the spec gate's refusals about one fibre degree or one unknown, at the row declaring it
    "fibre degree contradicting its exact derived count": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = Z/2 ;")
        .replace("derive = homotopy", "derive = homotopy\n5 = a b").replace("d6 u_5", "d6 a"),
        ["e2"], "line 25: fibre degree 5 contradicts the derived truncation (derived 1, declared 2)",
    ),
    # the derive row's value is no generator: only the degree row declares 'homotopy'
    "fibre generator named as the derive value": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = Z/2 ;")
        .replace("derive = homotopy", "derive = homotopy\n5 = homotopy b")
        .replace("d6 u_5", "d6 homotopy"),
        ["e2"], "line 25: fibre degree 5 contradicts the derived truncation (derived 1, declared 2)",
    ),
    "fibre generators named as both derived classes": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = Z/2 + Z/2 ;").replace("d6 u_5", "d6 u_5_0")
        .replace("derive = homotopy", "derive = homotopy\n6 = u_5_0\n7 = u_5_1"),
        ["e2"], "line 25: fibre generator 'u_5_0' is the name derived for fibre degree 5",
    ),
    "json fibre degree contradicting its exact derived count": (
        "c.json", JSON_DERIVED.format(group='"Z/2"', fibre='"5": ["a", "b"]'), ["e2"],
        "fibre.generators.5: fibre degree 5 contradicts the derived truncation "
        "(derived 1, declared 2)",
    ),
    "json fibre degree below its derived lower bound": (
        "c.json",
        JSON_DERIVED.format(group='"Z/2 + Z/2", "exact": false', fibre='"6": ["v"], "5": ["a"]'),
        ["e2"], "fibre.generators.5: fibre degree 5 declares fewer classes than the derived "
        "lower bound 2",
    ),
    "json unknown on an undeclared generator": (
        "c.json", JSON_UNKNOWNS.format(second="nope"), ["e2"],
        "unknowns[1]: unknown b: unknown fibre generator 'nope'",
    ),
    "json two unknowns on one generator": (
        "c.json", JSON_UNKNOWNS.format(second="e"), ["e2"],
        "unknowns[1]: unknowns a and b both set d_2(e)",
    ),
    # a JSON list member is one token of the text form, not several
    "json fibre generator member holding two names": (
        "c.json", '{"base": [["x", 2]], "fibre": {"generators": {"6": ["v w"]}}}', ["e2"],
        "fibre.generators.6: name 'v w' cannot be read back in the text form",
    ),
    "json epsilon class member holding two residues": (
        "c.json",
        '{"base": [["x", 2]], "epsilon": {"modulus": 4, '
        '"classes": [{"residues": ["0 2"]}, {"residues": [1, 3]}]}}',
        ["e2"], "epsilon.classes[0]: residue '0 2' cannot be read back in the text form; "
        "epsilon section: classes must partition the residues 0..3",
    ),
    # the fibre derivation's refusals, at the derive row
    "fibre derivation without a homotopy section": (
        "c.cfg", SMALL + "[fibre]\nderive = homotopy\n", ["e2"],
        "line 4: fibre derivation needs a homotopy section",
    ),
    "fibre derivation from a homotopy section missing a degree": (
        "c.cfg", SMALL + "[homotopy]\n3 = Z ; c\n[fibre]\nderive = homotopy\n", ["e2"],
        "line 6: degree 1 is not populated; absence is not the zero group",
    ),
    "json fibre derivation without a homotopy section": (
        "c.json", '{"base": [["x", 2]], "fibre": {"derive": true}}', ["e2"],
        "fibre.derive: fibre derivation needs a homotopy section",
    ),
    "json fibre derivation from a homotopy section missing a degree": (
        "c.json", '{"base": [["x", 2]], "homotopy": {"3": {"group": "Z"}}, '
        '"fibre": {"derive": true}}', ["e2"],
        "fibre.derive: degree 1 is not populated; absence is not the zero group",
    ),
    # a generator named 'derive' is declared by its degree row, not by the derive row
    "fibre generator named derive": (
        "c.cfg",
        G2_TEXT.replace("8 = contains Z/2 ;", "8 = Z/2 ;")
        .replace("derive = homotopy", "derive = homotopy\n5 = derive b")
        .replace("d6 u_5", "d6 derive"),
        ["e2"], "line 25: fibre degree 5 contradicts the derived truncation (derived 1, declared 2)",
    ),
    # a text fibre name emitted after "= " must not start a comment there, as in JSON
    "text fibre generator starting with a hash": (
        "c.cfg", SMALL + "[fibre]\n7 =#c\n", ["e2"],
        "line 4: name '#c' cannot be read back in the text form",
    ),
    # a JSON homotopy group or citation the text line cannot hold
    "json homotopy citation holding a comment": (
        "c.json", '{"base": [["x", 2]], "homotopy": {"3": {"group": "Z", "citation": "see #5"}}}',
        ["e2"], "homotopy.3: citation 'see #5' cannot be read back in the text form",
    ),
    "json homotopy group holding a citation": (
        "c.json", '{"base": [["x", 2]], "homotopy": {"3": {"group": "Z ; x"}}}', ["e2"],
        "homotopy.3: group 'Z ; x' cannot be read back in the text form",
    ),
    "json homotopy citation holding a line break": (
        "c.json", '{"base": [["x", 2]], "homotopy": {"3": {"group": "Z", "citation": "a\\nb"}}}',
        ["e2"], "homotopy.3: citation 'a\\nb' cannot be read back in the text form",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_exits_one_with_its_message_and_writes_nothing(tmp_path, case):
    name, text, argv, message = REFUSALS[case]
    (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    code, stdout, err = run_cli("--config", str(tmp_path / name), "--out", str(out), *argv)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_an_invariant_breach_exits_two_and_writes_nothing(tmp_path, monkeypatch):
    def breach(spec):
        raise sseqlab.errors.InvariantBreach("x")

    monkeypatch.setattr(sseqlab.cli, "sweep_unknowns", breach)
    out = tmp_path / "out"
    code, stdout, err = run_cli("--config", G2, "--out", str(out), "sweep")
    assert (code, stdout, err) == (2, "", "internal invariant breach: x\n")
    assert not out.exists()


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
    # check, which runs where each branch's run starts
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    fibre = counted("fibre", sseqlab.config.fibre_truncation_dims)
    monkeypatch.setattr(sseqlab.config, "fibre_truncation_dims", fibre)
    # FibrationSpec.arrows is the one caller of classify_arrows
    monkeypatch.setattr(
        sseqlab.fibration, "classify_arrows", counted("arrows", sseqlab.fibration.classify_arrows)
    )
    verdict = counted("verdict", sseqlab.steenrod.validate_table)
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
    # the commands that read the arrow table walk it once; e2, uct and hit never read it
    arrow_walks = {op: seen.get("arrows", 0) for op, seen in counts.items()}
    assert arrow_walks == {
        "constraints": 1, "e2": 0, "einfty": 1, "sweep": 1,
        "gauge": 1, "uct": 0, "chart": 1, "hit": 0,
    }
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
    # at window 3 the top degree, 3, is still named, and 4, past the window, is not
    cfg.write_text(cfg.read_text().replace("degree_bound = 10", "degree_bound = 3"))
    code, out, _ = run_cli("--config", str(cfg), "e2")
    assert code == 0
    top = out.split("# ==== e2_log.txt ====\n")[1].splitlines()
    assert top == ["starting page, total degree <= 3", log.splitlines()[1]]
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


# ---------------------------------------------------------------- cyclic collector


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, then put back as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_a_wide_sweep_starts_no_collector_pass(tmp_path):
    # A g2 sweep at window 60 holds thousands of tracked containers live at
    # once, past the collector's generation-0 threshold, so an unpaused
    # collector walks them mid-sweep.  Paused, the generation-0 count still
    # grows by the sweep's net allocations, which a tuple going to a free list
    # adds to; once a sweep has filled the free lists they stay below the
    # threshold, so no pass follows either.
    wide = tmp_path / "wide.cfg"
    wide.write_text(
        (ROOT / "g2.cfg").read_text().replace("degree_bound = 10", "degree_bound = 60")
    )
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    with collector(True):
        gc.collect()  # empties the free lists, so no earlier full pass decides what follows
        assert run_cli("--config", str(wide), "sweep")[0] == 0
        gc.collect(0)  # zeroes the generation-0 count and keeps the free lists
        gc.callbacks.append(count)
        try:
            code, out, err = run_cli("--config", str(wide), "sweep")
        finally:
            gc.callbacks.remove(count)
    assert (code, err) == (0, "") and out.startswith("# ==== ")
    assert starts == []


EXITS = {  # argv, exit code; cmd_sweep is made to breach an invariant
    "success": (("--config", G2, "constraints"), 0),
    "refusal": (("--config", G2, "einfty"), 1),
    "breach": (("--config", G2, "sweep"), 2),
    "usage": (("--config", G2, "no-such-command"), 1),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", EXITS)
def test_main_pauses_the_collector_and_hands_it_back_as_it_found_it(case, enabled, monkeypatch):
    argv, exit_code = EXITS[case]
    during = []

    def spy(command):
        def run(config, args):
            during.append(gc.isenabled())
            return command(config, args)

        return run

    def breach(config, args):
        raise sseqlab.errors.InvariantBreach("x")

    monkeypatch.setattr(sseqlab.cli, "cmd_constraints", spy(sseqlab.cli.cmd_constraints))
    monkeypatch.setattr(sseqlab.cli, "cmd_einfty", spy(sseqlab.cli.cmd_einfty))
    monkeypatch.setattr(sseqlab.cli, "cmd_sweep", spy(breach))
    with collector(enabled):
        code = run_cli(*argv)[0]
        after = gc.isenabled()
    assert (code, after) == (exit_code, enabled)
    assert during == ([] if case == "usage" else [False])


# Every README command, both einfty branches, each gauge residue, hit on both
# squaring tables and both chart formats.  Only success paths: an argparse
# error builds a few cycles in argparse itself.
NO_CYCLES = list(
    dict.fromkeys(
        [tuple(argv[1:]) for argv in readme_commands()]
        + [
            ("einfty", "--set", "eps=0"),
            ("einfty", "--set", "eps=1"),
            *[("gauge", "--k", str(k)) for k in range(8)],
            ("--config", "onevar.cfg", "hit", "--bound", "31"),
            ("--config", "tests/data/g2_steenrod.cfg", "hit", "--bound", "21"),
            ("chart", "--page", "6", "--format", "svg"),
            ("chart", "--page", "6", "--format", "tikz"),
        ]
    )
)


@pytest.mark.parametrize("argv", NO_CYCLES, ids=lambda a: "_".join(a))
def test_a_command_builds_no_reference_cycles(argv, monkeypatch):
    # refcounting alone frees what a command builds, so pausing the collector
    # lets nothing pile up; the warm-up takes a process's one-off set-up
    monkeypatch.chdir(ROOT)
    assert run_cli(*argv)[0] == 0
    gc.collect()
    with collector(False):
        code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and out.startswith("# ==== ")
    assert gc.collect() == 0


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


def child_env():
    """A CLI child's environment: sources on the path, no PYTHON* flags, no bytecode writes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def test_a_refusal_reads_the_same_under_every_hash_seed(tmp_path):
    # two declared names clash with the two derived ones; the first derived name is reported
    name, text, argv, message = REFUSALS["fibre generators named as both derived classes"]
    (tmp_path / name).write_text(text)
    for seed in range(8):
        result = subprocess.run(
            [sys.executable, "-m", "sseqlab", "--config", str(tmp_path / name), *argv],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(child_env(), PYTHONHASHSEED=str(seed)),
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")


def test_cli_start_up_loads_no_code_generator_or_json():
    env = child_env()
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


# the sseqlab modules a command may not load, by command: only a page turn loads the
# page engine and f2 (hit's solver loads f2 too), and no README config is JSON
PAGE_ENGINE = {"specseq", "f2"}
NOT_LOADED = {
    "constraints": {"chart", "gauge", "steenrod", "configio", *PAGE_ENGINE},
    "e2": {"chart", "gauge", "steenrod", "configio", *PAGE_ENGINE},
    "einfty": {"chart", "gauge", "steenrod", "configio"},
    "sweep": {"chart", "gauge", "steenrod", "configio"},
    "uct": {"chart", "gauge", "steenrod", "configio", *PAGE_ENGINE},
    "gauge": {"chart", "steenrod", "configio"},
    "chart": {"gauge", "steenrod", "configio", *PAGE_ENGINE},
    "hit": {"chart", "gauge", "configio", "specseq"},
}
# the sseqlab modules a command must load beyond cli, config and fibration
RUNS = {
    "einfty": {"specseq"}, "sweep": {"specseq"}, "gauge": {"gauge", "specseq"},
    "chart": {"chart"}, "hit": {"steenrod", "f2"},
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # ``python -m sseqlab`` that prints its loaded modules at exit
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
        "runpy.run_module('sseqlab', run_name='__main__', alter_sys=True)\n"
    )
    commands = [(next(a for a in argv if a in NOT_LOADED), argv) for argv in readme_commands()]
    assert {command for command, _ in commands} == set(NOT_LOADED)
    for n, (command, argv) in enumerate(commands):
        result = subprocess.run(
            [sys.executable, "-c", probe, "--out", str(tmp_path / str(n)), *argv[1:]],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        loaded = {m.split(".")[1] for m in result.stderr.split() if m.startswith("sseqlab.")}
        assert loaded & NOT_LOADED[command] == set(), argv
        assert {"cli", "config", "fibration", *RUNS.get(command, ())} <= loaded, argv
