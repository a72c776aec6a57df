"""Tests for the configuration grammar and its JSON twin."""

import copy
import importlib.util
import json
import pickle
import random
from pathlib import Path

import pytest

from sseqlab.config import (
    WorkbenchConfig,
    emit_config,
    load_config,
    parse_config,
    parse_config_json,
    parse_group,
)
from sseqlab.cli import main
from sseqlab.errors import ConfigError, SseqlabError, ValidationError
from sseqlab.gauge import DEFAULT_EPSILON_RULE, G2_BASE, g2_fibration_spec, g2_homotopy_table
from sseqlab.homotopy import FGAbelianGroup
from sseqlab.fibration import UNIT_GEN, FibrationSpec, UnknownScalar

ROOT = Path(__file__).resolve().parents[1]


def g2_text():
    return (ROOT / "g2.cfg").read_text()


# ---------------------------------------------------------------- groups


def test_parse_group_forms():
    assert parse_group("0").is_zero()
    assert parse_group("Z") == FGAbelianGroup.free(1)
    assert parse_group("Z^2") == FGAbelianGroup.free(2)
    assert parse_group("Z/4") == FGAbelianGroup.cyclic(4)
    assert parse_group("Z + Z/2 + Z/3") == FGAbelianGroup(1, (2, 3))


# ---------------------------------------------------------------- parsing


def test_shipped_fixture_parses_to_g2_job():
    cfg = parse_config(g2_text())
    assert cfg.base == G2_BASE
    assert cfg.degree_bound == 10
    assert cfg.fibre_derive
    spec = cfg.fibration_spec()
    assert spec.fibre_gens[5] == ("u_5",)
    assert spec.unknown_names() == ("eps",)
    assert cfg.epsilon_rule.label_of(7) == "1,3"
    assert cfg.homotopy is not None
    assert not cfg.homotopy.entry(8).exact
    # the config assembles the exact same job as the library default
    assert spec == g2_fibration_spec()


def test_empty_text_reports_missing_base():
    with pytest.raises(ConfigError) as info:
        parse_config("")
    assert any("missing base section" in p for p in info.value.problems)


def test_negative_degree_is_located():
    text = "[base]\nx = -3\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("line 2" in p for p in info.value.problems)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[mystery]\nfoo = 1\n[base]\nx = 2\nbanana = yes\n")
    problems = "\n".join(info.value.problems)
    assert "unknown section" in problems
    assert "banana" in problems


def test_line_syntax_of_sections_and_comments():
    text = "# a whole-line comment\n[ base ]\nx = 2 # cut from ' #' on\n\t# indented\na#b = 3\n"
    assert parse_config(text).base.generators == (("x", 2), ("a#b", 3))
    with pytest.raises(ConfigError) as info:
        parse_config("[]\nfoo = 1\n[base]\nx = 2\n")
    assert info.value.problems == [
        "line 1: unknown section []",
        "line 2: unknown top-level key 'foo'",
    ]


def test_duplicate_generator_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[base]\nx = 2\nx = 4\n")
    assert any("duplicate generator" in p for p in info.value.problems)


def test_multiple_errors_collected_together():
    text = "[base]\nx = two\ny = 0\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert len(info.value.problems) >= 2


def test_unknown_target_checked_against_base():
    text = "[base]\nx_4 = 4\n[fibre]\n5 = u\n[unknowns]\neps = d6 u -> x_9\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_fibre_contradicting_derived_truncation_rejected():
    text = g2_text() + "\n[fibre]\n"  # duplicate section header is fine, same section
    text = g2_text().replace("derive = homotopy", "derive = homotopy\n3 = bogus")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("contradicts" in p for p in info.value.problems)


def test_fibre_degree_five_naming_via_explicit_line():
    text = g2_text().replace("derive = homotopy", "derive = homotopy\n5 = w_5")
    text = text.replace("d6 u_5", "d6 w_5")
    cfg = parse_config(text)
    assert cfg.fibration_spec().fibre_gens[5] == ("w_5",)


def test_renamed_fibre_class_with_stale_unknown_rejected():
    text = g2_text().replace("derive = homotopy", "derive = homotopy\n5 = w_5")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("u_5" in p for p in info.value.problems)


def test_extra_fibre_generators_above_truncation():
    text = g2_text().replace("derive = homotopy", "derive = homotopy\n6 = v_6 w_6")
    cfg = parse_config(text)
    assert cfg.fibration_spec().fibre_gens[6] == ("v_6", "w_6")


def test_two_dimensional_degree_five_with_two_unknowns():
    text = g2_text().replace("derive = homotopy", "derive = homotopy\n5 = u_5 v_5")
    text = text.replace(
        "eps = d6 u_5 -> x_6",
        "eps = d6 u_5 -> x_6\nnu = d6 v_5 -> x_6",
    )
    cfg = parse_config(text)
    spec = cfg.fibration_spec()
    assert spec.fibre_gens[5] == ("u_5", "v_5")
    assert spec.unknown_names() == ("eps", "nu")


def test_degree_five_fewer_than_lower_bound_rejected():
    # derived lower bound at degree 5 is >= 1; an empty declaration line is
    # already a syntax error, so shrink by renaming degree 5 out of existence
    text = g2_text().replace(
        "8 = contains Z/2 ; Mimura-Toda (contains 2-torsion)",
        "8 = Z/2 ; pinned",
    ).replace("derive = homotopy", "derive = homotopy\n5 = a b")
    # pinned entry makes the derived value exactly 1, so two names contradict
    text = text.replace("eps = d6 u_5 -> x_6", "eps = d6 a -> x_6")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("contradicts" in p for p in info.value.problems)


# ---------------------------------------------------------------- fibre rule


def test_fibre_degree_zero_is_a_located_problem_with_and_without_derive():
    text = g2_text()
    line = 1 + text[: text.index("derive = homotopy")].count("\n")
    with_derive = text.replace("derive = homotopy", "derive = homotopy\n0 = v_0")
    without = text.replace("derive = homotopy", "0 = v_0\n5 = u_5")
    for bad, where in ((with_derive, line + 1), (without, line)):
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert info.value.problems == [f"line {where}: fibre degree 0 is implicit (the unit)"]
    data = {"base": [["x", 2]], "fibre": {"generators": {"0": ["v_0"]}}}
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps(data))
    assert info.value.problems == ["fibre.generators.0: fibre degree 0 is implicit (the unit)"]


def test_fibre_degree_zero_is_rejected_in_configs_built_in_code():
    cfg = parse_config(g2_text())
    for derive in (True, False):
        built = WorkbenchConfig(
            G2_BASE, homotopy=cfg.homotopy, fibre_derive=derive, fibre_explicit={0: ("v_0",)}
        )
        with pytest.raises(ValidationError, match=r"fibre degree 0 is implicit \(the unit\)"):
            built.fibration_spec()


def _z3_text():
    # pi_6 only known to contain Z/3: the fibre dims in degrees 3 and 4 are >=0
    return g2_text().replace("6 = Z/3", "6 = contains Z/3")


def test_lower_bound_zero_gets_no_class(tmp_path, capsys):
    cfg = tmp_path / "z3.cfg"
    cfg.write_text(_z3_text())
    assert main(["--config", str(cfg), "uct"]) == 0
    uct = capsys.readouterr().out
    assert "cohomology_dim,3,>=0," in uct and "cohomology_dim,4,>=0," in uct
    assert main(["--config", str(cfg), "e2"]) == 0
    e2 = capsys.readouterr().out
    assert "u_3" not in e2 and "u_4" not in e2
    assert "0,5,1,u_5" in e2
    assert sorted(parse_config(_z3_text()).fibration_spec().fibre_gens) == [0, 5]


def test_declared_names_reach_a_lower_bound():
    # degree 3 is >=0 and degree 5 is >=1: both accept any count that reaches the bound
    text = _z3_text().replace("derive = homotopy", "derive = homotopy\n3 = a_3\n5 = u_5 v_5")
    spec = parse_config(text).fibration_spec()
    assert spec.fibre_gens[3] == ("a_3",) and spec.fibre_gens[5] == ("u_5", "v_5")
    assert spec.unproven_degrees == {4}


def test_lower_bound_zero_is_unproven_not_zero(tmp_path, capsys):
    cfg = tmp_path / "z3.cfg"
    cfg.write_text(_z3_text())
    assert parse_config(_z3_text()).fibration_spec().unproven_degrees == {3, 4}
    assert main(["--config", str(cfg), "constraints"]) == 0
    out = capsys.readouterr().out
    # arrows into an unproven degree stay admissible, as if it held a class
    assert "2,4,5,6,4,admissible," in out and "3,4,5,7,3,admissible," in out
    rows = [line.split(",") for line in out.splitlines() if line.endswith(",fibre_zero")]
    assert rows and all(row[4] not in ("3", "4") for row in rows)
    assert "fibre degree 3 is only >=0" in out and "fibre degree 4 is only >=0" in out
    assert "fibre degree 3 is zero" not in out and "fibre degree 4 is zero" not in out
    for cmd in (["einfty", "--set", "eps=1"], ["sweep"], ["gauge", "--k", "1"]):
        assert main(["--config", str(cfg), *cmd]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fibre degree 3 is only bounded below (>=0)"), cmd
    table = parse_config(_z3_text()).homotopy
    with pytest.raises(ValidationError, match=r"got dims \{3: '>=0', 4: '>=0', 5: 1\}"):
        g2_fibration_spec(table=table)
    with pytest.raises(ValidationError, match="unproven fibre degree"):
        FibrationSpec(G2_BASE, {0: (UNIT_GEN,), 3: ("a",)}, unproven_degrees=frozenset({3}))


def test_g2_fibration_spec_with_extra_fibre_is_unchanged():
    eps = UnknownScalar("eps", "u_5", 6, G2_BASE.gen("x_6"))
    expected = FibrationSpec(G2_BASE, {0: (UNIT_GEN,), 5: ("u_5",), 6: ("v",)}, 10, (eps,))
    assert g2_fibration_spec(extra_fibre={6: ("v",)}) == expected


def test_problems_keep_their_order_and_wording():
    # pass-1 problems first, then top level, base, homotopy, fibre,
    # unknowns, epsilon and steenrod; lines under an unknown section are
    # top-level keys
    text = (
        "[mystery]\n"
        "foo = 1\n"
        "no equals sign\n"
        " = 3\n"
        "degree_bound = zero\n"
        "[base]\n"
        "x = two\n"
        "y = 2\n"
        "y = 4\n"
        "[homotopy]\n"
        "3 = Z/x\n"
        "3 = Z\n"
        "[fibre]\n"
        "derive = nope\n"
        "[unknowns]\n"
        "eps = d6 u_5 -> q\n"
        "[epsilon]\n"
        "class = a\n"
        "[steenrod]\n"
        "sqx y = y\n"
    )
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.problems == [
        "line 1: unknown section [mystery]",
        "line 3: expected key = value",
        "line 4: empty key",
        "line 2: unknown top-level key 'foo'",
        "line 5: degree_bound must be an integer, got 'zero'",
        "line 7: generator 'x': degree must be an integer, got 'two'",
        "line 9: duplicate generator name 'y'",
        "line 11: invalid literal for int() with base 10: 'x'",
        "line 14: derive understands only 'homotopy', got 'nope'",
        "line 16: unknown generator 'q' in 'q'",
        "line 18: bad residue list 'a'",
        "epsilon section needs a modulus",
        "line 20: bad squaring index 'sqx'",
    ]


def test_empty_epsilon_is_absent_and_empty_steenrod_is_scaffold():
    cfg = parse_config("[base]\nt = 1\n[epsilon]\n[steenrod]\n")
    assert cfg.epsilon_rule is None
    assert cfg.steenrod is not None
    assert cfg.steenrod.missing_entries() == []


def test_steenrod_section_parses():
    cfg = load_config(ROOT / "onevar.cfg")
    assert cfg.steenrod is not None
    assert cfg.steenrod.missing_entries() == []


def test_config_and_spec_keep_read_only_copies():
    declared = {6: ("v_6", "w_6")}
    table = parse_config(g2_text()).homotopy
    cfg = WorkbenchConfig(G2_BASE, homotopy=table, fibre_derive=True, fibre_explicit=declared)
    spec = cfg.fibration_spec()
    arrows = spec.arrows
    declared[7] = ("v_7",)  # the caller's dict is not the config's
    with pytest.raises(TypeError):
        cfg.fibre_explicit[8] = ("w_8",)
    with pytest.raises(TypeError):
        spec.fibre_gens[8] = ("w_8",)
    assert cfg.fibre_explicit == {6: ("v_6", "w_6")} and cfg.fibration_spec() is spec
    assert spec.fibre_gens == {0: (UNIT_GEN,), 5: ("u_5",), 6: ("v_6", "w_6")}
    # nor is the caller's dict the spec's, so its cached arrows stay true
    gens = dict(spec.fibre_gens)
    direct = FibrationSpec(G2_BASE, gens)
    direct_arrows = direct.arrows
    gens[8] = ("w_8",)
    assert direct.fibre_dim(8) == 0 and direct.arrows == direct_arrows
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin == cfg and twin.fibration_spec() == spec
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin.arrows == arrows


# ---------------------------------------------------------------- round trip


def test_emit_parse_is_idempotent_on_normal_form():
    cfg = parse_config(g2_text())
    normal = emit_config(cfg)
    again = emit_config(parse_config(normal))
    assert again == normal


def test_emit_parse_idempotent_for_steenrod_fixture():
    cfg = load_config(ROOT / "onevar.cfg")
    normal = emit_config(cfg)
    assert emit_config(parse_config(normal)) == normal


def test_round_trip_with_every_section_populated():
    text = (
        "degree_bound = 12\n"
        "[base]\n"
        "x_4 = 4\n"
        "x_6 = 6\n"
        "x_7 = 7\n"
        "[homotopy]\n"
        "3 = Z ; a\n"
        "4 = 0 ; b\n"
        "5 = 0 ; c\n"
        "6 = Z/9 ; d\n"
        "7 = 0 ; e\n"
        "8 = contains Z/2 + Z/3 ; f\n"
        "[fibre]\n"
        "derive = homotopy\n"
        "5 = u_5\n"
        "7 = v_7\n"
        "[unknowns]\n"
        "eps = d6 u_5 -> x_6\n"
        "nu = d8 v_7 -> x_4^2\n"
        "[epsilon]\n"
        "modulus = 4\n"
        "class = 0 : 0\n"
        "class = 1 2 3\n"
        "[steenrod]\n"
        "sq1 x_4 = 0\n"
        "sq2 x_4 = 0\n"
        "sq3 x_4 = 0\n"
    )
    cfg = parse_config(text)
    normal = emit_config(cfg)
    assert emit_config(parse_config(normal)) == normal
    spec = cfg.fibration_spec()
    assert spec.fibre_gens[7] == ("v_7",)
    assert spec.unknown_names() == ("eps", "nu")


# ---------------------------------------------------------------- JSON


G2_JSON = {  # the JSON twin of g2.cfg
    "degree_bound": 10,
    "base": [["x_4", 4], ["x_6", 6], ["x_7", 7]],
    "homotopy": {
        "3": {"group": "Z", "citation": "Mimura-Toda"},
        "4": {"group": "0", "citation": "Mimura-Toda"},
        "5": {"group": "0", "citation": "Mimura-Toda"},
        "6": {"group": "Z/3", "citation": "Mimura-Toda (3-torsion; order configurable)"},
        "7": {"group": "0", "citation": "Mimura-Toda"},
        "8": {
            "group": "Z/2",
            "exact": False,
            "citation": "Mimura-Toda (contains 2-torsion)",
        },
    },
    "fibre": {"derive": True},
    "unknowns": [
        {"name": "eps", "page": 6, "generator": "u_5", "target": "x_6"}
    ],
    "epsilon": {
        "modulus": 4,
        "classes": [
            {"residues": [0], "known": 0},
            {"residues": [2]},
            {"residues": [1, 3]},
        ],
    },
}


def test_json_twin_matches_text_fixture():
    from_json = parse_config_json(json.dumps(G2_JSON))
    from_text = parse_config(g2_text())
    assert emit_config(from_json) == emit_config(from_text)


def g2_template(window):
    """perfbench's g2 config at ``window``, read from its workloads module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("g2_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.G2_TEMPLATE.format(window=window)


def test_the_default_job_is_one_config_in_g2_cfg_its_json_twin_perfbench_and_the_library():
    spec = g2_fibration_spec()
    library = WorkbenchConfig(
        G2_BASE, 10, g2_homotopy_table(), True, {}, spec.unknowns, DEFAULT_EPSILON_RULE
    )
    for cfg in (
        parse_config(g2_text()),
        parse_config_json(json.dumps(G2_JSON)),
        parse_config(g2_template(10)),
    ):
        assert cfg == library
        assert cfg.fibration_spec() == spec


def _without_epsilon():
    """g2.cfg and its JSON twin with the [epsilon] section missing, and with it empty."""
    text = g2_text().partition("[epsilon]")[0]
    data = {key: value for key, value in G2_JSON.items() if key != "epsilon"}
    return {
        "missing.cfg": text, "empty.cfg": text + "[epsilon]\n",
        "missing.json": json.dumps(data), "empty.json": json.dumps({**data, "epsilon": {}}),
    }


@pytest.mark.parametrize("name", _without_epsilon())
def test_only_gauge_reads_the_epsilon_section_and_it_refuses_a_config_without_one(
    name, tmp_path, capsys
):
    path = tmp_path / name
    path.write_text(_without_epsilon()[name])
    assert load_config(path).epsilon_rule is None
    for out in ([], ["--out", str(tmp_path / "out")]):
        assert main(["--config", str(path), *out, "gauge", "--k", "4"]) == 1
        assert capsys.readouterr() == ("", "error: the gauge command needs an epsilon section\n")
        assert not (tmp_path / "out").exists()
    assert main(["--config", str(path), "einfty", "--set", "eps=1"]) == 0


def test_readme_text_example_is_the_twin_of_its_json_example():
    readme = (ROOT / "README.md").read_text()
    json_text = readme.split("```json\n", 1)[1].split("```", 1)[0]
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(text) == parse_config_json(json_text)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}, "yes"])
@pytest.mark.parametrize("where", ["homotopy.3", "fibre.derive"])
def test_a_json_flag_that_is_not_a_boolean_is_refused_at_its_path(where, value):
    data = {"base": [["x", 8]], "homotopy": {"3": {"group": "Z/2"}}}
    if where == "fibre.derive":
        data["fibre"] = {"derive": value}
    else:
        data["homotopy"]["3"]["exact"] = value
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps(data))
    name = "derive" if where == "fibre.derive" else "exact"
    assert info.value.problems == [f"{where}: {name} must be true or false, got {value!r}"]


def test_a_json_flag_reads_as_the_boolean_it_is():
    def load(exact, derive):
        homotopy = {str(d): {"group": "0"} for d in range(4, 9)}
        return parse_config_json(json.dumps({
            "base": [["x", 8]], "homotopy": {"3": {"group": "Z", "exact": exact}, **homotopy},
            "fibre": {"derive": derive},
        }))

    text = "[base]\nx = 8\n[homotopy]\n3 = {}Z\n" + "".join(f"{d} = 0\n" for d in range(4, 9))
    assert load(True, True) == parse_config(text.format("") + "[fibre]\nderive = homotopy\n")
    assert load(False, False) == parse_config(text.format("contains "))


@pytest.mark.parametrize("value", [0, 3, 1.5, False, True, None, ["a"], {}])
@pytest.mark.parametrize("field", ["group", "citation"])
def test_a_json_group_or_citation_that_is_not_a_string_is_refused_at_its_path(field, value):
    entry = {"group": "Z", field: value}
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps({"base": [["x", 8]], "homotopy": {"3": entry}}))
    assert info.value.problems == [f"homotopy.3: {field} must be a string, got {value!r}"]


@pytest.mark.parametrize("group", ["contains Z/2", " contains Z/2", "contains 0"])
@pytest.mark.parametrize("exact", [True, False, None])
def test_a_json_group_may_not_carry_the_text_forms_inexact_prefix(group, exact):
    entry = {"group": group} if exact is None else {"group": group, "exact": exact}
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps({"base": [["x", 8]], "homotopy": {"3": entry}}))
    assert info.value.problems == [
        f'homotopy.3: group {group!r} carries a text prefix; JSON says "exact": false'
    ]


def test_an_epsilon_rule_refuses_a_known_one_on_the_class_holding_residue_zero():
    from sseqlab.config import EpsilonRule

    classes = (("0 2", (0, 2)), ("1,3", (1, 3)))
    for known in ((("0 2", 1),), (("0 2", 0), ("1,3", 1))):
        if known[0][1]:
            with pytest.raises(ValidationError, match="holds residue 0"):
                EpsilonRule(4, classes, known)
        else:  # eps = 0 on the trivial bundle's class, and any value elsewhere, stands
            assert EpsilonRule(4, classes, known).known("1,3") == 1


@pytest.mark.parametrize(
    "classes, known, message",
    [
        pytest.param((("", (0,)), ("1", (1,))), (), "empty class label", id="empty-label"),
        pytest.param(
            (("0", (0,)), ("1", (1,))),
            (("2", 0),),
            "known value for unknown class '2'",
            id="unknown-class",
        ),
    ],
)
def test_an_epsilon_rule_refuses_a_bad_class_with_its_message(classes, known, message):
    from sseqlab.config import EpsilonRule

    with pytest.raises(ValidationError) as info:
        EpsilonRule(2, classes, known)
    assert type(info.value) is ValidationError and str(info.value) == message


def test_json_parse_errors_are_located():
    with pytest.raises(ConfigError):
        parse_config_json("not json at all")
    with pytest.raises(ConfigError):
        parse_config_json(json.dumps({"base": [["x", 0]]}))
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps({"base": [["x_4", "four"]]}))
    assert any(p.startswith("base[0]:") for p in info.value.problems)
    assert not any(p.startswith("line ") for p in info.value.problems)
    with pytest.raises(ConfigError) as info:
        parse_config_json(json.dumps({"base": [["x", 2]], "unknown": []}))
    assert any(p.startswith("unknown:") for p in info.value.problems)


EVERY_SECTION_JSON = {
    "degree_bound": 12,
    "base": [["x_4", 4], ["x_6", 6], ["x_7", 7]],
    "homotopy": {
        "3": {"group": "Z", "citation": "a"},
        "4": {"group": "0"},
        "5": {"group": "0"},
        "6": {"group": "Z/9"},
        "7": {"group": "0"},
        "8": {"group": "Z/2 + Z/3", "exact": False, "citation": "f"},
    },
    "fibre": {"derive": True, "generators": {"5": ["u_5"], "7": ["v_7"]}},
    "unknowns": [
        {"name": "eps", "page": 6, "generator": "u_5", "target": "x_6"},
        {"name": "nu", "page": 8, "generator": "v_7", "target": "x_4^2"},
    ],
    "epsilon": {
        "modulus": 4,
        "classes": [{"residues": [0], "known": 0}, {"residues": [1, 2, 3]}],
    },
    "steenrod": {"x_4": {"1": "0", "2": "0", "3": "0"}},
}


def test_json_twin_with_every_section_round_trips():
    cfg = parse_config_json(json.dumps(EVERY_SECTION_JSON))
    assert cfg.fibration_spec().fibre_gens[7] == ("v_7",)
    assert cfg.epsilon_rule.known("0") == 0
    assert cfg.steenrod is not None
    normal = emit_config(cfg)
    assert emit_config(parse_config(normal)) == normal
    assert "8 = contains Z/2 + Z/3 ; f" in normal


def test_json_shape_errors_name_their_path():
    cases = [
        ({"base": 5}, "base: expected a JSON list"),
        ({"base": [["x", 2], "y"]}, "base[1]: expected a [name, degree] pair"),
        ({"homotopy": {"8": {"grp": "Z"}}}, "homotopy.8: missing field 'group'"),
        ({"homotopy": {"8": {"group": "Z", "cite": ""}}}, "homotopy.8: unknown field 'cite'"),
        ({"fibre": {"generators": {"6": "v_6"}}}, "fibre.generators.6: expected a JSON list"),
        ({"fibre": {"derive": True, "extra": 1}}, "fibre.extra: unknown field 'extra'"),
        ({"unknowns": [{"name": "eps"}]}, "unknowns[0]: missing field 'page'"),
        ({"epsilon": {"modulus": 2, "classes": [{}, 5]}}, "epsilon.classes[1]: expected"),
        ({"steenrod": {"x": 5}}, "steenrod.x: expected a JSON object"),
        ({"steenrod": {"x": {"1": "q"}}}, "steenrod.x.1: unknown generator 'q'"),
    ]
    for data, expected in cases:
        data = {"base": [["x", 2]], **data}
        with pytest.raises(ConfigError) as info:
            parse_config_json(json.dumps(data))
        assert any(p.startswith(expected) for p in info.value.problems), (
            data,
            info.value.problems,
        )


FUZZ_JUNK = [None, 5, "x", [], {}, [["x"]], "a b", "x*y"]
FUZZ_TYPES = [None, False, True, 0, 7, 2.5, "", "Z", [], ["a"], {}, {"a": 1}]  # each JSON type
FUZZ_HEADERS = ["[base]", "[homotopy]", "[fibre]", "[unknowns]", "[epsilon]", "[steenrod]", "[x]"]


def _config_or_problems(parse, text):
    """A parse either returns a config or raises SseqlabError; the problems.

    An accepted config's emitted text parses back to the same text.
    """
    try:
        cfg = parse(text)
    except ConfigError as exc:
        return exc.problems
    except SseqlabError:
        return []
    except Exception as exc:  # report the input that escaped the error family
        pytest.fail(f"{type(exc).__name__}: {exc} on input {text!r}")
    assert isinstance(cfg, WorkbenchConfig)
    emitted = emit_config(cfg)
    assert emit_config(parse_config(emitted)) == emitted, text
    return []


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _json_paths(node, prefix=()):
    if isinstance(node, dict):
        members = node.items()
    elif isinstance(node, list):
        members = enumerate(node)
    else:
        return
    for key, member in members:
        yield prefix + (key,)
        yield from _json_paths(member, prefix + (key,))


def test_fuzzed_configs_parse_or_raise_sseqlab_errors():
    rng = random.Random(20261018)
    fixtures = [g2_text().splitlines(), (ROOT / "onevar.cfg").read_text().splitlines()]
    for n in range(1000):
        lines = list(fixtures[n % 2])
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, rng.choice(lines))
        elif op == 2:
            lines[i] = f"{lines[i].partition('=')[0]}= {rng.choice(FUZZ_JUNK)}"
        else:
            lines.insert(i, rng.choice(FUZZ_HEADERS))
        _config_or_problems(parse_config, "\n".join(lines))
    paths = list(_json_paths(EVERY_SECTION_JSON))
    for _ in range(1000):
        data = copy.deepcopy(EVERY_SECTION_JSON)
        *head, last = rng.choice(paths)
        parent = _at(data, head)
        if rng.random() < 0.25:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(rng.choice(FUZZ_JUNK))
        problems = _config_or_problems(parse_config_json, json.dumps(data))
        assert not any(p.startswith("line ") for p in problems), problems
    # a string or boolean leaf that takes a value of another JSON type is refused at its row,
    # not read through str() or truthiness; other leaves are read as their text
    typed = {"group", "citation", "exact", "derive"}
    leaves = [path for path in paths if not isinstance(_at(EVERY_SECTION_JSON, path), (dict, list))]
    for _ in range(500):
        data = copy.deepcopy(EVERY_SECTION_JSON)
        *head, last = rng.choice(leaves)
        parent = _at(data, head)
        old = parent[last]
        parent[last] = rng.choice([v for v in FUZZ_TYPES if type(v) is not type(old)])
        problems = _config_or_problems(parse_config_json, json.dumps(data))
        if last in typed:
            where = ".".join(map(str, [*head, last][:2]))
            assert any(p.startswith(f"{where}: ") for p in problems), (data, problems)
        assert not any(p.startswith("line ") for p in problems), problems


@pytest.mark.parametrize("name", ["a b", "a*b", "a^2", "a+b", "a;b", "0", "1"])
def test_base_names_the_polynomial_grammar_cannot_read_are_located(name):
    message = f"generator name {name!r} cannot be read back in a polynomial"
    with pytest.raises(ConfigError) as text_err:
        parse_config(f"[base]\nx = 2\n{name} = 2\n[steenrod]\n")
    assert text_err.value.problems == [f"line 3: {message}"]
    with pytest.raises(ConfigError) as json_err:
        parse_config_json(json.dumps({"base": [["x", 2], [name, 2]], "steenrod": {}}))
    assert json_err.value.problems == [f"base[1]: {message}"]


@pytest.mark.parametrize("name", ["a=b", "#a"])
def test_names_only_json_can_spell_are_located(name):
    # in text, the first '=' ends the key and a leading '#' starts a comment
    with pytest.raises(ConfigError) as err:
        parse_config_json(json.dumps({"base": [[name, 2]]}))
    assert err.value.problems == [
        f"base[0]: generator name {name!r} cannot be read back in a polynomial"
    ]


# names a JSON list member or an unknown's "name" may hold, which the text form may split,
# end early, read as a comment or strip
ADVERSARIAL_NAMES = [
    "v w", "#c", "", " v", "v ", "v\nw", "a\x1cb", "a=b", "a #b", "a#b", "a;b", "[v]", "->",
    "a->b", "1", "u_5", "d8", "derive", "class", "x^2", "\u00e9",
]


@pytest.mark.parametrize("name", ADVERSARIAL_NAMES)
def test_a_json_name_is_refused_at_its_path_or_emitted_so_it_reads_back(name, tmp_path, capsys):
    as_fibre = {"base": [["x", 8]], "fibre": {"generators": {"7": [name]}}}
    as_unknown = {
        "base": [["x", 8]], "fibre": {"generators": {"7": ["g"]}},
        "unknowns": [{"name": name, "page": 8, "generator": "g", "target": "x"}],
    }
    cases = (
        (as_fibre, "fibre.generators.7", lambda cfg: cfg.fibre_explicit[7]),
        (as_unknown, "unknowns[0]", lambda cfg: tuple(u.name for u in cfg.unknowns)),
    )
    for data, where, names in cases:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        code = main(["--config", str(path), "e2"])
        out, err = capsys.readouterr()
        if code:
            assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith(
                f"error: {where}: "
            ), err
            continue
        cfg = parse_config_json(json.dumps(data))
        emitted = emit_config(cfg)
        again = parse_config(emitted)
        assert names(again) == names(cfg) == (name,), emitted
        assert emit_config(again) == emitted


# " #" starts a comment and a '#' inside a name does not; a tab before '#' is no space
@pytest.mark.parametrize(
    "line, names", [("7 =#c", None), ("7 = a\t#c", None), ("7 = a#c b #c", ("a#c", "b"))]
)
def test_a_text_fibre_name_is_refused_at_its_line_or_emitted_so_it_reads_back(line, names):
    text = f"[base]\nx = 8\n[fibre]\n{line}\n"
    if names is None:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == ["line 4: name '#c' cannot be read back in the text form"]
        return
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    assert cfg.fibre_explicit[7] == parse_config(emitted).fibre_explicit[7] == names
    assert emit_config(parse_config(emitted)) == emitted


# groups and citations a JSON homotopy entry may hold, which one text line may end early at
# ';', cut at a comment or break in two
ADVERSARIAL_ENTRIES = [
    ("Z", "see #5"), ("Z", "#5"), ("Z", " #5"), ("Z", "a\nb"), ("Z", "a\rb"), ("Z", "a\x85b"),
    ("Z", "a\u2028b"), ("Z", "a\n"), ("Z ; x", ""), ("Z;x", "c"), ("Z #", ""), ("Z\n", ""),
    ("Z\n+ Z", "c"), ("#Z", ""), ("Z", "a#b"), ("Z", "a ; b"), ("Z", "  c  "), ("Z", ""),
    ("Z/2 + Z", "x -> y = z"), ("0", "[fibre]"), ("contains Z/2", "c"),
]


@pytest.mark.parametrize("group, citation", ADVERSARIAL_ENTRIES)
def test_a_json_homotopy_entry_is_refused_at_its_path_or_emitted_so_it_reads_back(
    group, citation, tmp_path, capsys
):
    data = {"base": [["x", 8]], "homotopy": {"3": {"group": group, "citation": citation}}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    code = main(["--config", str(path), "e2"])
    out, err = capsys.readouterr()
    if code:
        assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith("error: homotopy.3: ")
        return
    cfg = parse_config_json(json.dumps(data))
    assert cfg.homotopy.entries[3].citation == citation.strip()
    emitted = emit_config(cfg)
    again = parse_config(emitted)
    assert again.homotopy == cfg.homotopy, emitted
    assert emit_config(again) == emitted


def test_negative_square_and_mixed_degree_target_name_their_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[base]\nt = 1\n[steenrod]\nsq1 t = t^2\nsq-1 t = t\n")
    assert err.value.problems == ["line 5: negative squaring index for t"]
    text = g2_text().replace("-> x_6\n", "-> x_6 + x_4\n")
    line = 1 + text[: text.index("-> x_6 + x_4")].count("\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [f"line {line}: polynomial is not homogeneous: degrees [4, 6]"]


@pytest.mark.parametrize(
    "lines, generators, where, message",
    [
        ("1 = e\n3 = e\n", {"1": ["e"], "3": ["e"]}, ("line 5", "fibre.generators.3"),
         "duplicate fibre generator 'e'"),
        ("1 = e e\n", {"1": ["e", "e"]}, ("line 4", "fibre.generators.1"),
         "duplicate fibre generator 'e'"),
        ("1 = 1\n", {"1": ["1"]}, ("line 4", "fibre.generators.1"),
         "fibre generator '1' is the unit's name"),
    ],
    ids=["on two lines", "twice on one line", "the unit's name"],
)
def test_a_fibre_name_the_spec_would_see_twice_names_its_line(lines, generators, where, message):
    with pytest.raises(ConfigError) as text_err:
        parse_config("[base]\nx = 2\n[fibre]\n" + lines)
    assert text_err.value.problems == [f"{where[0]}: {message}"]
    with pytest.raises(ConfigError) as json_err:
        parse_config_json(json.dumps({"base": [["x", 2]], "fibre": {"generators": generators}}))
    assert json_err.value.problems == [f"{where[1]}: {message}"]


def _derived_homotopy(pi_8):
    """pi_3..pi_8 of a group whose triple loop space derives ``pi_8``'s classes in degree 5."""
    groups = {"3": "Z", "4": "0", "5": "0", "6": "0", "7": "0", "8": pi_8}
    text = "".join(f"{d} = {g}\n" for d, g in groups.items())
    return text, {d: {"group": g} for d, g in groups.items()}


@pytest.mark.parametrize(
    "pi_8, degree, names, message",
    [
        ("Z/2", "7", ["u_5"], "fibre generator 'u_5' is the name derived for fibre degree 5"),
        ("Z/2 + Z/2", "6", ["v", "u_5_1"],
         "fibre generator 'u_5_1' is the name derived for fibre degree 5"),
    ],
    ids=["one derived class", "one of two derived classes"],
)
def test_a_declared_name_a_derived_class_gets_is_refused_at_its_line(
    pi_8, degree, names, message
):
    text, homotopy = _derived_homotopy(pi_8)
    declared = f"{degree} = {' '.join(names)}\n"
    with pytest.raises(ConfigError) as text_err:
        parse_config(f"[base]\nx = 2\n[homotopy]\n{text}[fibre]\nderive = homotopy\n{declared}")
    assert text_err.value.problems == [f"line 12: {message}"]
    data = {"base": [["x", 2]], "homotopy": homotopy,
            "fibre": {"derive": True, "generators": {degree: names}}}
    with pytest.raises(ConfigError) as json_err:
        parse_config_json(json.dumps(data))
    assert json_err.value.problems == [f"fibre.generators.{degree}: {message}"]
    # renamed, the declaration stands beside the derived classes
    renamed = parse_config(f"[base]\nx = 2\n[homotopy]\n{text}[fibre]\nderive = homotopy\n"
                           f"{degree} = {' '.join(n + 'x' for n in names)}\n")
    assert renamed.fibration_spec().fibre_dim(5) == len(pi_8.split("+"))
