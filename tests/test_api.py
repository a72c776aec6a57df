"""The package's public names: which they are, where each is defined, and how they load."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sseqlab

ROOT = Path(__file__).resolve().parents[1]

# every name ``sseqlab`` exports, under the module that defines it
DEFINED_IN = {
    "errors": [
        "ConfigError", "IncompleteTableError", "InvariantBreach", "SseqlabError", "UsageError",
        "ValidationError",
    ],
    "f2": ["F2Matrix", "F2Vector", "image_basis", "kernel_basis", "quotient_dim", "rank", "solve"],
    "config": ["EpsilonRule"],
    "gauge": [
        "DEFAULT_EPSILON_RULE", "GaugeBranch", "GaugeReport", "epsilon_class",
        "g2_fibration_spec", "g2_homotopy_table", "gauge_report", "periodicity_check",
    ],
    "graded": [
        "Monomial", "PolyAlgebraSpec", "Polynomial", "basis_in_degree", "multiply",
        "poincare_dims",
    ],
    "homotopy": [
        "DimEntry", "FGAbelianGroup", "GradedDims", "HomotopyTable", "TableEntry", "connectivity",
        "ext1_to_f2", "fibre_truncation_dims", "hom_to_f2", "hurewicz_homology",
        "loopspace_shift", "uct_cohomology_dim",
    ],
    "fibration": [
        "BigradedBasis", "FibrationSpec", "UnknownScalar", "admissible_differentials", "build_e2",
        "run_to_einfty",
    ],
    "specseq": [
        "DifferentialAssignment", "Page", "resolve_assignment", "sweep_unknowns", "total_dims",
    ],
    "steenrod": [
        "HitReport", "SteenrodTable", "hit_quotient", "sq", "suggest_g2_table",
        "table_from_entries", "validate_table",
    ],
}
NAMES = sorted(name for names in DEFINED_IN.values() for name in names)


def test_all_lists_the_fifty_eight_public_names():
    assert len(NAMES) == 58
    assert sorted(sseqlab.__all__) == NAMES


def test_the_page_engine_has_one_public_door():
    # pages are stepped inside specseq; a caller enters through run_to_einfty
    import sseqlab.specseq

    for name in ("turn_page", "leibniz_extend"):
        with pytest.raises(AttributeError, match=f"'sseqlab' has no attribute '{name}'"):
            getattr(sseqlab, name)
    assert not hasattr(sseqlab.specseq, "leibniz_extend")
    assert "turn_page" in sseqlab.specseq.limit_page.__code__.co_names


def test_specseq_imports_from_fibration_only_the_names_it_reads():
    # each fibration name has one import path: specseq re-exports none
    tree = ast.parse((ROOT / "src" / "sseqlab" / "specseq.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fibration"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "FibrationSpec" in imported and imported <= read


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_each_name_is_the_object_its_module_defines(module):
    defining = importlib.import_module(f"sseqlab.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(sseqlab, name) is vars(defining)[name], name


def test_the_epsilon_rule_is_one_class_wherever_it_is_read():
    import sseqlab.config
    import sseqlab.gauge

    assert sseqlab.EpsilonRule is sseqlab.gauge.EpsilonRule is sseqlab.config.EpsilonRule
    assert sseqlab.DEFAULT_EPSILON_RULE is sseqlab.gauge.DEFAULT_EPSILON_RULE
    assert not hasattr(sseqlab.config, "DEFAULT_EPSILON_RULE")  # G_2's rule lives in gauge


def test_star_import_and_dir_see_every_name():
    namespace = {}
    exec("from sseqlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(sseqlab))
    assert "__version__" in dir(sseqlab)


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(sseqlab, "nope")
    with pytest.raises(AttributeError, match="'sseqlab' has no attribute 'nope'"):
        sseqlab.nope


def loaded_modules(probe: str) -> list[str]:
    """The sseqlab modules a fresh, bytecode-free interpreter holds after each ``report()``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    report = "def report(): print(*sorted(m for m in sys.modules if m.startswith('sseqlab')))\n"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, sseqlab\n" + report + probe],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_importing_the_package_loads_no_submodule():
    first, second = loaded_modules("report()\nsseqlab.EpsilonRule\nreport()\n")
    assert first == "sseqlab"
    assert "sseqlab.gauge" not in second and "sseqlab.config" in second


def test_a_spec_and_its_arrows_load_no_page_engine():
    probe = (
        "spec = sseqlab.FibrationSpec(sseqlab.PolyAlgebraSpec.from_pairs([('a', 2)]),"
        " {0: ('1',), 1: ('u',)}, 4)\n"
        "sseqlab.admissible_differentials(spec)\n"
        "report()\n"
    )
    (loaded,) = loaded_modules(probe)
    assert "sseqlab.fibration" in loaded.split()
    assert {"sseqlab.specseq", "sseqlab.f2"}.isdisjoint(loaded.split())


def test_the_default_spec_and_its_chart_load_no_page_engine():
    probe = (
        "spec = sseqlab.g2_fibration_spec(10)\n"
        "spec.admissible\n"
        "from sseqlab.chart import build_chart\n"
        "build_chart(spec, 6)\n"
        "report()\n"
    )
    (loaded,) = loaded_modules(probe)
    assert {"sseqlab.gauge", "sseqlab.chart"} <= set(loaded.split())
    assert {"sseqlab.specseq", "sseqlab.f2"}.isdisjoint(loaded.split())
