"""Tests for the gauge-group reporting pipeline."""

import random

import pytest

from sseqlab.errors import ValidationError
from sseqlab.fibration import run_to_einfty
from sseqlab.gauge import (
    EpsilonRule,
    epsilon_class,
    g2_fibration_spec,
    g2_homotopy_table,
    gauge_report,
    periodicity_check,
)
from sseqlab.homotopy import FGAbelianGroup
from sseqlab.specseq import resolve_assignment


# ---------------------------------------------------------------- classes


def test_multiple_of_four_is_proved_zero():
    assert epsilon_class(8) == ("0", 0)


def test_zero_bundle_is_proved_zero():
    assert epsilon_class(0) == ("0", 0)


def test_odd_residues_share_a_class():
    label, known = epsilon_class(7)
    assert label == "1,3" and known is None
    assert epsilon_class(1)[0] == epsilon_class(3)[0] == "1,3"


def test_negative_bundle_classes_use_mathematical_modulus():
    label, known = epsilon_class(-2)
    assert label == "2" and known is None
    assert epsilon_class(-4) == ("0", 0)


def test_periodicity_check():
    assert periodicity_check(3, 7)
    assert not periodicity_check(1, 2)
    assert periodicity_check(-1, 3)


def test_partition_is_overridable():
    split = EpsilonRule(
        modulus=4,
        classes=(("0", (0,)), ("1", (1,)), ("2", (2,)), ("3", (3,))),
        known_values=(("0", 0),),
    )
    assert epsilon_class(1, split)[0] == "1"
    assert epsilon_class(3, split)[0] == "3"


def test_partition_must_cover_residues():
    with pytest.raises(ValidationError):
        EpsilonRule(modulus=4, classes=(("0", (0, 1)),), known_values=())


# ---------------------------------------------------------------- reports


def test_report_multiple_of_four_collapses():
    report = gauge_report(4)
    assert report.epsilon_known == 0
    assert len(report.branches) == 1
    assert report.branches[0].total_dims == (1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1)


def test_report_unknown_class_has_two_branches():
    report = gauge_report(1)
    assert report.epsilon_known is None
    assert len(report.branches) == 2
    assert report.branches[0].values == (("eps", 0),)
    assert report.branches[1].values == (("eps", 1),)


def test_report_with_override_has_single_branch():
    report = gauge_report(1, overrides={"1,3": 1})
    assert len(report.branches) == 1
    assert report.branches[0].values == (("eps", 1),)
    assert report.branches[0].total_dims == (1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0)


def test_both_open_branches_share_one_starting_page(monkeypatch):
    import sseqlab.specseq as specseq

    built = []
    build_e2 = specseq.build_e2
    monkeypatch.setattr(specseq, "build_e2", lambda *a, **kw: built.append(a) or build_e2(*a, **kw))
    spec = g2_fibration_spec(24)  # a fresh spec: no starting page kept yet
    report = gauge_report(1, spec=spec)
    assert len(report.branches) == 2
    assert len(built) == 1


def test_a_branch_lists_its_survivors_by_total_degree_then_bidegree():
    for window in (10, 24):
        spec = g2_fibration_spec(window)
        for branch in gauge_report(2, spec=spec).branches:
            _, report = run_to_einfty(spec, resolve_assignment(spec, dict(branch.values)))
            expected = [(bd, dim) for j in range(window + 1) for bd, dim in sorted(report[j])]
            assert list(branch.bidegree_dims) == expected
            assert branch.total_dims == tuple(
                sum(dim for bd, dim in expected if sum(bd) == j) for j in range(window + 1)
            )


def test_override_contradicting_proved_value_rejected():
    with pytest.raises(ValidationError):
        gauge_report(4, overrides={"0": 1})


def test_override_value_outside_f2_rejected():
    with pytest.raises(ValidationError, match="^override values must be 0 or 1$"):
        gauge_report(1, {"1,3": 2})


def test_override_agreeing_with_proved_value_allowed():
    report = gauge_report(4, overrides={"0": 0})
    assert len(report.branches) == 1


def test_report_lists_exactly_the_two_transgressive_arrows():
    report = gauge_report(2)
    assert report.admissible == (
        (6, (0, 5), (6, 0)),
        (6, (4, 5), (10, 0)),
    )


def test_branch_count_per_class():
    for k in range(-8, 9):
        report = gauge_report(k)
        expected = 1 if k % 4 == 0 else 2
        assert len(report.branches) == expected


# ---------------------------------------------------------------- rules


def test_reports_depend_only_on_residue_mod_four():
    rng = random.Random(2024)
    for _ in range(60):
        k = rng.randint(-500, 500)
        assert gauge_report(k).payload() == gauge_report(k % 4).payload()
        assert gauge_report(k).k == k


def test_periodic_reports_match_when_check_says_so():
    rng = random.Random(77)
    for _ in range(40):
        k1 = rng.randint(-100, 100)
        k2 = rng.randint(-100, 100)
        if periodicity_check(k1, k2):
            assert gauge_report(k1).payload() == gauge_report(k2).payload()


def test_multiples_of_four_match_zero_branch_of_other_classes():
    zero_branch = gauge_report(8).branches[0]
    other = gauge_report(1)
    assert zero_branch.total_dims == other.branches[0].total_dims


# ---------------------------------------------------------------- inputs


def test_table_placeholders_validated():
    with pytest.raises(ValidationError):
        g2_homotopy_table(pi6=FGAbelianGroup.cyclic(2))
    with pytest.raises(ValidationError):
        g2_homotopy_table(pi8=FGAbelianGroup.cyclic(3))


def test_report_stable_under_placeholder_variation():
    reference = gauge_report(1).payload()
    for pi6_order in (3, 9):
        for pi8 in (
            FGAbelianGroup.cyclic(2),
            FGAbelianGroup.cyclic(4),
            FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(3),
        ):
            table = g2_homotopy_table(FGAbelianGroup.cyclic(pi6_order), pi8)
            assert gauge_report(1, spec=g2_fibration_spec(table=table)).payload() == reference


def test_extra_fibre_generators_must_sit_above_degree_five():
    with pytest.raises(ValidationError):
        g2_fibration_spec(extra_fibre={5: ("v",)})


def test_extra_fibre_guard_runs_before_the_derived_fibre_check():
    # pi_8 pinned to Z/2 + Z/2 derives two classes in degree 5; the guard still speaks first
    table = g2_homotopy_table(pi8=FGAbelianGroup(0, (2, 2)), pi8_exact=True)
    with pytest.raises(ValidationError, match="must derive one class"):
        g2_fibration_spec(table=table)
    with pytest.raises(ValidationError, match="degrees >= 6"):
        g2_fibration_spec(table=table, extra_fibre={5: ("v",)})
