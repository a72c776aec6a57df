"""Tests for the abelian-group and fibre-truncation pipeline."""

import itertools
import random

import pytest

from sseqlab.errors import IncompleteTableError, UsageError, ValidationError
from sseqlab.homotopy import (
    FIBRE_TOP,
    DimEntry,
    FGAbelianGroup,
    HomotopyTable,
    TableEntry,
    connectivity,
    ext1_to_f2,
    fibre_truncation_dims,
    hom_to_f2,
    hurewicz_homology,
    loopspace_shift,
    uct_cohomology_dim,
)


Z = FGAbelianGroup.free(1)
ZERO = FGAbelianGroup.ZERO


# ---------------------------------------------------------------- oracles


def brute_force_hom_count(group):
    """Count homomorphisms group -> Z/2 by enumerating generator images.

    A hom is a choice of image for each cyclic summand subject to the
    order relation; correctness of each candidate is checked, not assumed.
    """
    summand_orders = [0] * group.free_rank + list(group.torsion)  # 0 = infinite
    count = 0
    for images in itertools.product([0, 1], repeat=len(summand_orders)):
        ok = all(
            (order * image) % 2 == 0 for order, image in zip(summand_orders, images)
        )
        if ok:
            count += 1
    return count


def hom_dim_oracle(group):
    count = brute_force_hom_count(group)
    return count.bit_length() - 1  # log2 of a power of two


def ext_dim_oracle(group):
    """Ext^1(-, F_2) from the two-step free resolution of each summand.

    For Z/n the resolution 0 -> Z -n-> Z -> Z/n -> 0 gives Ext^1 =
    coker(F_2 -n-> F_2); the free part contributes nothing.
    """
    dim = 0
    for n in group.torsion:
        mult = n % 2  # multiplication by n on F_2
        image_rank = 1 if mult else 0
        dim += 1 - image_rank
    return dim


def g2_pi_table(pi6=FGAbelianGroup.cyclic(3), pi8=FGAbelianGroup.cyclic(2), pi8_exact=False):
    return HomotopyTable(
        {
            3: TableEntry(Z, True, "Mimura-Toda"),
            4: TableEntry(ZERO, True, "Mimura-Toda"),
            5: TableEntry(ZERO, True, "Mimura-Toda"),
            6: TableEntry(pi6, True, "Mimura-Toda (3-torsion)"),
            7: TableEntry(ZERO, True, "Mimura-Toda"),
            8: TableEntry(pi8, pi8_exact, "Mimura-Toda (contains 2-torsion)"),
        }
    )


# ---------------------------------------------------------------- hom/ext


def test_hom_of_free_cyclic():
    assert hom_to_f2(Z) == 1


def test_hom_of_odd_torsion_vanishes():
    assert hom_to_f2(FGAbelianGroup.cyclic(3)) == 0


def test_hom_of_mixed_torsion():
    assert hom_to_f2(FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(3)) == 1


def test_ext_of_odd_cyclic_vanishes():
    assert ext1_to_f2(FGAbelianGroup.cyclic(3)) == 0


def test_ext_of_free_vanishes():
    assert ext1_to_f2(Z) == 0


def test_ext_of_z4():
    assert ext1_to_f2(FGAbelianGroup.cyclic(4)) == 1
    assert ext_dim_oracle(FGAbelianGroup.cyclic(4)) == 1


def test_hom_and_ext_match_oracles_on_small_groups():
    rng = random.Random(5)
    for _ in range(100):
        g = FGAbelianGroup(
            rng.randint(0, 2),
            tuple(rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randint(0, 3))),
        )
        assert hom_to_f2(g) == hom_dim_oracle(g)
        assert ext1_to_f2(g) == ext_dim_oracle(g)


def test_hom_and_ext_additive_over_direct_sums():
    rng = random.Random(9)
    for _ in range(100):
        a = FGAbelianGroup(rng.randint(0, 2), tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))))
        b = FGAbelianGroup(rng.randint(0, 2), tuple(rng.choice([2, 5, 6]) for _ in range(rng.randint(0, 2))))
        assert hom_to_f2(a + b) == hom_to_f2(a) + hom_to_f2(b)
        assert ext1_to_f2(a + b) == ext1_to_f2(a) + ext1_to_f2(b)


def test_ext_parity_rule_for_cyclic_groups():
    for n in range(2, 40):
        assert ext1_to_f2(FGAbelianGroup.cyclic(n)) == (1 if n % 2 == 0 else 0)


# ---------------------------------------------------------------- uct


def test_uct_examples():
    assert uct_cohomology_dim(ZERO, FGAbelianGroup.cyclic(3)) == 0
    assert uct_cohomology_dim(FGAbelianGroup.cyclic(9), ZERO) == 0
    assert uct_cohomology_dim(ZERO, Z + FGAbelianGroup.cyclic(2)) == 2


# ---------------------------------------------------------------- shift


def test_loopspace_shift_by_three():
    shifted = loopspace_shift(g2_pi_table(), 3)
    assert shifted.group(1) == ZERO  # pi_4
    assert shifted.group(2) == ZERO  # pi_5
    assert shifted.group(3) == FGAbelianGroup.cyclic(3)  # pi_6


def test_loopspace_shift_zero_is_identity():
    table = g2_pi_table()
    assert loopspace_shift(table, 0) is table


def test_shift_missing_degree_raises_on_query():
    shifted = loopspace_shift(g2_pi_table(), 3)
    with pytest.raises(IncompleteTableError):
        shifted.group(6)  # would need pi_9, never populated


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: loopspace_shift(HomotopyTable.from_groups({1: Z}), -1),
            UsageError,
            "loop count must be nonnegative",
            id="negative-loops",
        ),
        pytest.param(
            lambda: HomotopyTable({0: TableEntry(Z)}),
            ValidationError,
            "table degree 0 must be >= 1",
            id="degree-zero",
        ),
    ],
)
def test_a_table_refuses_a_bad_degree_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------- connectivity



def test_a_table_lists_its_degrees_in_order():
    table = HomotopyTable({5: TableEntry(Z), 2: TableEntry(ZERO), 3: TableEntry(ZERO)})
    assert table.degrees == (2, 3, 5)
    assert HomotopyTable({}).degrees == ()

def test_connectivity_of_shifted_table():
    assert connectivity(loopspace_shift(g2_pi_table(), 3)) == 2


def test_connectivity_zero_when_degree_one_nonzero():
    table = HomotopyTable.from_groups({1: Z})
    assert connectivity(table) == 0


def test_connectivity_explicit_small_table():
    table = HomotopyTable.from_groups({1: ZERO, 2: ZERO, 3: FGAbelianGroup.cyclic(3)})
    assert connectivity(table) == 2


def test_connectivity_stops_at_an_inexact_zero():
    table = HomotopyTable({
        1: TableEntry(ZERO), 2: TableEntry(ZERO, False), 3: TableEntry(ZERO),
    })
    assert connectivity(table) == 1


def test_connectivity_incomplete_table_raises():
    table = HomotopyTable.from_groups({1: ZERO, 2: ZERO})
    with pytest.raises(IncompleteTableError):
        connectivity(table)


def test_connectivity_commutes_with_shift():
    rng = random.Random(21)
    for _ in range(50):
        n_zero = rng.randint(0, 4)
        groups = {d: ZERO for d in range(1, n_zero + 4)}
        first_nonzero = n_zero + 4 + rng.randint(-3, 0)
        first_nonzero = max(first_nonzero, 1)
        groups[first_nonzero] = FGAbelianGroup.cyclic(2)
        table = HomotopyTable.from_groups(groups)
        shifted_groups = {d: g for d, g in groups.items()}
        lifted = HomotopyTable.from_groups({d + 3: g for d, g in shifted_groups.items()})
        assert connectivity(loopspace_shift(lifted, 3)) == connectivity(table)


# ---------------------------------------------------------------- hurewicz


def test_hurewicz_window_on_shifted_table():
    shifted = loopspace_shift(g2_pi_table(), 3)
    homology = hurewicz_homology(shifted, 5)
    assert homology[1].group == ZERO
    assert homology[2].group == ZERO
    assert homology[3].group == FGAbelianGroup.cyclic(3)
    assert homology[4].group == ZERO
    assert homology[5].group == FGAbelianGroup.cyclic(2)


def test_hurewicz_entries_above_classical_degree_are_flagged():
    shifted = loopspace_shift(g2_pi_table(), 3)
    homology = hurewicz_homology(shifted, 5)
    assert "asserted window" not in homology[3].citation
    assert "asserted window" in homology[4].citation
    assert "asserted window" in homology[5].citation


def test_hurewicz_degree_one_vanishes_for_two_connected():
    shifted = loopspace_shift(g2_pi_table(), 3)
    assert hurewicz_homology(shifted, 5)[1].group.is_zero()


def test_hurewicz_classical_bottom_degree():
    table = HomotopyTable.from_groups({1: ZERO, 2: ZERO, 3: Z})
    homology = hurewicz_homology(table, 3)
    assert homology[3].group == Z


def test_hurewicz_window_past_table_raises():
    shifted = loopspace_shift(g2_pi_table(), 3)
    with pytest.raises(IncompleteTableError):
        hurewicz_homology(shifted, 6)


def test_hurewicz_needs_a_simply_connected_table_only_from_window_top_one():
    pi1 = HomotopyTable.from_groups({1: Z})
    assert hurewicz_homology(pi1, 0) == {}
    with pytest.raises(ValidationError, match="^hurewicz transfer needs a 1-connected table$"):
        hurewicz_homology(pi1, 1)
    homology = hurewicz_homology(HomotopyTable.from_groups({1: ZERO, 2: Z}), 2)
    assert homology[1].group == ZERO and homology[2].group == Z
    assert "hurewicz isomorphism" in homology[2].citation



def test_an_inexact_zero_in_degree_one_is_refused_as_a_nonzero_group_is():
    # "contains 0" may hide 2-torsion, so the table is not proven simply connected
    table = HomotopyTable({
        1: TableEntry(ZERO, False, "pi_1"), 2: TableEntry(ZERO, True, "pi_2"),
        3: TableEntry(Z, True, "pi_3"), 4: TableEntry(ZERO), 5: TableEntry(ZERO),
    })
    assert connectivity(table) == 0
    with pytest.raises(ValidationError, match="^hurewicz transfer needs a 1-connected table$"):
        hurewicz_homology(table, 3)
    with pytest.raises(ValidationError, match="^hurewicz transfer needs a 1-connected table$"):
        fibre_truncation_dims(table)


def test_an_inexact_zero_above_an_exact_one_is_the_classical_degree_and_stays_inexact():
    table = HomotopyTable({
        1: TableEntry(ZERO, True, "pi_1"), 2: TableEntry(ZERO, False, "pi_2"),
        3: TableEntry(Z, True, "pi_3"), 4: TableEntry(ZERO), 5: TableEntry(ZERO),
    })
    homology = hurewicz_homology(table, 3)
    assert [(str(e), e.exact, e.citation) for e in homology.values()] == [
        ("0", True, "zero below connectivity 1"),
        ("contains 0", False, "pi_2; hurewicz isomorphism (first nonvanishing degree)"),
        ("Z", True, "pi_3; hurewicz transfer in degree 3: asserted window beyond the "
                    "classical degree 2"),
    ]
    dims = fibre_truncation_dims(table)
    assert [str(dims.entry(j)) for j in range(FIBRE_TOP + 1)] == [
        "1", "0", ">=0", ">=1", "0", "0"
    ]


# ---------------------------------------------------------------- truncation


def test_fibre_truncation_default_data():
    dims = fibre_truncation_dims(loopspace_shift(g2_pi_table(), 3))
    assert dims.entry(0) == DimEntry(1, True)
    for j in range(1, 5):
        assert dims.entry(j) == DimEntry(0, True)
    five = dims.entry(5)
    assert five.value >= 1 and not five.exact
    assert str(five) == ">=1"


def test_fibre_truncation_exact_when_pi8_pinned():
    table = loopspace_shift(g2_pi_table(pi8_exact=True), 3)
    assert fibre_truncation_dims(table).entry(5) == DimEntry(1, True)


def test_fibre_truncation_all_zero_input():
    table = HomotopyTable.from_groups({d: ZERO for d in range(1, 6)})
    dims = fibre_truncation_dims(table)
    for j in range(1, 6):
        assert dims.entry(j) == DimEntry(0, True)


def test_hurewicz_all_zero_window_needs_no_deeper_degrees():
    table = HomotopyTable.from_groups({d: ZERO for d in range(1, 6)})
    homology = hurewicz_homology(table, 5)
    assert all(homology[i].group.is_zero() for i in range(1, 6))


def test_fibre_truncation_invariant_under_pi6_order_and_pi8_structure():
    reference = None
    pi8_options = [
        FGAbelianGroup.cyclic(2),
        FGAbelianGroup.cyclic(4),
        FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(2),
        Z + FGAbelianGroup.cyclic(2),
        FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(3),
    ]
    for pi6_order in [3, 9, 27]:
        for pi8 in pi8_options:
            table = loopspace_shift(
                g2_pi_table(FGAbelianGroup.cyclic(pi6_order), pi8), 3
            )
            dims = fibre_truncation_dims(table)
            low = [dims.entry(j) for j in range(5)]
            if reference is None:
                reference = low
            assert low == reference
            assert dims.entry(5).value >= 1


def _dims_through_hurewicz_and_uct(table):
    """The fibre dims the long way: hurewicz_homology's entries, then UCT degree by degree."""
    homology = {0: TableEntry(Z), **hurewicz_homology(table, FIBRE_TOP)}
    dims = {0: DimEntry(1)}
    for j in range(1, FIBRE_TOP + 1):
        below, here = homology[j - 1], homology[j]
        dims[j] = DimEntry(uct_cohomology_dim(below.group, here.group), below.exact and here.exact)
    return dims


def _dims_or_refusal(derive, table):
    try:
        return derive(table)
    except (ValidationError, IncompleteTableError) as exc:
        return type(exc), str(exc)


def test_fibre_dims_match_the_hurewicz_and_uct_route():
    tables = [loopspace_shift(g2_pi_table(pi8_exact=exact), 3) for exact in (True, False)]
    rng = random.Random(36)
    for _ in range(50):  # test_connectivity_commutes_with_shift's draw: may be short or 0-connected
        n_zero = rng.randint(0, 4)
        groups = {d: ZERO for d in range(1, n_zero + 4)}
        groups[max(n_zero + 4 + rng.randint(-3, 0), 1)] = FGAbelianGroup.cyclic(2)
        tables.append(HomotopyTable.from_groups(groups))
    choices = [ZERO, ZERO, Z, FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(3),
               FGAbelianGroup.cyclic(4), Z + FGAbelianGroup.cyclic(6)]
    for _ in range(300):  # any group, exact or not, and degrees left out
        degrees = [d for d in range(1, FIBRE_TOP + 3) if rng.random() < 0.9]
        tables.append(HomotopyTable(
            {d: TableEntry(rng.choice(choices), rng.random() < 0.7) for d in degrees}
        ))
    kinds = set()
    for table in tables:
        expected = _dims_or_refusal(_dims_through_hurewicz_and_uct, table)
        got = _dims_or_refusal(lambda t: dict(fibre_truncation_dims(t).items()), table)
        assert got == expected, table
        kinds.add(expected[0] if type(expected) is tuple else "dims")
    assert kinds == {"dims", ValidationError, IncompleteTableError}


def test_graded_dims_degree_zero_must_be_one():
    with pytest.raises(ValidationError):
        from sseqlab.homotopy import GradedDims

        GradedDims({0: DimEntry(2, True)})
