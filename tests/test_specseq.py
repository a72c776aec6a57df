"""Tests for the spectral sequence engine."""

import itertools
import json
import pickle
import random
import sys
from collections import Counter
from operator import add, mul
from pathlib import Path

import pytest

from sseqlab.config import parse_config
from sseqlab.errors import UsageError, ValidationError
from sseqlab.f2 import F2Vector, rank, reduce_against, row_reduce
from sseqlab.gauge import g2_fibration_spec
from sseqlab.graded import Monomial, PolyAlgebraSpec, Polynomial, basis_in_degree
from sseqlab.homotopy import DimEntry, GradedDims
from sseqlab.record import FrozenRecordError
from sseqlab.fibration import (
    ADMISSIBLE,
    NEGATIVE_FIBRE,
    UNIT_GEN,
    FibrationSpec,
    UnknownScalar,
    admissible_differentials,
    build_e2,
    run_to_einfty,
)
from sseqlab.specseq import (
    DifferentialAssignment,
    PageGroup,
    check_images,
    initial_page,
    resolve_assignment,
    sweep_unknowns,
    total_dims,
    turn_page,
)

DATA = Path(__file__).parent / "data"

SPEC = g2_fibration_spec()
X4 = Monomial((1, 0, 0))
X6 = Monomial((0, 1, 0))
UNIT = Monomial((0, 0, 0))


def assignment_for(value):
    return resolve_assignment(SPEC, {"eps": value})


# ---------------------------------------------------------------- E_2


def test_e2_first_fibre_class():
    basis = build_e2(SPEC)
    assert basis.labels(0, 5) == ((UNIT, "u_5"),)


def test_e2_skips_a_fibre_degree_with_no_generator():
    spec = FibrationSpec(SPEC.base, {0: (UNIT_GEN,), 3: (), 5: ("u",)}, 10)
    basis = build_e2(spec)
    assert {t for _s, t in basis.groups} == {0, 5}
    assert all(basis.groups.values()) and basis.dim(0, 3) == 0


def test_e2_fibre_class_times_base_generator():
    basis = build_e2(SPEC)
    assert basis.labels(4, 5) == ((X4, "u_5"),)


def test_e2_vanishing_bidegree():
    basis = build_e2(SPEC)
    assert basis.dim(2, 4) == 0


def test_e2_dims_are_products():
    basis = build_e2(SPEC)
    for (s, t), labels in basis.groups.items():
        assert len(labels) == SPEC.base_dim(s) * SPEC.fibre_dim(t)
        assert s + t <= SPEC.degree_bound


def test_e2_base_row_matches_poincare_dims():
    basis = build_e2(SPEC)
    from sseqlab.graded import poincare_dims

    dims = poincare_dims(SPEC.base, 10)
    for s in range(11):
        assert basis.dim(s, 0) == dims[s]


def test_base_dim_counts_the_monomials_of_each_degree():
    from sseqlab.graded import basis_in_degree

    for s in range(-3, 40):
        assert SPEC.base_dim(s) == len(basis_in_degree(SPEC.base, s))


# ---------------------------------------------------------------- arrows


def test_admissible_differentials_exact_set():
    got = admissible_differentials(SPEC)
    assert got == [
        (6, (0, 5), (6, 0)),
        (6, (4, 5), (10, 0)),
    ]


def test_admissible_source_zero_zero_absent():
    assert all(src != (0, 0) for _, src, _ in admissible_differentials(SPEC))


def test_admissible_only_page_six_for_fibre_degree_five():
    pages = {r for r, (s, t), _ in admissible_differentials(SPEC) if t == 5}
    assert pages == {6}


def test_admissible_respects_window():
    wide = g2_fibration_spec(degree_bound=11)
    got = admissible_differentials(wide)
    assert (6, (4, 5), (10, 0)) in got
    assert (6, (6, 5), (12, 0)) in got  # source total 11 fits the wider window
    assert all(sum(src) <= 11 for _, src, _ in got)


# ---------------------------------------------------------------- leibniz


def turned_to(assignment, r):
    """The page r that ``initial_page`` and ``turn_page`` reach for ``assignment``."""
    page = initial_page(SPEC, assignment)
    while page.r < r:
        page = turn_page(page)
    return page


def test_leibniz_propagates_base_multiplication():
    matrices = turned_to(assignment_for(1), 6).differentials
    # d_6(u_5) = x_6 and d_6(x_4*u_5) = x_4*x_6, both rank one
    assert set(matrices) == {(0, 5), (4, 5)}
    for m in matrices.values():
        assert m.rows == 1 and m.cols == 1 and m.row_bits == (1,)


def test_leibniz_zero_assignment_gives_no_matrices():
    assert turned_to(assignment_for(0), 6).differentials == {}


def test_leibniz_base_classes_are_permanent_cycles():
    for r in range(2, 8):
        for src in turned_to(assignment_for(1), r).differentials:
            assert src[1] > 0  # never a base-row source


def test_leibniz_requires_images_for_admissible_generators():
    empty = DifferentialAssignment({}, {})
    for run in (initial_page, run_to_einfty):
        with pytest.raises(UsageError, match=r"^no image declared for d_6\(u_5\);"):
            run(SPEC, empty)


ASSIGNMENT_REFUSALS = {
    "value outside F_2": (
        lambda: resolve_assignment(SPEC, {"eps": 2}),
        ValidationError, "unknown 'eps' must be 0 or 1, got 2",
    ),
    "image on page one": (
        lambda: check_images(SPEC, DifferentialAssignment({}, {("u_5", 1): Polynomial.zero()})),
        ValidationError, "differential page must be >= 2, got 1",
    ),
    "image of the wrong degree": (
        lambda: check_images(SPEC, DifferentialAssignment({}, {("u_5", 6): SPEC.base.gen("x_4")})),
        ValidationError, "image of d_6(u_5) must be homogeneous of degree 6",
    ),
    "image off its page": (
        lambda: check_images(SPEC, DifferentialAssignment({}, {("u_5", 3): SPEC.base.gen("x_4")})),
        ValidationError,
        "nonzero image of d_3(u_5) cannot land on the base row (transgression page is 6)",
    ),
}


@pytest.mark.parametrize("case", ASSIGNMENT_REFUSALS)
def test_each_assignment_refusal_names_its_value_or_image(case):
    call, error, message = ASSIGNMENT_REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_hand_built_assignment_with_bad_page_rejected():
    from sseqlab.specseq import DifferentialAssignment

    bad = DifferentialAssignment({"eps": 0}, {("u_5", 4): SPEC.base.gen("x_4")})
    with pytest.raises(ValidationError):
        initial_page(SPEC, bad)


def test_initial_page_checks_images_for_every_page_up_front():
    from sseqlab.specseq import DifferentialAssignment

    # the missing image is the page-6 transgression, not a page-2 one
    with pytest.raises(UsageError):
        initial_page(SPEC, DifferentialAssignment({"eps": 0}, {}))


def test_transgression_image_killed_earlier_gives_zero_differential():
    # a rank-one transgression on page 3 kills the target of the later
    # page-6 transgression; the induced page-6 map is then zero and the
    # late fibre class survives
    base = PolyAlgebraSpec.from_pairs([("a", 3)])
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 2: ("u",), 5: ("w",)},
        8,
        (
            UnknownScalar("alpha", "u", 3, base.gen("a")),
            UnknownScalar("beta", "w", 6, Polynomial.of(Monomial((2,)))),
        ),
    )
    _, report = run_to_einfty(spec, resolve_assignment(spec, {"alpha": 1, "beta": 1}))
    dims = total_dims(report, 8)
    # a (deg 3), u (deg 2), a*u (deg 5), a^2 (deg 6) all cancel in pairs;
    # w (deg 5) survives because its target is already dead
    assert dims == [1, 0, 0, 0, 0, 1, 0, 0, 1]


# ---------------------------------------------------------------- pages


def test_turn_page_with_zero_differentials_keeps_dims():
    page = initial_page(SPEC, assignment_for(0))
    assert not page.differentials
    nxt = turn_page(page)
    assert nxt.r == 3
    for bd in page.groups:
        assert nxt.dim(*bd) == page.dim(*bd)
        assert nxt.groups[bd].cycles == page.groups[bd].cycles
        assert nxt.groups[bd].boundaries == page.groups[bd].boundaries
        assert nxt.describe(*bd) == page.describe(*bd)


@pytest.mark.parametrize("window", [10, 24])
@pytest.mark.parametrize("eps", [0, 1])
def test_quotient_basis_matches_reference_on_every_page(window, eps, greedy_reference):
    spec = g2_fibration_spec(window)
    page = initial_page(spec, resolve_assignment(spec, {"eps": eps}))
    last_page = max(r for r, _, _ in admissible_differentials(spec))
    while True:
        for group in page.groups.values():
            expected = greedy_reference(group.boundaries, group.cycles)
            assert group.quotient_basis() == expected
        if page.r > last_page:
            break
        page = turn_page(page)


def test_quotient_basis_matches_reference_on_random_nested_spaces(greedy_reference):
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 12)

        def draw():
            return [F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, n))]

        boundaries = row_reduce(draw())
        cycles = row_reduce(boundaries + draw())
        group = PageGroup(tuple(range(n)), tuple(cycles), tuple(boundaries))
        reps = group.quotient_basis()
        assert reps == greedy_reference(boundaries, cycles)
        assert len(reps) == group.dim


@pytest.mark.parametrize("window", [10, 24])
def test_each_group_computes_its_quotient_basis_once_per_sweep(window, monkeypatch):
    """Each distinct (cycles, boundaries) pair is computed once: same-size starting-page
    groups share theirs, and a group read again (``_page``'s source and target, then
    ``turn_page``) reads its kept reps."""
    computed = Counter()  # (cycles, boundaries) -> computations
    original = PageGroup.__dict__["_quotient_reps"].func

    def counted(group):
        computed[group.cycles, group.boundaries] += 1
        return original(group)

    reps = type(PageGroup.__dict__["_quotient_reps"])(counted)  # the descriptor that runs
    reps.__set_name__(PageGroup, "_quotient_reps")
    monkeypatch.setattr(PageGroup, "_quotient_reps", reps)
    reads = []  # (group, reps returned); the group is held so no id is reused
    quotient_basis = PageGroup.quotient_basis

    def traced(group):
        reads.append((group, quotient_basis(group)))
        return reads[-1][1]

    monkeypatch.setattr(PageGroup, "quotient_basis", traced)
    sweep_unknowns(g2_fibration_spec(window))
    assert computed and set(computed.values()) == {1}
    assert {(group.cycles, group.boundaries) for group, _ in reads} == set(computed)
    assert all(got == list(original(group)) for group, got in reads)
    assert len(reads) > len({id(group) for group, _ in reads}) > sum(computed.values())


def test_mutating_a_quotient_basis_leaves_the_group_unchanged():
    spec = g2_fibration_spec(24)
    page = initial_page(spec, resolve_assignment(spec, {"eps": 1}))
    for group in page.groups.values():
        reps = group.quotient_basis()
        expected = list(reps)
        reps.append(F2Vector(len(group.labels)))
        reps.reverse()
        assert group.quotient_basis() == expected
    assert any(len(group.quotient_basis()) > 1 for group in page.groups.values())


def random_fibration(rng):
    """A seeded spec and assignment: random base degrees, several fibre
    generators, a zero image on every non-transgressive page and a random
    (often multi-term) transgressive image."""
    base = PolyAlgebraSpec.from_pairs(
        [(f"b{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 3))]
    )
    bound = rng.randint(6, 16)
    fibre = {0: (UNIT_GEN,)}
    for i in range(rng.randint(2, 4)):
        t = rng.randint(1, bound - 1)
        fibre[t] = fibre.get(t, ()) + (f"g{i}",)
    spec = FibrationSpec(base, fibre, bound)
    images = {}
    for t, gens in fibre.items():
        for g in gens if t else ():
            for r in range(2, t + 1):
                images[(g, r)] = Polynomial.zero()
            terms = [m for m in basis_in_degree(base, t + 1) if rng.random() < 0.6]
            images[(g, t + 1)] = Polynomial.of(*terms)
    return spec, DifferentialAssignment({}, images)


def pages_to_limit(spec, assignment):
    page = initial_page(spec, assignment)
    pages = [page]
    last_page = max((r for r, _, _ in admissible_differentials(spec)), default=1)
    while page.r <= last_page:
        page = turn_page(page)
        pages.append(page)
    return [(p.r, p.differentials, p.unevaluated, p.groups) for p in pages]


def assert_start_reps_are_fresh(spec):
    """Every starting-page group's reps, seeded or computed, equal a fresh computation."""
    compute = PageGroup.__dict__["_quotient_reps"].func
    groups = spec.start_groups
    assert all("_quotient_reps" in group.__dict__ for group in groups.values())
    for group in groups.values():
        assert group.quotient_basis() == list(compute(group))
        assert len(group.quotient_basis()) == group.dim == len(group.labels)
    return len(groups) - len({len(group.labels) for group in groups.values()})


def test_a_group_keeps_the_dim_its_cycles_and_boundaries_give_on_random_specs():
    rng = random.Random(1013)
    groups = 0
    for _ in range(100):
        for _r, _d, _u, page_groups in pages_to_limit(*random_fibration(rng)):
            for group in page_groups.values():
                assert group.dim == len(group.cycles) - len(group.boundaries)
                assert group.dim == len(group.quotient_basis())
                assert group.__dict__["dim"] == group.dim  # stored when the group is built
                groups += 1
    assert groups > 1000


def test_a_group_sets_its_dim_when_built_and_keeps_no_descriptor_for_it():
    assert "dim" not in vars(PageGroup) and PageGroup._fields == ("labels", "cycles", "boundaries")
    rng = random.Random(1019)
    for _ in range(50):
        n = rng.randint(1, 12)
        boundaries = row_reduce([F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 4))])
        cycles = row_reduce(boundaries + [F2Vector(n, rng.getrandbits(n)) for _ in range(4)])
        group = PageGroup(tuple(range(n)), iter(cycles), iter(boundaries))  # any iterable
        assert vars(group) == {
            "labels": tuple(range(n)), "cycles": tuple(cycles), "boundaries": tuple(boundaries),
            "dim": len(cycles) - len(boundaries),
        }
        twin = pickle.loads(pickle.dumps(group))
        assert twin == group and vars(twin) == vars(group)


def engine_pages(monkeypatch, runs):
    """Every page ``_page`` builds while each (spec, assignment) runs to its limit, by
    ``run_to_einfty`` and by turning every page; with each run's limit report."""
    import sseqlab.specseq as specseq

    pages, reports, build = [], [], specseq._page

    def recorded(*args, **kwargs):
        pages.append(build(*args, **kwargs))
        return pages[-1]

    monkeypatch.setattr(specseq, "_page", recorded)
    for spec, assignment in runs:
        reports.append(run_to_einfty(spec, assignment)[1])
        pages_to_limit(spec, assignment)
    return pages, reports


def test_every_page_the_engine_builds_keeps_its_groups_in_bidegree_order(monkeypatch):
    rng = random.Random(1013)
    g2 = [g2_fibration_spec(n) for n in (10, 24, 60)]
    runs = [(spec, resolve_assignment(spec, {"eps": eps})) for spec in g2 for eps in (0, 1)]
    runs += [random_fibration(rng) for _ in range(100)]
    pages, reports = engine_pages(monkeypatch, runs)
    for page in pages:
        assert list(page.groups) == sorted(page.groups)
        for group in page.groups.values():
            assert group.__dict__["dim"] == len(group.cycles) - len(group.boundaries)
    for report in reports:  # each degree lists its bidegrees in order
        assert all(entries == sorted(entries) for entries in report.values())
    assert len(pages) > 400 and sum(len(page.groups) for page in pages) > 10000


def test_total_dims_sums_each_degree_of_the_window_in_one_pass_and_ignores_the_rest():
    def per_degree(report, bound):  # one lookup per degree, as total_dims read the report before
        return [sum(d for _, d in report.get(j, [])) for j in range(bound + 1)]

    rng = random.Random(1021)
    for _ in range(1000):
        bound = rng.randint(-1, 12)
        degrees = rng.sample(range(-3, bound + 4), rng.randint(0, bound + 7))  # any order, gaps
        report = {
            j: [((rng.randint(0, 9), rng.randint(0, 9)), rng.randint(1, 5))
                for _ in range(rng.randint(0, 4))]
            for j in degrees
        }
        assert total_dims(report, bound) == per_degree(report, bound)
    assert total_dims({}, 3) == [0, 0, 0, 0] and total_dims({0: [((0, 0), 1)]}, -1) == []
    odd_keys = {1.0: [((0, 1), 2)], "1": [((1, 0), 5)]}  # a key equal to a degree is that degree
    assert total_dims(odd_keys, 2) == per_degree(odd_keys, 2) == [0, 2, 0]


def test_seeded_starting_reps_equal_a_fresh_computation():
    seeded = sum(assert_start_reps_are_fresh(g2_fibration_spec(n)) for n in (10, 24, 60))
    rng = random.Random(1010)
    for _ in range(100):
        seeded += assert_start_reps_are_fresh(random_fibration(rng)[0])
    assert seeded > 100  # groups that read a same-size group's tuple


@pytest.mark.parametrize("window", [10, 24])
@pytest.mark.parametrize("eps", [0, 1])
def test_every_group_and_differential_equals_its_checked_twin(window, eps, assert_checked):
    spec = g2_fibration_spec(window)
    pages = pages_to_limit(spec, resolve_assignment(spec, {"eps": eps}))
    for _r, differentials, _unevaluated, groups in pages:
        for group in groups.values():
            assert_checked(group.cycles, group.boundaries, group.quotient_basis())
            n = len(group.labels)
            assert all(v.length == n for v in (*group.cycles, *group.boundaries))
        assert_checked(differentials.values())
    assert any(differentials for _r, differentials, _u, _g in pages) == bool(eps)


def test_page_matches_the_per_support_reference_on_random_specs(monkeypatch, page_reference):
    import sseqlab.specseq as specseq

    rng = random.Random(1010)
    multi_term = nonzero = 0
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        multi_term += any(len(p.terms) > 1 for p in assignment.generator_images.values())
        pages = pages_to_limit(spec, assignment)
        report = run_to_einfty(spec, assignment)[1]
        with monkeypatch.context() as patched:
            patched.setattr(specseq, "_page", page_reference)
            assert pages_to_limit(spec, assignment) == pages
            assert run_to_einfty(spec, assignment)[1] == report
        nonzero += sum(not m.is_zero() for _r, d, _u, _g in pages for m in d.values())
    assert multi_term > 30 and nonzero > 400


def scrambled(groups, rng):
    """The same labels under random nested boundaries and cycles.

    Half the groups keep every label a cycle; the rest may have lost the
    cycles an image needs, so the engine must refuse it.
    """
    out = {}
    for bd, group in groups.items():
        n = len(group.labels)
        boundaries = row_reduce([F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, n))])
        if rng.random() < 0.5:
            cycles = list(group.cycles)
        else:
            cycles = [F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, n))]
        out[bd] = PageGroup(group.labels, tuple(row_reduce(boundaries + cycles)), tuple(boundaries))
    return out


def test_page_matches_the_reference_on_scrambled_groups(page_reference):
    from sseqlab.specseq import _page

    rng = random.Random(1011)
    outcomes = []
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        for r, _d, _u, groups in pages_to_limit(spec, assignment):
            groups = scrambled(groups, rng)
            results = []
            for engine in (_page, page_reference):
                try:
                    page = engine(spec, assignment, r, groups)
                    results.append((page.differentials, page.unevaluated))
                except ValidationError as err:
                    results.append(str(err))
            assert results[0] == results[1]
            outcomes.append(results[0])
    refused = [o for o in outcomes if isinstance(o, str)]
    assert all("vanished subquotient" in o for o in refused)
    nonzero = sum(
        not m.is_zero() for o in outcomes if not isinstance(o, str) for m in o[0].values()
    )
    assert len(refused) > 50 and nonzero > 50


def test_page_and_reference_refuse_an_image_in_a_vanished_subquotient(page_reference):
    from sseqlab.specseq import _page

    spec = g2_fibration_spec(10)
    assignment = resolve_assignment(spec, {"eps": 1})
    page = initial_page(spec, assignment)
    while page.r < 6:
        page = turn_page(page)
    groups = dict(page.groups)
    groups[(6, 0)] = PageGroup(groups[(6, 0)].labels, (), ())  # x_6 gone before d_6(u_5)
    messages = []
    for engine in (_page, page_reference):
        with pytest.raises(ValidationError, match="vanished subquotient") as caught:
            engine(spec, assignment, 6, groups)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == (
        "d_6 image at (6, 0) lies in a vanished subquotient: inconsistent assignment"
    )


def test_page_builds_no_monomial_and_e2_one_base_basis_per_degree(monkeypatch):
    import sseqlab.fibration as fibration
    import sseqlab.specseq as specseq

    callers = []
    multiply = Monomial.__mul__

    def traced_mul(a, b):
        callers.append(sys._getframe(1).f_code)
        return multiply(a, b)

    degrees = []
    basis = fibration.basis_in_degree  # build_e2 lists each base degree's monomials

    def traced_basis(algebra, d):
        degrees.append(d)
        return basis(algebra, d)

    monkeypatch.setattr(Monomial, "__mul__", traced_mul)
    monkeypatch.setattr(fibration, "basis_in_degree", traced_basis)
    spec = g2_fibration_spec(24)
    reports = sweep_unknowns(spec)
    assert total_dims(reports[(("eps", 1),)], 24) != total_dims(reports[(("eps", 0),)], 24)
    assert specseq._page.__code__ not in callers
    assert sorted(degrees) == list(range(spec.degree_bound + 2))  # the tracked window is N + 1


def test_turn_page_kills_target_of_rank_one_differential():
    page = initial_page(SPEC, assignment_for(1))
    while page.r < 6:
        page = turn_page(page)
    assert page.dim(6, 0) == 1
    after = turn_page(page)
    assert after.dim(6, 0) == 0
    assert after.dim(0, 5) == 0


def test_page_rank_accounting_identity():
    # dim E_{r+1} = dim E_r - rank(d out) - rank(d in), at every bidegree
    from sseqlab.f2 import rank as f2_rank

    page = initial_page(SPEC, assignment_for(1))
    for _ in range(6):
        nxt = turn_page(page)
        r = page.r
        for bd in page.groups:
            out_rank = f2_rank(page.differentials[bd]) if bd in page.differentials else 0
            src = (bd[0] - r, bd[1] + r - 1)
            in_rank = f2_rank(page.differentials[src]) if src in page.differentials else 0
            assert nxt.dim(*bd) == page.dim(*bd) - out_rank - in_rank
        page = nxt


def test_turn_page_is_a_function_of_the_page_and_leaves_it_untouched():
    page = initial_page(SPEC, assignment_for(1))
    while page.r < 6:
        page = turn_page(page)
    before = {bd: (g, g.cycles, g.boundaries) for bd, g in page.groups.items()}
    first, second = turn_page(page), turn_page(page)
    assert first == second  # every field, groups and differentials too
    for bd, (group, cycles, boundaries) in before.items():
        kept = page.groups[bd]
        assert kept is group and kept.cycles is cycles and kept.boundaries is boundaries


def test_turn_page_matches_the_two_half_reference_and_keeps_untouched_halves(turn_reference):
    from sseqlab.specseq import _page

    def check(page):
        turned, reference, r = turn_page(page), turn_reference(page), page.r
        counts = Counter()
        for bd, group in page.groups.items():
            new, ref = turned.groups[bd], reference.groups[bd]
            assert (new.cycles, new.boundaries) == (ref.cycles, ref.boundaries)
            if (bd[0] - r, bd[1] + r - 1) not in page.differentials:
                assert new.boundaries is group.boundaries
                counts["boundaries kept"] += bd in page.differentials
            if bd not in page.differentials:
                assert new.cycles is group.cycles
                counts["cycles kept"] += new is not group
            else:
                counts["empty kernel"] += new.cycles is new.boundaries
        assert (turned.differentials, turned.unevaluated) == (
            reference.differentials, reference.unevaluated
        )
        return turned, counts

    rng, scramble_rng = random.Random(1010), random.Random(1011)
    counts = Counter()
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        page = initial_page(spec, assignment)
        last_page = max((r for r, _, _ in admissible_differentials(spec)), default=1)
        while page.r <= last_page:
            groups = scrambled(page.groups, scramble_rng)
            try:
                counts += check(_page(spec, assignment, page.r, groups))[1]
                counts["scrambled"] += 1
            except ValidationError:  # an image in a vanished subquotient: no page to turn
                pass
            page, page_counts = check(page)
            counts += page_counts
    assert counts["scrambled"] > 200
    assert min(counts[k] for k in ("boundaries kept", "cycles kept", "empty kernel")) > 100


def assert_kept_images_turn_as_rep_sums(spec, assignment, turn_reference):
    """Every page turns, through the images ``_page`` kept, into what the two-half reference
    turns it into through the rep sums its d_r columns name."""
    page = initial_page(spec, assignment)
    while page.r <= spec.last_page:
        assert page.images.keys() == page.differentials.keys()
        turned = turn_page(page)
        assert turned == turn_reference(page)
        page = turned


@pytest.mark.parametrize("window", [10, 24, 60])
@pytest.mark.parametrize("eps", [0, 1])
def test_kept_images_turn_as_rep_sums_on_g2(window, eps, turn_reference):
    spec = g2_fibration_spec(window)
    assignment = resolve_assignment(spec, {"eps": eps})
    assert_kept_images_turn_as_rep_sums(spec, assignment, turn_reference)


def test_kept_images_turn_as_rep_sums_on_random_specs(turn_reference):
    rng = random.Random(1012)
    for _ in range(100):
        assert_kept_images_turn_as_rep_sums(*random_fibration(rng), turn_reference)


def test_each_new_boundary_row_at_page_six_is_one_of_its_kept_images():
    spec = g2_fibration_spec(60)
    page = initial_page(spec, resolve_assignment(spec, {"eps": 1}))
    while page.r < 6:
        page = turn_page(page)
    assert not any(group.boundaries for group in page.groups.values())  # d_6 is the first
    images = {id(v) for vectors in page.images.values() for v in vectors}
    rows = [v for group in turn_page(page).groups.values() for v in group.boundaries]
    assert len(images) == 258 and len(rows) == 258
    assert all(id(v) in images for v in rows)


def test_composite_of_consecutive_differentials_is_zero():
    page = initial_page(SPEC, assignment_for(1))
    while page.r <= 6:
        for src, m1 in page.differentials.items():
            mid = (src[0] + page.r, src[1] - page.r + 1)
            m2 = page.differentials.get(mid)
            if m2 is not None:
                assert m2.matmul(m1).is_zero()
        page = turn_page(page)


# ---------------------------------------------------------------- limits


def total_complex_dims(spec, assignment):
    """dim H^n(B (x) F, d) for n <= N by dense F_2 elimination, d(m (x) g) = m * image(g).

    The limit page's total dimensions must equal these.  Monomials are
    exponent tuples and rows are integers: no page-engine or f2 code runs.
    """
    degrees, top = spec.base.degrees, spec.degree_bound + 1
    cells = [[] for _ in range(top + 1)]  # the basis m (x) g of each total degree <= N + 1
    for e in itertools.product(*(range(top // d + 1) for d in degrees)):
        s = sum(map(mul, e, degrees))
        for t, gens in spec.fibre_gens.items():
            if s + t <= top:
                cells[s + t] += [(e, g) for g in gens]
    image = {g: set() for gens in spec.fibre_gens.values() for g in gens}
    for (g, _r), poly in assignment.generator_images.items():
        image[g] ^= {m.exponents for m in poly.terms}
    ranks = [0]  # ranks[n] is the rank of d out of total degree n - 1
    for n in range(top):
        index = {cell: i for i, cell in enumerate(cells[n + 1])}
        pivots = {}
        for e, g in cells[n]:
            row = 0
            for f in image[g]:
                row ^= 1 << index[(tuple(map(add, e, f)), spec.unit_gen)]
            while row and row.bit_length() - 1 in pivots:
                row ^= pivots[row.bit_length() - 1]
            if row:
                pivots[row.bit_length() - 1] = row
        ranks.append(len(pivots))
    return [len(cells[n]) - ranks[n] - ranks[n + 1] for n in range(top)]


def test_limit_dims_equal_the_total_complex_homology_on_random_specs():
    rng = random.Random(1010)
    changed = 0
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        expected = total_complex_dims(spec, assignment)
        assert total_dims(run_to_einfty(spec, assignment)[1], spec.degree_bound) == expected
        zero = {key: Polynomial.zero() for key in assignment.generator_images}
        changed += total_complex_dims(spec, DifferentialAssignment({}, zero)) != expected
    assert changed > 50


@pytest.mark.parametrize("window", [10, 24, 60])
def test_limit_dims_equal_the_total_complex_homology_on_g2(window):
    spec = g2_fibration_spec(window)
    sweep = sweep_unknowns(spec)
    expected = {}
    for eps in (0, 1):
        assignment = resolve_assignment(spec, {"eps": eps})
        expected[eps] = total_complex_dims(spec, assignment)
        assert total_dims(run_to_einfty(spec, assignment)[1], window) == expected[eps]
        assert total_dims(sweep[(("eps", eps),)], window) == expected[eps]
    assert expected[0] != expected[1]


def filtered_reduction(spec, assignment):
    """Every cell m (x) g of B (x) F through total degree N + 1, and the pairs d makes.

    The cells are ordered by base degree s, descending, so each F^p = {s >= p}
    is a prefix.  Each column d(cell) is reduced by its highest bit, against
    the earlier columns' pivots; a pivot pairs its row cell with its column
    cell, and the pair's gap in s is the page of the d_r that kills both.  A
    cell is alive on page r when it is unpaired or its pair's gap is >= r.
    Images beyond N + 1 are dropped, which moves no pair of a cell of total
    degree <= N.  Monomials are exponent tuples and columns are integers: no
    page-engine or f2 code runs.  Returns the cells' bidegrees and the gap
    of each paired cell's pair.
    """
    degrees, top = spec.base.degrees, spec.degree_bound + 1
    cells = []
    for e in itertools.product(*(range(top // d + 1) for d in degrees)):
        s = sum(map(mul, e, degrees))
        for t, gens in spec.fibre_gens.items():
            if s + t <= top:
                cells += [(s, t, e, g) for g in gens]
    cells.sort(key=lambda cell: -cell[0])
    index = {(e, g): i for i, (_s, _t, e, g) in enumerate(cells)}
    image = {g: set() for gens in spec.fibre_gens.values() for g in gens}
    for (g, _r), poly in assignment.generator_images.items():
        image[g] ^= {m.exponents for m in poly.terms}
    pivots, gaps = {}, {}
    for j, (s, _t, e, g) in enumerate(cells):
        column = 0
        for f in image[g]:
            i = index.get((tuple(map(add, e, f)), spec.unit_gen))
            if i is not None:
                column ^= 1 << i
        while column and (low := column.bit_length() - 1) in pivots:
            column ^= pivots[low]
        if column:
            pivots[low] = column
            gaps[low] = gaps[j] = cells[low][0] - s
    return [(s, t) for s, t, _e, _g in cells], gaps


def assert_pages_equal_the_filtered_reduction(spec, assignment):
    """Group dims on every page and every bidegree <= N, and the rank of each d_r."""
    bidegrees, gaps = filtered_reduction(spec, assignment)
    pages = pages_to_limit(spec, assignment)
    for r, _d, _u, groups in pages:
        alive = Counter(
            bd for i, bd in enumerate(bidegrees)
            if sum(bd) <= spec.degree_bound and gaps.get(i, r) >= r
        )
        dims = {bd: g.dim for bd, g in groups.items() if sum(bd) <= spec.degree_bound}
        assert {bd: n for bd, n in dims.items() if n} == alive
    ranks = {r: sum(rank(m) for m in d.values()) for r, d, _u, _g in pages}
    pairs = Counter(gaps.values())  # each pair holds two cells
    assert {r: n // 2 for r, n in pairs.items()} == {r: n for r, n in ranks.items() if n}
    return len(pages), sum(pairs.values()) // 2


def test_every_page_equals_the_filtered_reduction_on_random_specs():
    rng = random.Random(1010)
    pages = pairs = 0
    for _ in range(100):
        n_pages, n_pairs = assert_pages_equal_the_filtered_reduction(*random_fibration(rng))
        pages, pairs = pages + n_pages, pairs + n_pairs
    assert pages > 700 and pairs > 1500


@pytest.mark.parametrize("window", [10, 24, 60])
@pytest.mark.parametrize("eps", [0, 1])
def test_every_page_equals_the_filtered_reduction_on_g2(window, eps):
    spec = g2_fibration_spec(window)
    _pages, pairs = assert_pages_equal_the_filtered_reduction(
        spec, resolve_assignment(spec, {"eps": eps})
    )
    assert bool(pairs) == bool(eps)


def test_collapse_branch_limit_equals_start():
    page, _ = run_to_einfty(SPEC, assignment_for(0))
    start = build_e2(SPEC)
    for s in range(11):
        for t in range(11 - s):
            assert page.dim(s, t) == start.dim(s, t)


def test_nontrivial_branch_matches_hand_fixture():
    fixture = json.loads((DATA / "einfty_nontrivial_branch.json").read_text())
    page, report = run_to_einfty(SPEC, assignment_for(1))
    assert total_dims(report, 10) == fixture["total_dims"]
    got = {
        f"{s},{t}": page.dim(s, t)
        for (s, t) in page.reported_bidegrees()
    }
    assert got == fixture["bidegree_dims"]


def test_nontrivial_branch_survivor_names():
    page, _ = run_to_einfty(SPEC, assignment_for(1))
    assert page.describe(7, 0) == ["x_7"]
    assert page.describe(8, 0) == ["x_4^2"]
    assert page.describe(6, 0) == []
    assert page.describe(0, 5) == []


def test_nontrivial_branch_flags_window_boundary():
    page, _ = run_to_einfty(SPEC, assignment_for(1))
    assert (6, (6, 5), (12, 0)) in page.unevaluated


def unevaluated_oracle(spec, assignment):
    """The arrows past the window, from the spec's E_2 dims and the nonzero images alone.

    A nonzero image of d_r(g), g of fibre degree t, is a transgression onto the base
    row, so of g's groups only the one at total degree N + 1, (N + 1 - t, t), sends
    d_r past the window; the arrow is listed when that group is nonzero.
    """
    top = spec.degree_bound + 1
    arrows = set()
    for (gen, r), image in assignment.generator_images.items():
        t = spec.fibre_degree_of(gen)
        if not image.is_zero() and spec.e2_dim(top - t, t) > 0:
            arrows.add((r, (top - t, t), (top - t + r, t - r + 1)))
    return tuple(sorted(arrows))


def with_a_class_at_the_window_top(spec, assignment, rng):
    """``spec`` and ``assignment`` with one more fibre class, in degree N + 1, and a random
    transgression: no arrow of the window reaches its page, N + 2."""
    t = spec.degree_bound + 1
    fibre = {**spec.fibre_gens, t: spec.fibre_gens.get(t, ()) + ("h",)}
    terms = [m for m in basis_in_degree(spec.base, t + 1) if rng.random() < 0.6]
    images = {**assignment.generator_images, ("h", t + 1): Polynomial.of(*terms)}
    return FibrationSpec(spec.base, fibre, spec.degree_bound), DifferentialAssignment({}, images)


def test_unevaluated_arrows_match_the_oracle_on_random_specs():
    rng = random.Random(1014)
    listed = unbuilt = 0
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        for spec, assignment in (
            (spec, assignment), with_a_class_at_the_window_top(spec, assignment, rng)
        ):
            page, _ = run_to_einfty(spec, assignment)
            expected = unevaluated_oracle(spec, assignment)
            assert page.unevaluated == expected
            listed += len(expected)
            unbuilt += sum(r > page.r for r, _src, _tgt in expected)  # the walk built no page r
    assert listed > 200 and unbuilt > 40


@pytest.mark.parametrize("eps", [0, 1])
def test_unevaluated_arrows_match_the_oracle_on_g2_at_windows_1_to_12(eps):
    listed = []
    for n in range(1, 13):
        spec = g2_fibration_spec(n)
        assignment = resolve_assignment(spec, {"eps": eps})
        page, _ = run_to_einfty(spec, assignment)
        assert page.r == (2 if n <= 4 else 7)
        assert page.unevaluated == unevaluated_oracle(spec, assignment)
        listed += [(n, *arrow) for arrow in page.unevaluated]
    # d_6(u_5) = eps x_6 leaves the window from (n - 4, 5) when the base has a class there
    assert listed == [
        (n, 6, (n - 4, 5), (n + 2, 0)) for n in (4, 8, 10, 11, 12) if eps
    ]


def test_zero_fibre_gives_base_poincare_dims():
    spec = FibrationSpec(SPEC.base, {0: (UNIT_GEN,)}, 10, ())
    _, report = run_to_einfty(spec, resolve_assignment(spec, {}))
    from sseqlab.graded import poincare_dims

    assert total_dims(report, 10) == poincare_dims(SPEC.base, 10)


def test_base_row_survives_when_scalar_vanishes():
    page, _ = run_to_einfty(SPEC, assignment_for(0))
    from sseqlab.graded import poincare_dims

    dims = poincare_dims(SPEC.base, 10)
    for s in range(11):
        assert page.dim(s, 0) == dims[s]


def test_run_requires_resolved_unknowns():
    from sseqlab.specseq import DifferentialAssignment

    with pytest.raises(UsageError):
        run_to_einfty(SPEC, DifferentialAssignment({}, {}))


def test_run_refuses_a_hand_built_assignment_that_omits_a_value():
    # every image is declared; the image check's last rule refuses the missing value
    assignment = DifferentialAssignment({}, {("u_5", 6): SPEC.base.gen("x_6")})
    for call in (check_images, run_to_einfty):
        with pytest.raises(UsageError) as info:
            call(SPEC, assignment)
        assert str(info.value) == "unresolved unknowns: eps"


def test_a_spec_with_an_unproven_degree_is_refused_where_each_run_starts():
    # pi_6 only known to contain Z/3: fibre degree 3 is >=0, which no value can refuse
    text = (Path(__file__).resolve().parents[1] / "g2.cfg").read_text()
    spec = parse_config(text.replace("6 = Z/3", "6 = contains Z/3")).fibration_spec()
    assignment = resolve_assignment(spec, {"eps": 1})
    assert isinstance(assignment, DifferentialAssignment)
    runs = {
        "run_to_einfty": lambda: run_to_einfty(spec, assignment),
        "initial_page": lambda: initial_page(spec, assignment),
    }
    for name, run in runs.items():
        with pytest.raises(UsageError) as info:
            run()
        assert str(info.value).startswith(
            "fibre degree 3 is only bounded below (>=0), so no page can be turned"
        ), name


def test_an_unproven_degree_at_the_windows_top_is_refused(tmp_path, capsys):
    # degree 3 is the last in the window: its missing classes still decide degree 3's answer
    from sseqlab.cli import main

    text = (Path(__file__).resolve().parents[1] / "g2.cfg").read_text()
    path = tmp_path / "top.cfg"
    path.write_text(
        text.replace("6 = Z/3", "6 = contains Z/3").replace("degree_bound = 10", "degree_bound = 3")
    )
    for argv in (["einfty", "--set", "eps=0"], ["sweep"], ["gauge", "--k", "1"]):
        assert main(["--config", str(path), *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: fibre degree 3 is only bounded below"), argv


def test_kept_values_refuse_the_edits_that_once_got_past_their_checks():
    images = {("u_5", 6): SPEC.base.gen("x_6")}
    assignment = DifferentialAssignment({"eps": 1}, images)
    images[("u_5", 6)] = SPEC.base.gen("x_4")  # the caller's dict is not the assignment's
    page, report = run_to_einfty(SPEC, assignment)
    assert report == run_to_einfty(SPEC, assignment_for(1))[1]
    with pytest.raises(TypeError):
        assignment.generator_images[("u_5", 6)] = SPEC.base.gen("x_4")  # degree 4, not 6
    with pytest.raises(TypeError):
        assignment.values["eps"] = 0
    dims = GradedDims({0: DimEntry(1)})
    with pytest.raises(TypeError):
        dims.dims[0] = DimEntry(5, False)
    basis = build_e2(SPEC)
    with pytest.raises(TypeError):
        basis.groups[(2, 4)] = ((X4, "u_5"),)
    for edit in (page.groups, page.differentials):
        with pytest.raises(TypeError):
            edit[(2, 4)] = None
    with pytest.raises(FrozenRecordError):
        page.r = 2
    group = page.groups[(6, 5)]  # at total degree N + 1: no d_6 out of it is evaluated
    assert group.dim == 1
    with pytest.raises(FrozenRecordError):
        group.dim = 0
    with pytest.raises(FrozenRecordError):
        del group.dim
    assert group.dim == len(group.cycles) - len(group.boundaries) == 1
    assert dims.entry(0) == DimEntry(1) and basis.dim(2, 4) == 0 and page.dim(2, 4) == 0
    assert run_to_einfty(SPEC, assignment) == (page, report)


# ---------------------------------------------------------------- sweeps


def test_sweep_enumerates_both_branches():
    sweep = sweep_unknowns(SPEC)
    assert list(sweep) == [(("eps", 0),), (("eps", 1),)]
    assert total_dims(sweep[(("eps", 0),)], 10) == [1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
    assert total_dims(sweep[(("eps", 1),)], 10) == [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0]


def test_sweep_no_unknowns_single_branch():
    spec = FibrationSpec(SPEC.base, {0: (UNIT_GEN,)}, 10, ())
    assert list(sweep_unknowns(spec)) == [()]


def test_sweep_two_unknowns_binary_order():
    base = PolyAlgebraSpec.from_pairs([("a", 6), ("b", 8)])
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 5: ("u",), 7: ("v",)},
        12,
        (
            UnknownScalar("alpha", "u", 6, base.gen("a")),
            UnknownScalar("beta", "v", 8, base.gen("b")),
        ),
    )
    keys = list(sweep_unknowns(spec))
    assert keys == [
        (("alpha", 0), ("beta", 0)),
        (("alpha", 0), ("beta", 1)),
        (("alpha", 1), ("beta", 0)),
        (("alpha", 1), ("beta", 1)),
    ]


def test_two_dimensional_fibre_degree_rank_one_cancellation():
    # two degree-5 classes, each with its own transgressive scalar, both
    # targeting the same base class: any nonzero branch has a rank-one
    # matrix [1 1] or [1 0], so exactly one pair cancels
    base = SPEC.base
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 5: ("u_5", "v_5")},
        10,
        (
            UnknownScalar("eps_u", "u_5", 6, base.gen("x_6")),
            UnknownScalar("eps_v", "v_5", 6, base.gen("x_6")),
        ),
    )
    sweep = sweep_unknowns(spec)
    assert list(sweep) == [
        (("eps_u", 0), ("eps_v", 0)),
        (("eps_u", 0), ("eps_v", 1)),
        (("eps_u", 1), ("eps_v", 0)),
        (("eps_u", 1), ("eps_v", 1)),
    ]
    collapsed = total_dims(sweep[(("eps_u", 0), ("eps_v", 0))], 10)
    assert collapsed == [1, 0, 0, 0, 1, 2, 1, 1, 1, 2, 1]
    cancelled = [1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0]
    for key in list(sweep)[1:]:
        assert total_dims(sweep[key], 10) == cancelled


def test_diagonal_survivor_is_the_sum_class():
    base = SPEC.base
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 5: ("u_5", "v_5")},
        10,
        (
            UnknownScalar("eps_u", "u_5", 6, base.gen("x_6")),
            UnknownScalar("eps_v", "v_5", 6, base.gen("x_6")),
        ),
    )
    page, _ = run_to_einfty(spec, resolve_assignment(spec, {"eps_u": 1, "eps_v": 1}))
    assert page.describe(0, 5) == ["u_5 + v_5"]
    assert page.describe(4, 5) == ["x_4*u_5 + x_4*v_5"]


def test_interleaved_pages_with_extra_fibre_generator():
    # wider window, one extra degree-7 fibre class with its own page-8
    # transgression: hand-checked totals for all four branches.  The
    # page-3 arrow (4,7) -> (7,5) is bidegree-admissible but its value
    # is forced to zero by the Leibniz rule (the degree-7 generator has
    # no page-3 target at the fibre column).
    base = SPEC.base
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 5: ("u_5",), 7: ("v_7",)},
        12,
        (
            UnknownScalar("eps", "u_5", 6, base.gen("x_6")),
            UnknownScalar("nu", "v_7", 8, Polynomial.of(Monomial((2, 0, 0)))),
        ),
    )
    assert (3, (4, 7), (7, 5)) in admissible_differentials(spec)
    sweep = {key: total_dims(rep, 12) for key, rep in sweep_unknowns(spec).items()}
    assert sweep == {
        (("eps", 0), ("nu", 0)): [1, 0, 0, 0, 1, 1, 1, 2, 1, 1, 1, 3, 3],
        (("eps", 0), ("nu", 1)): [1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 2, 2],
        (("eps", 1), ("nu", 0)): [1, 0, 0, 0, 1, 0, 0, 2, 1, 0, 0, 2, 1],
        (("eps", 1), ("nu", 1)): [1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
    }


def test_leibniz_on_a_later_page():
    # after the d_6 turn, its sources and targets are gone; no page-7 matrices remain
    after = turn_page(turned_to(assignment_for(1), 6))
    assert after.r == 7 and after.differentials == {}
    assert after.dim(0, 5) == after.dim(6, 0) == 0


def test_turn_page_detects_nonzero_composite():
    from sseqlab.errors import InvariantBreach
    from sseqlab.f2 import F2Matrix
    from sseqlab.specseq import Page

    page = initial_page(SPEC, assignment_for(1))
    while page.r < 6:
        page = turn_page(page)
    # corrupt the page: pretend d_6 also acts out of (6,0) onto (12,0)'s
    # slot so the composite (0,5) -> (6,0) -> ... is nonzero
    fake = dict(page.differentials)
    fake[(6, 0)] = F2Matrix.identity(1)
    corrupted = Page(page.spec, page.assignment, page.r, page.groups, fake)
    with pytest.raises(InvariantBreach):
        turn_page(corrupted)


# ---------------------------------------------------------------- validation


def test_fibre_degree_zero_must_be_unit():
    with pytest.raises(ValidationError):
        FibrationSpec(SPEC.base, {0: ("1", "extra")}, 10, ())
    with pytest.raises(ValidationError):
        FibrationSpec(SPEC.base, {5: ("u_5",)}, 10, ())


def test_unknown_page_must_match_transgression():
    with pytest.raises(ValidationError):
        FibrationSpec(
            SPEC.base,
            {0: (UNIT_GEN,), 5: ("u_5",)},
            10,
            (UnknownScalar("eps", "u_5", 5, SPEC.base.gen("x_6")),),
        )


def test_unknown_target_degree_checked():
    with pytest.raises(ValidationError):
        FibrationSpec(
            SPEC.base,
            {0: (UNIT_GEN,), 5: ("u_5",)},
            10,
            (UnknownScalar("eps", "u_5", 6, SPEC.base.gen("x_4")),),
        )


def test_two_unknowns_on_one_generator_are_refused_by_name():
    # both would set the one image of d_2(e), and the later would silently win
    base = PolyAlgebraSpec.from_pairs([("x", 2)])
    a, b, c = (UnknownScalar(n, "e", 2, base.gen("x")) for n in ("a", "b", "c"))
    fibre = {0: (UNIT_GEN,), 1: ("e",)}
    FibrationSpec(base, fibre, 4, (a,))
    for unknowns, first, second in (((a, b), "a", "b"), ((c, a), "c", "a"), ((a, b, c), "a", "b")):
        with pytest.raises(ValidationError) as caught:
            FibrationSpec(base, fibre, 4, unknowns)
        assert str(caught.value) == f"unknowns {first} and {second} both set d_2(e)"
    # distinct generators in one fibre degree stay allowed
    d = UnknownScalar("d", "f", 2, base.gen("x"))
    FibrationSpec(base, {0: (UNIT_GEN,), 1: ("e", "f")}, 4, (a, d))


def test_unknown_on_an_undeclared_generator_names_the_unknown():
    with pytest.raises(ValidationError) as caught:
        FibrationSpec(
            SPEC.base,
            {0: (UNIT_GEN,), 5: ("u_5",)},
            10,
            (UnknownScalar("eps", "nope", 6, SPEC.base.gen("x_6")),),
        )
    assert str(caught.value) == "unknown eps: unknown fibre generator 'nope'"


# ---------------------------------------------------------------- sweep fork


def per_point_reports(spec):
    """The sweep as one full ``run_to_einfty`` per point, in binary order, each on a fresh spec.

    A pickled record is rebuilt through its constructor, so the copy is equal to ``spec``
    but keeps no starting page: each point builds its own, not the sweep's shared one.
    """
    names = spec.unknown_names()
    out = {}
    for point in itertools.product((0, 1), repeat=len(names)):
        fresh = pickle.loads(pickle.dumps(spec))
        assert fresh == spec and "start_groups" not in vars(fresh)
        values = dict(zip(names, point))
        out[tuple(zip(names, point))] = run_to_einfty(fresh, resolve_assignment(fresh, values))[1]
    return out


def assert_sweep_matches_per_point_runs(spec):
    sweep = sweep_unknowns(spec)
    expected = per_point_reports(spec)
    assert list(sweep) == list(expected)
    assert sweep == expected


@pytest.mark.parametrize("window", [10, 24, 60])
def test_sweep_fork_equals_per_point_runs_on_g2(window):
    assert_sweep_matches_per_point_runs(g2_fibration_spec(window))


def test_sweep_fork_equals_per_point_runs_with_unknowns_on_two_pages():
    base = PolyAlgebraSpec.from_pairs([("a", 4), ("b", 6)])
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 3: ("u",), 5: ("v",)},
        16,
        (
            UnknownScalar("late", "v", 6, base.gen("b")),
            UnknownScalar("early", "u", 4, base.gen("a")),
        ),
    )
    assert_sweep_matches_per_point_runs(spec)
    # the page-4 unknown changes what the page-6 one can hit
    assert len({tuple(total_dims(r, 16)) for r in sweep_unknowns(spec).values()}) == 4


def test_sweep_fork_equals_per_point_runs_without_unknowns():
    # no base class in degree 6, so u_5 supports no admissible differential
    base = PolyAlgebraSpec.from_pairs([("x_4", 4), ("x_7", 7)])
    spec = FibrationSpec(base, {0: (UNIT_GEN,), 5: ("u_5",)}, 24, ())
    assert_sweep_matches_per_point_runs(spec)


def test_sweep_fork_equals_per_point_runs_with_a_page_two_unknown():
    base = PolyAlgebraSpec.from_pairs([("a", 2), ("b", 4)])
    spec = FibrationSpec(
        base,
        {0: (UNIT_GEN,), 1: ("e",), 3: ("f",)},
        14,
        (
            UnknownScalar("first", "e", 2, base.gen("a")),
            UnknownScalar("second", "f", 4, base.gen("b")),
        ),
    )
    assert_sweep_matches_per_point_runs(spec)
    assert len({tuple(total_dims(r, 14)) for r in sweep_unknowns(spec).values()}) == 4


def test_sweep_builds_the_starting_page_and_the_arrow_table_once(monkeypatch):
    import sseqlab.fibration as fibration
    import sseqlab.specseq as specseq

    calls = {"build_e2": 0, "classify_arrows": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # each hook sits in the module that calls it: the page engine builds the starting
    # page, and FibrationSpec.arrows walks the arrows
    for module, name in ((specseq, "build_e2"), (fibration, "classify_arrows")):
        monkeypatch.setattr(module, name, counted(module, name))
    spec = g2_fibration_spec(24)  # a fresh spec: no arrow table cached yet
    sweep_unknowns(spec)
    assert calls == {"build_e2": 1, "classify_arrows": 1}
    sweep_unknowns(spec)
    assert calls == {"build_e2": 1, "classify_arrows": 1}


@pytest.mark.parametrize("window", [10, 24, 60])
def test_a_g2_sweep_turns_only_the_page_its_d6_fires_on(window, monkeypatch):
    import sseqlab.specseq as specseq

    turned = []

    def traced(page, **kwargs):
        turned.append((page.r, dict(page.assignment.values)))
        return turn_page(page, **kwargs)

    monkeypatch.setattr(specseq, "turn_page", traced)
    sweep_unknowns(g2_fibration_spec(window))
    assert turned == [(6, {"eps": 1})]


# ---------------------------------------------------------------- skipped pages


def test_skipping_the_pages_no_image_fires_on_equals_turning_them(monkeypatch):
    import sseqlab.specseq as specseq

    calls = []  # pages_to_limit turns every page through this module's own turn_page
    monkeypatch.setattr(specseq, "turn_page", lambda page: calls.append(page.r) or turn_page(page))
    rng = random.Random(1010)
    gapped = turned = skipped = 0
    for _ in range(100):
        spec, assignment = random_fibration(rng)
        pages = pages_to_limit(spec, assignment)
        r, _d, unevaluated, groups = pages[-1]
        calls.clear()
        page, report = run_to_einfty(spec, assignment)
        assert (page.r, page.unevaluated) == (r, unevaluated)
        assert list(page.groups) == list(groups)
        for bd, group in groups.items():
            got = page.groups[bd]
            assert (got.cycles, got.boundaries) == (group.cycles, group.boundaries)
        bound = spec.degree_bound
        expected = {j: [] for j in range(bound + 1)}
        for (s, t), group in sorted(groups.items()):
            if s + t <= bound and group.dim:
                expected[s + t].append(((s, t), group.dim))
        assert report == expected
        fired = sorted({r for (_g, r), image in assignment.generator_images.items() if image})
        gapped += any(b - a > 1 for a, b in zip(fired, fired[1:]))
        turned += len(calls)
        skipped += len(pages) - 1 - len(calls)
        assert calls == [r for r, d, _u, _g in pages[:-1] if d]  # exactly the pages with a d_r matrix
    assert gapped > 30 and turned > 100 and skipped > 300


def test_quotient_reps_reduce_each_cycle_once_against_the_boundaries(monkeypatch, greedy_reference):
    import sseqlab.specseq as specseq

    calls = []

    def traced(basis, v):
        calls.append((basis, v))
        return reduce_against(basis, v)

    monkeypatch.setattr(specseq, "reduce_against", traced)
    rng = random.Random(1012)
    groups = []
    for _ in range(300):
        n = rng.randint(1, 12)

        def draw():
            return [F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, n))]

        boundaries = row_reduce(draw())
        cycles = row_reduce(boundaries + draw())
        groups.append(PageGroup(tuple(range(n)), tuple(cycles), tuple(boundaries)))
    spec = g2_fibration_spec(24)
    page = initial_page(spec, resolve_assignment(spec, {"eps": 1}))
    while page.r <= 6:
        page = turn_page(page)
        # fresh groups: the page's own have their quotient kept from the turn
        groups += [PageGroup(g.labels, g.cycles, g.boundaries) for g in page.groups.values()]
    assert sum(bool(g.boundaries) for g in groups) > 200
    for group in groups:
        calls.clear()
        reps = group.quotient_basis()
        assert [v for _basis, v in calls] == list(group.cycles)
        assert all(basis is group.boundaries for basis, _v in calls)
        assert reps == greedy_reference(group.boundaries, group.cycles)


# ---------------------------------------------------------------- built once


def test_page_six_at_window_60_solves_against_one_matrix_per_subquotient(monkeypatch):
    import sseqlab.f2 as f2
    import sseqlab.specseq as specseq

    spec = g2_fibration_spec(60)
    assignment = resolve_assignment(spec, {"eps": 1})
    start = initial_page(spec, assignment)
    built, solved = [], []
    matrix, solve = specseq._matrix, specseq.solve
    monkeypatch.setattr(specseq, "_matrix", lambda *args: built.append(matrix(*args)) or built[-1])
    monkeypatch.setattr(specseq, "solve", lambda m, b: solved.append(m) or solve(m, b))
    page = specseq._page(spec, assignment, 6, start.groups)
    # 51 d_6 sources; their targets share 15 (cycles, boundaries) pairs of the starting page,
    # and _page builds one coordinate matrix for each, from its words, beside the 51 blocks
    coordinates = {id(m): m for m in solved}
    assert (len(page.differentials), len(coordinates), len(built)) == (51, 15, 51 + 15)
    assert set(coordinates) <= {id(m) for m in built}

    transposed = []
    transpose = f2._transpose
    monkeypatch.setattr(f2, "_transpose", lambda *args: transposed.append(args) or transpose(*args))
    monkeypatch.setattr(specseq, "_page", lambda *args: None)  # count turn_page's own work only
    turn_page(page)
    assert transposed == []  # each d_6 matrix keeps the column words it was built from


def test_page_six_at_window_60_and_its_turn_transpose_no_words():
    import sseqlab.f2 as f2
    import sseqlab.specseq as specseq

    spec = g2_fibration_spec(60)
    assignment = resolve_assignment(spec, {"eps": 1})
    start = initial_page(spec, assignment)
    code, calls = f2._transpose.__code__, []

    def profile(frame, event, _arg):  # every call of the function, whatever name it is read by
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        page = specseq._page(spec, assignment, 6, start.groups)
        turn_page(page)
    finally:
        sys.setprofile(None)
    # the coordinate matrices and d_6 blocks are built from their column words, which every
    # solve and kernel_basis reads; no reader on the path asks for their rows
    assert len(page.differentials) == 51 and calls == []


# ---------------------------------------------------------------- fibration spec


def test_a_degree_one_fibre_class_has_its_arrows_classified():
    spec = FibrationSpec(PolyAlgebraSpec.from_pairs([("x", 2)]), {0: (UNIT_GEN,), 1: ("e",)}, 4)
    assert spec.arrows == (
        (2, (0, 1), (2, 0), ADMISSIBLE), (3, (0, 1), None, NEGATIVE_FIBRE),
        (2, (2, 1), (4, 0), ADMISSIBLE), (3, (2, 1), None, NEGATIVE_FIBRE),
    )
    assert admissible_differentials(spec) == [(2, (0, 1), (2, 0)), (2, (2, 1), (4, 0))]
    assert spec.last_page == 2
    assert FibrationSpec(spec.base, {0: (UNIT_GEN,)}, 4).last_page == 1  # no admissible arrow


def test_a_spec_refuses_an_empty_window_and_an_unproven_degree_zero():
    base, fibre = PolyAlgebraSpec.from_pairs([("x", 2)]), {0: (UNIT_GEN,)}
    with pytest.raises(ValidationError, match="degree bound must be >= 1"):
        FibrationSpec(base, fibre, 0)
    assert FibrationSpec(base, fibre, 1).degree_bound == 1
    with pytest.raises(ValidationError, match="unproven fibre degree must be positive"):
        FibrationSpec(base, fibre, 4, unproven_degrees=frozenset({0}))
    assert FibrationSpec(base, fibre, 4, unproven_degrees=frozenset({1})).unproven_degrees == {1}


def test_combine_sums_reps_whose_supports_overlap():
    from sseqlab.specseq import _combine

    reps = [F2Vector(3, 0b011), F2Vector(3, 0b110), F2Vector(3, 0b100)]
    assert _combine(3, reps, 0b011) == F2Vector(3, 0b101)  # the shared bit cancels
    assert _combine(3, reps, 0b111) == F2Vector(3, 0b001)
    assert _combine(3, reps, 0) == F2Vector(3, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda base: FibrationSpec(base, {0: (UNIT_GEN,), -1: ("e",)}),
            "negative fibre degree -1",
            id="negative-degree",
        ),
        pytest.param(
            lambda base: FibrationSpec(base, {0: (UNIT_GEN,), 1: ("",)}),
            "empty fibre generator name",
            id="empty-name",
        ),
        pytest.param(
            lambda base: FibrationSpec(base, {0: (UNIT_GEN,), 1: ("e",), 3: ("e",)}),
            "duplicate fibre generator 'e'",
            id="duplicate-generator",
        ),
        pytest.param(
            lambda base: FibrationSpec(
                base, {0: (UNIT_GEN,), 1: ("e",), 3: ("f",)}, 10,
                (UnknownScalar("eps", "e", 2, base.gen("x")),) * 2,
            ),
            "unknown scalar names must be distinct",
            id="duplicate-unknowns",
        ),
        pytest.param(
            lambda base: FibrationSpec(base, {0: (UNIT_GEN,), 1: ("e",)}).fibre_degree_of("f"),
            "unknown fibre generator 'f'",
            id="unknown-generator",
        ),
    ],
)
def test_a_spec_refuses_a_bad_fibre_with_its_message(call, message):
    with pytest.raises(ValidationError) as info:
        call(PolyAlgebraSpec.from_pairs([("x", 2)]))
    assert type(info.value) is ValidationError and str(info.value) == message
