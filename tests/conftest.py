"""Shared fixtures."""

import pytest

from sseqlab.errors import UsageError, ValidationError
from sseqlab.f2 import (
    F2Matrix,
    F2Vector,
    _transpose,
    in_span,
    kernel_basis,
    reduce_against,
    row_reduce,
    solve,
)
from sseqlab.graded import Polynomial, multiply
from sseqlab.specseq import Page, PageGroup, _combine, _page
from sseqlab.steenrod import Violation


def _greedy_reference(context, candidates):
    """Candidates outside the span of the context and of those picked before.

    Re-reduces the whole context for every candidate, so it keeps no
    echelon state between candidates; the greedy quotient loops of the
    page engine and the hit solver are compared against it.
    """
    context = list(context)
    picked = []
    for v in candidates:
        if not reduce_against(row_reduce(context), v).is_zero():
            picked.append(v)
            context.append(v)
    return picked


@pytest.fixture
def greedy_reference():
    return _greedy_reference


def _page_reference(spec, assignment, r, groups):
    """``specseq._page`` as a loop over every support label of every source rep.

    Builds ``monomial * n`` and one column vector per representative; the
    page engine's per-label images and column words are compared against it.
    """
    matrices, images = {}, {}
    image_terms = {}
    for gens in spec.fibre_gens.values():
        for g in gens:
            image = assignment.image_of(g, r)
            if image:
                image_terms[g] = image.sorted_terms()
    active = {spec.fibre_degree_of(g) for g in image_terms}
    for (s, t), group in sorted(groups.items()):
        if t not in active or t - r + 1 < 0 or group.dim == 0:
            continue
        target_bd = (s + r, t - r + 1)
        if s + t > spec.degree_bound:
            continue
        target = groups.get(target_bd)
        if target is None:
            continue
        source_reps = group.quotient_basis()
        target_reps = target.quotient_basis()
        target_index = {label: i for i, label in enumerate(target.labels)}
        n_labels = len(target.labels)
        coordinates = F2Matrix.from_columns(target_reps + list(target.boundaries), rows=n_labels)
        rep_mask = (1 << len(target_reps)) - 1
        columns, vectors = [], []
        for v in source_reps:
            bits = 0
            for i in v.support:
                monomial, gen = group.labels[i]
                for n in image_terms.get(gen, ()):
                    bits ^= 1 << target_index[(monomial * n, spec.unit_gen)]
            w = F2Vector(n_labels, bits)
            if not in_span(target.cycles, w):
                raise ValidationError(
                    f"d_{r} image at {target_bd} lies in a vanished subquotient: "
                    "inconsistent assignment"
                )
            coords = solve(coordinates, w)
            assert coords is not None
            columns.append(F2Vector(len(target_reps), coords.bits & rep_mask))
            vectors.append(w)
        matrix = F2Matrix.from_columns(columns, rows=len(target_reps))
        if matrix.rows and matrix.cols:
            matrices[(s, t)] = matrix
            images[(s, t)] = tuple(vectors)
    return Page(spec, assignment, r, groups, matrices, images)


@pytest.fixture
def page_reference():
    return _page_reference


def _turn_reference(page):
    """``specseq.turn_page`` re-reducing both halves of every group d_r touches.

    The page engine used this loop before it kept the half d_r leaves
    alone; every turned group's cycles and boundaries are compared against it.
    """
    r = page.r
    new_groups = {}
    for bd, group in sorted(page.groups.items()):
        s, t = bd
        m_in = page.differentials.get((s - r, t + r - 1))
        m_out = page.differentials.get(bd)
        if m_in is None and m_out is None:
            new_groups[bd] = group
            continue
        reps = group.quotient_basis()
        n = len(group.labels)
        incoming = []
        if m_in is not None:
            incoming = [_combine(n, reps, col) for col in m_in.transpose().row_bits]
        new_b = tuple(row_reduce(list(group.boundaries) + incoming))
        kept = reps
        if m_out is not None:
            kept = [_combine(n, reps, c.bits) for c in kernel_basis(m_out)]
        new_z = tuple(row_reduce(list(new_b) + kept))
        new_groups[bd] = PageGroup(group.labels, new_z, new_b)
    return _page(page.spec, page.assignment, r + 1, new_groups)


@pytest.fixture
def turn_reference():
    return _turn_reference


def _total_square_reference(table, m):
    """The total square of the monomial ``m`` as repeated convolution, from the unit up.

    Convolves in each generator's total once per unit of its exponent; the
    hit solver used this loop before it kept one Cartan step per monomial,
    and its totals are compared against it.
    """
    algebra = table.algebra
    total = {0: algebra.unit()}
    for (gen, degree), e in zip(algebra.generators, m.exponents):
        gen_total = {i: table.generator_sq(gen, i) for i in range(degree + 1)} if e else {}
        for _ in range(e):
            out = {}
            for a, pa in total.items():
                for b, pb in gen_total.items():
                    out[a + b] = out.get(a + b, Polynomial.zero()) + multiply(algebra, pa, pb)
            total = {i: p for i, p in out.items() if p}
    return total


@pytest.fixture
def total_square_reference():
    return _total_square_reference


def _rref_reference(words):
    """Full RREF after every insert, sorted once at return.

    The F_2 kernels used this loop before their pivot-dict core; every
    RREF output and every ``solve`` result is compared against it.
    """
    reduced = []
    for word in words:
        for pivot, row in reduced:
            if word >> pivot & 1:
                word ^= row
        if word == 0:
            continue
        pivot = (word & -word).bit_length() - 1
        reduced = [(p, r ^ word if r >> pivot & 1 else r) for p, r in reduced]
        reduced.append((pivot, word))
    reduced.sort()
    return reduced


def _solve_reference(m, b):
    """``solve`` read off the RREF of the augmented rows [m | b]."""
    augmented = (word | ((b.bits >> i & 1) << m.cols) for i, word in enumerate(m.row_bits))
    x = 0
    for pivot, row in _rref_reference(augmented):
        if pivot == m.cols:
            return None
        if row >> m.cols & 1:
            x |= 1 << pivot
    return F2Vector(m.cols, x)


@pytest.fixture
def rref_reference():
    return _rref_reference


@pytest.fixture
def solve_reference():
    return _solve_reference


def _validate_table_reference(table):
    """``validate_table`` as a loop over every entry once per generator.

    The one-pass validator replaced this loop; its violation lists, text
    and order included, are compared against it.
    """
    algebra = table.algebra
    violations = []
    for gen, degree in algebra.generators:
        unit = algebra.gen(gen)
        given = {i for g, i in table.action if g == gen}
        for i in sorted(given.union(range(degree + 1))):
            if i not in given:  # an absent slot up to the degree is missing too
                violations.append(Violation(gen, i, "missing", "entry is absent"))
                continue
            value = table.action[(gen, i)]
            if value is None:
                violations.append(
                    Violation(gen, i, "missing", "entry is marked user-supplied")
                )
                continue
            if i == 0 and value != unit:
                violations.append(
                    Violation(gen, 0, "sq0", "Sq^0 must fix the generator")
                )
            if i == degree and value != multiply(algebra, unit, unit):
                violations.append(
                    Violation(gen, degree, "squaring", "top square must be the square")
                )
            if i > degree and not value.is_zero():
                violations.append(
                    Violation(gen, i, "instability", f"must vanish above degree {degree}")
                )
            if not value.is_zero():
                try:
                    got = value.homogeneous_degree(algebra)
                except UsageError:
                    got = None
                if got is not None and i <= degree and got != degree + i:
                    violations.append(
                        Violation(
                            gen,
                            i,
                            "homogeneity",
                            f"image has degree {got}, expected {degree + i}",
                        )
                    )
                elif got is None:
                    violations.append(
                        Violation(gen, i, "homogeneity", "image is not homogeneous")
                    )
    return violations


@pytest.fixture
def validate_table_reference():
    return _validate_table_reference


def _assert_checked(*values):
    """Each F_2 value, or each in a collection (None skipped), equals its twin built by the
    checking public constructor, and a matrix's column words are the transpose of its rows."""
    for value in values:
        if isinstance(value, F2Vector):
            assert F2Vector(value.length, value.bits) == value
        elif isinstance(value, F2Matrix):
            assert F2Matrix(value.rows, value.cols, value.row_bits) == value
            assert value._column_words == _transpose(value.row_bits, value.cols)
        elif value is not None:
            _assert_checked(*value)


@pytest.fixture
def assert_checked():
    return _assert_checked
