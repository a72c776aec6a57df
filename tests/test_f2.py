"""Tests for the F_2 linear algebra core.

The oracles here (naive fraction-free elimination, exhaustive span
enumeration) are deliberately independent of the bitset implementation.
"""

import itertools
import random

import pytest

from sseqlab.errors import InvariantBreach, UsageError
from sseqlab.f2 import (
    F2Matrix,
    F2Vector,
    image_basis,
    in_span,
    kernel_basis,
    quotient_dim,
    rank,
    reduce_against,
    row_reduce,
    solve,
)


# ---------------------------------------------------------------- oracles


def naive_rank(entries):
    """Gaussian elimination on lists of 0/1 ints, written before the engine."""
    m = [list(row) for row in entries]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] == 1), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(n_rows):
            if i != r and m[i][c] == 1:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        r += 1
    return r


def exhaustive_column_span(matrix):
    """Set of all 2^cols column sums, as bit tuples of length rows."""
    cols = [tuple(matrix.column(j)[i] for i in range(matrix.rows)) for j in range(matrix.cols)]
    span = set()
    for picks in itertools.product([0, 1], repeat=matrix.cols):
        acc = [0] * matrix.rows
        for pick, col in zip(picks, cols):
            if pick:
                acc = [(a + c) % 2 for a, c in zip(acc, col)]
        span.add(tuple(acc))
    return span


def random_matrix(rng, rows, cols, density=0.5):
    return F2Matrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


# ---------------------------------------------------------------- rank


def test_rank_identity():
    assert rank(F2Matrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(F2Matrix.zero(4, 6)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank(F2Matrix.from_rows(entries)) == naive_rank(entries)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(400):
        m = random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
        assert rank(m) == rank(m.transpose())


# ---------------------------------------------------------------- kernel


def test_kernel_of_identity_is_empty():
    assert kernel_basis(F2Matrix.identity(3)) == []


def test_kernel_of_sum_relation():
    m = F2Matrix.from_rows([[1, 1]])
    assert kernel_basis(m) == [F2Vector.from_support(2, [0, 1])]


def test_kernel_multiply_back_and_count():
    rng = random.Random(23)
    for _ in range(300):
        m = random_matrix(rng, 6, 4)
        basis = kernel_basis(m)
        assert len(basis) == 4 - rank(m)
        for v in basis:
            assert m.apply(v).is_zero()
        assert len(row_reduce(basis)) == len(basis)


# ---------------------------------------------------------------- image


def test_image_of_zero_matrix_is_empty():
    assert image_basis(F2Matrix.zero(3, 2)) == []


def test_image_of_identity_is_standard_basis():
    assert image_basis(F2Matrix.identity(3)) == [F2Vector.unit(3, i) for i in range(3)]


def test_image_span_equals_exhaustive_enumeration():
    rng = random.Random(31)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 10))
        basis = image_basis(m)
        assert len(basis) == rank(m)
        enumerated = exhaustive_column_span(m)
        spanned = exhaustive_column_span(F2Matrix.from_columns(basis, rows=m.rows))
        assert spanned == enumerated


# ---------------------------------------------------------------- solve


def test_solve_identity():
    x = solve(F2Matrix.identity(3), F2Vector.unit(3, 1))
    assert x == F2Vector.unit(3, 1)


def test_solve_zero_matrix_nonzero_rhs():
    assert solve(F2Matrix.zero(2, 3), F2Vector.unit(2, 0)) is None


def test_solve_dimension_mismatch_raises():
    with pytest.raises(UsageError):
        solve(F2Matrix.identity(3), F2Vector.unit(2, 0))


def test_solve_consistent_systems_by_substitution():
    rng = random.Random(47)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        seed = F2Vector(m.cols, rng.getrandbits(m.cols))
        b = m.apply(seed)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_solve_detects_inconsistency():
    # rows force x0 = 0 and x0 = 1 simultaneously
    m = F2Matrix.from_rows([[1], [1]])
    assert solve(m, F2Vector.from_support(2, [0])) is None


# ---------------------------------------------------------------- quotient


def test_quotient_dim_trivial_cases():
    e1, e2 = F2Vector.unit(2, 0), F2Vector.unit(2, 1)
    assert quotient_dim([e1, e2], []) == 2
    assert quotient_dim([e1, e2], [e1]) == 1


def test_quotient_dim_matches_rank_difference():
    rng = random.Random(59)
    for _ in range(200):
        dim = rng.randint(1, 8)
        space = [F2Vector(dim, rng.getrandbits(dim)) for _ in range(rng.randint(1, 6))]
        # build a genuinely nested subspace from random combinations
        sub = []
        for _ in range(rng.randint(0, 4)):
            acc = F2Vector(dim, 0)
            for v in space:
                if rng.random() < 0.5:
                    acc = acc ^ v
            sub.append(acc)
        got = quotient_dim(space, sub)
        want = rank(F2Matrix(len(space), dim, tuple(v.bits for v in space))) - rank(
            F2Matrix(len(sub), dim, tuple(v.bits for v in sub))
        )
        assert got == want


def test_quotient_dim_rejects_escaping_subspace():
    e1, e2 = F2Vector.unit(2, 0), F2Vector.unit(2, 1)
    with pytest.raises(InvariantBreach):
        quotient_dim([e1], [e2])


# ---------------------------------------------------------------- properties


def test_rank_nullity_across_random_sample():
    rng = random.Random(67)
    for _ in range(500):
        m = random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_every_column_lies_in_image_span():
    rng = random.Random(71)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        basis = image_basis(m)
        for col in m.columns():
            assert in_span(basis, col)


def test_reduce_against_insertion_ordered_echelon():
    # rows in pivot-unsorted insertion order; an earlier row may carry a
    # later row's pivot bit, so the basis is an echelon but not RREF
    rng = random.Random(89)
    non_rref = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        pivots = rng.sample(range(n), rng.randint(1, min(n, 5)))
        rows = []
        for k, p in enumerate(pivots):
            word = rng.getrandbits(n) >> (p + 1) << (p + 1) | 1 << p
            for q in pivots[:k]:
                word &= ~(1 << q)
            rows.append(F2Vector(n, word))
        non_rref += rows != row_reduce(rows)
        span = exhaustive_column_span(F2Matrix.from_columns(rows, rows=n))
        for bits in range(1 << n):
            v = F2Vector(n, bits)
            inside = tuple(v[i] for i in range(n)) in span
            assert reduce_against(rows, v).is_zero() == inside
            assert in_span(rows, v) == inside
    assert non_rref > 100


def test_row_reduce_is_canonical():
    rng = random.Random(83)
    for _ in range(200):
        dim = rng.randint(1, 10)
        vecs = [F2Vector(dim, rng.getrandbits(dim)) for _ in range(rng.randint(1, 6))]
        basis = row_reduce(vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert row_reduce(shuffled) == basis
        # re-reducing a basis is a fixed point
        assert row_reduce(basis) == basis


# ---------------------------------------------------------------- kernel core


def _kernel_cases(rng):
    """Seeded matrices: wide, tall and square, sparse or dense, with zero and repeated rows."""
    for _ in range(400):
        shape = rng.choice(("wide", "tall", "square"))
        if shape == "wide":
            rows, cols = rng.randint(1, 6), rng.randint(10, 70)
        elif shape == "tall":
            rows, cols = rng.randint(10, 70), rng.randint(1, 6)
        else:
            rows = cols = rng.randint(1, 24)
        sparse = rng.random() < 0.5
        words = []
        for _ in range(rows):
            word = rng.getrandbits(cols)
            if sparse:
                word &= rng.getrandbits(cols) & rng.getrandbits(cols)
            roll = rng.random()
            if roll < 0.15:
                word = 0
            elif roll < 0.35 and words:
                word = rng.choice(words)
            words.append(word)
        yield F2Matrix(rows, cols, tuple(words))


def test_kernels_equal_the_full_rref_reference(monkeypatch, rref_reference, solve_reference):
    import sseqlab.f2 as f2

    rng = random.Random(2026)
    solvable = unsolvable = 0
    for m in _kernel_cases(rng):
        vectors = [m.row(i) for i in range(m.rows)]
        inside = m.apply(F2Vector(m.cols, rng.getrandbits(m.cols)))
        rhs = [F2Vector(m.rows, rng.getrandbits(m.rows)), inside]
        got = (
            f2._rref_words(m.row_bits),
            row_reduce(vectors),
            rank(m),
            kernel_basis(m),
            image_basis(m),
            [solve(m, b) for b in rhs],
        )
        with monkeypatch.context() as patch:
            patch.setattr(f2, "_rref_words", rref_reference)
            expected = (
                rref_reference(m.row_bits),
                row_reduce(vectors),
                rank(m),
                kernel_basis(m),
                image_basis(m),
                [solve_reference(m, b) for b in rhs],
            )
        assert got == expected
        unsolvable += expected[-1][0] is None
        solvable += expected[-1][0] is not None
    assert solvable > 50 and unsolvable > 50
