"""Tests for the F_2 linear algebra core.

The oracles here (naive fraction-free elimination, exhaustive span
enumeration) are deliberately independent of the bitset implementation.
"""

import copy
import itertools
import pickle
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
        with monkeypatch.context() as patch:  # a count needs no back-substitution
            patch.setattr(f2, "_rref_words", lambda words: pytest.fail("rank ran a full RREF"))
            ranked = rank(m)
        got = (
            f2._rref_words(m.row_bits),
            row_reduce(vectors),
            ranked,
            kernel_basis(m),
            image_basis(m),
            [solve(m, b) for b in rhs],
        )
        with monkeypatch.context() as patch:
            patch.setattr(f2, "_rref_words", rref_reference)
            expected = (
                rref_reference(m.row_bits),
                [F2Vector(m.cols, word) for _pivot, word in rref_reference(m.row_bits)],
                len(rref_reference(m.row_bits)),
                kernel_basis(m),
                image_basis(m),
                [solve_reference(m, b) for b in rhs],
            )
        assert got == expected
        unsolvable += expected[-1][0] is None
        solvable += expected[-1][0] is not None
    assert solvable > 50 and unsolvable > 50


def test_a_full_rank_kernel_runs_no_back_substitution(monkeypatch, rref_reference):
    import sseqlab.f2 as f2

    rng = random.Random(2027)
    full = deficient = 0
    for m in _kernel_cases(rng):
        if len(rref_reference(m.row_bits)) == m.cols:
            with monkeypatch.context() as patch:
                patch.setattr(f2, "_rref_words", lambda words: pytest.fail("back-substitution ran"))
                assert kernel_basis(m) == []
            full += 1
        else:
            with monkeypatch.context() as patch:
                patch.setattr(f2, "_rref_words", rref_reference)
                expected = kernel_basis(m)
            assert kernel_basis(m) == expected and len(expected) > 0
            deficient += 1
    assert full > 50 and deficient > 50


def test_row_reduce_gives_back_the_inputs_already_in_rref(rref_reference):
    # the rows of a random RREF among zero vectors, repeats (the same object and equal twins)
    # and, in half the cases, random rows: the output is the reference's, and a row equal to
    # an input is that input object
    rng = random.Random(2028)
    given_back = all_given = 0
    for _ in range(400):
        cols = rng.randint(1, 24)
        words = [rng.getrandbits(cols) for _ in range(rng.randint(1, cols))]
        reduced = [F2Vector(cols, word) for _, word in rref_reference(words)]
        vectors = reduced + [F2Vector(cols, 0)] * rng.randint(1, 2)
        vectors += rng.choices(reduced, k=2) if reduced else []
        vectors += [F2Vector(cols, v.bits) for v in rng.sample(reduced, len(reduced) // 2)]
        noisy = rng.random() < 0.5
        vectors += [F2Vector(cols, rng.getrandbits(cols)) for _ in range(3 * noisy)]
        rng.shuffle(vectors)
        out = row_reduce(vectors)
        assert [(v.length, v.bits) for v in out] == [
            (cols, word) for _, word in rref_reference(v.bits for v in vectors)
        ]
        for row in out:
            twins = [v for v in vectors if v.bits == row.bits]
            assert not twins or any(row is v for v in twins)
            given_back += bool(twins)
        if not noisy:
            assert all(any(row is v for v in vectors) for row in out)
            all_given += 1
    assert given_back > 1000 and all_given > 150


def test_solve_keeps_one_elimination_per_matrix(monkeypatch, solve_reference):
    import sseqlab.f2 as f2

    eliminations = []
    original = f2._echelon

    def counted(words):
        eliminations.append(None)
        return original(words)

    monkeypatch.setattr(f2, "_echelon", counted)
    rng = random.Random(2027)
    solvable = unsolvable = 0
    for m in _kernel_cases(rng):
        if m.rows <= 6:
            rhs = [F2Vector(m.rows, bits) for bits in range(1 << m.rows)]
        else:
            rhs = [F2Vector(m.rows, rng.getrandbits(m.rows)) for _ in range(16)]
            rhs += [m.apply(F2Vector(m.cols, rng.getrandbits(m.cols))) for _ in range(16)]
        eliminations.clear()
        got = [solve(m, b) for b in rhs]
        assert len(eliminations) == 1
        expected = [solve_reference(m, b) for b in rhs]
        assert got == expected
        unsolvable += sum(x is None for x in expected)
        solvable += sum(x is not None for x in expected)
    assert solvable > 1000 and unsolvable > 1000


def test_kernel_basis_and_solve_read_one_column_echelon(monkeypatch, rref_reference):
    import sseqlab.f2 as f2

    eliminations = []
    original = f2._indexed_echelon

    def counted(words, width):
        eliminations.append(None)
        return original(words, width)

    monkeypatch.setattr(f2, "_indexed_echelon", counted)
    rng = random.Random(2031)
    checked = 0
    for m in _kernel_cases(rng):
        eliminations.clear()
        kernel = kernel_basis(m)
        solve(m, F2Vector(m.rows, rng.getrandbits(m.rows)))
        assert len(eliminations) == 1 and "_column_echelon" in vars(m)
        assert len(kernel) == m.cols - len(rref_reference(m.row_bits))
        assert all(m.apply(v).is_zero() for v in kernel)
        if m.cols <= 10:  # the RREF of every null vector, found by enumeration
            null = [x for x in range(1 << m.cols) if m.apply(F2Vector(m.cols, x)).is_zero()]
            assert [v.bits for v in kernel] == [word for _p, word in rref_reference(null)]
            checked += 1
    assert checked > 150


def test_kept_is_the_greedy_choice_on_random_word_lists(greedy_reference):
    import sseqlab.f2 as f2

    rng = random.Random(2032)
    repeated = zeros = 0
    for _ in range(2000):
        width = rng.randint(0, 16)
        words = []
        for _ in range(rng.randint(0, 24)):
            roll = rng.random()
            if roll < 0.15:
                words.append(0)
            elif roll < 0.3 and words:
                words.append(rng.choice(words))
            else:
                words.append(rng.getrandbits(width) & rng.getrandbits(width))
        zeros += 0 in words
        repeated += len(set(words)) < len(words)
        vectors = [F2Vector(width, word) for word in words]  # one object per index
        picked = greedy_reference([], vectors)
        assert [vectors[i] for i in f2._kept(words, width)] == picked
        assert [id(vectors[i]) for i in f2._kept(words, width)] == list(map(id, picked))
    assert zeros > 500 and repeated > 500


def test_from_columns_and_support_read_every_bit():
    rng = random.Random(2028)
    for _ in range(200):
        rows, cols = rng.randint(0, 40), rng.randint(0, 12)
        columns = [F2Vector(rows, rng.getrandbits(rows)) for _ in range(cols)]
        m = F2Matrix.from_columns(columns, rows=rows)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.columns() == columns
        for v in columns:
            assert v.support == tuple(i for i in range(rows) if v[i])
    with pytest.raises(UsageError):
        F2Matrix.from_columns([F2Vector(3), F2Vector(4)])


def test_vector_is_an_immutable_value():
    v = F2Vector(3, 5)
    assert v == F2Vector(3, 5) and F2Vector(length=3, bits=5) == v
    assert v != F2Vector(3, 4) and v != F2Vector(4, 5)
    assert v != (3, 5) and (3, 5) != v
    assert hash(v) == hash(F2Vector(3, 5)) == hash((3, 5))
    assert len({v, F2Vector(3, 5), F2Vector(3, 4)}) == 2
    assert repr(v) == "F2Vector(length=3, bits=5)"
    assert repr(F2Vector(0)) == "F2Vector(length=0, bits=0)"
    for name, value in (("bits", 1), ("length", 4), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(v, name, value)
    with pytest.raises(AttributeError):
        del v.bits
    assert v == F2Vector(3, 5)
    with pytest.raises(UsageError, match="^negative vector length -1$"):
        F2Vector(-1)
    for bits in (-1, 8):
        with pytest.raises(UsageError, match="^support index out of range$"):
            F2Vector(3, bits)


def test_vector_survives_copy_and_pickle():
    for v in (F2Vector(0), F2Vector(3, 5), F2Vector(200, 1 << 199 | 7)):
        for twin in (
            copy.copy(v),
            copy.deepcopy(v),
            *(pickle.loads(pickle.dumps(v, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ):
            assert type(twin) is F2Vector
            assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)
            with pytest.raises(AttributeError):
                twin.bits = 0
    nested = {"reps": [F2Vector(3, 1), F2Vector(3, 6)]}
    assert copy.deepcopy(nested) == nested


def test_negative_support_index_is_a_usage_error():
    with pytest.raises(UsageError, match="^support index out of range$"):
        F2Vector.unit(3, -1)
    with pytest.raises(UsageError, match="^support index out of range$"):
        F2Vector.from_support(3, [0, -1])
    with pytest.raises(UsageError, match="^support index out of range$"):
        F2Vector.unit(3, 3)
    assert F2Vector.from_support(3, [0, 2, 2]) == F2Vector(3, 5)


def test_in_span_agrees_with_reduce_against_on_random_echelons():
    rng = random.Random(1017)
    seen = set()
    for _ in range(400):
        n = rng.randint(0, 12)
        basis = row_reduce([F2Vector(n, rng.getrandbits(n)) for _ in range(rng.randint(0, n))])
        if rng.random() < 0.5:  # an echelon that is not RREF: a residue appended to it
            extra = reduce_against(basis, F2Vector(n, rng.getrandbits(n)))
            basis += [extra] if not extra.is_zero() else []
        inside = F2Vector(n)
        for b in basis:
            inside = inside ^ b if rng.random() < 0.5 else inside
        for v in (F2Vector(n), inside, F2Vector(n, rng.getrandbits(n))):
            expected = reduce_against(basis, v).is_zero()
            assert in_span(basis, v) == expected
            seen.add((bool(basis), v.is_zero(), expected))
    assert {(False, True, True), (True, True, True), (True, False, True), (True, False, False)} <= seen


def test_matrix_refuses_a_row_outside_its_columns_and_accepts_no_rows():
    for rows in ((-1,), (0, 1 << 3), (1 << 3, 0), (0, -2)):
        with pytest.raises(UsageError, match="^row entries out of column range$"):
            F2Matrix(len(rows), 3, rows)
    with pytest.raises(UsageError, match="^row entries out of column range$"):
        F2Matrix(1, 0, (1,))
    assert F2Matrix(0, 3, ()).row_bits == () and F2Matrix(0, 0, ()).is_zero()
    assert F2Matrix(2, 3, (0b111, 0)).row_bits == (0b111, 0)


def _columns_reference(m):
    """The columns of m read entry by entry from its rows."""
    return [
        F2Vector(m.rows, sum((word >> j & 1) << i for i, word in enumerate(m.row_bits)))
        for j in range(m.cols)
    ]


def test_seeded_and_derived_column_words_agree(solve_reference):
    rng = random.Random(2029)
    for derived in _kernel_cases(rng):
        columns = _columns_reference(derived)
        seeded = F2Matrix.from_columns(columns, rows=derived.rows)
        assert seeded == derived
        rhs = [
            F2Vector(derived.rows, rng.getrandbits(derived.rows)),
            derived.apply(F2Vector(derived.cols, rng.getrandbits(derived.cols))),
        ]
        expected_transpose = F2Matrix(derived.cols, derived.rows, tuple(c.bits for c in columns))
        for m in (seeded, derived):
            assert [solve(m, b) for b in rhs] == [solve_reference(derived, b) for b in rhs]
            assert [m.column(j) for j in range(m.cols)] == m.columns() == columns
            assert m.transpose() == expected_transpose
        assert image_basis(seeded) == image_basis(derived)


def test_solve_reads_only_the_pivots_its_right_hand_side_meets(monkeypatch):
    import sseqlab.f2 as f2

    class CountingDict(dict):
        """A pivot dict that counts each entry it is asked for or walks."""

        reads = 0

        def get(self, key, default=None):
            CountingDict.reads += 1
            return super().get(key, default)

        def __getitem__(self, key):
            CountingDict.reads += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            CountingDict.reads += 1
            return super().__contains__(key)

        def __iter__(self):
            CountingDict.reads += len(self)
            return super().__iter__()

        def items(self):
            CountingDict.reads += len(self)
            return super().items()

        def values(self):
            CountingDict.reads += len(self)
            return super().values()

    original = f2._echelon
    monkeypatch.setattr(f2, "_echelon", lambda words: CountingDict(original(words)))
    n = 64
    m = F2Matrix(n, n, tuple(1 << (n - 1 - i) for i in range(n)))  # the identity, columns reversed
    for i in (0, 17, 63, 17):
        CountingDict.reads = 0
        assert solve(m, F2Vector.unit(n, i)) == F2Vector.unit(n, n - 1 - i)
        assert 1 <= CountingDict.reads <= 2


def test_row_refuses_an_index_outside_its_rows():
    m = F2Matrix(2, 3, (1, 6))
    assert [m.row(0), m.row(1)] == [F2Vector(3, 1), F2Vector(3, 6)]
    for i in (-1, 2):
        with pytest.raises(UsageError, match=f"^row {i} out of range$"):
            m.row(i)
    with pytest.raises(UsageError, match="^row 0 out of range$"):
        F2Matrix(0, 3, ()).row(0)


def test_column_and_coordinate_refuse_an_index_outside_their_range():
    m = F2Matrix(2, 3, (1, 6))
    assert m.column(2) == F2Vector(2, 0b10)
    for j in (-1, 3):
        with pytest.raises(UsageError, match=f"^column {j} out of range$"):
            m.column(j)
    v = F2Vector(3, 0b111)
    assert [v[0], v[2]] == [1, 1]
    for i in (-1, 3):
        with pytest.raises(UsageError, match=f"^coordinate {i} out of range for length 3$"):
            v[i]


def test_trusted_results_equal_their_checked_twins(assert_checked):
    rng = random.Random(2030)
    solvable = 0
    for m in _kernel_cases(rng):
        other = F2Matrix(m.cols, 5, tuple(rng.getrandbits(5) for _ in range(m.cols)))
        inside = m.apply(F2Vector(m.cols, rng.getrandbits(m.cols)))
        solved = solve(m, inside)
        solvable += solved is not None
        columns = m.columns()
        assert_checked(
            row_reduce([m.row(i) for i in range(m.rows)]), kernel_basis(m), image_basis(m),
            solved, solve(m, F2Vector(m.rows, rng.getrandbits(m.rows))),
            [m.column(j) for j in range(m.cols)], columns, m.transpose(),
            m.transpose().transpose(), F2Matrix.from_columns(columns, m.rows),
            F2Matrix.from_columns([], m.rows), m.matmul(other), m.transpose().matmul(m),
        )
    assert solvable == 400


# ---------------------------------------------------------------- constructors and forms


def test_from_support_sets_exactly_its_indices():
    assert F2Vector.from_support(6, [1, 4]).bits == 0b10010
    assert F2Vector.from_support(6, []).is_zero()
    assert F2Vector.from_support(3, [2, 2]).bits == 0b100  # a repeat sets its bit once


def test_matmul_is_the_entrywise_product_mod_two():
    rng = random.Random(2032)
    for _ in range(100):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = F2Matrix(n, k, [rng.getrandbits(k) for _ in range(n)])
        b = F2Matrix(k, m, [rng.getrandbits(m) for _ in range(k)])
        product = a.matmul(b)
        assert (product.rows, product.cols) == (n, m)
        for i in range(n):
            for j in range(m):
                expected = sum(a.row(i)[l] * b.row(l)[j] for l in range(k)) % 2
                assert product.row(i)[j] == expected, (a, b, i, j)


def test_from_rows_and_from_columns_infer_their_sizes():
    assert F2Matrix.from_rows([]) == F2Matrix(0, 0, ())
    assert F2Matrix.from_rows([], cols=3) == F2Matrix(0, 3, ())
    assert F2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]) == F2Matrix(2, 3, (0b101, 0b110))
    one = F2Matrix.from_columns([F2Vector(3, 0b101)])
    assert (one.rows, one.cols, one.row_bits) == (3, 1, (1, 0, 1))


def test_vectors_and_matrices_print_their_entries_lowest_index_first():
    assert str(F2Vector(5, 0b00110)) == "01100"
    assert str(F2Vector(0)) == ""
    assert str(F2Matrix.from_rows([[1, 0, 0], [0, 1, 1]])) == "100\n011"
    assert str(F2Matrix(0, 2, ())) == ""
