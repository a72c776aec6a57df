"""Tests for graded polynomial algebras."""

import copy
import itertools
import pickle
import random

import pytest

from sseqlab.errors import UsageError, ValidationError
from sseqlab.graded import (
    Monomial,
    PolyAlgebraSpec,
    Polynomial,
    basis_in_degree,
    format_polynomial,
    multiply,
    parse_polynomial,
    poincare_dims,
)


BASE = PolyAlgebraSpec.from_pairs([("x_4", 4), ("x_6", 6), ("x_7", 7)])


# ---------------------------------------------------------------- oracles


def series_dims(degrees, n):
    """Coefficients of prod_i 1/(1 - t^d_i) truncated at n, by power series."""
    coeffs = [1] + [0] * n
    for d in degrees:
        # multiply by 1/(1 - t^d) = 1 + t^d + t^2d + ...
        out = coeffs[:]
        for k in range(d, n + 1):
            out[k] += out[k - d]
        coeffs = out
    return coeffs


def brute_force_monomials(degrees, d):
    """Exhaustive exponent enumeration up to the obvious bound."""
    found = set()
    ranges = [range(d // deg + 1) for deg in degrees]
    for exps in itertools.product(*ranges):
        if sum(e * deg for e, deg in zip(exps, degrees)) == d:
            found.add(exps)
    return found


def random_polynomial(rng, algebra, max_degree):
    terms = set()
    for d in range(max_degree + 1):
        for m in basis_in_degree(algebra, d):
            if rng.random() < 0.3:
                terms.add(m)
    return Polynomial(frozenset(terms))


# ---------------------------------------------------------------- bases


def test_basis_degree_six_is_x6():
    assert basis_in_degree(BASE, 6) == [Monomial((0, 1, 0))]


def test_basis_degree_five_is_empty():
    assert basis_in_degree(BASE, 5) == []


def test_basis_degree_zero_is_unit():
    assert basis_in_degree(BASE, 0) == [Monomial((0, 0, 0))]
    empty = PolyAlgebraSpec(())
    assert basis_in_degree(empty, 0) == [Monomial(())]


def test_basis_degree_twelve_matches_brute_force():
    got = {m.exponents for m in basis_in_degree(BASE, 12)}
    assert got == brute_force_monomials(BASE.degrees, 12)
    assert got == {(3, 0, 0), (0, 2, 0)}


def test_basis_order_is_deterministic_descending_lex():
    exps = [m.exponents for m in basis_in_degree(BASE, 12)]
    assert exps == sorted(exps, reverse=True)


# ---------------------------------------------------------------- dims


def test_poincare_dims_low_range():
    assert poincare_dims(BASE, 10) == [1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1]


def test_poincare_dims_empty_algebra():
    assert poincare_dims(PolyAlgebraSpec(()), 3) == [1, 0, 0, 0]


def test_poincare_dims_single_variable():
    one_var = PolyAlgebraSpec.from_pairs([("t", 1)])
    assert poincare_dims(one_var, 4) == [1, 1, 1, 1, 1]


def test_poincare_dims_match_series_oracle():
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(0, 4)
        degrees = tuple(rng.randint(1, 6) for _ in range(k))
        algebra = PolyAlgebraSpec.from_pairs(
            [(f"g{i}", d) for i, d in enumerate(degrees)]
        )
        n = rng.randint(0, 18)
        assert poincare_dims(algebra, n) == series_dims(degrees, n)


def test_vanishing_degrees_in_window():
    dims = poincare_dims(BASE, 10)
    assert {d for d in range(1, 11) if dims[d] == 0} == {1, 2, 3, 5, 9}


# ---------------------------------------------------------------- products


def test_square_of_generator():
    x6 = BASE.gen("x_6")
    assert multiply(BASE, x6, x6) == Polynomial.of(Monomial((0, 2, 0)))


def test_characteristic_two_squaring():
    x4, x6 = BASE.gen("x_4"), BASE.gen("x_6")
    s = x4 + x6
    assert multiply(BASE, s, s) == Polynomial.of(Monomial((2, 0, 0)), Monomial((0, 2, 0)))


def test_multiply_matches_term_by_term_oracle():
    rng = random.Random(11)
    for _ in range(50):
        p = random_polynomial(rng, BASE, 12)
        q = random_polynomial(rng, BASE, 12)
        # distribute and cancel by hand
        counts = {}
        for a in p.terms:
            for b in q.terms:
                m = tuple(x + y for x, y in zip(a.exponents, b.exponents))
                counts[m] = counts.get(m, 0) + 1
        want = frozenset(Monomial(m) for m, c in counts.items() if c % 2)
        assert multiply(BASE, p, q).terms == want


def test_multiply_associative_and_commutative():
    rng = random.Random(13)
    for _ in range(40):
        p = random_polynomial(rng, BASE, 12)
        q = random_polynomial(rng, BASE, 12)
        r = random_polynomial(rng, BASE, 12)
        assert multiply(BASE, p, q) == multiply(BASE, q, p)
        assert multiply(BASE, multiply(BASE, p, q), r) == multiply(
            BASE, p, multiply(BASE, q, r)
        )


def test_degree_additivity_on_homogeneous_parts():
    rng = random.Random(17)
    for _ in range(60):
        dp = rng.choice([0, 4, 6, 7, 8, 10])
        dq = rng.choice([0, 4, 6, 7, 8, 10])
        p = Polynomial(frozenset(basis_in_degree(BASE, dp)))
        q = Polynomial(frozenset(basis_in_degree(BASE, dq)))
        for m in multiply(BASE, p, q).terms:
            assert m.degree(BASE) == dp + dq


# ---------------------------------------------------------------- misc


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValidationError):
        PolyAlgebraSpec.from_pairs([("x", 2), ("x", 4)])


def test_zero_degree_generator_rejected():
    with pytest.raises(ValidationError):
        PolyAlgebraSpec.from_pairs([("x", 0)])


def test_polynomial_text_round_trip():
    for text in ["0", "1", "x_4", "x_4^2", "x_4*x_6", "x_4^2 + x_6^2", "x_7 + 1"]:
        p = parse_polynomial(BASE, text)
        assert parse_polynomial(BASE, format_polynomial(BASE, p)) == p


def test_parse_rejects_unknown_generator():
    with pytest.raises(ValidationError):
        parse_polynomial(BASE, "x_5")


def test_monomial_refuses_a_negative_exponent_and_accepts_no_generators():
    for exponents in ((-1,), (2, -1), (0, 0, -3)):
        with pytest.raises(UsageError, match="^negative exponent$"):
            Monomial(exponents)
    unit = Monomial(())
    assert unit.exponents == () and unit.is_unit()
    assert Monomial((0, 2)).exponents == (0, 2)


def test_records_built_from_lists_equal_their_tuple_twins():
    for built, twin in (
        (Monomial([1, 0]), Monomial((1, 0))),
        (PolyAlgebraSpec([("x", 2)]), PolyAlgebraSpec((("x", 2),))),
    ):
        assert built == twin and hash(built) == hash(twin)
        assert len({built, twin}) == 1
    assert Monomial([1, 0]).exponents == (1, 0)
    assert PolyAlgebraSpec([("x", 2)]).generators == (("x", 2),)


def test_a_repeated_monomial_cancels():
    m = Monomial((1, 0, 0))
    assert Polynomial.of(m, m).is_zero()
    assert Polynomial.of(m, m, m) == Polynomial.of(m)
    assert parse_polynomial(BASE, "x_4 + x_4").is_zero()
    assert parse_polynomial(BASE, "x_4 + x_6 + x_4") == Polynomial.of(Monomial((0, 1, 0)))


def test_the_zero_polynomial_has_degree_minus_one():
    assert Polynomial.zero().homogeneous_degree(BASE) == -1


def test_a_generator_free_algebra_holds_only_the_unit():
    empty = PolyAlgebraSpec(())
    [unit] = basis_in_degree(empty, 0)
    assert unit.exponents == () and unit.packed == 0 and unit.is_unit()
    assert basis_in_degree(empty, 1) == []


def test_a_zeroth_power_parses_to_the_unit():
    assert parse_polynomial(BASE, "x_4^0") == Polynomial.of(Monomial((0, 0, 0)))
    assert parse_polynomial(BASE, "x_4^0*x_6") == Polynomial.of(Monomial((0, 1, 0)))


# ---------------------------------------------------------------- packed monomials


def test_packed_is_injective_and_adds_under_products():
    rng = random.Random("packed-monomials")
    for length in range(5):
        seen = {}
        for _ in range(300):
            # small exponents collide often; ones near the 16-bit field edge test the width
            top = rng.choice((3, 1 << 15))
            a, b = (Monomial(tuple(rng.randint(0, top) for _ in range(length))) for _ in "ab")
            for m in (a, b):
                assert seen.setdefault(m.packed, m.exponents) == m.exponents
            product = a * b
            assert product.packed == a.packed + b.packed
            assert product == Monomial(tuple(map(sum, zip(a.exponents, b.exponents))))
            assert product.packed == Monomial(product.exponents).packed
            assert product.is_unit() == all(e == 0 for e in product.exponents)
        assert len(seen) > 200 or length == 0


def test_equality_hash_and_order_stay_those_of_the_exponent_vector():
    short, padded = Monomial((1,)), Monomial((1, 0))
    assert short.packed == padded.packed and short != padded
    assert len({short, padded}) == 2
    rng = random.Random("monomial-keys")
    for _ in range(200):
        a, b = (Monomial((rng.randint(0, 3), rng.randint(0, 3))) for _ in "ab")
        assert hash(a) == hash((a.exponents,))
        assert (a == b, a < b, a <= b) == (
            a.exponents == b.exponents, a.exponents < b.exponents, a.exponents <= b.exponents
        )


def test_a_monomial_is_slotted_and_survives_copy_and_pickle():
    m = Monomial((3, 0, 65535))
    assert not hasattr(m, "__dict__")
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and (clone.exponents, clone.packed) == (m.exponents, m.packed)
    with pytest.raises(AttributeError):
        m.packed = 0


def test_negative_and_too_wide_exponents_are_refused_by_name():
    with pytest.raises(UsageError, match="^negative exponent$"):
        Monomial((1, -1))
    with pytest.raises(UsageError, match="^exponent 65536 does not fit a 16-bit field$"):
        Monomial((0, 65536))
    assert Monomial((65535,)).packed == 65535
    with pytest.raises(UsageError, match="^exponent 65536 does not fit a 16-bit field$"):
        Monomial((65535, 2)) * Monomial((1, 0))
    too_far = PolyAlgebraSpec.from_pairs([("t", 1)])
    with pytest.raises(UsageError, match="^exponent 65536 does not fit a 16-bit field$"):
        basis_in_degree(too_far, 65536)


def test_monomials_of_different_lengths_do_not_multiply():
    with pytest.raises(UsageError, match="^cannot multiply monomials of 1 and 2 exponents$"):
        Monomial((1,)) * Monomial((1, 0))
    with pytest.raises(UsageError, match="^cannot multiply monomials of 2 and 0 exponents$"):
        Monomial((1, 1)) * Monomial(())
