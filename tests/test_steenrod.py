"""Tests for the squaring-operation tables and the hit solver.

The one-variable oracles (binomial coefficients mod 2, brute-force hit
enumeration) were written against the closed form before the engine
and stay independent of it.
"""

import copy
import itertools
import math
import pickle
import random
import re
import sys
from pathlib import Path

import pytest

from sseqlab.config import load_config
from sseqlab.errors import UsageError, ValidationError
from sseqlab.f2 import F2Vector, row_reduce
from sseqlab.graded import (
    Monomial,
    PolyAlgebraSpec,
    Polynomial,
    basis_in_degree,
    multiply,
)
from sseqlab.steenrod import (
    SteenrodTable,
    _total_square_monomial,
    hit_quotient,
    sq,
    suggest_g2_table,
    table_from_entries,
    validate_table,
)

ONE_VAR = PolyAlgebraSpec.from_pairs([("t", 1)])


def one_var_table():
    return table_from_entries(ONE_VAR, {"t": {0: ONE_VAR.gen("t")}})


def t_power(n):
    return Polynomial.of(Monomial((n,)))


# ---------------------------------------------------------------- oracles


def binom_mod2(n, i):
    return math.comb(n, i) % 2


def lucas_mod2(n, i):
    """Lucas' theorem at the prime 2: C(n,i) is odd iff i's bits sit inside n's."""
    return 1 if (n & i) == i else 0


def test_oracle_self_check_lucas_vs_comb():
    for n in range(0, 33):
        for i in range(0, 33):
            assert binom_mod2(n, i) == lucas_mod2(n, i)


def one_var_hit_oracle(bound):
    """Brute force: t^d is hit iff some Sq^i (0 < i <= d-i) reaches it.

    Sq^i(t^{d-i}) = C(d-i, i) t^d, so degree d is hit exactly when one
    of those binomial coefficients is odd.  Degree 0 is never hit.
    """
    non_hit = []
    for d in range(bound + 1):
        hit = any(binom_mod2(d - i, i) == 1 for i in range(1, d // 2 + 1))
        if not hit:
            non_hit.append(d)
    return non_hit


# ---------------------------------------------------------------- validation


def test_valid_one_variable_table():
    assert validate_table(one_var_table()) == []


def test_sq0_violation_detected():
    t = ONE_VAR.gen("t")
    table = table_from_entries(ONE_VAR, {"t": {0: multiply(ONE_VAR, t, t)}})
    kinds = {v.kind for v in validate_table(table)}
    assert "sq0" in kinds


def test_top_square_violation_detected():
    table = table_from_entries(ONE_VAR, {"t": {1: ONE_VAR.gen("t")}})
    kinds = {v.kind for v in validate_table(table)}
    assert "squaring" in kinds


def test_homogeneity_violation_detected():
    algebra = PolyAlgebraSpec.from_pairs([("x_4", 4)])
    bad = table_from_entries(algebra, {"x_4": {2: algebra.gen("x_4")}})
    violations = validate_table(bad)
    assert any(v.kind == "homogeneity" and v.i == 2 for v in violations)


def test_instability_violation_detected():
    table = table_from_entries(ONE_VAR, {"t": {3: t_power(4)}})
    kinds = {v.kind for v in validate_table(table)}
    assert "instability" in kinds


def test_scaffold_marks_unforced_entries():
    scaffold = suggest_g2_table()
    missing = set(scaffold.missing_entries())
    assert ("x_4", 2) in missing
    assert ("x_4", 0) not in missing
    assert ("x_4", 4) not in missing
    # forced values in place
    x4 = scaffold.algebra.gen("x_4")
    assert scaffold.generator_sq("x_4", 4) == multiply(scaffold.algebra, x4, x4)
    assert scaffold.generator_sq("x_6", 7).is_zero()
    violations = validate_table(scaffold)
    assert violations and all(v.kind == "missing" for v in violations)


def _random_table(rng):
    """A table over 1-3 generators whose names do not sort in generator order.

    Each slot Sq^i, i <= degree + 2, is omitted, marked missing, given its
    forced or a homogeneous value, or given a random polynomial, which may
    be zero, of the wrong degree or not homogeneous; a stray entry on an
    undeclared generator is sometimes added.
    """
    names = rng.sample(["z", "b", "x_4", "a", "y_2"], rng.randint(1, 3))
    algebra = PolyAlgebraSpec.from_pairs((name, rng.randint(1, 4)) for name in names)

    def polynomial(*degrees):
        terms = set()
        for d in degrees:
            basis = basis_in_degree(algebra, d)
            terms.update(rng.sample(basis, rng.randint(1, min(2, len(basis)))) if basis else ())
        return Polynomial(frozenset(terms))

    def scramble():
        return polynomial(*(rng.randint(0, 10) for _ in range(rng.randint(0, 2))))

    action = {}
    for gen, degree in algebra.generators:
        unit = algebra.gen(gen)
        for i in range(degree + 3):
            roll = rng.random()
            if roll < 0.1:
                continue
            if roll < 0.25:
                action[(gen, i)] = None
            elif roll < 0.6:
                forced = {0: unit, degree: multiply(algebra, unit, unit)}
                action[(gen, i)] = forced.get(
                    i, Polynomial.zero() if i > degree else polynomial(degree + i)
                )
            else:
                action[(gen, i)] = scramble()
    if rng.random() < 0.2:
        action[("stray", 1)] = scramble()
    return SteenrodTable(algebra, action)


def test_validate_table_matches_the_per_generator_loop(validate_table_reference):
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(400):
        table = _random_table(rng)
        expected = validate_table_reference(table)
        assert validate_table(table) == expected
        assert [str(v) for v in validate_table(table)] == [str(v) for v in expected]
        kinds.update((v.kind, re.sub(r"\d+", "N", v.message)) for v in expected)
    assert kinds == {
        ("missing", "entry is marked user-supplied"),
        ("missing", "entry is absent"),
        ("sq0", "Sq^N must fix the generator"),
        ("squaring", "top square must be the square"),
        ("instability", "must vanish above degree N"),
        ("homogeneity", "image has degree N, expected N"),
        ("homogeneity", "image is not homogeneous"),
    }


def test_sq_refuses_incomplete_table():
    with pytest.raises(ValidationError):
        sq(suggest_g2_table(), 2, Polynomial.of(Monomial((1, 0, 0))))


def test_an_omitted_entry_is_reported_and_refused():
    algebra = PolyAlgebraSpec.from_pairs([("x", 2)])
    x = algebra.gen("x")
    table = SteenrodTable(algebra, {("x", 0): x, ("x", 2): multiply(algebra, x, x)})
    assert table.missing_entries() == [("x", 1)]
    assert [str(v) for v in validate_table(table)] == ["Sq^1(x): missing: entry is absent"]
    with pytest.raises(ValidationError, match=r"Sq\^1\(x\): missing"):
        sq(table, 1, x)
    with pytest.raises(ValidationError, match=r"Sq\^1\(x\): missing"):
        hit_quotient(table, 4)


def test_missing_entries_are_the_missing_violations():
    past_degree = table_from_entries(ONE_VAR, {"t": {3: None}})  # None above deg t = 1
    tables = [
        suggest_g2_table(),
        load_config(Path(__file__).parent.parent / "onevar.cfg").steenrod,
        load_config(Path(__file__).parent / "data" / "g2_steenrod.cfg").steenrod,
        past_degree,
    ]
    for table in tables:
        missing = [(v.generator, v.i) for v in validate_table(table) if v.kind == "missing"]
        assert table.missing_entries() == missing
    assert past_degree.missing_entries() == [("t", 3)]
    assert [str(v) for v in validate_table(past_degree)] == [
        "Sq^3(t): missing: entry is marked user-supplied"
    ]


def test_negative_squaring_indices_are_refused_by_name():
    with pytest.raises(ValidationError, match="^negative squaring index for t$"):
        table_from_entries(ONE_VAR, {"t": {-1: ONE_VAR.gen("t")}})
    with pytest.raises(UsageError, match="^squaring index must be nonnegative$"):
        sq(one_var_table(), -1, t_power(1))


def test_sq_refuses_a_monomial_of_another_algebra():
    with pytest.raises(UsageError, match="^monomial has 2 exponents for 1 generators$"):
        sq(one_var_table(), 1, Polynomial.of(Monomial((1, 1))))
    with pytest.raises(UsageError, match="^monomial has 0 exponents for 1 generators$"):
        sq(one_var_table(), 0, Polynomial.of(Monomial(())))


# ---------------------------------------------------------------- squaring


def test_sq0_is_identity_on_random_polynomials():
    rng = random.Random(3)
    table = one_var_table()
    for _ in range(30):
        terms = frozenset(Monomial((rng.randint(0, 20),)) for _ in range(rng.randint(0, 5)))
        p = Polynomial(terms)
        assert sq(table, 0, p) == p


def test_one_variable_closed_form():
    table = one_var_table()
    for n in range(0, 33):
        for i in range(0, 33 - n):
            got = sq(table, i, t_power(n))
            want = t_power(n + i) if binom_mod2(n, i) else Polynomial.zero()
            assert got == want, (n, i)


def test_top_square_of_homogeneous_elements():
    algebra = PolyAlgebraSpec.from_pairs([("a", 1), ("b", 2)])
    table = table_from_entries(
        algebra, {"a": {}, "b": {1: Polynomial.zero()}}
    )
    for d in range(0, 13):
        for m in basis_in_degree(algebra, d):
            p = Polynomial.of(m)
            assert sq(table, d, p) == multiply(algebra, p, p)


def test_cartan_rule_on_products():
    algebra = PolyAlgebraSpec.from_pairs([("a", 1), ("b", 2)])
    table = table_from_entries(
        algebra, {"b": {1: Polynomial.of(Monomial((1, 1)))}}  # Sq^1(b) = a*b
    )
    rng = random.Random(7)
    monomials = [m for d in range(0, 7) for m in basis_in_degree(algebra, d)]
    for _ in range(60):
        p = Polynomial(frozenset(m for m in monomials if rng.random() < 0.25))
        q = Polynomial(frozenset(m for m in monomials if rng.random() < 0.25))
        for i in range(0, 7):
            lhs = sq(table, i, multiply(algebra, p, q))
            rhs = Polynomial.zero()
            for a in range(i + 1):
                rhs = rhs + multiply(algebra, sq(table, a, p), sq(table, i - a, q))
            assert lhs == rhs


def test_factorization_independence():
    # the same monomial reached through different factorizations
    algebra = PolyAlgebraSpec.from_pairs([("a", 1), ("b", 2)])
    table = table_from_entries(
        algebra, {"b": {1: Polynomial.of(Monomial((1, 1)))}}
    )
    m = Polynomial.of(Monomial((2, 2)))  # a^2 b^2
    a2 = Polynomial.of(Monomial((2, 0)))
    b2 = Polynomial.of(Monomial((0, 2)))
    ab = Polynomial.of(Monomial((1, 1)))
    for i in range(0, 7):
        direct = sq(table, i, m)
        via_a2_b2 = Polynomial.zero()
        via_ab_ab = Polynomial.zero()
        for a in range(i + 1):
            via_a2_b2 = via_a2_b2 + multiply(
                algebra, sq(table, a, a2), sq(table, i - a, b2)
            )
            via_ab_ab = via_ab_ab + multiply(
                algebra, sq(table, a, ab), sq(table, i - a, ab)
            )
        assert direct == via_a2_b2 == via_ab_ab


def outcome(fn, *args):
    """The result, or the class of the usage error raised."""
    try:
        return fn(*args)
    except UsageError:
        return UsageError


def test_total_squares_match_the_repeated_convolution(total_square_reference):
    # random tables whose only violations are missing entries, which both sides refuse
    rng = random.Random("total-squares")
    drawn = (_random_table(rng) for _ in range(1000))
    missing_only = [t for t in drawn if {v.kind for v in validate_table(t)} <= {"missing"}]
    messages = [{v.message for v in validate_table(t)} for t in missing_only]
    assert len(missing_only) >= 10 and set() in messages  # some validate
    assert any("entry is absent" in m for m in messages)  # some omit an entry
    three = table_from_entries(PolyAlgebraSpec.from_pairs([(f"x_{i}", 1) for i in (1, 2, 3)]))
    onevar = load_config(Path(__file__).parent.parent / "onevar.cfg").steenrod
    for table in [onevar, three, *missing_only]:
        monomials = [m for d in range(13) for m in basis_in_degree(table.algebra, d)]
        expected = [outcome(total_square_reference, table, m) for m in monomials]
        # upwards each monomial is one step from a kept total; downwards the walk is long
        for order in (1, -1):
            fresh = copy.copy(table)  # a rebuilt table keeps only the unit's total
            got = [outcome(_total_square_monomial, fresh, m) for m in monomials[::order]]
            assert got[::order] == expected


def test_sq_of_a_high_power_needs_no_recursion():
    table = one_var_table()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = sq(table, 8, t_power(200))  # C(200, 8) is odd
    finally:
        sys.setrecursionlimit(limit)
    assert got == t_power(208)


# ---------------------------------------------------------------- hits


def test_one_variable_hit_pattern():
    report = hit_quotient(one_var_table(), 31)
    assert report.non_hit_degrees() == [0, 1, 3, 7, 15, 31]
    assert report.non_hit_degrees() == one_var_hit_oracle(31)
    for row in report.rows:
        assert row.quotient_dim in (0, 1)


def test_hit_quotient_at_bound_zero_is_the_unit_row_and_refuses_below():
    report = hit_quotient(one_var_table(), 0)
    assert [(row.degree, row.total_dim, row.hit_dim, row.quotient_dim) for row in report.rows] == [
        (0, 1, 0, 1)
    ]
    assert report.rows[0].representatives == (Monomial((0,)),)
    with pytest.raises(UsageError, match="^bound must be nonnegative$"):
        hit_quotient(one_var_table(), -1)


def test_degree_one_generator_never_hit():
    report = hit_quotient(one_var_table(), 1)
    assert report.rows[1].quotient_dim == 1
    assert report.rows[1].representatives == (Monomial((1,)),)


def test_trivial_action_degree_four_generator():
    algebra = PolyAlgebraSpec.from_pairs([("g", 4)])
    table = table_from_entries(
        algebra,
        {"g": {1: Polynomial.zero(), 2: Polynomial.zero(), 3: Polynomial.zero()}},
    )
    report = hit_quotient(table, 8)
    degree8 = report.rows[8]
    # g^2 is hit by the top square of g
    assert degree8.total_dim == 1
    assert degree8.hit_dim == 1
    assert degree8.quotient_dim == 0
    assert report.rows[4].quotient_dim == 1


def test_hit_accounting_identity():
    report = hit_quotient(one_var_table(), 31)
    for row in report.rows:
        assert row.hit_dim + row.quotient_dim == row.total_dim
        assert len(row.representatives) == row.quotient_dim


def reference_representatives(table, bound, greedy_reference):
    """Per degree, the monomials the re-reducing greedy loop keeps."""
    out = []
    for d in range(bound + 1):
        basis = basis_in_degree(table.algebra, d)
        index = {m: j for j, m in enumerate(basis)}
        hit_vectors = []
        for i in range(1, d + 1):
            for m in basis_in_degree(table.algebra, d - i):
                bits = 0
                for term in sq(table, i, Polynomial.of(m)).terms:
                    bits ^= 1 << index[term]
                hit_vectors.append(F2Vector(len(basis), bits))
        units = [F2Vector.unit(len(basis), j) for j in range(len(basis))]
        picked = greedy_reference(row_reduce(hit_vectors), units)
        out.append(tuple(basis[v.support[0]] for v in picked))
    return out


@pytest.mark.parametrize(
    "table, bound",
    [
        (load_config(Path(__file__).parent.parent / "onevar.cfg").steenrod, 31),
        (table_from_entries(PolyAlgebraSpec.from_pairs([("a", 1), ("b", 1)]), {}), 10),
        (table_from_entries(PolyAlgebraSpec.from_pairs([("a", 1), ("b", 1), ("c", 1)]), {}), 12),
        (load_config(Path(__file__).parent / "data" / "g2_steenrod.cfg").steenrod, 21),
    ],
    ids=["onevar", "two_variables", "three_variables", "g2_borel_wu"],
)
def test_hit_representatives_match_reference(table, bound, greedy_reference):
    report = hit_quotient(table, bound)
    expected = reference_representatives(table, bound, greedy_reference)
    assert [row.representatives for row in report.rows] == expected


def test_hit_residues_reduce_each_monomial_once_against_the_hit_basis(monkeypatch):
    import sseqlab.steenrod as steenrod
    from sseqlab.f2 import reduce_against

    events = []

    def traced_row_reduce(vectors):
        events.append(("hits", row_reduce(vectors)))
        return events[-1][1]

    def traced_reduce(basis, v):
        events.append(("reduce", basis, v))
        return reduce_against(basis, v)

    monkeypatch.setattr(steenrod, "row_reduce", traced_row_reduce)
    monkeypatch.setattr(steenrod, "reduce_against", traced_reduce)
    algebra = PolyAlgebraSpec.from_pairs([("a", 1), ("b", 1), ("c", 1)])
    report = hit_quotient(table_from_entries(algebra, {}), 8)
    starts = [i for i, event in enumerate(events) if event[0] == "hits"]
    assert len(starts) == len(report.rows)
    for row, start, end in zip(report.rows, starts, starts[1:] + [len(events)]):
        hit_basis, calls = events[start][1], events[start + 1 : end]
        assert len(hit_basis) == row.hit_dim
        assert [v for _kind, _basis, v in calls] == [
            F2Vector.unit(row.total_dim, j) for j in range(row.total_dim)
        ]
        assert all(basis is hit_basis for _kind, basis, _v in calls)


def test_hit_on_two_variable_algebra_accounting():
    algebra = PolyAlgebraSpec.from_pairs([("a", 1), ("b", 1)])
    table = table_from_entries(algebra, {})
    report = hit_quotient(table, 10)
    for row in report.rows:
        assert row.hit_dim + row.quotient_dim == row.total_dim
    # degree 0 keeps the unit, degree 1 keeps both variables, degree 2
    # keeps a*b (the squares are Sq^1 images)
    assert report.rows[0].quotient_dim == 1
    assert report.rows[1].quotient_dim == 2
    assert report.rows[2].quotient_dim == 1
    assert report.rows[2].representatives == (Monomial((1, 1)),)


# ------------------------------------------------------------ read-only table


def test_table_action_is_a_read_only_copy():
    t = ONE_VAR.gen("t")
    action = {("t", 0): t, ("t", 1): t_power(2)}
    table = SteenrodTable(ONE_VAR, action)
    assert validate_table(table) == [] and sq(table, 1, t) == t_power(2)
    with pytest.raises(TypeError):
        table.action[("t", 1)] = Polynomial.zero()
    action[("t", 1)] = Polynomial.zero()  # the caller's dict is not the table's
    # the kept verdict and total squares still describe the table's entries
    assert table._validated == () and table.action[("t", 1)] == t_power(2)
    assert sq(table, 1, t) == t_power(2)
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and sq(twin, 1, t) == t_power(2)


# ---------------------------------------------------------------- theorem oracles
# On k degree-1 variables the squaring table is forced by the axioms.  These
# theorems about QP_k = F_2 (x) _A F_2[x_1, ..., x_k] share no code with the
# solver; only the dimensions come from ``hit_quotient``.


def alpha(n):
    """Binary digit sum."""
    return bin(n).count("1")


def mu(n):
    """Least j with alpha(n + j) <= j: the fewest numbers 2^a - 1 that sum to n."""
    return next(j for j in itertools.count() if alpha(n + j) <= j)


@pytest.fixture(scope="module")
def qp_dims():
    """dim QP_k(d) for d up to the bound: k = 2 through degree 32, k = 3 through degree 16."""
    dims = {}
    for k, bound in ((2, 32), (3, 16)):
        algebra = PolyAlgebraSpec.from_pairs([(f"x_{i}", 1) for i in range(1, k + 1)])
        report = hit_quotient(table_from_entries(algebra, {}), bound)
        dims[k] = [row.quotient_dim for row in report.rows]
    return dims


@pytest.mark.parametrize("k", (2, 3))
def test_wood_theorem(qp_dims, k):
    """Wood (1989): QP_k(d) = 0 whenever alpha(d + k) > k."""
    vanishing = [d for d in range(len(qp_dims[k])) if alpha(d + k) > k]
    assert vanishing  # the hypothesis is met inside the bound
    assert all(qp_dims[k][d] == 0 for d in vanishing)


@pytest.mark.parametrize("k", (2, 3))
def test_kameko_theorem(qp_dims, k):
    """Kameko (1990): dim QP_k(2d + k) = dim QP_k(d) whenever mu(2d + k) = k."""
    dims = qp_dims[k]
    pairs = [(d, 2 * d + k) for d in range(len(dims)) if 2 * d + k < len(dims)]
    pairs = [(d, n) for d, n in pairs if mu(n) == k]
    assert pairs
    assert all(dims[n] == dims[d] for d, n in pairs)


def test_peterson_and_kameko_bounds(qp_dims):
    """dim QP_2(d) <= 3 (Peterson) and dim QP_3(d) <= 21 (Kameko), in every degree."""
    assert max(qp_dims[2]) <= 3
    assert max(qp_dims[3]) <= 21


# ---------------------------------------------------------------- the cited g2 table

G2_TABLE = Path(__file__).parent / "data" / "g2_steenrod.cfg"


def adem_checks(table, top):
    """(checks, failures) of Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^(a+b-c) Sq^c for a < 2b.

    One check per monomial m of degree d and pair a, b >= 1 with
    d + a + b <= top; the right-hand side is summed from ``sq`` itself.
    """
    checks = failures = 0
    for d in range(top + 1):
        for m in basis_in_degree(table.algebra, d):
            p = Polynomial.of(m)
            for b in range(1, top - d + 1):
                for a in range(1, min(2 * b, top - d - b + 1)):
                    rhs = Polynomial.zero()
                    for c in range(a // 2 + 1):
                        if math.comb(b - c - 1, a - 2 * c) % 2:
                            rhs = rhs + sq(table, a + b - c, sq(table, c, p))
                    checks += 1
                    failures += sq(table, a, sq(table, b, p)) != rhs
    return checks, failures


def test_the_cited_g2_table_is_valid_and_satisfies_every_adem_relation_through_21():
    table = load_config(G2_TABLE).steenrod
    assert validate_table(table) == []
    assert adem_checks(table, 21) == (612, 0)
    assert hit_quotient(table, 21).non_hit_degrees() == [0, 4, 12, 17]


def test_the_g2_table_without_sq1_x6_passes_validation_but_fails_adem():
    from sseqlab.config import parse_config

    text = G2_TABLE.read_text()
    assert text.count("sq1 x_6 = x_7\n") == 1
    mutant = parse_config(text.replace("sq1 x_6 = x_7\n", "sq1 x_6 = 0\n")).steenrod
    assert validate_table(mutant) == []
    assert adem_checks(mutant, 21) == (612, 55)
