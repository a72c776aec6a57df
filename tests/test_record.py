"""Every public record behaves as the frozen dataclass it replaces.

The reference for each record is a ``dataclasses.make_dataclass`` twin with
the same fields, defaults and options, built here.  On seeded values the two
must agree on construction, defaults, repr, equality, hash, frozenness,
copies and ordering.  A record keeps a read-only copy of some mappings; its
repr, equality and copies treat that copy as the dict it was built from.
"""

import copy
import dataclasses
import functools
import pickle
import random
import sys
import threading
from collections import ChainMap, OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest

import sseqlab
from sseqlab.config import WorkbenchConfig
from sseqlab.chart import ChartSpec
from sseqlab.f2 import F2Matrix, F2Vector, rank, solve
from sseqlab.gauge import (
    DEFAULT_EPSILON_RULE, EpsilonRule, GaugeBranch, GaugeReport, g2_fibration_spec,
)
from sseqlab.graded import Monomial, PolyAlgebraSpec, Polynomial
from sseqlab.homotopy import DimEntry, FGAbelianGroup, GradedDims, HomotopyTable, TableEntry
from sseqlab.fibration import BigradedBasis, FibrationSpec, UnknownScalar
from sseqlab.specseq import DifferentialAssignment, Page, PageGroup
from sseqlab.record import FrozenRecordError, Record, kept
from sseqlab.steenrod import (
    DegreeHitData,
    HitReport,
    SteenrodTable,
    Violation,
    table_from_entries,
)

FACTORY = object()  # a default built by ``dict()`` per instance

BASE = PolyAlgebraSpec((("a", 2),))
HOMOTOPY = HomotopyTable.from_groups({1: FGAbelianGroup(), 2: FGAbelianGroup.cyclic(2)})
STEENROD = table_from_entries(PolyAlgebraSpec((("t", 1),)), {})


def monomial(rng):
    return Monomial((rng.randint(0, 1), rng.randint(0, 1)))


def polynomial(rng):
    return Polynomial(frozenset(monomial(rng) for _ in range(rng.randint(0, 2))))


def group(rng):
    return FGAbelianGroup(rng.randint(0, 1), rng.choice(((), (2,), (2, 4))))


def unknown(rng):
    return UnknownScalar(rng.choice(("eps", "eta")), "u", 2, BASE.gen("a"))


def spec_args(rng):
    fibre = rng.choice(({0: ("1",), 1: ("u",)}, {0: ("1",), 1: ("u",), 2: ("v",)}))
    unknowns = rng.choice(((), (unknown(rng),)))
    return BASE, fibre, rng.randint(1, 3), unknowns, rng.choice((frozenset(), frozenset({3})))


def assignment(rng):
    return DifferentialAssignment({"eps": rng.randint(0, 1)}, {("u", 2): polynomial(rng)})


def page_group_args(rng):
    labels = ((Monomial((0,)), "1"), (Monomial((1,)), "u"))
    return labels, (F2Vector(2, rng.randint(1, 3)),), rng.choice(((), (F2Vector(2, 1),)))


def hit_row(rng):
    return DegreeHitData(rng.randint(0, 1), 2, 1, 1, (monomial(rng),))


def branch_args(rng):
    return (("eps", rng.randint(0, 1)),), (1, rng.randint(0, 1)), (((0, 0), 1),)


def chart_args(rng):
    page = rng.randint(2, 3)
    arrows = rng.choice(((), (((0, page - 1), (page, 0), "d"),)))
    return page, 4, 3, ((0, 0, 1), (rng.randint(0, 1), 1, 1)), arrows


def homotopy_entries(rng):
    return {d: TableEntry(group(rng)) for d in range(1, rng.randint(1, 3))}


def steenrod_args(rng):
    algebra = PolyAlgebraSpec((("t", 1),))
    square = rng.choice((Polynomial.zero(), Polynomial.of(Monomial((2,)))))
    return algebra, {("t", 0): algebra.gen("t"), ("t", 1): square}


def bits(rng, length):
    return rng.randrange(1 << length)


# record, its dataclass fields (name, or (name, default)), dataclass options, seeded args
RECORDS = [
    (F2Vector, ["length", ("bits", 0)], {}, lambda rng: (2, bits(rng, 2))),
    (F2Matrix, ["rows", "cols", "row_bits"], {}, lambda rng: (2, 2, (bits(rng, 2), 1))),
    (Monomial, ["exponents"], {"order": True}, lambda rng: ((rng.randint(0, 2), 1),)),
    (Polynomial, ["terms"], {}, lambda rng: (polynomial(rng).terms,)),
    (PolyAlgebraSpec, ["generators"], {}, lambda rng: ((("a", rng.randint(1, 2)),),)),
    (FGAbelianGroup, [("free_rank", 0), ("torsion", ())], {}, lambda rng: (rng.randint(0, 1), ())),
    (
        TableEntry,
        ["group", ("exact", True), ("citation", "")],
        {},
        lambda rng: (group(rng), rng.random() < 0.5, rng.choice(("", "src"))),
    ),
    (DimEntry, ["value", ("exact", True)], {}, lambda rng: (rng.randint(0, 1), rng.random() < 0.5)),
    (HomotopyTable, ["entries"], {}, lambda rng: (homotopy_entries(rng),)),
    (GradedDims, [("dims", FACTORY)], {}, lambda rng: ({1: DimEntry(rng.randint(0, 1))},)),
    (
        UnknownScalar,
        ["name", "generator", "page", "target"],
        {},
        lambda rng: (rng.choice(("eps", "eta")), "u", 2, polynomial(rng)),
    ),
    (
        FibrationSpec,
        ["base", "fibre_gens", ("degree_bound", 10), ("unknowns", ())]
        + [("unproven_degrees", frozenset())],
        {},
        spec_args,
    ),
    (
        BigradedBasis,
        ["degree_bound", "groups"],
        {},
        lambda rng: (rng.randint(1, 2), {(0, 0): ((monomial(rng), "1"),)}),
    ),
    (
        DifferentialAssignment,
        ["values", "generator_images"],
        {},
        lambda rng: ({"eps": rng.randint(0, 1)}, {("u", 2): polynomial(rng)}),
    ),
    (PageGroup, ["labels", "cycles", "boundaries"], {}, page_group_args),
    (
        Page,
        ["spec", "assignment", "r", "groups", ("differentials", FACTORY), ("unevaluated", ())]
        + [("images", FACTORY)],
        {},
        lambda rng: (
            FibrationSpec(*spec_args(rng)),
            assignment(rng),
            rng.randint(2, 3),
            {(0, 0): PageGroup(*page_group_args(rng))},
            {(0, 0): F2Matrix.identity(rng.randint(0, 1))},
            rng.choice(((), ((2, (0, 1), (2, 0)),))),
            {(0, 0): (F2Vector(2, rng.randint(0, 3)),)},
        ),
    ),
    (
        Violation,
        ["generator", "i", "kind", "message"],
        {},
        lambda rng: ("t", rng.randint(0, 1), rng.choice(("sq0", "missing")), "m"),
    ),
    (SteenrodTable, ["algebra", "action"], {}, steenrod_args),
    (
        DegreeHitData,
        ["degree", "total_dim", "hit_dim", "quotient_dim", "representatives"],
        {},
        lambda rng: (rng.randint(0, 1), 2, 1, 1, (monomial(rng),)),
    ),
    (HitReport, ["bound", "rows"], {}, lambda rng: (rng.randint(0, 1), (hit_row(rng),))),
    (
        EpsilonRule,
        ["modulus", "classes", "known_values"],
        {},
        lambda rng: (2, (("0", (0,)), ("1", (1,))), rng.choice(((), (("0", 0),), (("1", 1),)))),
    ),
    (GaugeBranch, ["values", "total_dims", "bidegree_dims"], {}, branch_args),
    (
        GaugeReport,
        ["k", "epsilon_label", "epsilon_known", "branches", "admissible", "notes"],
        {},
        lambda rng: (
            rng.randint(0, 1),
            "1,3",
            rng.choice((None, 1)),
            (GaugeBranch(*branch_args(rng)),),
            ((6, (0, 5), (6, 0)),),
            rng.choice(((), ("note",))),
        ),
    ),
    (ChartSpec, ["page", "s_max", "t_max", "dots", "arrows"], {}, chart_args),
    (
        WorkbenchConfig,
        [
            "base",
            ("degree_bound", 10),
            ("homotopy", None),
            ("fibre_derive", False),
            ("fibre_explicit", FACTORY),
            ("unknowns", ()),
            ("epsilon_rule", None),
            ("steenrod", None),
        ],
        {},
        lambda rng: (
            BASE,
            rng.randint(9, 10),
            rng.choice((None, HOMOTOPY)),
            rng.random() < 0.5,
            rng.choice(({}, {6: ("v_6",)})),
            rng.choice(((), (unknown(rng),))),
            rng.choice((None, DEFAULT_EPSILON_RULE)),
            rng.choice((None, STEENROD)),
        ),
    ),
]


def make_twin(record, fields, options):
    """The frozen dataclass the record replaces, with the same fields and options."""
    spec_fields = []
    for item in fields:
        if isinstance(item, str):
            spec_fields.append(item)
        elif item[1] is FACTORY:
            spec_fields.append((item[0], object, dataclasses.field(default_factory=dict)))
        else:
            spec_fields.append((item[0], object, dataclasses.field(default=item[1])))
    return dataclasses.make_dataclass(record.__name__, spec_fields, **{"frozen": True, **options})


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize(
    "record, fields, options, draw", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_record_matches_its_dataclass_twin(record, fields, options, draw):
    twin = make_twin(record, fields, options)
    names = [f if isinstance(f, str) else f[0] for f in fields]
    assert record._fields == tuple(names)
    required = sum(isinstance(f, str) for f in fields)
    record_sub, twin_sub = type("Sub", (record,), {}), type("Sub", (twin,), {})
    rng = random.Random(f"record-{record.__name__}")
    for _ in range(25):
        args, other = draw(rng), draw(rng)
        kwargs = dict(zip(names, args))
        r, t = record(*args), twin(*args)
        assert repr(r) == repr(t) == repr(record(**kwargs)) == repr(twin(**kwargs))
        assert (r == record(**kwargs)) and (t == twin(**kwargs))
        assert (r == record(*other)) == (t == twin(*other))
        assert (r != record(*other)) == (t != twin(*other))
        assert hash_or_error(r) == hash_or_error(t)
        assert (r == record_sub(*args)) == (t == twin_sub(*args))  # a subclass is another class
        # defaults, and no mutable default shared between two instances
        assert repr(record(*args[:required])) == repr(twin(*args[:required]))
        first, second = record(*args[:required]), record(*args[:required])
        for name, default in (f for f in fields if not isinstance(f, str)):
            if default is FACTORY:
                assert getattr(first, name) == {}
                assert getattr(first, name) is not getattr(second, name)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        # copies rebuild an equal record; the twin's copies agree
        for clone in (copy.copy, copy.deepcopy):
            assert clone(r) == r and clone(t) == t
        assert pickle.loads(pickle.dumps(r)) == r
        # only Monomial is ordered
        if options.get("order"):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(r, op)(record(*other)) == getattr(t, op)(twin(*other))
        else:
            with pytest.raises(TypeError):
                r < record(*other)


class NoCopy(Mapping):
    """A read-only mapping with no ``copy()``, over a dict it shares."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


# each way a caller's mapping may reach a record: the view and the dict behind it, which
# the caller keeps and edits; only a view over a dict is copied by its own copy()
VIEWS = {
    "view over a dict": lambda d: (MappingProxyType(d), d),
    "view over an OrderedDict": lambda d: (MappingProxyType(o := OrderedDict(d)), o),
    "view over a ChainMap": lambda d: (MappingProxyType(ChainMap({}, d)), d),
    "view over a mapping with no copy()": lambda d: (MappingProxyType(NoCopy(d)), d),
}


@pytest.mark.parametrize("view", VIEWS)
def test_a_record_built_from_a_read_only_view_keeps_a_copy_of_its_own(view):
    rng = random.Random(f"views-{view}")
    users = set()
    for record, _fields, _options, draw in RECORDS:
        for _ in range(5):
            args = draw(rng)
            at = [i for i, arg in enumerate(args) if isinstance(arg, dict)]
            users.update([record.__name__] if at else [])
            wrapped, behind = list(args), []
            for i in at:
                wrapped[i], kept_dict = VIEWS[view](args[i])
                behind.append(kept_dict)
            built, expected = record(*wrapped), record(*args)
            for d in behind:  # the caller edits what the view shows
                d.clear()
                d["edited"] = None
            assert built == expected and repr(built) == repr(expected)
            for i in at:
                field = getattr(built, record._fields[i])
                assert type(field) is MappingProxyType and type(field.copy()) is dict
                assert "edited" not in field
                with pytest.raises(TypeError):
                    field["edited"] = None
    assert users >= {
        "DifferentialAssignment", "Page", "FibrationSpec", "BigradedBasis", "WorkbenchConfig",
        "SteenrodTable", "GradedDims",
    }


def test_every_exported_class_is_a_record():
    exported = [getattr(sseqlab, name) for name in sseqlab.__all__]
    exported = [value for value in exported if isinstance(value, type)]
    values = [cls for cls in exported if not issubclass(cls, Exception)]
    assert len(values) > 10
    assert [cls.__name__ for cls in values if not issubclass(cls, Record)] == []


def test_monomials_sort_as_their_twins():
    twin = make_twin(Monomial, ["exponents"], {"order": True})
    rng = random.Random("monomial-order")
    exps = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(40)]
    ours = sorted(Monomial(e) for e in exps)
    theirs = sorted(twin(e) for e in exps)
    assert [m.exponents for m in ours] == [m.exponents for m in theirs]
    with pytest.raises(TypeError):
        Monomial((1,)) < (1,)


def test_sequence_fields_are_stored_as_tuples():
    # a list passed in is copied: an edit to it cannot get behind a kept elimination
    row_bits = [1, 2]
    m = F2Matrix(2, 2, row_bits)
    assert m.row_bits == (1, 2) and m == F2Matrix(2, 2, (1, 2))
    assert hash(m) == hash(F2Matrix(2, 2, (1, 2)))
    assert solve(m, F2Vector(2, 3)) == F2Vector(2, 3)
    row_bits[1] = 0
    assert rank(m) == 2 and solve(m, F2Vector(2, 3)) == F2Vector(2, 3)
    labels = [(Monomial((0,)), "1"), (Monomial((1,)), "u")]
    cycles, boundaries = [F2Vector(2, 1), F2Vector(2, 2)], []
    group = PageGroup(labels, cycles, boundaries)
    twin = PageGroup(tuple(labels), tuple(cycles), ())
    assert group == twin and hash(group) == hash(twin)
    assert (group.labels, group.cycles, group.boundaries) == (twin.labels, twin.cycles, ())
    cycles.pop()
    labels.pop()
    boundaries.append(F2Vector(2, 1))
    assert group.dim == 2 and group.quotient_basis() == [F2Vector(2, 1), F2Vector(2, 2)]
    assert len(group.labels) == 2 and group == twin


def test_no_module_keeps_an_attribute_through_cached_property():
    from sseqlab import config, f2, fibration, graded, specseq, steenrod

    kept_names = []
    for module in (config, f2, fibration, graded, specseq, steenrod):
        for cls in [v for v in vars(module).values() if isinstance(v, type)]:
            for name, attr in vars(cls).items():
                assert not isinstance(attr, functools.cached_property), (cls, name)
                kept_names += [f"{cls.__name__}.{name}"] if isinstance(attr, kept) else []
    assert {"FibrationSpec.arrows", "F2Matrix._column_echelon", "PageGroup._quotient_reps",
            "WorkbenchConfig._spec", "SteenrodTable._validated"} <= set(kept_names)


def test_a_kept_attribute_is_computed_once_and_stays_frozen():
    calls = []

    class Doubled(Record):
        def __init__(self, n: int) -> None:
            self.__dict__["n"] = n

        @kept
        def double(self) -> int:
            """Twice n."""
            calls.append(self.n)
            return 2 * self.n

    record = Doubled(3)
    assert record.double == 6 and record.double == 6 and calls == [3]
    assert Doubled.double.func.__qualname__.endswith("Doubled.double")
    assert Doubled.double.__doc__ == "Twice n."
    assert record == Doubled(3) and record._key(record) == (3,)  # a kept value is no field
    spec = g2_fibration_spec(10)
    arrows = spec.arrows
    for obj, name in ((record, "double"), (spec, "arrows"), (spec, "start_groups")):
        with pytest.raises(FrozenRecordError):
            setattr(obj, name, None)
        with pytest.raises(FrozenRecordError):
            delattr(obj, name)
    assert record.double == 6 and calls == [3] and spec.arrows is arrows


def test_threads_reading_kept_attributes_first_all_see_the_one_value():
    """8 threads on fresh shared objects, switching every microsecond: no read may see a
    half-stored or different value (equality is the invariant; two threads may both compute)."""
    rng = random.Random(2031)
    n = 24
    words = tuple(rng.getrandbits(n) for _ in range(n))
    rhs = F2Vector(n, rng.getrandbits(n))
    boundaries = sseqlab.f2.row_reduce([F2Vector(n, rng.getrandbits(n)) for _ in range(5)])
    cycles = sseqlab.f2.row_reduce(boundaries + [F2Vector(n, rng.getrandbits(n)) for _ in range(9)])

    def fresh():
        group = PageGroup(tuple(range(n)), tuple(cycles), tuple(boundaries))
        return g2_fibration_spec(10), group, F2Matrix(n, n, words)

    def read(objects):
        spec, group, matrix = objects
        return spec.arrows, dict(spec.start_groups), group.quotient_basis(), solve(matrix, rhs)

    expected = read(fresh())
    rounds = [fresh() for _ in range(30)]
    workers = 8
    barrier = threading.Barrier(workers)
    seen = [[] for _ in range(workers)]

    def work(k):
        try:
            for objects in rounds:
                barrier.wait(timeout=30)
                seen[k].append(read(objects))
        except BaseException:
            barrier.abort()  # a thread that stops early stops the rest, which fall short
            raise

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(values == [expected] * len(rounds) for values in seen)
