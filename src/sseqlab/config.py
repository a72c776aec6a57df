"""Workbench configuration: a sectioned key-value text format plus a JSON twin.

The text grammar is line oriented and strict: unknown sections or keys
are errors, every problem names its line (in the JSON twin, its path), and
``emit_config`` produces a normalized form on which parse/emit is
idempotent.  The JSON reader and the emitter live in ``configio``, which
loads on their first call.

Sections::

    degree_bound = 10        # top level, before any section

    [base]                   # required: generator = degree, in order
    a = 6

    [homotopy]               # degree = group ; citation
    3 = Z ; source
    8 = contains Z/2 ; source    # "contains": even torsion not fully pinned

    [fibre]                  # derive = homotopy, and/or degree = names
    derive = homotopy
    6 = v_6 w_6

    [unknowns]               # name = d<page> generator -> polynomial
    eps = d6 u_5 -> a

    [epsilon]                # read by gauge alone: residue classes, proved values
    modulus = 2
    class = 0 : 0
    class = 1

    [steenrod]               # sq<i> generator = polynomial
    sq1 a = 0

``derive = homotopy`` runs the triple-loop pipeline (the workbench
targets mapping spaces over the four-sphere, so the fibre is the
identity component of the triple loop space).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

from . import _deferred
from .errors import ConfigError, DeclaredNameError, UsageError, ValidationError
from .fibration import UNIT_GEN, FibrationSpec, UnknownScalar
from .graded import PolyAlgebraSpec, Polynomial, parse_polynomial
from .homotopy import (
    DimEntry,
    FGAbelianGroup,
    HomotopyTable,
    TableEntry,
    fibre_truncation_dims,
    loopspace_shift,
)
from .record import Record, frozen_copy, kept

if TYPE_CHECKING:
    from .steenrod import SteenrodTable

table_from_entries = _deferred("steenrod", "table_from_entries")  # loaded by a [steenrod] section
parse_config_json = _deferred("configio", "parse_config_json")  # loaded by a .json config
emit_config = _deferred("configio", "emit_config")
_SECTIONS = ("base", "homotopy", "fibre", "unknowns", "epsilon", "steenrod")
_UNIT_DEGREE = "fibre degree 0 is implicit (the unit)"
_ANY_COUNT = DimEntry(0, exact=False)  # a fibre degree the derivation does not reach


class EpsilonRule(Record):
    """Residue classes mod ``modulus`` with the values proved on them."""

    def __init__(
        self, modulus: int, classes: tuple[tuple[str, tuple[int, ...]], ...],
        known_values: tuple[tuple[str, int], ...],
    ) -> None:
        if modulus < 1:
            raise ValidationError("modulus must be positive")
        covered: list[int] = []
        for label, residues in classes:
            if not label:
                raise ValidationError("empty class label")
            covered.extend(residues)
        if sorted(covered) != list(range(modulus)):
            raise ValidationError(f"classes must partition the residues 0..{modulus - 1}")
        labels = {label for label, _ in classes}
        for label, value in known_values:
            if label not in labels:
                raise ValidationError(f"known value for unknown class {label!r}")
            if value not in (0, 1):
                raise ValidationError("known values must be 0 or 1")
            if value and 0 in dict(classes)[label]:  # k = 0, the trivial bundle, has a section
                raise ValidationError(f"class {label!r} holds residue 0: a section forces eps = 0")
        self.__dict__.update(modulus=modulus, classes=classes, known_values=known_values)

    def label_of(self, k: int) -> str:
        return next(label for label, residues in self.classes if k % self.modulus in residues)

    def known(self, label: str) -> Optional[int]:
        return dict(self.known_values).get(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.classes)


class WorkbenchConfig(Record):
    """A parsed configuration; ``fibre_explicit`` is kept as a read-only copy."""

    def __init__(
        self, base: PolyAlgebraSpec, degree_bound: int = 10,
        homotopy: Optional[HomotopyTable] = None, fibre_derive: bool = False,
        fibre_explicit: Optional[Mapping[int, tuple[str, ...]]] = None,
        unknowns: tuple[UnknownScalar, ...] = (), epsilon_rule: Optional[EpsilonRule] = None,
        steenrod: Optional[SteenrodTable] = None,
    ) -> None:
        self.__dict__.update(
            base=base, degree_bound=degree_bound, homotopy=homotopy, fibre_derive=fibre_derive,
            fibre_explicit=frozen_copy(fibre_explicit or {}), unknowns=unknowns,
            epsilon_rule=epsilon_rule, steenrod=steenrod,
        )

    def fibration_spec(self) -> FibrationSpec:
        """The engine input, derived once per config through the fibre consistency gate."""
        return self._spec

    @kept
    def _spec(self) -> FibrationSpec:
        """Declared names must equal an exact derived count or reach a lower bound;
        an undeclared degree gets ``u_<d>`` names for its derived count, which no
        declared name may take.  An undeclared ``>=0`` degree gets none and is
        recorded as unproven, not zero.  A refusal names a declared generator."""
        if 0 in self.fibre_explicit:
            raise ValidationError(_UNIT_DEGREE)
        dims = {}
        if self.fibre_derive:
            try:
                if self.homotopy is None:
                    raise ValidationError("fibre derivation needs a homotopy section")
                derived = fibre_truncation_dims(loopspace_shift(self.homotopy, 3))
            except ValidationError as exc:  # a config locates it at its derive row
                raise DeclaredNameError(str(exc), "fibre", None) from exc
            dims = {degree: entry for degree, entry in derived.items() if degree}
        fibre: dict[int, tuple[str, ...]] = {0: (UNIT_GEN,)}
        declared = {g for gens in self.fibre_explicit.values() for g in gens}
        for degree in {**dims, **self.fibre_explicit}:
            names = self.fibre_explicit.get(degree)
            entry = dims.get(degree, _ANY_COUNT)
            if names is None:
                n, stem = entry.value, f"u_{degree}"  # none, u_<d>, or u_<d>_0 .. u_<d>_<n-1>
                names = (stem,) * n if n < 2 else tuple(f"{stem}_{i}" for i in range(n))
                for name in filter(declared.__contains__, names):  # the first, in order
                    raise DeclaredNameError(
                        f"fibre generator {name!r} is the name derived for fibre degree {degree}",
                        "fibre", name,
                    )
            elif entry.exact and len(names) != entry.value:
                raise DeclaredNameError(
                    f"fibre degree {degree} contradicts the derived truncation "
                    f"(derived {entry.value}, declared {len(names)})", "fibre", names[0],
                )
            elif len(names) < entry.value:
                raise DeclaredNameError(
                    f"fibre degree {degree} declares fewer classes than the "
                    f"derived lower bound {entry.value}", "fibre", names[0],
                )
            if names:
                fibre[degree] = names
        unproven = {d for d, e in dims.items() if not (e.exact or e.value or d in fibre)}
        return FibrationSpec(
            self.base, fibre, self.degree_bound, self.unknowns, frozenset(unproven)
        )


# ------------------------------------------------------------- rows

Row = tuple[str, str, str]  # (where, key, value); where is "line 7" or a JSON path
_TOP = ""  # the rows key of top-level settings
_STOPS = frozenset("*^+;=")  # characters a generator name may not hold: the polynomial grammar's


def _located(problems: list[str], where: str, handle, *args):
    """``handle(*args)``, or None after recording ``<where>: <message>``."""
    try:
        return handle(*args)
    except (ValidationError, UsageError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _int(text: str, message: str = "", *shown: str) -> int:
    """``int(text)``.  It builds no text unless it refuses: then its ValidationError carries
    ``message`` formatted with ``shown`` and then ``text``, or int's own message."""
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(message.format(*shown, text) if message else str(exc)) from None


def _token(word, noun: str, stop: str = "") -> str:
    """``word`` as one token the text form reads back: no whitespace, no leading '#' (which
    starts a comment there) and none of ``stop``, the characters that end it in its place."""
    text = str(word)
    if text.split() != [text] or text[0] == "#" or any(c in stop for c in text):
        raise ValidationError(f"{noun} {text!r} cannot be read back in the text form")
    return text


def parse_group(text: str) -> FGAbelianGroup:
    text = text.strip()
    if text == "0":
        return FGAbelianGroup.ZERO
    rank = 0
    torsion = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if chunk == "Z":
            rank += 1
        elif chunk.startswith("Z^"):
            rank += _int(chunk[2:])
        elif chunk.startswith("Z/"):
            torsion.append(_int(chunk[2:]))
        else:
            raise ValidationError(f"cannot read group term {chunk!r}")
    return FGAbelianGroup(rank, tuple(torsion))


# ------------------------------------------------------------- builder


def _build(problems: list[str], rows: dict[str, list[Row]]) -> WorkbenchConfig:
    """Check each given section's rows; a handler raises, and its row's place names the problem."""

    def run(section, handle):
        for where, key, value in rows.get(section, ()):
            try:
                handle(key, value)
            except (ValidationError, UsageError) as exc:
                problems.append(f"{where}: {exc}")

    degree_bound = 10
    seen_top: set[str] = set()
    def top(key, value):
        nonlocal degree_bound
        if key != "degree_bound":
            raise ValidationError(f"unknown top-level key {key!r}")
        if key in seen_top:
            raise ValidationError("duplicate degree_bound")
        seen_top.add(key)
        degree_bound = _int(value, "degree_bound must be an integer, got {!r}")
        if degree_bound < 1:
            raise ValidationError("degree_bound must be >= 1")

    degrees: dict[str, int] = {}  # generator name -> degree, in order
    def generator(key, value):
        # emitted polynomials and sq<i> keys must read every name back
        if key.split() != [key] or key in ("0", "1") or key[0] == "#" or not _STOPS.isdisjoint(key):
            raise ValidationError(f"generator name {key!r} cannot be read back in a polynomial")
        if key in degrees:
            raise ValidationError(f"duplicate generator name {key!r}")
        degree = _int(value, "generator {!r}: degree must be an integer, got {!r}", key)
        if degree < 1:
            raise ValidationError(f"generator {key!r}: degree must be >= 1, got {degree}")
        degrees[key] = degree

    entries: dict[int, TableEntry] = {}
    def homotopy_entry(key, value):
        degree = _int(key, "homotopy degree must be an integer, got {!r}")
        if degree < 1:
            raise ValidationError("homotopy degrees start at 1")
        if degree in entries:
            raise ValidationError(f"duplicate homotopy degree {degree}")
        group_text, _, citation = value.partition(";")
        group_text = group_text.strip()
        exact = not group_text.startswith(TableEntry.INEXACT)
        group = parse_group(group_text if exact else group_text[len(TableEntry.INEXACT):])
        entries[degree] = TableEntry(group, exact, citation.strip())

    fibre_derive = False
    fibre_explicit: dict[int, tuple[str, ...]] = {}
    def fibre_line(key, value):
        nonlocal fibre_derive
        if key == "derive":
            if value != "homotopy":
                raise ValidationError(f"derive understands only 'homotopy', got {value!r}")
            if fibre_derive:
                raise ValidationError("duplicate derive line")
            fibre_derive = True
            return
        degree = _int(key, "fibre degree must be an integer, got {!r}")
        if degree <= 0:
            raise ValidationError(_UNIT_DEGREE if degree == 0 else "fibre degrees are positive")
        if degree in fibre_explicit:
            raise ValidationError(f"duplicate fibre degree {degree}")
        names = [_token(name, "name") for name in value.split()]  # as JSON names: no leading '#'
        if not names:
            raise ValidationError("fibre line needs at least one generator name")
        seen = {g for gens in fibre_explicit.values() for g in gens}
        for name in names:
            if name == UNIT_GEN:
                raise ValidationError(f"fibre generator {name!r} is the unit's name")
            if name in seen:
                raise ValidationError(f"duplicate fibre generator {name!r}")
            seen.add(name)
        fibre_explicit[degree] = tuple(names)

    unknowns: dict[str, UnknownScalar] = {}
    def unknown(key, value):
        if key in unknowns:
            raise ValidationError(f"duplicate unknown {key!r}")
        head, arrow, target = value.partition("->")
        tokens = head.split()
        if not arrow or len(tokens) != 2 or not tokens[0].startswith("d"):
            raise ValidationError("expected: name = d<page> generator -> polynomial")
        page = _int(tokens[0][1:], "bad page token {!r}", tokens[0])
        if base is None:
            raise ValidationError("cannot check the unknown's target without a valid base")
        poly = parse_polynomial(base, target)
        if len(poly.terms) > 1:  # refused here if of mixed degree; the spec reads the degree
            poly.homogeneous_degree(base)
        unknowns[key] = UnknownScalar(key, tokens[1], page, poly)

    modulus: Optional[int] = None
    classes: list[tuple[str, tuple[int, ...]]] = []
    known: list[tuple[str, int]] = []
    def epsilon_line(key, value):
        nonlocal modulus
        if key == "modulus":
            if modulus is not None:
                raise ValidationError("duplicate modulus")
            modulus = _int(value, "modulus must be an integer, got {!r}")
        elif key == "class":
            residue_text, _, known_text = value.partition(":")
            try:
                residues = tuple(map(int, residue_text.split()))
            except ValueError:
                raise ValidationError(f"bad residue list {residue_text.strip()!r}") from None
            if not residues:
                raise ValidationError("class line needs at least one residue")
            label = ",".join(map(str, residues))
            classes.append((label, residues))
            known_text = known_text.strip()
            if known_text:
                known.append((label, _int(known_text, "bad known value {!r}")))
        else:
            raise ValidationError(f"unknown epsilon key {key!r}")

    squares: dict[str, dict[int, Polynomial]] = {}
    def square(key, value):
        tokens = key.split()
        if len(tokens) != 2 or not tokens[0].startswith("sq"):
            raise ValidationError("expected: sq<i> generator = polynomial")
        i = _int(tokens[0][2:], "bad squaring index {!r}", tokens[0])
        gen = tokens[1]
        if i < 0:
            raise ValidationError(f"negative squaring index for {gen}")
        base.index_of(gen)
        poly = parse_polynomial(base, value)
        if i in squares.get(gen, {}):
            raise ValidationError(f"duplicate entry sq{i} {gen}")
        squares.setdefault(gen, {})[i] = poly

    run(_TOP, top)
    if not rows.get("base"):
        problems.append("missing base section")
    run("base", generator)
    base = PolyAlgebraSpec(tuple(degrees.items())) if degrees else None
    run("homotopy", homotopy_entry)
    run("fibre", fibre_line)
    run("unknowns", unknown)
    epsilon_rule = None
    if rows.get("epsilon"):  # an empty [epsilon] counts as absent
        run("epsilon", epsilon_line)
        if modulus is None:
            problems.append("epsilon section needs a modulus")
        else:
            epsilon_rule = _located(
                problems, "epsilon section", EpsilonRule, modulus, tuple(classes), tuple(known)
            )
    steenrod = None
    if "steenrod" in rows and base is not None:  # an empty section yields the scaffold
        before = len(problems)
        run("steenrod", square)
        if len(problems) == before:
            steenrod = table_from_entries(base, squares)

    if problems:
        raise ConfigError(problems)
    cfg = WorkbenchConfig(
        base, degree_bound, HomotopyTable(entries) if entries else None, fibre_derive,
        fibre_explicit, tuple(unknowns.values()), epsilon_rule, steenrod,
    )
    # the consistency gate runs at parse time so bad configs never load; its spec is kept
    try:
        cfg.fibration_spec()
    except ValidationError as exc:  # a refusal about one declared name is located at its row
        section, name = getattr(exc, "subject", (None, None))
        where = [w for w, k, v in rows.get(section, ()) if _declares(section, k, v, name)]
        raise ConfigError([": ".join([*where, str(exc)])]) from None
    return cfg


def _declares(section: str, key: str, value: str, name: Optional[str]) -> bool:
    """Whether a row declares ``name``: a ``fibre`` degree row lists it, an unknown's is its key,
    and the derive row declares the derivation, named None."""
    if section == "unknowns":
        return key == name
    return key == "derive" if name is None else key != "derive" and name in value.split()


# ------------------------------------------------------------- text


def parse_config(text: str) -> WorkbenchConfig:
    problems: list[str] = []
    rows: dict[str, list[Row]] = {_TOP: []}
    section = rows[_TOP]  # lines under an unknown section are top-level keys
    for line_no, line in enumerate(text.splitlines(), start=1):
        if " #" in line:  # a comment runs from " #" or a leading "#"
            line = line.partition(" #")[0]
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                problems.append(f"line {line_no}: unknown section [{current}]")
                current = _TOP
            section = rows.setdefault(current, [])
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            problems.append(f"line {line_no}: expected key = value")
        elif not key:
            problems.append(f"line {line_no}: empty key")
        else:
            section.append((f"line {line_no}", key, value.strip()))
    return _build(problems, rows)


def load_config(path) -> WorkbenchConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {p}: {exc}"]) from None
    if p.suffix == ".json":
        return parse_config_json(text)
    return parse_config(text)
