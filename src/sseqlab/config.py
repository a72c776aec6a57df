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
            entry = dims.get(degree, DimEntry(0, exact=False))  # not derived: any count
            if names is None:
                names = tuple(
                    f"u_{degree}_{i}" if entry.value > 1 else f"u_{degree}"
                    for i in range(entry.value)
                )
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


def _located(problems: list[str], where: str, handle, *args):
    """``handle(*args)``, or None after recording ``<where>: <message>``."""
    try:
        return handle(*args)
    except (ValidationError, UsageError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _int(text: str, message: Optional[str] = None) -> int:
    """``int(text)``; failure is a ValidationError (by default int's message)."""
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(message or str(exc)) from None


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
    """Check each given section's rows; handlers raise, ``_located`` names the row."""

    def run(section, handle):
        for where, key, value in rows.get(section, ()):
            _located(problems, where, handle, key, value)

    degree_bound = 10
    seen_top: set[str] = set()
    def top(key, value):
        nonlocal degree_bound
        if key != "degree_bound":
            raise ValidationError(f"unknown top-level key {key!r}")
        if key in seen_top:
            raise ValidationError("duplicate degree_bound")
        seen_top.add(key)
        degree_bound = _int(value, f"degree_bound must be an integer, got {value!r}")
        if degree_bound < 1:
            raise ValidationError("degree_bound must be >= 1")

    pairs: list[tuple[str, int]] = []
    def generator(key, value):
        # emitted polynomials and sq<i> keys must read every name back
        if key in ("0", "1") or key[:1] == "#" or any(c.isspace() or c in "*^+;=" for c in key):
            raise ValidationError(f"generator name {key!r} cannot be read back in a polynomial")
        if any(name == key for name, _ in pairs):
            raise ValidationError(f"duplicate generator name {key!r}")
        degree = _int(value, f"generator {key!r}: degree must be an integer, got {value!r}")
        if degree < 1:
            raise ValidationError(f"generator {key!r}: degree must be >= 1, got {degree}")
        pairs.append((key, degree))

    entries: dict[int, TableEntry] = {}
    def homotopy_entry(key, value):
        degree = _int(key, f"homotopy degree must be an integer, got {key!r}")
        if degree < 1:
            raise ValidationError("homotopy degrees start at 1")
        if degree in entries:
            raise ValidationError(f"duplicate homotopy degree {degree}")
        group_text, _, citation = value.partition(";")
        group_text = group_text.strip()
        exact = not group_text.startswith(TableEntry.INEXACT)
        group = parse_group(group_text.removeprefix(TableEntry.INEXACT))
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
        degree = _int(key, f"fibre degree must be an integer, got {key!r}")
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

    unknowns: list[UnknownScalar] = []
    def unknown(key, value):
        if any(u.name == key for u in unknowns):
            raise ValidationError(f"duplicate unknown {key!r}")
        head, arrow, target = value.partition("->")
        tokens = head.split()
        if not arrow or len(tokens) != 2 or not tokens[0].startswith("d"):
            raise ValidationError("expected: name = d<page> generator -> polynomial")
        page = _int(tokens[0][1:], f"bad page token {tokens[0]!r}")
        if base is None:
            raise ValidationError("cannot check the unknown's target without a valid base")
        poly = parse_polynomial(base, target)
        poly.homogeneous_degree(base)  # raises on a mixed-degree target
        unknowns.append(UnknownScalar(key, tokens[1], page, poly))

    modulus: Optional[int] = None
    classes: list[tuple[str, tuple[int, ...]]] = []
    known: list[tuple[str, int]] = []
    def epsilon_line(key, value):
        nonlocal modulus
        if key == "modulus":
            if modulus is not None:
                raise ValidationError("duplicate modulus")
            modulus = _int(value, f"modulus must be an integer, got {value!r}")
        elif key == "class":
            residue_text, _, known_text = value.partition(":")
            bad = f"bad residue list {residue_text.strip()!r}"
            residues = tuple(_int(tok, bad) for tok in residue_text.split())
            if not residues:
                raise ValidationError("class line needs at least one residue")
            label = ",".join(str(x) for x in residues)
            classes.append((label, residues))
            if known_text.strip():
                bad = f"bad known value {known_text.strip()!r}"
                known.append((label, _int(known_text, bad)))
        else:
            raise ValidationError(f"unknown epsilon key {key!r}")

    squares: dict[str, dict[int, Polynomial]] = {}
    def square(key, value):
        tokens = key.split()
        if len(tokens) != 2 or not tokens[0].startswith("sq"):
            raise ValidationError("expected: sq<i> generator = polynomial")
        i = _int(tokens[0][2:], f"bad squaring index {tokens[0]!r}")
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
    base = PolyAlgebraSpec.from_pairs(pairs) if pairs else None
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
        base=base,
        degree_bound=degree_bound,
        homotopy=HomotopyTable(entries) if entries else None,
        fibre_derive=fibre_derive,
        fibre_explicit=fibre_explicit,
        unknowns=tuple(unknowns),
        epsilon_rule=epsilon_rule,
        steenrod=steenrod,
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
    current = _TOP  # lines under an unknown section are top-level keys
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition(" #")[0].strip()  # a comment runs from " #" or a leading "#"
        if not line or line[0] == "#":
            continue
        where = f"line {line_no}"
        if line[0] == "[" and line[-1] == "]":
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                problems.append(f"{where}: unknown section [{current}]")
                current = _TOP
            rows.setdefault(current, [])
            continue
        key, eq, value = line.partition("=")
        if not eq:
            problems.append(f"{where}: expected key = value")
        elif not key.strip():
            problems.append(f"{where}: empty key")
        else:
            rows[current].append((where, key.strip(), value.strip()))
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
