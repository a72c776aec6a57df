"""Workbench configuration: a sectioned key-value text format plus a JSON twin.

The text grammar is line oriented and strict: unknown sections or keys
are errors, every problem is reported with its line number, and
``emit_config`` produces a normalized form on which parse/emit is
idempotent.

Sections::

    degree_bound = 10        # top level, before any section

    [base]                   # required: generator = degree, in order
    x_4 = 4

    [homotopy]               # degree = group ; citation
    3 = Z ; source
    8 = contains Z/2 ; source    # "contains": even torsion not fully pinned

    [fibre]                  # derive = homotopy, and/or degree = names
    derive = homotopy
    6 = v_6 w_6

    [unknowns]               # name = d<page> generator -> polynomial
    eps = d6 u_5 -> x_6

    [epsilon]                # residue classes and proved values
    modulus = 4
    class = 0 : 0
    class = 2
    class = 1 3

    [steenrod]               # sq<i> generator = polynomial
    sq1 t = t^2

``derive = homotopy`` runs the triple-loop pipeline (the workbench
targets mapping spaces over the four-sphere, so the fibre is the
identity component of the triple loop space).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, UsageError, ValidationError
from .gauge import DEFAULT_EPSILON_RULE, EpsilonRule
from .graded import (
    PolyAlgebraSpec,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .homotopy import (
    FGAbelianGroup,
    HomotopyTable,
    TableEntry,
    fibre_truncation_dims,
    loopspace_shift,
)
from .specseq import FibrationSpec, UNIT_GEN, UnknownScalar
from .steenrod import SteenrodTable, table_from_entries

_SECTIONS = ("base", "homotopy", "fibre", "unknowns", "epsilon", "steenrod")


@dataclass
class WorkbenchConfig:
    base: PolyAlgebraSpec
    degree_bound: int = 10
    homotopy: Optional[HomotopyTable] = None
    fibre_derive: bool = False
    fibre_explicit: dict[int, tuple[str, ...]] = field(default_factory=dict)
    unknowns: tuple[UnknownScalar, ...] = ()
    epsilon_rule: EpsilonRule = DEFAULT_EPSILON_RULE
    epsilon_given: bool = False
    steenrod: Optional[SteenrodTable] = None

    def fibration_spec(self) -> FibrationSpec:
        """Assemble the engine input, enforcing the fibre consistency gate."""
        fibre: dict[int, tuple[str, ...]] = {0: (UNIT_GEN,)}
        if self.fibre_derive:
            if self.homotopy is None:
                raise ValidationError("fibre derivation needs a homotopy section")
            dims = fibre_truncation_dims(loopspace_shift(self.homotopy, 3))
            for degree, entry in dims.items():
                if degree == 0:
                    continue
                explicit = self.fibre_explicit.get(degree)
                if entry.value == 0 and entry.exact:
                    if explicit:
                        raise ValidationError(
                            f"fibre degree {degree} contradicts the derived truncation "
                            f"(derived 0, declared {len(explicit)})"
                        )
                    continue
                if explicit is None:
                    if entry.value <= 1:
                        names = (f"u_{degree}",)
                    else:
                        names = tuple(f"u_{degree}_{i}" for i in range(entry.value))
                else:
                    if entry.exact and len(explicit) != entry.value:
                        raise ValidationError(
                            f"fibre degree {degree} contradicts the derived truncation "
                            f"(derived {entry.value}, declared {len(explicit)})"
                        )
                    if not entry.exact and len(explicit) < entry.value:
                        raise ValidationError(
                            f"fibre degree {degree} declares fewer classes than the "
                            f"derived lower bound {entry.value}"
                        )
                    names = explicit
                fibre[degree] = names
            top = max(d for d, _ in dims.items())
            for degree, names in self.fibre_explicit.items():
                if degree > top:
                    fibre[degree] = names
        else:
            for degree, names in self.fibre_explicit.items():
                if degree == 0:
                    raise ValidationError("fibre degree 0 is implicit (the unit)")
                fibre[degree] = names
        return FibrationSpec(self.base, fibre, self.degree_bound, self.unknowns)


# ------------------------------------------------------------- group text


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
            rank += int(chunk[2:])
        elif chunk.startswith("Z/"):
            torsion.append(int(chunk[2:]))
        else:
            raise ValidationError(f"cannot read group term {chunk!r}")
    return FGAbelianGroup(rank, tuple(torsion))


# ------------------------------------------------------------- text parse


def _strip_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    cut = line.find(" #")
    return line[:cut] if cut >= 0 else line


def parse_config(text: str) -> WorkbenchConfig:
    problems: list[str] = []

    def err(line_no: int, message: str) -> None:
        problems.append(f"line {line_no}: {message}")

    # pass 1: split into sections of (line_no, key, value)
    sections: dict[str, list[tuple[int, str, str]]] = {name: [] for name in _SECTIONS}
    top: list[tuple[int, str, str]] = []
    current: Optional[str] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                err(line_no, f"unknown section [{name}]")
                current = None
            else:
                current = name
            continue
        if "=" not in line:
            err(line_no, "expected key = value")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            err(line_no, "empty key")
            continue
        if current is None:
            top.append((line_no, key, value))
        else:
            sections[current].append((line_no, key, value))

    # top level
    degree_bound = 10
    seen_top: set[str] = set()
    for line_no, key, value in top:
        if key != "degree_bound":
            err(line_no, f"unknown top-level key {key!r}")
            continue
        if key in seen_top:
            err(line_no, "duplicate degree_bound")
            continue
        seen_top.add(key)
        try:
            degree_bound = int(value)
            if degree_bound < 1:
                err(line_no, "degree_bound must be >= 1")
        except ValueError:
            err(line_no, f"degree_bound must be an integer, got {value!r}")

    # base
    base: Optional[PolyAlgebraSpec] = None
    pairs: list[tuple[str, int]] = []
    if not sections["base"]:
        problems.append("missing base section")
    for line_no, key, value in sections["base"]:
        if any(name == key for name, _ in pairs):
            err(line_no, f"duplicate generator name {key!r}")
            continue
        try:
            degree = int(value)
        except ValueError:
            err(line_no, f"generator {key!r}: degree must be an integer, got {value!r}")
            continue
        if degree < 1:
            err(line_no, f"generator {key!r}: degree must be >= 1, got {degree}")
            continue
        pairs.append((key, degree))
    if pairs:
        base = PolyAlgebraSpec.from_pairs(pairs)

    # homotopy
    homotopy = None
    entries: dict[int, TableEntry] = {}
    for line_no, key, value in sections["homotopy"]:
        try:
            degree = int(key)
        except ValueError:
            err(line_no, f"homotopy degree must be an integer, got {key!r}")
            continue
        if degree < 1:
            err(line_no, "homotopy degrees start at 1")
            continue
        if degree in entries:
            err(line_no, f"duplicate homotopy degree {degree}")
            continue
        group_text, _, citation = value.partition(";")
        group_text, citation = group_text.strip(), citation.strip()
        exact = True
        if group_text.startswith("contains "):
            exact = False
            group_text = group_text[len("contains "):].strip()
        try:
            group = parse_group(group_text)
        except (ValidationError, ValueError) as exc:
            err(line_no, str(exc))
            continue
        entries[degree] = TableEntry(group, exact, citation)
    if entries:
        homotopy = HomotopyTable(entries)

    # fibre
    fibre_derive = False
    fibre_explicit: dict[int, tuple[str, ...]] = {}
    for line_no, key, value in sections["fibre"]:
        if key == "derive":
            if value != "homotopy":
                err(line_no, f"derive understands only 'homotopy', got {value!r}")
            elif fibre_derive:
                err(line_no, "duplicate derive line")
            else:
                fibre_derive = True
            continue
        try:
            degree = int(key)
        except ValueError:
            err(line_no, f"fibre degree must be an integer, got {key!r}")
            continue
        if degree < 0:
            err(line_no, "fibre degrees are nonnegative")
            continue
        if degree in fibre_explicit:
            err(line_no, f"duplicate fibre degree {degree}")
            continue
        names = tuple(value.split())
        if not names:
            err(line_no, "fibre line needs at least one generator name")
            continue
        fibre_explicit[degree] = names

    # unknowns
    unknowns: list[UnknownScalar] = []
    for line_no, key, value in sections["unknowns"]:
        if any(u.name == key for u in unknowns):
            err(line_no, f"duplicate unknown {key!r}")
            continue
        head, arrow, target_text = value.partition("->")
        tokens = head.split()
        if not arrow or len(tokens) != 2 or not tokens[0].startswith("d"):
            err(line_no, "expected: name = d<page> generator -> polynomial")
            continue
        try:
            page = int(tokens[0][1:])
        except ValueError:
            err(line_no, f"bad page token {tokens[0]!r}")
            continue
        if base is None:
            err(line_no, "cannot check the unknown's target without a valid base")
            continue
        try:
            target = parse_polynomial(base, target_text)
        except ValidationError as exc:
            err(line_no, str(exc))
            continue
        unknowns.append(UnknownScalar(key, tokens[1], page, target))

    # epsilon
    epsilon_rule = DEFAULT_EPSILON_RULE
    epsilon_given = bool(sections["epsilon"])
    if epsilon_given:
        modulus = None
        classes: list[tuple[str, tuple[int, ...]]] = []
        known: list[tuple[str, int]] = []
        for line_no, key, value in sections["epsilon"]:
            if key == "modulus":
                if modulus is not None:
                    err(line_no, "duplicate modulus")
                    continue
                try:
                    modulus = int(value)
                except ValueError:
                    err(line_no, f"modulus must be an integer, got {value!r}")
            elif key == "class":
                residue_text, _, known_text = value.partition(":")
                try:
                    residues = tuple(int(tok) for tok in residue_text.split())
                except ValueError:
                    err(line_no, f"bad residue list {residue_text.strip()!r}")
                    continue
                if not residues:
                    err(line_no, "class line needs at least one residue")
                    continue
                label = ",".join(str(x) for x in residues)
                classes.append((label, residues))
                if known_text.strip():
                    try:
                        known.append((label, int(known_text)))
                    except ValueError:
                        err(line_no, f"bad known value {known_text.strip()!r}")
            else:
                err(line_no, f"unknown epsilon key {key!r}")
        if modulus is None:
            problems.append("epsilon section needs a modulus")
        else:
            try:
                epsilon_rule = EpsilonRule(modulus, tuple(classes), tuple(known))
            except ValidationError as exc:
                problems.append(f"epsilon section: {exc}")

    # steenrod: an empty section still yields the axiom-forced scaffold
    steenrod = None
    steenrod_given = bool(sections["steenrod"]) or _section_present(text, "steenrod")
    if steenrod_given and base is not None:
        gen_entries: dict[str, dict[int, Polynomial]] = {}
        ok = True
        for line_no, key, value in sections["steenrod"]:
            tokens = key.split()
            if len(tokens) != 2 or not tokens[0].startswith("sq"):
                err(line_no, "expected: sq<i> generator = polynomial")
                ok = False
                continue
            try:
                i = int(tokens[0][2:])
            except ValueError:
                err(line_no, f"bad squaring index {tokens[0]!r}")
                ok = False
                continue
            gen = tokens[1]
            try:
                base.index_of(gen)
                poly = parse_polynomial(base, value)
            except (ValidationError, UsageError) as exc:
                err(line_no, str(exc))
                ok = False
                continue
            if i in gen_entries.get(gen, {}):
                err(line_no, f"duplicate entry sq{i} {gen}")
                ok = False
                continue
            gen_entries.setdefault(gen, {})[i] = poly
        if ok:
            steenrod = table_from_entries(base, gen_entries)

    if problems:
        raise ConfigError(problems)
    assert base is not None
    cfg = WorkbenchConfig(
        base=base,
        degree_bound=degree_bound,
        homotopy=homotopy,
        fibre_derive=fibre_derive,
        fibre_explicit=fibre_explicit,
        unknowns=tuple(unknowns),
        epsilon_rule=epsilon_rule,
        epsilon_given=epsilon_given,
        steenrod=steenrod,
    )
    # the consistency gate runs at parse time so bad configs never load
    if cfg.fibre_derive or cfg.fibre_explicit or cfg.unknowns:
        try:
            cfg.fibration_spec()
        except ValidationError as exc:
            raise ConfigError([str(exc)]) from None
    return cfg


def _section_present(text: str, name: str) -> bool:
    needle = f"[{name}]"
    return any(
        _strip_comment(line).strip() == needle for line in text.splitlines()
    )


# ------------------------------------------------------------- JSON twin


def parse_config_json(text: str) -> WorkbenchConfig:
    """JSON-equivalent import path; mirrors the text sections."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    lines = []
    if "degree_bound" in data:
        lines.append(f"degree_bound = {data['degree_bound']}")
    lines.append("[base]")
    for name, degree in data.get("base", []):
        lines.append(f"{name} = {degree}")
    if "homotopy" in data:
        lines.append("[homotopy]")
        for degree, entry in sorted(data["homotopy"].items(), key=lambda kv: int(kv[0])):
            prefix = "contains " if not entry.get("exact", True) else ""
            citation = entry.get("citation", "")
            suffix = f" ; {citation}" if citation else ""
            lines.append(f"{degree} = {prefix}{entry['group']}{suffix}")
    if "fibre" in data:
        lines.append("[fibre]")
        fibre = data["fibre"]
        if fibre.get("derive"):
            lines.append("derive = homotopy")
        for degree, names in sorted(
            fibre.get("generators", {}).items(), key=lambda kv: int(kv[0])
        ):
            lines.append(f"{degree} = {' '.join(names)}")
    if "unknowns" in data:
        lines.append("[unknowns]")
        for u in data["unknowns"]:
            lines.append(f"{u['name']} = d{u['page']} {u['generator']} -> {u['target']}")
    if "epsilon" in data:
        lines.append("[epsilon]")
        eps = data["epsilon"]
        lines.append(f"modulus = {eps['modulus']}")
        for cls in eps.get("classes", []):
            residues = " ".join(str(r) for r in cls["residues"])
            if "known" in cls:
                lines.append(f"class = {residues} : {cls['known']}")
            else:
                lines.append(f"class = {residues}")
    if "steenrod" in data:
        lines.append("[steenrod]")
        for gen, table in sorted(data["steenrod"].items()):
            for i, poly in sorted(table.items(), key=lambda kv: int(kv[0])):
                lines.append(f"sq{i} {gen} = {poly}")
    return parse_config("\n".join(lines))


def load_config(path) -> WorkbenchConfig:
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {p}: {exc}"]) from None
    if p.suffix == ".json":
        return parse_config_json(text)
    return parse_config(text)


# ------------------------------------------------------------- emission


def emit_config(cfg: WorkbenchConfig) -> str:
    """Normalized text form; parse/emit round-trips are idempotent."""
    out = [f"degree_bound = {cfg.degree_bound}", ""]
    out.append("[base]")
    for name, degree in cfg.base.generators:
        out.append(f"{name} = {degree}")
    if cfg.homotopy is not None:
        out.append("")
        out.append("[homotopy]")
        for degree, entry in cfg.homotopy.items():
            suffix = f" ; {entry.citation}" if entry.citation else ""
            out.append(f"{degree} = {entry}{suffix}")
    if cfg.fibre_derive or cfg.fibre_explicit:
        out.append("")
        out.append("[fibre]")
        if cfg.fibre_derive:
            out.append("derive = homotopy")
        for degree in sorted(cfg.fibre_explicit):
            out.append(f"{degree} = {' '.join(cfg.fibre_explicit[degree])}")
    if cfg.unknowns:
        out.append("")
        out.append("[unknowns]")
        for u in cfg.unknowns:
            target = format_polynomial(cfg.base, u.target)
            out.append(f"{u.name} = d{u.page} {u.generator} -> {target}")
    if cfg.epsilon_given:
        out.append("")
        out.append("[epsilon]")
        out.append(f"modulus = {cfg.epsilon_rule.modulus}")
        for label, residues in cfg.epsilon_rule.classes:
            known = cfg.epsilon_rule.known(label)
            residue_text = " ".join(str(r) for r in residues)
            if known is None:
                out.append(f"class = {residue_text}")
            else:
                out.append(f"class = {residue_text} : {known}")
    if cfg.steenrod is not None:
        out.append("")
        out.append("[steenrod]")
        for (gen, i), poly in sorted(cfg.steenrod.action.items()):
            if poly is None:
                continue
            out.append(f"sq{i} {gen} = {format_polynomial(cfg.base, poly)}")
    return "\n".join(out) + "\n"
