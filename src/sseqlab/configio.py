"""The JSON twin of the config format, and the normalized text emission.

Loaded only to read a ``.json`` config or to emit one; ``sseqlab.config``
keeps ``parse_config_json`` and ``emit_config`` as stand-ins that load it.
"""

from __future__ import annotations

import json

from .config import _TOP, Row, WorkbenchConfig, _build, _located, _token
from .errors import ConfigError, ValidationError
from .graded import format_polynomial
from .homotopy import TableEntry


def _members(where: str, body, kind: type) -> list[tuple[str, object, object]]:
    """(path, key, member) for each member of a JSON list or object."""
    if not isinstance(body, kind):
        raise ValidationError(f"expected a JSON {'list' if kind is list else 'object'}")
    if kind is list:
        return [(f"{where}[{i}]", i, member) for i, member in enumerate(body)]
    return [(f"{where}.{key}", key, member) for key, member in body.items()]


def _fields(entry, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """A JSON object holding every required field and no unknown one."""
    if not isinstance(entry, dict):
        raise ValidationError(f"expected a JSON object with {', '.join(required)}")
    for name in required:
        if name not in entry:
            raise ValidationError(f"missing field {name!r}")
    for name in entry:
        if name not in required + optional:
            raise ValidationError(f"unknown field {name!r}")
    return entry


def _words(member, noun: str = "name") -> str:
    if not isinstance(member, list):
        raise ValidationError(f"expected a JSON list of {noun}s")
    return " ".join(_token(word, noun) for word in member)


def _flag(member, name: str) -> bool:  # a JSON boolean, not a truthy "false", 0 or []
    if not isinstance(member, bool):
        raise ValidationError(f"{name} must be true or false, got {member!r}")
    return member


def _json_generator(_index, pair) -> tuple[str, str]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValidationError("expected a [name, degree] pair")
    return pair[0], pair[1]


def _json_homotopy(degree, entry) -> tuple[str, str]:
    _fields(entry, ("group",), ("exact", "citation"))
    group, citation = entry["group"], entry.get("citation", "")
    for noun, text, stops in (("group", group, (";", " #")), ("citation", citation, (" #",))):
        if not isinstance(text, str):  # not str()'s reading of a number, list or boolean
            raise ValidationError(f"{noun} must be a string, got {text!r}")
        # the text form reads both from one line, where " #" starts a comment and ";" ends the group
        if text.splitlines() not in ([], [text]) or any(c in f" {text}" for c in stops):
            raise ValidationError(f"{noun} {text!r} cannot be read back in the text form")
    if group.strip().startswith(TableEntry.INEXACT):  # exactness is the "exact" field alone
        raise ValidationError(f'group {group!r} carries a text prefix; JSON says "exact": false')
    text = f"{'' if _flag(entry.get('exact', True), 'exact') else TableEntry.INEXACT}{group}"
    return degree, f"{text} ; {citation}" if citation else text


def _json_unknown(_index, entry) -> tuple[str, str]:
    u = _fields(entry, ("name", "page", "generator", "target"))
    name = _token(u["name"], "unknown name", "=")  # the text form's key ends at its first '='
    return name, f"d{u['page']} {u['generator']} -> {u['target']}"


def _json_class(_index, entry) -> tuple[str, str]:
    _fields(entry, ("residues",), ("known",))
    residues = _words(entry["residues"], "residue")
    return "class", f"{residues} : {entry['known']}" if "known" in entry else residues


def parse_config_json(text: str) -> WorkbenchConfig:
    """JSON-equivalent import path; problems are located by JSON path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    problems: list[str] = []
    rows: dict[str, list[Row]] = {_TOP: []}

    def walk(section, where, body, kind, row):
        """Add ``row(key, member)``, unless None, for each member of a JSON list or object."""
        for path, key, member in _located(problems, where, _members, where, body, kind) or ():
            found = _located(problems, path, row, key, member)
            if found:
                rows[section].append((path, str(found[0]), str(found[1])))

    def fibre(key, member):
        if key == "generators":
            walk("fibre", "fibre.generators", member, dict, lambda d, n: (d, _words(n)))
        elif key != "derive":
            raise ValidationError(f"unknown field {key!r}")
        elif _flag(member, "derive"):
            return "derive", "homotopy"

    def epsilon(key, member):
        if key == "classes":
            walk("epsilon", "epsilon.classes", member, list, _json_class)
        elif key != "modulus":
            raise ValidationError(f"unknown field {key!r}")
        else:
            return "modulus", member

    def steenrod(gen, table):
        walk("steenrod", f"steenrod.{gen}", table, dict, lambda i, p: (f"sq{i} {gen}", p))

    shapes = {
        "base": (list, _json_generator),
        "homotopy": (dict, _json_homotopy),
        "fibre": (dict, fibre),
        "unknowns": (list, _json_unknown),
        "epsilon": (dict, epsilon),
        "steenrod": (dict, steenrod),
    }
    for name, body in data.items():
        if name in shapes:
            rows[name] = []
            walk(name, name, body, *shapes[name])
        else:
            rows[_TOP].append((name, name, str(body)))
    return _build(problems, rows)


def emit_config(cfg: WorkbenchConfig) -> str:
    """Normalized text form; parse/emit round-trips are idempotent."""
    out = [f"degree_bound = {cfg.degree_bound}", "", "[base]"]
    out += [f"{name} = {degree}" for name, degree in cfg.base.generators]
    if cfg.homotopy is not None:
        out += ["", "[homotopy]"]
        for degree, entry in cfg.homotopy.items():
            suffix = f" ; {entry.citation}" if entry.citation else ""
            out.append(f"{degree} = {entry}{suffix}")
    if cfg.fibre_derive or cfg.fibre_explicit:
        out += ["", "[fibre]"] + ["derive = homotopy"] * cfg.fibre_derive
        out += [f"{d} = {' '.join(names)}" for d, names in sorted(cfg.fibre_explicit.items())]
    if cfg.unknowns:
        out += ["", "[unknowns]"]
        for u in cfg.unknowns:
            target = format_polynomial(cfg.base, u.target)
            out.append(f"{u.name} = d{u.page} {u.generator} -> {target}")
    if cfg.epsilon_rule is not None:
        out += ["", "[epsilon]", f"modulus = {cfg.epsilon_rule.modulus}"]
        for label, residues in cfg.epsilon_rule.classes:
            known = cfg.epsilon_rule.known(label)
            residue_text = " ".join(str(r) for r in residues)
            out.append(f"class = {residue_text}" + ("" if known is None else f" : {known}"))
    if cfg.steenrod is not None:
        out += ["", "[steenrod]"]
        for (gen, i), poly in sorted(cfg.steenrod.action.items()):
            if poly is not None:
                out.append(f"sq{i} {gen} = {format_polynomial(cfg.base, poly)}")
    return "\n".join(out) + "\n"
