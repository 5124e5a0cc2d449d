"""JSON file formats for complexes, ideals, and collapse certificates.

Complex file:      {"facets": [["1", "2"], ["2", "3", "4"]]}
Ideal file:        {"variables": ["x", "y"], "generators": ["x*y^2", ...]}
Certificate file:  {"steps": [{"free": [...], "coface": [...]}, ...],
                    "terminal": [["1"]]}

Vertex-name order inside a facet is irrelevant; duplicate names in a facet
or in a step's face, and duplicate facets, are rejected.  All emitters
produce deterministic, canonically ordered JSON data that re-parses to an
equal value.
"""

from __future__ import annotations

import json

from .collapse import CollapseSequence, CollapseStep
from .complexes import SimplicialComplex, face_sorted
from .errors import InputFileError, MonomialParseError
from .monomials import _NAME_RE, MonomialIdeal, format_monomial, parse_monomial


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputFileError("invalid JSON: " + exc.msg, path=path,
                             location=f"line {exc.lineno}, column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise InputFileError("invalid JSON: not UTF-8 text", path=path,
                             location=f"byte {exc.start}") from None
    except ValueError as exc:
        # an integer literal longer than int()'s digit limit
        raise InputFileError(f"invalid JSON: {exc}", path=path) from None
    except RecursionError:
        raise InputFileError("invalid JSON: nested too deeply", path=path) from None
    except OSError as exc:
        raise InputFileError(f"cannot read: {exc.strerror}", path=path) from None


def _check_names(names, path, loc):
    for name in names:
        if not isinstance(name, str) or not name:
            raise InputFileError(f"bad vertex name {name!r}", path=path, location=loc)
    if len(set(names)) != len(names):
        raise InputFileError("duplicate vertex name", path=path, location=loc)


def _facet_list(raw, key, path):
    # ``raw`` is the facet list stored under ``key``, which errors name
    if not isinstance(raw, list) or not raw:
        raise InputFileError(f'"{key}" must be a nonempty list', path=path)
    facets = []
    for i, entry in enumerate(raw):
        loc = f"{key}[{i}]"
        if not isinstance(entry, list) or not entry:
            raise InputFileError("each facet must be a nonempty list of names",
                                 path=path, location=loc)
        _check_names(entry, path, loc)
        face = frozenset(entry)
        if face in facets:
            raise InputFileError("duplicate facet", path=path, location=loc)
        facets.append(face)
    return facets


def parse_complex_data(data, path=None) -> SimplicialComplex:
    if not isinstance(data, dict) or "facets" not in data:
        raise InputFileError('expected an object with a "facets" key', path=path)
    return SimplicialComplex(_facet_list(data["facets"], "facets", path))


def load_complex(path) -> SimplicialComplex:
    return parse_complex_data(_load_json(path), path)


def complex_to_data(complex_: SimplicialComplex) -> dict:
    return {"facets": [list(face_sorted(f)) for f in complex_.facets]}


def parse_ideal_data(data, path=None) -> MonomialIdeal:
    if not isinstance(data, dict) or "variables" not in data or "generators" not in data:
        raise InputFileError('expected an object with "variables" and "generators"',
                             path=path)
    variables = data["variables"]
    if not isinstance(variables, list):
        raise InputFileError('"variables" must be a list of names', path=path)
    for i, name in enumerate(variables):
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise InputFileError(f"bad variable name {name!r}", path=path,
                                 location=f"variables[{i}]")
    raw = data["generators"]
    if not isinstance(raw, list) or not raw:
        raise InputFileError('"generators" must be a nonempty list', path=path)
    gens = []
    for i, text in enumerate(raw):
        loc = f"generators[{i}]"
        if not isinstance(text, str):
            raise InputFileError("generators must be strings", path=path, location=loc)
        try:
            gens.append(parse_monomial(text))
        except MonomialParseError as exc:
            raise InputFileError(str(exc), path=path, location=loc) from None
    try:
        return MonomialIdeal(variables, gens)
    except ValueError as exc:
        raise InputFileError(str(exc), path=path) from None


def load_ideal(path) -> MonomialIdeal:
    return parse_ideal_data(_load_json(path), path)


def ideal_to_data(ideal: MonomialIdeal) -> dict:
    return {"variables": list(ideal.variables),
            "generators": [format_monomial(g, ideal.variables)
                           for g in ideal.generators]}


def sequence_to_data(sequence: CollapseSequence) -> dict:
    return {"steps": [{"free": list(face_sorted(s.free_face)),
                       "coface": list(face_sorted(s.coface))}
                      for s in sequence.steps],
            "terminal": complex_to_data(sequence.terminal)["facets"]}


def parse_sequence_data(data, path=None) -> CollapseSequence:
    if not isinstance(data, dict) or "steps" not in data or "terminal" not in data:
        raise InputFileError('expected an object with "steps" and "terminal"', path=path)
    if not isinstance(data["steps"], list):
        raise InputFileError('"steps" must be a list', path=path, location="steps")
    steps = []
    for i, entry in enumerate(data["steps"]):
        loc = f"steps[{i}]"
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("free"), list)
                or not isinstance(entry.get("coface"), list)):
            raise InputFileError('each step needs "free" and "coface" lists',
                                 path=path, location=loc)
        _check_names(entry["free"], path, loc)
        _check_names(entry["coface"], path, loc)
        steps.append(CollapseStep(frozenset(entry["free"]), frozenset(entry["coface"])))
    terminal = SimplicialComplex(_facet_list(data["terminal"], "terminal", path))
    return CollapseSequence(tuple(steps), terminal)


def load_sequence(path) -> CollapseSequence:
    return parse_sequence_data(_load_json(path), path)


def dump_json(data, path) -> None:
    try:
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise InputFileError(f"cannot write: {exc.strerror}", path=path) from None
