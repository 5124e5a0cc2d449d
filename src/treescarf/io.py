"""JSON file formats for complexes, ideals, and collapse certificates.

Complex file:      {"facets": [["1", "2"], ["2", "3", "4"]]}
Ideal file:        {"variables": ["x", "y"], "generators": ["x*y^2", ...]}
Certificate file:  {"steps": [{"free": [...], "coface": [...]}, ...],
                    "terminal": [["1"]]}

Vertex-name order inside a facet is irrelevant; duplicate names in a facet
or in a step's face, and duplicate facets, are rejected.  All emitters
produce deterministic, canonically ordered JSON data that re-parses to an
equal value.  One writer, ``json_text``, turns that data into text: the
exact bytes of ``json.dumps(data, indent=2, sort_keys=True)``, built from
leaves that json's C encoder quotes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .collapse import CollapseSequence, CollapseStep
from .complexes import SimplicialComplex, face_sorted, vertex_key
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
    # one vertex_key sort of every name, then each face sorts by index
    steps = sequence.steps
    names = set().union(*(s.free_face for s in steps), *(s.coface for s in steps))
    index = {v: i for i, v in enumerate(sorted(names, key=vertex_key))}.__getitem__
    return {"steps": [{"free": sorted(s.free_face, key=index),
                       "coface": sorted(s.coface, key=index)}
                      for s in steps],
            "terminal": complex_to_data(sequence.terminal)["facets"]}


def _mask_steps_to_data(vertices, pairs, terminal) -> dict:
    # the certificate data of (free, coface) vertex-mask pairs and terminal
    # facet masks over a complex's vertices; bit order is vertex_key order,
    # so each face's names come out sorted.  A face's names are those of
    # the face without its top vertex, kept, plus that vertex's name.
    known = {0: []}

    def names(mask):
        found = known.get(mask)
        if found is None:
            top = mask.bit_length() - 1
            found = known[mask] = names(mask ^ (1 << top)) + [vertices[top]]
        return found

    return {"steps": [{"free": names(free), "coface": names(coface)}
                      for free, coface in pairs],
            "terminal": list(map(names, terminal))}


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
    text = json_text(data) + "\n"
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputFileError(f"cannot write: {exc.strerror}", path=path) from None


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a JSON value
    (objects with str keys).

    json encodes in C only without indentation, and its pure-Python
    indenting encoder is slow.  This writer lays out the same text and
    leaves strings to json's C quoting, which a list of strings gets in
    one join.  A ``_Laid`` value, text this writer laid out before, is
    placed as it is, at its depth.
    """
    parts: list[str] = []
    _write(value, "\n", parts)
    return "".join(parts)


class _Laid:
    """JSON text that ``json_text`` laid out at the top level, to be placed
    inside another value without laying it out again.  JSON text holds no
    raw newline inside a string, so moving it to a deeper indentation only
    adds that indentation after each newline."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_NON_FINITE = {float("inf"): "Infinity", float("-inf"): "-Infinity"}

# newline + indentation -> the strings a container at that indentation
# uses: its items' newline, the separator before each later item, and the
# opening, separator and closing of a string list held under a key
_LAYOUTS: dict[str, tuple[str, str, str, str, str]] = {}


def _layout(newline: str) -> tuple[str, str, str, str, str]:
    layout = _LAYOUTS.get(newline)
    if layout is None:
        inner = newline + "  "
        deeper = "," + inner + "  "
        layout = _LAYOUTS[newline] = (inner, "," + inner, ": [" + deeper[1:],
                                      deeper, inner + "]")
    return layout


def _write(value, newline, parts) -> None:
    # the value at the indentation that ``newline`` ends with; containers
    # come first, as they are the common case
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner, comma = _layout(newline)[:2]
        try:
            parts.append("[" + inner + comma.join(map(_quote, value))
                         + newline + "]")
            return
        except TypeError:
            pass  # not all strings
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, inner, parts)
            sep = comma
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner, comma, opening, deeper, closing = _layout(newline)
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if item and isinstance(item, (list, tuple)):
                # a nonempty list of strings is one join, with no call
                try:
                    parts += (sep, _quote(key), opening,
                              deeper.join(map(_quote, item)), closing)
                    sep = comma
                    continue
                except TypeError:
                    pass  # not all strings
            parts.append(sep + _quote(key) + ": ")
            _write(item, inner, parts)
            sep = comma
        parts.append(newline + "}")
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append("NaN" if value != value
                     else _NON_FINITE.get(value) or float.__repr__(value))
    elif isinstance(value, _Laid):
        parts.append(value.text.replace("\n", newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
