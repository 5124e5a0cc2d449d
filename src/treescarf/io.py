"""JSON file formats for complexes, ideals, and collapse certificates.

Complex file:      {"facets": [["1", "2"], ["2", "3", "4"]]}
Ideal file:        {"variables": ["x", "y"], "generators": ["x*y^2", ...]}
Certificate file:  {"steps": [{"free": [...], "coface": [...]}, ...],
                    "terminal": [["1"]]}

Vertex-name order inside a facet is irrelevant; duplicate names in a facet
or in a step's face, and duplicate facets, are rejected.  All emitters
produce deterministic, canonically ordered JSON data that re-parses to an
equal value, and ``json_text`` writes it as ``json.dumps(data, indent=2,
sort_keys=True)`` writes it.  The one exception is a collapse certificate,
which can run to megabytes: ``_certificate_text`` lays out the same bytes
straight from the step masks, with no data in between.  A report holds
that text as a ``_Laid`` value, which ``json_text`` places at its depth.

Each command runs in its own process, so ``collapse`` and ``monomials``
are imported inside the readers and writers that use them: a command
loads only the layers it runs.  For the same reason no valid input loads
the ``json`` package, whose import compiles six regular expressions.
Files are read by the C scanner that ``json.loads`` runs, and text is
written by a short recursive writer over json's C string quoter, both
from ``_json``.  What they do not handle goes to ``json`` itself,
imported only then: a text that fails to scan or has trailing data, and
a value of another type.  So every value, text and error is json's.
Without ``_json`` (an interpreter other than CPython) files are read by
``json.loads`` and strings quoted by json's pure-Python quoter.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, _bit_indices, face_sorted
from .errors import InputFileError, MonomialParseError

try:
    from _json import encode_basestring_ascii as _quote
    from _json import make_scanner
except ImportError:  # an interpreter without json's C accelerators
    from json.encoder import encode_basestring_ascii as _quote
    make_scanner = None


class _LoadsSettings:
    # what json.loads hands its C scanner: strict strings, no hooks, and
    # NaN and Infinity read as floats
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


_scan = None if make_scanner is None else make_scanner(_LoadsSettings)
_SPACE = " \t\n\r"  # JSON's whitespace


def _parse_json(text):
    """``json.loads(text)``: the value, or json's own exception.

    A text with one value between JSON whitespace is read by the C scanner
    that json.loads runs, with the same settings.  Anything else, and
    whatever the scan raises (without ``json.decoder`` loaded it raises
    ``SystemError`` or ``StopIteration`` where json raises
    ``JSONDecodeError``), goes to json.loads itself, imported only then.
    """
    if _scan is not None:
        start = len(text) - len(text.lstrip(_SPACE))
        try:
            value, end = _scan(text, start)
        except Exception:  # json.loads below raises what json raises
            pass
        else:
            if not text[end:].strip(_SPACE):
                return value
    import json
    return json.loads(text)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return _parse_json(handle.read())
    except UnicodeDecodeError as exc:
        raise InputFileError("invalid JSON: not UTF-8 text", path=path,
                             location=f"byte {exc.start}") from None
    except ValueError as exc:
        # json is loaded: only its decoder raises a ValueError here
        from json import JSONDecodeError
        if isinstance(exc, JSONDecodeError):
            raise InputFileError("invalid JSON: " + exc.msg, path=path,
                                 location=f"line {exc.lineno}, column {exc.colno}") from None
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
    seen = set()
    for i, entry in enumerate(raw):
        loc = f"{key}[{i}]"
        if not isinstance(entry, list) or not entry:
            raise InputFileError("each facet must be a nonempty list of names",
                                 path=path, location=loc)
        _check_names(entry, path, loc)
        face = frozenset(entry)
        if face in seen:
            raise InputFileError("duplicate facet", path=path, location=loc)
        seen.add(face)
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
    from .monomials import MonomialIdeal, _is_name, parse_monomial
    if not isinstance(data, dict) or "variables" not in data or "generators" not in data:
        raise InputFileError('expected an object with "variables" and "generators"',
                             path=path)
    variables = data["variables"]
    if not isinstance(variables, list):
        raise InputFileError('"variables" must be a list of names', path=path)
    for i, name in enumerate(variables):
        if not isinstance(name, str) or not _is_name(name):
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
    from .monomials import format_monomial
    return {"variables": list(ideal.variables),
            "generators": [format_monomial(g, ideal.variables)
                           for g in ideal.generators]}


def _names(vertices, mask) -> list[str]:
    # the names of a face mask over a complex's vertices; bit order is
    # vertex_key order, so they come out sorted
    return list(map(vertices.__getitem__, _bit_indices(mask)))


# a step of a certificate, {"coface": [...], "free": [...]}, as json_text
# lays it out inside the top-level "steps" list; each %s is a face's name
# list at that depth (see _StepNames)
_STEP = '    {\n      "coface": %s,\n      "free": %s\n    }'
_CLOSE = "\n      ]"  # the end of a nonempty name list in a step
_OPEN = -len(_CLOSE)  # slices a nonempty name list open again


class _StepNames(dict):
    """Face mask -> the text of its name list inside a step: the text of
    the face without its top vertex, its closing bracket cut, then that
    vertex's line and the bracket.  Each name is quoted once."""

    def __init__(self, vertices):
        super().__init__({0: "[]"})
        lines = [f"\n        {name}{_CLOSE}" for name in map(_quote, vertices)]
        self.first = ["[" + line for line in lines]
        self.later = ["," + line for line in lines]

    def __missing__(self, mask):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        text = self[mask] = (self[rest][:_OPEN] + self.later[top] if rest
                             else self.first[top])
        return text


def _certificate_text(vertices, pairs, terminal) -> str:
    """The certificate of (free, coface) vertex-mask pairs and terminal
    facet masks over ``vertices``, as ``json_text`` lays out its data
    ``{"steps": [{"free": names, "coface": names}, ...], "terminal":
    [names, ...]}``.

    Laid out straight from the masks: each step is one template filled
    with its two faces' texts, and each face's text is its parent's plus
    one name (see ``_StepNames``).  Only the terminal, a few facets, goes
    through ``_lay_out``.
    """
    parts = ['{\n  "steps": [']
    if pairs:
        names = _StepNames(vertices)
        parts += ["\n", ",\n".join([_STEP % (names[coface], names[free])
                                   for free, coface in pairs]), "\n  "]
    parts.append('],\n  "terminal": ')
    _lay_out([_names(vertices, f) for f in terminal], parts, "\n  ")
    parts.append("\n}")
    return "".join(parts)


def parse_sequence_data(data, path=None) -> CollapseSequence:
    from .collapse import CollapseSequence, CollapseStep
    if not isinstance(data, dict) or "steps" not in data or "terminal" not in data:
        raise InputFileError('expected an object with "steps" and "terminal"', path=path)
    if not isinstance(data["steps"], list):
        raise InputFileError('"steps" must be a list', path=path, location="steps")
    steps = []
    for i, entry in enumerate(data["steps"]):
        loc = f"steps[{i}]"
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("free"), list) or not entry["free"]
                or not isinstance(entry.get("coface"), list) or not entry["coface"]):
            raise InputFileError('each step needs nonempty "free" and "coface" lists',
                                 path=path, location=loc)
        _check_names(entry["free"], path, loc)
        _check_names(entry["coface"], path, loc)
        steps.append(CollapseStep(frozenset(entry["free"]), frozenset(entry["coface"])))
    terminal = SimplicialComplex(_facet_list(data["terminal"], "terminal", path))
    return CollapseSequence(tuple(steps), terminal)


def load_sequence(path) -> CollapseSequence:
    return parse_sequence_data(_load_json(path), path)


def dump_json(data, path) -> None:
    _write_file(json_text(data), path)


def _write_file(text, path) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InputFileError(f"cannot write: {exc.strerror}", path=path) from None


class _Laid:
    """JSON text already laid out at depth 0, as ``json_text`` writes it,
    for ``_lay_out`` to place as a value at any depth.  Not a ``str``, so
    json.dumps rejects it rather than writing it as a string."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def json_text(value) -> str:
    """The text of every report, JSON error and file this package writes:
    ``json.dumps(value, indent=2, sort_keys=True)``.

    Written by ``_lay_out`` when the value is made of the types reports
    hold; any other value goes to json, imported only then, which writes
    it or raises as it always does.
    """
    parts = []
    try:
        _lay_out(value, parts, "\n")
    except (TypeError, ValueError, RecursionError):
        # another type, an int too long for repr, or a cycle
        import json
        return json.dumps(value, indent=2, sort_keys=True)
    return "".join(parts)


def _lay_out(value, parts, newline) -> None:
    """Append to ``parts`` the text json.dumps(indent=2, sort_keys=True)
    gives ``value``, at the depth whose line break and indent is
    ``newline``.  Only dicts with str keys, lists, str, int, bool, None
    and ``_Laid`` text are taken, each of exactly that type; anything else
    is a TypeError."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True or value is False:
        parts.append("true" if value else "false")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is list and value:
        inner = newline + "  "
        parts.append("[")
        for item in value:
            parts.append(inner)
            _lay_out(item, parts, inner)
            parts.append(",")
        parts[-1] = newline + "]"  # the last item's comma
    elif kind is dict and value:
        inner = newline + "  "
        parts.append("{")
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError("a key that is not a str")
            parts += inner, _quote(key), ": "
            _lay_out(value[key], parts, inner)
            parts.append(",")
        parts[-1] = newline + "}"
    elif kind is list or kind is dict:
        parts.append("[]" if kind is list else "{}")
    elif kind is _Laid:
        parts.append(value.text.replace("\n", newline))
    else:
        raise TypeError(f"{kind.__name__} is not laid out here")
