"""Command-line interface: reports, file round trips, determinism, errors."""

import gc
import json
import marshal
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import treescarf
from treescarf import (BettiTable, CollapseSequence, LabeledComplex, Monomial,
                       MonomialIdeal, SimplicialComplex, tree_collapse_certificate,
                       verify_sequence)
from treescarf import cli, collapse, errors, io, parse_monomial, resolution
from treescarf import complexes as complexes_module
from treescarf.cli import main
from treescarf.errors import InputFileError
from treescarf.io import (complex_to_data, ideal_to_data, load_complex,
                          load_ideal, load_sequence, parse_complex_data,
                          parse_ideal_data, parse_sequence_data)

import oracles

TAIL_FACETS = {"facets": [["1", "2", "3"], ["2", "3", "4"], ["4", "5"]]}
DIAMOND_FACETS = {"facets": [["1", "2", "4"], ["2", "3", "4"]]}
SPREAD_IDEAL = {"variables": ["x", "y", "z", "u"],
                "generators": ["x*y^2", "y*z", "x*z^2", "z*u"]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (("tail", TAIL_FACETS), ("diamond", DIAMOND_FACETS),
                       ("ideal", SPREAD_IDEAL)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- file formats -----------------------------------------------------------------

def test_complex_file_round_trip():
    c = parse_complex_data(TAIL_FACETS)
    assert parse_complex_data(complex_to_data(c)) == c


def test_ideal_file_round_trip():
    ideal = parse_ideal_data(SPREAD_IDEAL)
    assert parse_ideal_data(ideal_to_data(ideal)) == ideal


@pytest.mark.parametrize("data", [
    {},
    {"facets": []},
    {"facets": [[]]},
    {"facets": [["1", "1"]]},
    {"facets": [["1", "2"], ["2", "1"]]},
    {"facets": [["1", 2]]},
])
def test_bad_complex_data_rejected(data):
    with pytest.raises(InputFileError):
        parse_complex_data(data)


@pytest.mark.parametrize("facets, message, location", [
    # the repeat has its names reordered and comes two facets after the first
    ([["1", "2", "3"], ["3", "4"], ["4", "5"], ["3", "1", "2"]],
     "duplicate facet", "facets[3]"),
    # the first problem in file order wins: the repeat before the empty facet
    ([["a", "b"], ["c"], ["b", "a"], []], "duplicate facet", "facets[2]"),
    ([["1", "2"], ["2", "3", "4", "2"]], "duplicate vertex name", "facets[1]"),
    # a facet that repeats a name is reported for the name, even when it
    # also repeats an earlier facet
    ([["1", "2"], ["3"], ["2", "1", "2"]], "duplicate vertex name", "facets[2]"),
])
def test_duplicates_in_a_complex_file_are_located(facets, message, location):
    with pytest.raises(InputFileError) as err:
        parse_complex_data({"facets": facets})
    assert err.value.location == location
    assert message in str(err.value)


BAD_IDEALS = [
    ({"variables": ["x"]}, None),
    ({"variables": ["x"], "generators": []}, None),
    ({"variables": ["x"], "generators": ["x*"]}, "generators[0]"),
    ({"variables": ["x"], "generators": ["y"]}, None),
    ({"variables": ["x", "y"], "generators": ["x", "x*y"]}, None),
    ({"variables": ["x", "a-1"], "generators": ["x"]}, "variables[1]"),
    ({"variables": ["x", " "], "generators": ["x"]}, "variables[1]"),
]


@pytest.mark.parametrize("data, location", BAD_IDEALS,
                         ids=[f"data{i}" for i in range(len(BAD_IDEALS))])
def test_bad_ideal_data_rejected(data, location):
    with pytest.raises(InputFileError) as err:
        parse_ideal_data(data)
    assert err.value.location == location


@pytest.mark.parametrize("data", [
    {"steps": 5, "terminal": [["1"]]},
    {"steps": [{"free": [["1"]], "coface": ["1", "2"]}], "terminal": [["2"]]},
    {"steps": [{"free": [1], "coface": [1, 2]}], "terminal": [["2"]]},
    {"steps": [{"free": ["1", "1"], "coface": ["2", "1", "2"]}], "terminal": [["2"]]},
])
def test_bad_sequence_data_rejected_with_step_location(data):
    with pytest.raises(InputFileError) as err:
        parse_sequence_data(data)
    assert err.value.location.startswith("steps")


@pytest.mark.parametrize("step", [{"free": [], "coface": ["1"]},
                                  {"free": ["1"], "coface": []},
                                  {"free": [], "coface": []}])
def test_empty_step_faces_are_rejected_at_their_step(files, capsys, step):
    # an empty face in a step is a malformed file, as an empty terminal
    # facet is, not a step that the replay reports as invalid
    data = {"steps": [{"free": ["1"], "coface": ["1", "2"]}, step], "terminal": [["2"]]}
    with pytest.raises(InputFileError) as err:
        parse_sequence_data(data)
    assert err.value.location == "steps[1]"
    p = files["tmp"] / "cert.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify-collapse", files["tail"], str(p))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputFileError"


@pytest.mark.parametrize("terminal, location", [
    ([["1", "1"]], "terminal[0]"),
    ([["1"], []], "terminal[1]"),
    ([], None),
])
def test_bad_sequence_terminal_rejected_with_terminal_location(terminal, location):
    with pytest.raises(InputFileError) as err:
        parse_sequence_data({"steps": [], "terminal": terminal})
    assert err.value.location == location
    assert "terminal" in str(err.value) and "facets" not in str(err.value)


# arbitrary JSON-like values at every level, mixed with near-valid ones
vertex_names = st.sampled_from(["1", "2", "3"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
name_lists = (st.lists(vertex_names, min_size=1, max_size=3, unique=True)
              | st.lists(vertex_names | json_values, max_size=4) | json_values)
step_objects = (st.fixed_dictionaries({"free": name_lists, "coface": name_lists})
                | st.dictionaries(st.sampled_from(["free", "coface"]), name_lists)
                | json_values)
certificates = st.fixed_dictionaries({
    "steps": st.lists(step_objects, max_size=4) | json_values,
    "terminal": st.lists(name_lists, min_size=1, max_size=3) | json_values,
}) | json_values


complexes = st.fixed_dictionaries({
    "facets": st.lists(name_lists, min_size=1, max_size=3) | json_values,
}) | json_values
monomial_texts = (st.text(alphabet="xy1*^ 09", max_size=8)
                  | st.sampled_from(["x", "x*y^2", "1", "x^0", "x^" + "9" * 5000])
                  | json_values)
ideals = st.fixed_dictionaries({
    "variables": st.lists(st.sampled_from(["x", "y", ""]) | json_values, max_size=3)
    | json_values,
    "generators": st.lists(monomial_texts, min_size=1, max_size=3) | json_values,
}) | json_values


@settings(max_examples=500)
@given(certificates)
def test_sequence_loader_returns_a_sequence_or_a_typed_error(data):
    try:
        sequence = parse_sequence_data(data)
    except InputFileError:
        return
    assert isinstance(sequence, CollapseSequence)


@settings(max_examples=500)
@given(complexes)
def test_complex_loader_returns_a_complex_or_a_typed_error(data):
    try:
        complex_ = parse_complex_data(data)
    except InputFileError:
        return
    assert isinstance(complex_, SimplicialComplex)


@settings(max_examples=500)
@given(ideals)
def test_ideal_loader_returns_an_ideal_or_a_typed_error(data):
    try:
        ideal = parse_ideal_data(data)
    except InputFileError:
        return
    assert isinstance(ideal, MonomialIdeal)


# -- the report writer ----------------------------------------------------------

@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": [], "b": {}, "c": [[], {}]},
    [True, 1, False, 0, None], {"1": True, "10": 1, "9": False},
    ["a", 1], ["a", ["b"], "c"], (("x", "y"), ()),
    2**300, -2**300, "\x00\"\\\u00e9\ud83d\ude00",
    [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300],
    {"a": [], "b": ["x", "y"], "c": ["z"], "d": ("u",), "e": [1, "x"],
     "f": {"g": ["h"], "i": []}, "j": [["k"]]},
    {1, 2}, object(), b"x",
])
def test_writer_edge_cases_and_file_output(value, tmp_path):
    out = tmp_path / "out.json"
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except TypeError:
        # what json cannot encode is a TypeError, and no file is written
        with pytest.raises(TypeError):
            io.dump_json(value, out)
        assert not out.exists()
        return
    assert io.json_text(value) == expected
    io.dump_json(value, out)
    assert out.read_text() == expected + "\n"


class IntSubclass(int):
    pass


class DictSubclass(dict):
    pass


class StrSubclass(str):
    pass


# every code point, lone surrogates and control characters included
json_strings = st.text(st.characters(exclude_categories=()), max_size=6)
laid_out = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(min_value=2**64, max_value=10**300), json_strings)
# what json_text hands to json: floats, subclasses, tuples
handed_over = st.one_of(st.floats(), st.builds(IntSubclass, st.integers()),
                        st.builds(StrSubclass, json_strings))
keys = st.one_of(json_strings, json_strings, st.integers(), st.none(), st.booleans(),
                 st.floats(allow_nan=False), st.builds(StrSubclass, json_strings))


def nest(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(json_strings, children, max_size=4),
                     st.dictionaries(keys, children, max_size=3),
                     st.lists(children, max_size=3).map(tuple),
                     st.dictionaries(json_strings, children, max_size=3).map(DictSubclass))


def outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def deep(depth):
    value = []
    for i in range(depth):
        value = [1, value] if i % 2 else {"k": value}
    return value


cyclic = []
cyclic.append(cyclic)


@settings(max_examples=1000, deadline=None)
@given(st.recursive(st.one_of(laid_out, handed_over), nest, max_leaves=12))
@example(10**4400)  # longer than int's repr limit: ValueError from both
@example({"b": [10**4400]})
@example(deep(40))
@example(cyclic)  # json: "Circular reference detected"
@example({1: "a", "1": "b"})
@example({"a": 1, 2: "b"})  # keys that do not sort
@example({"\x00\x1f\x7f\u00e9\ud800\udfff\U0001f600": "\u2028\\\""})
@example([object(), b"x", {1, 2}])
def test_writer_is_json_dumps_indented_with_sorted_keys(value):
    expected = outcome(lambda v: json.dumps(v, indent=2, sort_keys=True), value)
    assert outcome(io.json_text, value) == expected


def reader_outcome(read, text):
    try:
        return "value", repr(read(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


# JSON's own characters, the whitespace JSON has and the whitespace it has not
# (vertical tab, form feed, NBSP, a line separator), and a byte order mark
JSON_CHARS = st.sampled_from(list('{}[]:,"\\ 0123456789-+.eEtrufalsnNI\tu\n\r') +
                             ["\x0b", "\x0c", "\xa0", "\u2028", "\ufeff", "\x00",
                              "\ud800", "\u00e9", "/", "x"])
WHITESPACE = st.text(st.sampled_from([" ", "\t", "\n", "\r"]), max_size=3)


@st.composite
def json_texts(draw):
    """A JSON document between JSON whitespace, sometimes broken: a prefix,
    a byte order mark, something other than whitespace after it, or one
    character changed."""
    value = draw(st.recursive(st.one_of(st.none(), st.booleans(), st.integers(),
                                        st.floats(), json_strings),
                              lambda c: st.lists(c, max_size=3)
                              | st.dictionaries(json_strings, c, max_size=3),
                              max_leaves=8))
    text = json.dumps(value, indent=draw(st.sampled_from((None, 0, 2))),
                      ensure_ascii=draw(st.booleans()))
    text = draw(WHITESPACE) + text + draw(WHITESPACE)
    change = draw(st.sampled_from(("none", "cut", "bom", "tail", "char")))
    if change == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif change == "bom":
        text = "\ufeff" + text
    elif change == "tail":
        text += draw(st.text(JSON_CHARS, min_size=1, max_size=3))
    elif change == "char" and text:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(JSON_CHARS) + text[i + 1:]
    return text


@settings(max_examples=1000, deadline=None)
@given(st.one_of(json_texts(), st.text(JSON_CHARS, max_size=12)))
@example("")
@example(" \t\n\r")
@example("\ufeff{}")
@example('{"a": 1} x')
@example('{"a": 1}\x0b')
@example('\x0c[]')
@example('[1]\xa0')
@example("[" * 100000 + "]" * 100000)  # nested too deeply for both
@example("[" * 200 + "]" * 200)
@example("1" * 5000)  # longer than int()'s digit limit
@example('{"x": [' + "9" * 4301 + "]}")
@example('[NaN, Infinity, -Infinity, 1e400, -0.0, 1.5]')
@example('"\\ud800\\udc00 \\ud800"')
@example('"\x01"')  # a raw control character: strict
@example('{"a": 1, "a": 2}')
def test_reader_is_json_loads(text):
    assert reader_outcome(io._parse_json, text) == reader_outcome(json.loads, text)


# names that JSON escapes, and names whose vertex_key order is not string order
CERTIFICATE_NAMES = ("1", "2", "10", "a", '"', "\\", "é", "\x01", "\n", "\u2028", "😀")


def certificate_masks(complex_):
    # the (free, coface) mask pairs and facet masks left that collapse writes
    if complex_.is_tree():
        pairs, point = collapse._tree_steps(complex_)
        return pairs, [point]
    return collapse._greedy_steps(complex_)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.sampled_from(CERTIFICATE_NAMES), min_size=1, max_size=5),
                min_size=1, max_size=6))
@example([{"1"}])  # no steps: a point is already a point
@example([{'"'}])
@example([{"1", "2"}, {"2", "10"}, {"1", "10"}])  # no steps, three facets left
@example([{"1", "2"}, {"2", "10"}, {"1", "10"}, {"10", "a", "é"}])  # steps, three left
@example([{"1", "2", "10", "a", "é"}, {"a", "\\", '"'}, {"\x01", "\n", '"'}])
@example([{"1"}, {"2", "10"}])  # disconnected: two facets left
def test_certificate_text_is_the_writer_text_of_its_data(facets):
    # the certificate laid out straight from masks is json_text of the
    # certificate data naming the same masks, for tree and greedy collapses
    complex_ = SimplicialComplex(facets)
    pairs, left = certificate_masks(complex_)
    vertices = complex_.vertices
    expected = io.json_text(oracles.mask_steps_to_data(vertices, pairs, left))
    assert io._certificate_text(vertices, pairs, left) == expected
    assert [io._names(vertices, f) for f in left] == json.loads(expected)["terminal"]


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))


@st.composite
def placed(draw, value):
    """``value`` at the bottom of zero to four nested dicts and lists, each
    with siblings around it."""
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            siblings = draw(st.dictionaries(st.text(max_size=3), json_leaves, max_size=3))
            siblings[draw(st.text(max_size=3))] = value
        else:
            siblings = draw(st.lists(json_leaves, max_size=3))
            siblings.insert(draw(st.integers(0, len(siblings))), value)
        value = siblings
    return value


certificate_data = st.fixed_dictionaries({
    "steps": st.lists(st.fixed_dictionaries(
        {"free": st.lists(st.sampled_from(CERTIFICATE_NAMES), min_size=1, max_size=3),
         "coface": st.lists(st.sampled_from(CERTIFICATE_NAMES), min_size=1, max_size=3)}),
        max_size=3),
    "terminal": st.lists(st.lists(st.sampled_from(CERTIFICATE_NAMES), min_size=1,
                                  max_size=3), min_size=1, max_size=2)})


ESCAPED = {"steps": [{"free": ['"'], "coface": ["\n", "\\"]}], "terminal": [["\u2028"]]}


@settings(max_examples=300, deadline=None)
@given(certificate_data.flatmap(lambda data: placed(io._Laid(io.json_text(data)))))
@example({"inputs": {"certificate": io._Laid('{\n  "steps": [],\n  "terminal": [\n'
                                             '    [\n      "1"\n    ]\n  ]\n}')}})
@example([0, [{"": None}, io._Laid(io.json_text(ESCAPED))]])
def test_laid_out_text_is_placed_at_any_depth(report):
    # a certificate laid out at depth 0 is placed where json.dumps puts
    # its data, inside dicts and lists at any depth
    expected = json.dumps(report, indent=2, sort_keys=True,
                          default=lambda laid: json.loads(laid.text))
    assert io.json_text(report) == expected


def test_laid_out_text_is_no_string_to_json():
    # a report json_text hands to json, here for its float, is refused
    # rather than written with the certificate as a quoted string
    with pytest.raises(TypeError):
        io.json_text({"certificate": io._Laid("{}"), "ratio": 0.5})


def with_certificate(text, parent, certificate):
    # json's indented text of the report ``text`` holds, with the
    # certificate under its object ``parent`` given as data
    report = json.loads(text)
    report[parent]["certificate"] = certificate
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


certificate_faces = st.lists(st.sampled_from(CERTIFICATE_NAMES + ("x", "11")),
                             min_size=1, max_size=4, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from(CERTIFICATE_NAMES), min_size=1, max_size=5),
                min_size=1, max_size=6),
       st.lists(st.fixed_dictionaries({"free": certificate_faces,
                                       "coface": certificate_faces}), max_size=4),
       st.lists(certificate_faces, min_size=1, max_size=3, unique_by=frozenset))
@example([{"1"}], [], [["1"]])
@example([{"1", "2", "10"}, {"10", "a"}], [{"free": ["x"], "coface": ["11"]}], [["x"]])
@example([{"1", "2"}, {"2", "10"}, {"1", "10"}], [{"free": ["é"], "coface": ["\n"]}],
         [["\u2028", "😀"], ["1"]])
def test_certificate_reports_are_json_text_of_their_data(facets, steps, terminal):
    # collapse (its report and --out file, tree and greedy) and
    # verify-collapse (of that file, and of any well-formed certificate:
    # invalid, or with names outside the complex) place certificate text
    # in the report exactly where json puts the certificate's data
    complex_ = SimplicialComplex(facets)
    pairs, left = certificate_masks(complex_)
    certificate = oracles.mask_steps_to_data(complex_.vertices, pairs, left)
    other = {"steps": steps, "terminal": terminal}
    with tempfile.TemporaryDirectory() as tmp:
        complex_file, out, other_file = (os.path.join(tmp, name) for name in
                                         ("complex.json", "cert.json", "other.json"))
        with open(complex_file, "w") as handle:
            json.dump(complex_to_data(complex_), handle)
        with open(other_file, "w") as handle:
            json.dump(other, handle)
        reports = []
        for argv in (["collapse", complex_file, "--out", out],
                     ["verify-collapse", complex_file, out],
                     ["verify-collapse", complex_file, other_file]):
            stdout = StringIO()
            with redirect_stdout(stdout):
                assert main(argv) == 0
            reports.append(stdout.getvalue())
        with open(out) as handle:
            written = handle.read()
    collapsed, replayed, checked = reports
    assert written == json.dumps(certificate, indent=2, sort_keys=True) + "\n"
    assert collapsed == with_certificate(collapsed, "result", certificate)
    assert replayed == with_certificate(replayed, "inputs", certificate)
    assert json.loads(replayed)["result"]["valid"]
    echoed = oracles.sequence_to_data(parse_sequence_data(other))
    assert checked == with_certificate(checked, "inputs", echoed)


def test_json_error_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"facets": [["1",]}')
    with pytest.raises(InputFileError) as err:
        load_complex(str(p))
    assert "line" in str(err.value)


# -- commands ---------------------------------------------------------------------

def test_check_reports_tree_and_certificate(files, capsys):
    code, out, _ = run(capsys, "check", files["tail"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "check"
    result = report["result"]
    assert result["tree"] and result["connected"] and result["forest"]
    assert result["f_vector"] == [5, 6, 2]
    assert result["collapse"]["steps"] == 6


def test_check_reports_witness_for_cycles(files, capsys):
    p = files["tmp"] / "cycle.json"
    p.write_text(json.dumps({"facets": [["1", "2"], ["2", "3"], ["1", "3"]]}))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["tree"]
    assert len(result["witness"]) == 3


def test_check_reports_an_inclusion_minimal_witness(files, capsys):
    # two triangles on the edge {1,2}, with that edge present: the minimum
    # leafless collection is a triangle, but dropping {1,2} first leaves the
    # 4-cycle, whose proper subcollections all have leaves
    p = files["tmp"] / "k4-minus-edge.json"
    p.write_text(json.dumps({"facets": [["1", "2"], ["1", "3"], ["1", "4"],
                                        ["2", "3"], ["2", "4"]]}))
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["forest"]
    assert result["witness"] == [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]]


@pytest.mark.parametrize("argv", [
    ("check", "diamond"),
    ("collapse", "diamond"),
    ("supports", "diamond", "ideal"),
    ("supports", "diamond", "ideal", "--verify"),
])
def test_each_command_decides_forest_once(files, capsys, monkeypatch, argv):
    # the input complex is decided once; supports' Betti table may decide
    # one more complex, the Scarf complex of an ideal that is not strongly
    # generic, as the spread ideal is not (x has exponent 1 twice)
    searched = []
    search = SimplicialComplex._simplicial_cycle

    def spy(self):
        searched.append(self)
        return search(self)

    monkeypatch.setattr(SimplicialComplex, "_simplicial_cycle", spy)
    code, _, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    expected = [load_complex(files["diamond"])]
    if argv[0] == "supports":
        ideal = load_ideal(files["ideal"])
        assert not resolution._strongly_generic(ideal)
        expected.append(resolution.scarf_complex(ideal).complex)
    assert searched == expected


@pytest.mark.parametrize("argv", [("check",), ("collapse", "--out", "cert.json")])
def test_tree_commands_build_the_incidence_map_once(files, capsys, monkeypatch, argv):
    # the forest decision and the certificate's leaf order read one map
    built = []
    incidence = complexes_module._incidence

    def spy(masks):
        built.append(masks)
        return incidence(masks)

    monkeypatch.setattr(complexes_module, "_incidence", spy)
    monkeypatch.chdir(files["tmp"])
    command, *options = argv
    code, _, _ = run(capsys, command, files["tail"], *options)
    assert code == 0
    assert built == [load_complex(files["tail"])._facet_masks]


def test_verify_collapse_encodes_the_certificate_once(files, capsys, monkeypatch):
    # the replay and the echo read one encoding of the certificate's names
    out_path = str(files["tmp"] / "cert.json")
    assert run(capsys, "collapse", files["tail"], "--out", out_path)[0] == 0
    encoded = []
    mask_pairs = collapse._mask_pairs

    def spy(complex_, steps, terminal=()):
        encoded.append(len(steps))
        return mask_pairs(complex_, steps, terminal)

    monkeypatch.setattr(collapse, "_mask_pairs", spy)
    code, out, _ = run(capsys, "verify-collapse", files["tail"], out_path)
    assert code == 0 and json.loads(out)["result"]["valid"]
    assert encoded == [len(load_sequence(out_path).steps)]


@pytest.mark.parametrize("command", ["check", "collapse"])
@pytest.mark.parametrize("facets", [
    [["1", "2", "4"], ["2", "3", "4"]],     # a tree
    [["1", "2"], ["2", "3"], ["1", "3"]],   # a cycle
    [["1", "2"], ["3", "4"]],               # disconnected
])
def test_each_command_decides_connectivity_once(files, capsys, monkeypatch,
                                                command, facets):
    p = files["tmp"] / "input.json"
    p.write_text(json.dumps({"facets": facets}))
    decided = []
    connected = complexes_module._connected

    def spy(masks):
        decided.append(masks)
        return connected(masks)

    monkeypatch.setattr(complexes_module, "_connected", spy)
    code, _, _ = run(capsys, command, str(p))
    assert code == 0
    assert decided == [load_complex(str(p))._facet_masks]


@pytest.mark.parametrize("command", ["check", "collapse"])
def test_tree_certificate_is_replayed_once(files, capsys, monkeypatch, command):
    # the one replay runs once, on the coface bits of the whole complex
    replayed = []
    replay = collapse._replay

    def spy(table, pairs, terminal=None):
        replayed.append(dict(table))
        return replay(table, pairs, terminal)

    monkeypatch.setattr(collapse, "_replay", spy)
    code, _, _ = run(capsys, command, files["tail"])
    assert code == 0
    assert replayed == [collapse._coface_bits(load_complex(files["tail"])._facet_masks)]


@pytest.mark.parametrize("command, name", [
    ("check", "tail"), ("collapse", "tail"), ("check", "triangle")])
def test_each_facet_is_walked_once(files, capsys, monkeypatch, command, name):
    # a command enumerates each facet's subsets once: check on a tree counts
    # its f-vector off the coface table that the replay then consumes
    (files["tmp"] / "triangle.json").write_text(
        json.dumps({"facets": [["1", "2"], ["2", "3"], ["1", "3"]]}))
    path = files.get(name, str(files["tmp"] / f"{name}.json"))
    walked = []
    submasks = complexes_module._submasks

    def spy(mask):
        walked.append(mask)
        return submasks(mask)

    # the coface table is built in complexes, next to the face enumeration
    monkeypatch.setattr(complexes_module, "_submasks", spy)
    code, _, _ = run(capsys, command, path)
    assert code == 0
    assert sorted(walked) == sorted(load_complex(path)._facet_masks)


@pytest.mark.parametrize("argv", [("check",), ("collapse", "--out", "cert.json")])
def test_tree_commands_name_faces_only_for_output(files, capsys, monkeypatch, argv):
    # check and collapse work on masks from schedule to output: no
    # CollapseStep is built
    built = []
    init = collapse.CollapseStep.__init__

    def spy_step(self, free_face, coface):
        built.append((free_face, coface))
        init(self, free_face, coface)

    monkeypatch.setattr(collapse.CollapseStep, "__init__", spy_step)
    monkeypatch.chdir(files["tmp"])
    command, *options = argv
    code, out, _ = run(capsys, command, files["tail"], *options)
    assert code == 0
    assert built == []
    complex_ = load_complex(files["tail"])
    # the public certificate is still the frozenset schedule's, and the
    # report carries its length and terminal
    expected = oracles.tree_collapse_certificate(complex_)
    assert tree_collapse_certificate(complex_) == expected
    result = json.loads(out)["result"]
    if command == "check":
        result = result["collapse"]
    assert result["steps"] == len(expected.steps)
    assert result["terminal"] == complex_to_data(expected.terminal)["facets"]


# a triangle boundary with a tail and a filled triangle on it: greedy
# collapses the tail and the filled triangle and leaves the circle
NON_TREE_FACETS = {"facets": [["1", "2"], ["2", "3"], ["1", "3"], ["3", "4", "5"]]}


@pytest.mark.parametrize("options", [(), ("--out", "cert.json")])
def test_greedy_collapse_command_names_faces_only_for_output(files, capsys, monkeypatch,
                                                             options):
    # collapse on a non-tree works on masks from the greedy steps to the
    # output too: no CollapseStep is built
    path = files["tmp"] / "non_tree.json"
    path.write_text(json.dumps(NON_TREE_FACETS))
    complex_ = load_complex(str(path))
    assert not complex_.is_tree()
    expected = oracles.sequence_to_data(oracles.greedy_collapse(complex_)[0])
    built = []
    init = collapse.CollapseStep.__init__

    def spy_step(self, free_face, coface):
        built.append((free_face, coface))
        init(self, free_face, coface)

    monkeypatch.setattr(collapse.CollapseStep, "__init__", spy_step)
    monkeypatch.chdir(files["tmp"])
    code, out, _ = run(capsys, "collapse", str(path), *options)
    assert code == 0
    assert built == []
    result = json.loads(out)["result"]
    assert result["certificate"] == expected
    assert result["terminal"] == [["1", "2"], ["1", "3"], ["2", "3"]]


MIXED_NAMES = ("1", "2", "9", "10", "11", "a", "b", "aa")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from(MIXED_NAMES), min_size=1, max_size=4),
                min_size=1, max_size=6))
@example([{"2", "10"}, {"10", "9"}, {"2", "9"}])
@example([{"1", "2", "10"}, {"1", "2", "9"}, {"1", "10", "9"}, {"2", "10", "9"}])
@example([{"2", "10"}, {"9", "11"}, {"a"}])
def test_greedy_collapse_report_matches_the_frozenset_greedy(facets):
    # the mask path's certificate, in the report and in the --out file, is
    # the frozenset writer's text of the rescanning greedy's steps
    complex_ = SimplicialComplex(facets)
    assume(not complex_.is_tree())
    expected = oracles.sequence_to_data(oracles.greedy_collapse(complex_)[0])
    with tempfile.TemporaryDirectory() as tmp:
        complex_file = os.path.join(tmp, "complex.json")
        out = os.path.join(tmp, "cert.json")
        with open(complex_file, "w") as handle:
            json.dump(complex_to_data(complex_), handle)
        stdout = StringIO()
        with redirect_stdout(stdout):
            code = main(["collapse", complex_file, "--out", out])
        with open(out) as handle:
            written = handle.read()
    assert code == 0
    result = json.loads(stdout.getvalue())["result"]
    assert result["certificate"] == expected
    assert result["terminal"] == expected["terminal"]
    assert result["steps"] == len(expected["steps"])
    assert written == io.json_text(expected) + "\n"


@pytest.mark.parametrize("argv", [("check",), ("collapse", "--out", "cert.json")])
def test_tree_commands_never_sort_by_face_key(files, capsys, monkeypatch, argv):
    # the tree path orders faces by vertex index and bitmask, so the
    # per-face key is never called, not even to build a complex
    keyed = []
    face_key = treescarf.face_key

    def spy(face):
        keyed.append(face)
        return face_key(face)

    for name, module in list(sys.modules.items()):
        if name.startswith("treescarf") and getattr(module, "face_key", None) is face_key:
            monkeypatch.setattr(module, "face_key", spy)
    monkeypatch.chdir(files["tmp"])
    command, *options = argv
    code, _, _ = run(capsys, command, files["tail"], *options)
    assert code == 0
    assert keyed == []


def test_fvector_command(files, capsys):
    code, out, _ = run(capsys, "fvector", files["diamond"])
    assert code == 0
    assert json.loads(out)["result"]["f_vector"] == [4, 5, 2]


def test_supports_command(files, capsys):
    code, out, _ = run(capsys, "supports", files["diamond"], files["ideal"],
                       "--verify")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {
        "supports": True,
        "minimal": False,
        "failing_degree": None,
        "betti": [4, 4, 1],
        "f_vector": [4, 5, 2],
    }


def generic_cycle_files(tmp):
    """The 3-cycle graph, not a forest, and a strongly generic ideal."""
    cycle, ideal = tmp / "cycle.json", tmp / "generic.json"
    cycle.write_text(json.dumps({"facets": [["1", "2"], ["2", "3"], ["1", "3"]]}))
    ideal.write_text(json.dumps({"variables": ["x", "y", "z"],
                                 "generators": ["x^2*y", "y^3*z", "x*z^2"]}))
    return str(cycle), str(ideal)


def test_supports_verify_rechecks_betti_on_a_non_forest(files, capsys, monkeypatch):
    walked = []
    walk = resolution._lattice_betti_table

    def spy(ideal, field):
        walked.append(ideal)
        return walk(ideal, field)

    monkeypatch.setattr(resolution, "_lattice_betti_table", spy)
    argv = ("supports", *generic_cycle_files(files["tmp"]))
    _, plain, _ = run(capsys, *argv)
    assert walked == []
    code, checked, _ = run(capsys, *argv, "--verify")
    assert code == 0 and len(walked) == 1
    assert json.loads(checked)["result"] == json.loads(plain)["result"]
    assert json.loads(checked)["diagnostics"] == [
        "general criterion used (complex is not a forest)",
        "Betti table cross-checked against the lcm-lattice walk"]


def test_supports_on_a_tree_and_its_J_reads_betti_off_the_scarf_forest(
        files, capsys, monkeypatch):
    # J of a tree is not strongly generic, but its Scarf complex is the tree,
    # which supports; the walk runs only as the --verify cross-check
    ideal_path = str(files["tmp"] / "J.json")
    code, _, _ = run(capsys, "build-scarf", files["tail"], "--variant", "J",
                     "--out", ideal_path)
    assert code == 0
    assert not resolution._strongly_generic(load_ideal(ideal_path))
    walked = []
    walk = resolution._lattice_betti_table

    def spy(ideal, field):
        walked.append(ideal)
        return walk(ideal, field)

    monkeypatch.setattr(resolution, "_lattice_betti_table", spy)
    argv = ("supports", files["tail"], ideal_path)
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and walked == []
    code, checked, _ = run(capsys, *argv, "--verify")
    assert code == 0 and walked == [load_ideal(ideal_path)]
    assert json.loads(checked)["result"] == json.loads(plain)["result"]
    assert json.loads(plain)["result"]["betti"] == [5, 6, 2]
    assert ("Betti table cross-checked against the lcm-lattice walk"
            in json.loads(checked)["diagnostics"])


def test_supports_on_a_tree_and_its_Jprime_takes_betti_from_the_f_vector(
        files, capsys, monkeypatch):
    # the tree supports J' minimally, so its f-vector is the Betti vector:
    # no Scarf face and no lcm lattice is built unless --verify asks
    ideal_path = str(files["tmp"] / "Jprime.json")
    code, _, _ = run(capsys, "build-scarf", files["tail"], "--variant", "Jprime",
                     "--out", ideal_path)
    assert code == 0
    calls = []
    for owner, name in ((resolution, "_scarf_faces"), (MonomialIdeal, "_lattice")):
        def spy(*args, _name=name, _method=getattr(owner, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(owner, name, spy)
    argv = ("supports", files["tail"], ideal_path)
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and calls == []
    result = json.loads(plain)["result"]
    assert result["supports"] and result["minimal"]
    assert result["betti"] == result["f_vector"] == [5, 6, 2]
    code, checked, _ = run(capsys, *argv, "--verify")
    assert code == 0 and {"_scarf_faces", "_lattice"} <= set(calls)
    assert json.loads(checked)["result"] == result


def test_supports_verify_raises_when_a_minimal_support_is_not_the_betti_vector(
        files, monkeypatch):
    # the edge and triangle support the spread ideal minimally; a table
    # that both Betti routes agree on must still be the f-vector
    p = files["tmp"] / "edge_triangle.json"
    p.write_text(json.dumps({"facets": [["1", "2"], ["2", "3", "4"]]}))
    table = BettiTable({}, (4, 5, 1))
    monkeypatch.setattr(resolution, "betti_table", lambda ideal, field: table)
    monkeypatch.setattr(resolution, "_lattice_betti_table", lambda ideal, field: table)
    with pytest.raises(AssertionError, match="f-vector"):
        main(["supports", str(p), files["ideal"], "--verify"])


def test_supports_verify_raises_on_a_betti_mismatch(files, monkeypatch):
    monkeypatch.setattr(resolution, "_lattice_betti_table",
                        lambda ideal, field: BettiTable({}, (3,)))
    with pytest.raises(AssertionError, match="lcm-lattice walk"):
        main(["supports", *generic_cycle_files(files["tmp"]), "--verify"])


def test_supports_reports_failing_degree(files, capsys):
    code, out, _ = run(capsys, "supports", files["diamond"], files["ideal"],
                       "--labels", "1,3,2,4")
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["supports"]
    assert result["failing_degree"] == "x*y^2*z"


@pytest.mark.parametrize("labels", ["", "1,2,2", "1,2,2,4", "1,2,3"])
def test_supports_labels_must_list_every_vertex(files, capsys, labels):
    code, out, err = run(capsys, "supports", files["diamond"], files["ideal"],
                         "--labels", labels)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "InputFileError"
    assert "--labels must list every vertex exactly once" in error["message"]


def test_supports_arity_mismatch(files, capsys):
    p = files["tmp"] / "short.json"
    p.write_text(json.dumps({"variables": ["x", "y"], "generators": ["x", "y"]}))
    code, out, err = run(capsys, "supports", files["diamond"], str(p))
    assert code == 2
    assert json.loads(err)["error"] == "ArityMismatchError"


def test_scarf_command(files, capsys):
    code, out, _ = run(capsys, "scarf", files["ideal"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["f_vector"] == [4, 4, 1]
    assert result["facets"] == [["1", "2"], ["2", "3", "4"]]


def test_betti_command(files, capsys):
    code, out, _ = run(capsys, "betti", files["ideal"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["betti"] == [4, 4, 1]
    assert result["by_degree"]["x*y^2*z"] == [0, 1]


def test_ideal_commands_do_no_monomial_arithmetic(files, capsys, monkeypatch):
    # divisibility and lcms run on the ideal's masks; Monomials are only
    # built for what a report prints
    calls = []
    for cls, name in ((Monomial, "lcm"), (Monomial, "divides")):
        def spy(*args, _name=name, _method=getattr(cls, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(cls, name, spy)
    cycle, generic = generic_cycle_files(files["tmp"])
    for argv in (("supports", files["diamond"], files["ideal"], "--verify"),
                 ("supports", cycle, generic, "--verify"),
                 ("betti", generic), ("betti", files["ideal"]),
                 ("scarf", files["ideal"])):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert calls == []


@pytest.mark.parametrize("generators", [
    ["x*y^2", "y*z", "x*z^2", "z*u"],  # not strongly generic: the lattice walk
    ["x^2*y", "y^3*z", "x*z^2"],  # strongly generic: read off the Scarf faces
])
def test_huge_exponents_answer_like_small_ones(files, capsys, generators):
    # e -> 10^3999 + e keeps each variable's exponent order, so the ideals
    # are order-isomorphic: the same Betti vector and Scarf facets
    huge = 10 ** 3999
    small = [parse_monomial(g) for g in generators]
    ideals = {"small": small,
              "huge": [Monomial({x: huge + g.exponent(x) for x in g.variables})
                       for g in small]}
    answers = []
    for name, gens in ideals.items():
        path = files["tmp"] / f"{name}.json"
        path.write_text(json.dumps(ideal_to_data(MonomialIdeal(("x", "y", "z", "u"), gens))))
        code, betti, _ = run(capsys, "betti", str(path))
        assert code == 0
        code, scarf, _ = run(capsys, "scarf", str(path))
        assert code == 0
        answers.append((json.loads(betti)["result"]["betti"],
                        json.loads(scarf)["result"]["facets"]))
    assert answers[0] == answers[1]


def test_build_scarf_writes_a_loadable_ideal(files, capsys):
    out_path = str(files["tmp"] / "built.json")
    code, out, _ = run(capsys, "build-scarf", files["tail"],
                       "--variant", "Jprime", "--out", out_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verification"] == "EQUAL"
    ideal = load_ideal(out_path)
    assert len(ideal.generators) == 5
    assert ideal_to_data(ideal) == {k: result[k] for k in ("variables", "generators")}


def test_build_scarf_reduced_generators_print_exactly(files, capsys):
    p = files["tmp"] / "edge_triangle.json"
    p.write_text(json.dumps({"facets": [["1", "2"], ["2", "3", "4"]]}))
    code, out, _ = run(capsys, "build-scarf", str(p), "--variant", "Jprime")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == [
        "x_2*x_23*x_24*x_34*x_234",
        "x_1*x_34",
        "x_1*x_2*x_12*x_24",
        "x_1*x_2*x_12*x_23",
    ]


TAIL_VARIABLES = ["x_1", "x_2", "x_3", "x_4", "x_5", "x_12", "x_13", "x_23",
                  "x_24", "x_34", "x_45", "x_123", "x_234"]


@pytest.mark.parametrize("argv, expected", [
    (("--variant", "J"), {
        "generators": ["x_2*x_3*x_4*x_5*x_23*x_24*x_34*x_45*x_234",
                       "x_1*x_3*x_4*x_5*x_13*x_34*x_45",
                       "x_1*x_2*x_4*x_5*x_12*x_24*x_45",
                       "x_1*x_2*x_3*x_5*x_12*x_13*x_23*x_123",
                       "x_1*x_2*x_3*x_4*x_12*x_13*x_23*x_24*x_34*x_123*x_234"],
        "variables": TAIL_VARIABLES, "variant": "J", "verification": "EQUAL"}),
    (("--variant", "Jprime"), {
        "generators": ["x_4*x_5*x_23*x_24*x_34*x_45*x_234",
                       "x_4*x_5*x_13*x_34*x_45",
                       "x_4*x_5*x_12*x_24*x_45",
                       "x_5*x_12*x_13*x_23*x_123",
                       "x_4*x_12*x_13*x_23*x_24*x_34*x_123*x_234"],
        "variables": TAIL_VARIABLES, "variant": "Jprime", "verification": "EQUAL"}),
    (("--variant", "intermediate", "--seed", "7"), {
        "generators": ["x_2*x_4*x_5*x_23*x_24*x_34*x_45*x_234",
                       "x_1*x_4*x_5*x_13*x_34*x_45",
                       "x_4*x_5*x_12*x_24*x_45",
                       "x_1*x_5*x_12*x_13*x_23*x_123",
                       "x_3*x_4*x_12*x_13*x_23*x_24*x_34*x_123*x_234"],
        "h": {"1": "x_2", "2": "x_1", "3": "1", "4": "x_1", "5": "x_3"},
        "variables": TAIL_VARIABLES, "variant": "intermediate",
        "verification": "CONTAINS"}),
], ids=["J", "Jprime", "intermediate-seed7"])
def test_build_scarf_results_are_pinned(files, capsys, argv, expected):
    code, out, _ = run(capsys, "build-scarf", files["tail"], *argv)
    assert code == 0
    assert json.loads(out)["result"] == expected


@pytest.mark.parametrize("facets", [
    [["a-1", "b"], ["b", "c"]],    # "x_a-1" is outside the monomial grammar
    [["a", "b"], ["a_b", "c"]],    # {a, b} and {a_b} are both "x_a_b"
])
def test_build_scarf_rejects_unusable_vertex_names(files, capsys, facets):
    p = files["tmp"] / "names.json"
    p.write_text(json.dumps({"facets": facets}))
    out_path = files["tmp"] / "names_ideal.json"
    code, out, err = run(capsys, "build-scarf", str(p), "--out", str(out_path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputFileError"
    assert not out_path.exists()


def test_supports_on_a_minimal_support(files, capsys):
    p = files["tmp"] / "edge_triangle.json"
    p.write_text(json.dumps({"facets": [["1", "2"], ["2", "3", "4"]]}))
    code, out, _ = run(capsys, "supports", str(p), files["ideal"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["supports"] and result["minimal"]
    assert result["betti"] == result["f_vector"] == [4, 4, 1]


def test_build_scarf_intermediate_is_seeded(files, capsys):
    code, first, _ = run(capsys, "build-scarf", files["tail"],
                         "--variant", "intermediate", "--seed", "9")
    code2, second, _ = run(capsys, "build-scarf", files["tail"],
                           "--variant", "intermediate", "--seed", "9")
    assert code == code2 == 0
    assert first == second
    report = json.loads(first)
    assert report["result"]["verification"] in ("EQUAL", "CONTAINS")
    assert "h" in report["result"]


def test_collapse_command_writes_verifiable_certificate(files, capsys):
    out_path = str(files["tmp"] / "cert.json")
    code, out, _ = run(capsys, "collapse", files["tail"], "--out", out_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["collapsed_to_point"]
    sequence = load_sequence(out_path)
    complex_ = SimplicialComplex([set(f) for f in TAIL_FACETS["facets"]])
    assert verify_sequence(complex_, sequence) == (True, None)


def test_verify_collapse_replays_a_written_certificate(files, capsys):
    out_path = files["tmp"] / "cert.json"
    assert run(capsys, "collapse", files["tail"], "--out", str(out_path))[0] == 0
    code, out, _ = run(capsys, "verify-collapse", files["tail"], str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify-collapse"
    assert report["result"] == {"valid": True, "first_bad_step": None,
                                "violation": None}
    assert report["inputs"]["certificate"] == json.loads(out_path.read_text())
    # swapping the free face and the coface of step 2 breaks it there
    certificate = json.loads(out_path.read_text())
    step = certificate["steps"][2]
    step["free"], step["coface"] = step["coface"], step["free"]
    out_path.write_text(json.dumps(certificate))
    code, out, _ = run(capsys, "verify-collapse", files["tail"], str(out_path))
    assert code == 0
    assert json.loads(out)["result"] == {
        "valid": False, "first_bad_step": 2,
        "violation": "free face is not a maximal proper face of the coface"}
    # a certificate of another complex fails at its first step, and a wrong
    # terminal after the last
    code, out, _ = run(capsys, "verify-collapse", files["diamond"], str(out_path))
    assert json.loads(out)["result"]["first_bad_step"] == 0
    certificate["steps"] = []
    out_path.write_text(json.dumps(certificate))
    code, out, _ = run(capsys, "verify-collapse", files["tail"], str(out_path))
    assert json.loads(out)["result"] == {
        "valid": False, "first_bad_step": 0,
        "violation": "the faces left are not the terminal complex"}


def test_verify_collapse_rejects_a_malformed_certificate(files, capsys):
    p = files["tmp"] / "cert.json"
    for content in ('{"steps": [{"free": ["1"]}], "terminal": [["1"]]}', "{nope"):
        p.write_text(content)
        code, out, err = run(capsys, "verify-collapse", files["tail"], str(p))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputFileError"


@pytest.mark.parametrize("command", ["collapse", "build-scarf"])
def test_out_file_that_cannot_be_written_is_an_operational_error(files, capsys, command):
    missing = str(files["tmp"] / "missing" / "out.json")
    code, out, err = run(capsys, command, files["tail"], "--out", missing)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "InputFileError"
    assert error["message"] == f"{missing}: cannot write: No such file or directory"


def test_collapse_command_on_a_point(files, capsys):
    p = files["tmp"] / "point.json"
    p.write_text(json.dumps({"facets": [["1"]]}))
    code, out, _ = run(capsys, "collapse", str(p))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["steps"] == 0 and result["collapsed_to_point"]


def test_reports_are_byte_identical_across_runs(files, capsys):
    first = run(capsys, "supports", files["diamond"], files["ideal"])
    second = run(capsys, "supports", files["diamond"], files["ideal"])
    assert first == second


def test_malformed_file_is_an_operational_error(files, capsys):
    p = files["tmp"] / "bad.json"
    huge_exponent = json.dumps({"variables": ["x"], "generators": ["x^" + "9" * 5000]})
    huge_literal = '{"facets": [["1", "2"]], "x": %s}' % ("1" * 5000)
    for command, content in (
            ("check", b"{nope"),
            ("check", b"[" * 3000),                 # deeper than the parser's recursion limit
            ("check", b'{"facets": [["\xff"]]}'),  # not UTF-8
            ("check", huge_literal.encode()),       # a JSON integer beyond int()'s digit limit
            ("betti", huge_exponent.encode())):     # beyond int()'s digit limit
        p.write_bytes(content)
        code, out, err = run(capsys, command, str(p))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputFileError"
    assert "generators[0]" in json.loads(err)["message"]


def test_undeclared_variables_are_reported_as_the_ideal_reports_them(files, capsys):
    # the first generator in order that uses an undeclared name is named,
    # with its own undeclared names sorted, before minimality is checked
    generators = ["x", "z*y_1^2*x*f*b*d_3*c*e*a_2", "w*u", "x^2"]
    with pytest.raises(ValueError) as err:
        MonomialIdeal(("x",), list(map(parse_monomial, generators)))
    message = str(err.value)
    assert message == ("generator b*c*e*f*x*z*a_2*d_3*y_1^2 uses undeclared variables "
                       "['a_2', 'b', 'c', 'd_3', 'e', 'f', 'y_1', 'z']")
    p = files["tmp"] / "undeclared.json"
    p.write_text(json.dumps({"variables": ["x"], "generators": generators}))
    code, out, err = run(capsys, "betti", str(p))
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": "betti", "error": "InputFileError",
                               "message": f"{p}: {message}"}


def test_missing_file_is_an_operational_error(files, capsys):
    # so is an --out path that cannot be written, such as a directory
    absent = str(files["tmp"] / "absent.json")
    for argv, path in ((["check", absent], absent),
                       (["collapse", files["tail"], "--out", str(files["tmp"])],
                        str(files["tmp"]))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "InputFileError"
        assert error["message"].startswith(path + ": cannot ")


def test_bad_field_flag(files, capsys):
    code, _, err = run(capsys, "betti", files["ideal"], "--field", "6")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["check"],                               # a missing argument
    ["check", "tail", "--bogus"],            # an unknown flag
    ["betti", "ideal", "--field", "two"],    # a flag value argparse cannot convert
    ["bogus"],                               # an unknown command
])
def test_rejected_command_lines_print_usage_not_json(files, capsys, argv):
    # argparse stops these before any command runs
    with pytest.raises(SystemExit) as stop:
        main([files.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    assert stop.value.code == 2 and out == ""
    assert err.startswith("usage: treescarf")
    with pytest.raises(json.JSONDecodeError):
        json.loads(err)


def argparse_namespace(argv):
    """vars() of argparse's parse of ``argv``; a SystemExit fails the test."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            raise AssertionError(f"argparse rejects {argv}: {err.getvalue()}") from None


# every form of the README's command-line block, each optional part given
README_COMMAND_LINES = [
    "check complex.json",
    "fvector complex.json",
    "collapse complex.json --out cert.json",
    "verify-collapse complex.json cert.json",
    "supports complex.json ideal.json",
    "supports complex.json ideal.json --field 3 --labels 1,3,2,4 --verify",
    "betti ideal.json",
    "betti ideal.json --field 3",
    "scarf ideal.json",
    "build-scarf complex.json --variant J",
    "build-scarf complex.json --variant Jprime --out ideal.json",
    "build-scarf complex.json --variant intermediate --seed 7 --out ideal.json",
]


@pytest.mark.parametrize("line", README_COMMAND_LINES)
def test_readme_command_lines_skip_argparse(line):
    argv = line.split()
    args = cli._parse_exact(argv)
    assert args is not None
    assert vars(args) == argparse_namespace(argv)


def test_the_grammar_names_every_command():
    assert list(cli._GRAMMAR) == list(cli._COMMANDS)


COMMAND_TOKENS = [*cli._GRAMMAR, "bogus"]
FLAG_TOKENS = ["--field", "--labels", "--verify", "--variant", "--seed", "--out",
               "--fi", "--ver", "--var", "--o", "--field=3", "--out=x.json",
               "-h", "--help", "--", "-"]
VALUE_TOKENS = ["0", "-3", "two", "٣", " 3", "", "J", "Jprime",
                "intermediate", "1,2", "a.json", "b.json", "c.json"]
TOKENS = COMMAND_TOKENS + FLAG_TOKENS + VALUE_TOKENS


# values for a flag of each kind, some that argparse rejects
KIND_VALUES = {int: ["0", "3", "٣", " 3", "two", "-3"], str: ["a.json", "1,2", "", "-"]}


@st.composite
def near_command_lines(draw):
    """A command line the grammar spells, each flag given up to twice, then
    up to two tokens inserted or deleted."""
    name = draw(st.sampled_from(COMMAND_TOKENS))
    _, positionals, options = cli._GRAMMAR.get(name, (None, ("command",), ()))
    parts = [[draw(st.sampled_from(VALUE_TOKENS))] for _ in positionals]
    for flag, kind, _, _ in options:
        for _ in range(draw(st.integers(0, 2))):
            if kind is bool:
                parts.append([flag])
            else:
                values = KIND_VALUES.get(kind) or [*kind, "two"]
                parts.append([flag, draw(st.sampled_from(values))])
    tokens = [name, *(token for part in draw(st.permutations(parts)) for token in part)]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        else:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKENS)))
    return tokens


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=6) | near_command_lines()
       | near_command_lines() | near_command_lines())
@example(["supports", "a.json", "--verify", "b.json"])
@example(["betti", "a.json", "--field", "٣", "--field", " 3"])
@example(["build-scarf", "a.json", "--variant", "intermediate", "--seed", "0"])
@example(["check", "--labels", "1,2", "a.json"])
@example(["fvector", "-h"])
def test_exact_parse_agrees_with_argparse(argv):
    # the exact parse either declines or builds what argparse builds
    args = cli._parse_exact(argv)
    if args is not None:
        assert vars(args) == argparse_namespace(argv)


def test_large_prime_field_answers(files, capsys):
    code, out, _ = run(capsys, "betti", files["ideal"], "--field", "1000000000000000003")
    assert code == 0
    _, rational, _ = run(capsys, "betti", files["ideal"])
    assert json.loads(out)["result"] == json.loads(rational)["result"]
    code, _, err = run(capsys, "betti", files["ideal"], "--field", str(2**89 - 1))
    assert code == 2 and json.loads(err)["error"] == "InputFileError"


# -- every command on small generated files ----------------------------------------

# names that break face-variable names ("a-b") or mix lengths ("10") included
fuzz_names = st.sampled_from(["1", "2", "3", "4", "10", "a", "x_1", "a-b"])
fuzz_vertices = st.lists(fuzz_names, min_size=1, max_size=5, unique=True)


@st.composite
def fuzz_complexes(draw):
    names = draw(fuzz_vertices)
    facets = draw(st.lists(st.lists(st.sampled_from(names), min_size=1, unique=True),
                           min_size=1, max_size=4, unique_by=frozenset))
    return {"facets": facets}


@st.composite
def fuzz_ideals(draw, count=None):
    variables = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1,
                              max_size=3, unique=True))
    exponents = st.lists(st.integers(0, 2), min_size=len(variables),
                         max_size=len(variables))
    gens = draw(st.lists(exponents, min_size=count or 1, max_size=count or 4))
    texts = ["*".join(f"{x}^{e}" for x, e in zip(variables, g) if e) or "1"
             for g in gens]
    return {"variables": variables, "generators": texts}


def mostly(strategy):
    """``strategy`` three times in four; else a file of the wrong kind or a
    malformed one."""
    wrong = fuzz_complexes() | fuzz_ideals() | certificates
    return st.integers(0, 3).flatmap(lambda k: strategy if k else wrong)


def command_lines(draw, complex_file, ideal_file, vertices, out):
    labels = draw(st.permutations(vertices) | st.lists(fuzz_names, max_size=5))
    field = str(draw(st.sampled_from([0, 2, 3, 4])))
    yield ["check", complex_file]
    yield ["fvector", complex_file]
    yield ["collapse", complex_file, "--out", out]
    yield ["verify-collapse", complex_file, out]
    for extra in ([], ["--verify"], ["--labels", ",".join(labels)],
                  ["--labels", ",".join(labels), "--verify"]):
        yield ["supports", complex_file, ideal_file, "--field", field, *extra]
    yield ["scarf", ideal_file]
    yield ["betti", ideal_file, "--field", field]
    for variant in ("J", "Jprime", "intermediate"):
        yield ["build-scarf", complex_file, "--variant", variant,
               "--seed", str(draw(st.integers(0, 3))), "--out", out]


@settings(max_examples=150, deadline=None)
@given(st.data(), mostly(fuzz_complexes()))
def test_every_command_reports_or_raises_a_typed_error(data, complex_data):
    vertices = sorted({v for f in complex_data.get("facets", [])
                       if isinstance(f, list) for v in f if isinstance(v, str)}
                      if isinstance(complex_data, dict) else [])
    # one generator per vertex where four generators allow it, so that
    # supports gets past its arity check
    ideal_data = data.draw(mostly(fuzz_ideals(min(len(vertices), 4) or None)))
    with tempfile.TemporaryDirectory() as tmp:
        complex_file = os.path.join(tmp, "complex.json")
        ideal_file = os.path.join(tmp, "ideal.json")
        for path, content in ((complex_file, complex_data), (ideal_file, ideal_data)):
            with open(path, "w") as handle:
                json.dump(content, handle)
        # a directory as --out cannot be written
        out = data.draw(st.sampled_from([os.path.join(tmp, "out.json"), tmp]))
        for argv in command_lines(data.draw, complex_file, ideal_file, vertices, out):
            stdout, stderr = StringIO(), StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            if code == 0:
                report = json.loads(stdout.getvalue())
                assert list(report) == ["command", "diagnostics", "inputs", "result"]
                assert stderr.getvalue() == ""
            else:
                assert code == 2 and stdout.getvalue() == "", argv
                name = json.loads(stderr.getvalue())["error"]
                assert issubclass(getattr(errors, name, type(None)),
                                  errors.TreescarfError), (argv, stderr.getvalue())


PUBLIC_NAMES = [
    "BettiTable", "CollapseSequence", "CollapseStep", "Face",
    "FaceVariableRing", "FieldSpec", "HomologyRanks", "LabeledComplex", "Monomial",
    "MonomialIdeal", "QQ", "ScarfComparison", "SimplicialComplex", "UNIT",
    "betti_table", "build_J", "build_Jprime", "build_intermediate",
    "elementary_collapse", "face_key", "face_sorted", "face_variable_ring",
    "format_monomial", "free_pairs", "greedy_collapse", "is_acyclic",
    "is_boundary_of_simplex", "is_minimal", "lcm", "m_double_prime",
    "parse_monomial", "random_h", "rank", "reduced_homology_ranks", "scarf_complex",
    "supports_resolution", "supports_resolution_tree",
    "tree_collapse_certificate", "verify_scarf", "verify_sequence", "vertex_key",
]

PUBLIC_METHODS = {
    SimplicialComplex: [
        "empty", "f_vector", "faces", "facets", "induced", "is_connected",
        "is_empty", "is_forest", "is_tree", "vertices"],
    LabeledComplex: [
        "complex", "ideal", "label", "labels", "variables"],
    Monomial: [
        "divides", "exponent", "is_unit", "lcm", "variables"],
    MonomialIdeal: [
        "format", "generators", "variables"],
}


def test_public_names_are_pinned():
    # a name added to or dropped from the package, or from the public
    # methods of the classes above, is a contract change
    assert sorted(treescarf.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from treescarf import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for cls, methods in PUBLIC_METHODS.items():
        assert sorted(name for name in dir(cls)
                      if not name.startswith("_")) == methods, cls.__name__


# Runs ``python -m treescarf.cli ARGS`` in-process and reports, on stderr,
# the exit code and the modules that running it added.  The module run
# ends with os._exit(code), so the probe records there and then exits.
RUN_COMMAND = """
import os, runpy, sys
before = set(sys.modules)
exit_now = os._exit

def record(code):
    sys.stderr.write(f"{code} {' '.join(sorted(set(sys.modules) - before))}")
    sys.stderr.flush()
    exit_now(code)

os._exit = record
runpy.run_module("treescarf.cli", run_name="__main__")
"""

ALGEBRA = {"treescarf.homology", "treescarf.monomials", "treescarf.resolution",
           "treescarf.scarf_ideals"}
COLLAPSE = {"treescarf.collapse", "treescarf._frozen"}

# per command line: the modules it must not load
COMMAND_MODULES = [
    (("check", "tail"), ALGEBRA),
    (("fvector", "tail"), ALGEBRA | COLLAPSE),
    (("collapse", "tail", "--out", "cert.json"), ALGEBRA),
    (("verify-collapse", "tail", "cert.json"), ALGEBRA),
    (("scarf", "ideal"), {"treescarf.collapse", "treescarf.scarf_ideals"}),
    (("betti", "ideal", "--field", "2"), {"treescarf.collapse", "treescarf.scarf_ideals"}),
    (("supports", "diamond", "ideal", "--verify"),
     {"treescarf.collapse", "treescarf.scarf_ideals"}),
    (("build-scarf", "tail", "--variant", "Jprime"), {"treescarf.collapse"}),
    (("build-scarf", "tail", "--variant", "intermediate", "--seed", "1",
      "--out", "built.json"), {"treescarf.collapse"}),
]


def test_cli_import_loads_neither_dataclasses_nor_fractions(files):
    # Every command runs in its own process, so each pays the package's
    # import; compare with what the bare interpreter had already loaded.
    # -S skips site hooks, which may preload some of these modules and so
    # hide an import the package itself makes.
    probe = ("import sys; before = set(sys.modules); import treescarf.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(treescarf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "treescarf.cli" in added
    assert not added & {"dataclasses", "fractions", "typing", "random", "json", "re"}
    # Each command end to end: a valid command line never builds the
    # argparse parser, and a command loads only the library modules it runs.
    for argv, forbidden in COMMAND_MODULES:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", RUN_COMMAND, *(files.get(a, a) for a in argv)],
            env=env, cwd=files["tmp"], capture_output=True, text=True, check=True)
        code, *added = proc.stderr.split()
        assert code == "0" and "treescarf.io" in added, (argv, proc.stderr)
        never = {"dataclasses", "fractions", "typing", "argparse", "gettext", "locale",
                 "json", "re"}
        if "intermediate" not in argv:
            never.add("random")
        assert not set(added) & (never | forbidden), argv


WITHOUT_C_JSON = """
import runpy, sys
sys.modules["_json"] = None  # json's C accelerators cannot be imported
runpy.run_module("treescarf.cli", run_name="__main__")
"""

# reading and writing by json itself, as json.load and json.dumps did
BY_JSON = """
import json, runpy, sys
import treescarf.io
treescarf.io._parse_json = json.loads
# a report's laid-out certificate goes in as its data, so json lays out
# the whole report
treescarf.io.json_text = lambda value: json.dumps(
    value, indent=2, sort_keys=True, default=lambda laid: json.loads(laid.text))
runpy.run_module("treescarf.cli", run_name="__main__")
"""

# malformed files: the C scanner's failures, in a process that has not
# loaded json, must read as json's own
MALFORMED = {
    "cut.json": b'{"facets": [["1", "2"]',
    "bom.json": b'\xef\xbb\xbf{"facets": [["1"]]}',
    "latin1.json": b'{"facets": [["\xe9"]]}',
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "huge.json": b'{"facets": [[' + b"7" * 5000 + b"]]}",
    "list.json": b'[["1", "2"]]',
    "trailing.json": b'{"facets": [["1"]]}\n x',
    "vtab.json": b'\x0b{"facets": [["1"]]}',
    "nan.json": b'{"facets": [[NaN]]}',
    "control.json": b'{"facets": [["a\x01"]]}',
    "empty.json": b"",
}


def test_output_is_that_of_json_with_and_without_its_c_accelerators(files):
    # every report, error and --out file is the one json.load and
    # json.dumps give; with _json unimportable, io reads with json.loads
    # and quotes with json's pure-Python encoder, to the same bytes
    tmp = files["tmp"]
    for name, data in MALFORMED.items():
        (tmp / name).write_bytes(data)
    (tmp / "names.json").write_text(json.dumps(
        {"facets": [["1", "\u00e9\u2028", '"'], ["1", "\ud83d\ude00"], ["2", "1"]]}))
    command_lines = [
        ("check", "tail"), ("fvector", "names.json"), ("check", "names.json"),
        ("collapse", "names.json", "--out", "cert.json"),
        ("verify-collapse", "names.json", "cert.json"),
        ("collapse", "diamond", "--out", "cert2.json"), ("verify-collapse", "tail", "cert2.json"),
        ("scarf", "ideal"), ("betti", "ideal", "--field", "2"),
        ("supports", "diamond", "ideal", "--verify"),
        ("build-scarf", "tail", "--variant", "intermediate", "--seed", "3",
         "--out", "built.json"), ("betti", "built.json"),
        *(("check", name) for name in MALFORMED),
        ("verify-collapse", "tail", "trailing.json"), ("scarf", "list.json"),
    ]
    src = str(Path(treescarf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outputs = {}
    for head in (("-m", "treescarf.cli"), ("-c", WITHOUT_C_JSON), ("-c", BY_JSON)):
        runs = outputs[head] = {}
        for argv in command_lines:
            proc = subprocess.run([sys.executable, *head, *(files.get(a, a) for a in argv)],
                                  env=env, cwd=tmp, capture_output=True)
            outs = [(tmp / argv[i + 1]).read_bytes()
                    for i, a in enumerate(argv) if a == "--out"]
            runs[argv] = (proc.returncode, proc.stdout, proc.stderr, outs)
    ours, without, reference = outputs.values()
    assert ours == reference
    # json's pure-Python scanner words one error differently from its C one
    del without["check", "control.json"], reference["check", "control.json"]
    assert without == reference
    codes = [code for code, *_ in ours.values()]
    assert codes == [0] * 12 + [2] * (len(MALFORMED) + 2)
    assert not any(b"Traceback" in stderr for _, _, stderr, _ in ours.values())


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_garbage_collector_as_it_was(files, capsys, enabled):
    # only the one-shot ``python -m treescarf.cli`` process turns cyclic
    # collection off; a caller of main() keeps its own setting
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv in (("collapse", files["tail"]), ("check", files["diamond"])):
            assert main(list(argv)) == 0
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_only_the_module_run_turns_cyclic_collection_off(files):
    # run as ``python -m treescarf.cli``, the collector goes off; a fresh
    # process that imports the module and calls main() keeps it on
    as_main = ("import gc, os, runpy, sys\n"
               "exit_now = os._exit\n"
               "def record(code):\n"
               "    sys.stderr.write(f'{code} {gc.isenabled()}')\n"
               "    sys.stderr.flush()\n"
               "    exit_now(code)\n"
               "os._exit = record\n"
               "runpy.run_module('treescarf.cli', run_name='__main__')\n")
    imported = ("import gc, sys\n"
                "from treescarf import cli\n"
                "code = cli.main(sys.argv[1:])\n"
                "sys.stderr.write(f'{code} {gc.isenabled()}')\n")
    src = str(Path(treescarf.__file__).resolve().parents[1])
    for probe, enabled in ((as_main, "False"), (imported, "True")):
        proc = subprocess.run([sys.executable, "-c", probe, "check", files["tail"]],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, check=True)
        assert proc.stderr.split() == ["0", enabled]


SIMPLEX12 = {"facets": [[str(v) for v in range(1, 13)]]}


def module_run(argv, cwd, stdout=subprocess.PIPE):
    # ``python -m treescarf.cli ARGV`` as its own process, in ``cwd``, with
    # buffered streams, so that output left unflushed at exit would be lost
    src = str(Path(treescarf.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "treescarf.cli", *argv],
                          env=dict(env, PYTHONPATH=src, COLUMNS="80"),
                          cwd=cwd, stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, expected", [
    # a report of more than a 64 KiB pipe buffer, and its --out file
    (("collapse", "simplex12.json", "--out", "cert.json"), 0),
    (("check", "missing.json"), 2),  # a typed error: JSON on stderr
    (("check",), 2),  # argparse's rejection: usage text on stderr
])
def test_module_run_matches_main_byte_for_byte(tmp_path, capsys, monkeypatch,
                                               argv, expected):
    # the process ends with os._exit, after flushing: what it writes and
    # its exit code are those of main() run in process
    for side in ("module", "main"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "simplex12.json").write_text(json.dumps(SIMPLEX12))
    proc = module_run(argv, tmp_path / "module")
    monkeypatch.chdir(tmp_path / "main")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    assert code == expected
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    if "--out" in argv:
        assert len(proc.stdout) > 65536
        written = [(tmp_path / side / "cert.json").read_bytes() for side in ("module", "main")]
        assert written[0] == written[1]


@pytest.mark.parametrize("argv, expected", [
    (("collapse", "simplex12.json"), 1),  # print raises: a traceback
    (("check", "simplex12.json"), 120),  # the report fits the buffer
])
def test_module_run_into_a_closed_pipe_fails(tmp_path, argv, expected):
    # the reader is gone before the report is written: a report larger
    # than the stream's buffer raises BrokenPipeError in print, and one
    # that fits it fails to flush, which the interpreter's normal exit
    # reports with status 120 and no traceback; never exit 0
    (tmp_path / "simplex12.json").write_text(json.dumps(SIMPLEX12))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = module_run(argv, tmp_path, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == expected
    assert proc.stderr.splitlines()[-1].startswith(b"BrokenPipeError")
    assert (b"Traceback" in proc.stderr) is (expected == 1)


@pytest.mark.parametrize("argv, span", [
    (("check", "tail"), "io.load_complex"),
    (("betti", "ideal"), "resolution.betti_table"),
    (("build-scarf", "tail", "--out", "built.json"), "scarf_ideals.verify_scarf"),
])
def test_benchmark_tracer_sees_every_layer(files, argv, span):
    # perfbench/traced_cli.py reads each submodule off the package and
    # rebinds every public function before the command runs; the command's
    # own imports must then get the traced functions
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spans_file = files["tmp"] / "query.spans"
    src = str(Path(treescarf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans_file), "query",
         *(files.get(a, a) for a in argv)],
        env=dict(os.environ, PYTHONPATH=src), cwd=files["tmp"], capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stderr
    query, spans = marshal.loads(spans_file.read_bytes())
    names = {name for _, _, name, *_ in spans}
    assert query == "query"
    assert {f"cli.cmd_{argv[0].replace('-', '_')}", span} <= names
