"""Command-line interface: reports, file round trips, determinism, errors."""

import json
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
from treescarf import cli, collapse, errors, io, parse_monomial
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


# -- the report writer against json's indented output ----------------------------

json_strings = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t", "é", "\u2028", "😀", "\udc80"])
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.lists(json_strings, max_size=4)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=500)
@given(json_trees)
def test_writer_is_byte_identical_to_json_indented_output(value):
    assert io.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300)
@given(json_trees)
def test_laid_out_text_is_placed_at_any_depth(value):
    # text laid out once at the top level, placed inside other values,
    # reads as the value laid out there
    laid = io._Laid(io.json_text(value))
    for outer, expected in (([laid], [value]), ({"a": {"b": laid}}, {"a": {"b": value}}),
                            ([["x"], {"k": [laid, "y"]}], [["x"], {"k": [value, "y"]}])):
        assert io.json_text(outer) == json.dumps(expected, indent=2, sort_keys=True)
    assert io.json_text(laid) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": [], "b": {}, "c": [[], {}]},
    [True, 1, False, 0, None], {"1": True, "10": 1, "9": False},
    ["a", 1], ["a", ["b"], "c"], (("x", "y"), ()),
    2**300, -2**300, "\x00\"\\\u00e9\ud83d\ude00",
    [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300],
    {"a": [], "b": ["x", "y"], "c": ["z"], "d": ("u",), "e": [1, "x"],
     "f": {"g": ["h"], "i": []}, "j": [["k"]]},
])
def test_writer_edge_cases_and_file_output(value, tmp_path):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert io.json_text(value) == expected
    io.dump_json(value, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == expected + "\n"


def test_writer_rejects_what_json_rejects():
    for value in ({1, 2}, object(), b"x"):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            io.json_text(value)


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
    searched = []
    search = SimplicialComplex._simplicial_cycle

    def spy(self):
        searched.append(self)
        return search(self)

    monkeypatch.setattr(SimplicialComplex, "_simplicial_cycle", spy)
    code, _, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    assert searched == [load_complex(files["diamond"])]


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
    assert replayed == [collapse._coface_bits(load_complex(files["tail"]))]


@pytest.mark.parametrize("argv", [("check",), ("collapse", "--out", "cert.json")])
def test_tree_commands_name_faces_only_for_output(files, capsys, monkeypatch, argv):
    # check and collapse work on masks from schedule to output: no
    # CollapseStep is built and the frozenset writer is never called
    built, written = [], []
    init = collapse.CollapseStep.__init__

    def spy_step(self, free_face, coface):
        built.append((free_face, coface))
        init(self, free_face, coface)

    def spy_data(sequence):
        written.append(sequence)
        raise AssertionError("sequence_to_data called")

    monkeypatch.setattr(collapse.CollapseStep, "__init__", spy_step)
    monkeypatch.setattr(io, "sequence_to_data", spy_data)
    monkeypatch.chdir(files["tmp"])
    command, *options = argv
    code, out, _ = run(capsys, command, files["tail"], *options)
    assert code == 0
    assert built == [] and written == []
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
    # output too: no CollapseStep is built and the frozenset writer is
    # never called
    path = files["tmp"] / "non_tree.json"
    path.write_text(json.dumps(NON_TREE_FACETS))
    complex_ = load_complex(str(path))
    assert not complex_.is_tree()
    expected = io.sequence_to_data(oracles.greedy_collapse(complex_)[0])
    built, written = [], []
    init = collapse.CollapseStep.__init__

    def spy_step(self, free_face, coface):
        built.append((free_face, coface))
        init(self, free_face, coface)

    def spy_data(sequence):
        written.append(sequence)
        raise AssertionError("sequence_to_data called")

    monkeypatch.setattr(collapse.CollapseStep, "__init__", spy_step)
    monkeypatch.setattr(io, "sequence_to_data", spy_data)
    monkeypatch.chdir(files["tmp"])
    code, out, _ = run(capsys, "collapse", str(path), *options)
    assert code == 0
    assert built == [] and written == []
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
    expected = io.sequence_to_data(oracles.greedy_collapse(complex_)[0])
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
    walk = cli._lattice_betti_table

    def spy(ideal, field):
        walked.append(ideal)
        return walk(ideal, field)

    monkeypatch.setattr(cli, "_lattice_betti_table", spy)
    argv = ("supports", *generic_cycle_files(files["tmp"]))
    _, plain, _ = run(capsys, *argv)
    assert walked == []
    code, checked, _ = run(capsys, *argv, "--verify")
    assert code == 0 and len(walked) == 1
    assert json.loads(checked)["result"] == json.loads(plain)["result"]
    assert json.loads(checked)["diagnostics"] == [
        "general criterion used (complex is not a forest)",
        "Betti table cross-checked against the lcm-lattice walk"]


def test_supports_verify_raises_on_a_betti_mismatch(files, monkeypatch):
    monkeypatch.setattr(cli, "_lattice_betti_table",
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
    for cls, name in ((Monomial, "lcm"), (Monomial, "divides"),
                      (Monomial, "exponent_vector"), (MonomialIdeal, "monomial_key")):
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
        "dimension", "empty", "euler_characteristic", "f_vector", "faces",
        "facets", "has_face", "induced", "is_connected", "is_empty", "is_forest",
        "is_tree", "vertices"],
    LabeledComplex: [
        "complex", "divisor_subcomplex", "face_label", "ideal", "label", "labels",
        "variables"],
    Monomial: [
        "divide_exact", "divides", "exponent", "exponent_vector", "is_unit", "lcm",
        "radical", "variables"],
    MonomialIdeal: [
        "format", "generators", "lcm_lattice", "monomial_key", "variables"],
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


def test_cli_import_loads_neither_dataclasses_nor_fractions():
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
    assert not added & {"dataclasses", "fractions", "typing", "random"}
