"""Elementary collapses, certificates, and their verification."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (CollapseSequence, CollapseStep, SimplicialComplex,
                       elementary_collapse, free_pairs, greedy_collapse,
                       tree_collapse_certificate, verify_sequence)
from treescarf import collapse
from treescarf.complexes import _bit_indices, _face, _mask_key, face_key
from treescarf.errors import InvalidStepError, NotATreeError

import oracles
from generators import random_complex, random_tree

EDGE_TRIANGLE = SimplicialComplex([{"1", "2"}, {"2", "3", "4"}])
TRIANGLE_BOUNDARY = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])


def brute_free_pairs(complex_):
    # independent enumeration straight from the definition
    faces = set(complex_.faces())
    pairs = set()
    for coface in complex_.facets:
        for v in coface:
            free = coface - {v}
            if free and all(not (free <= g) for g in complex_.facets if g != coface):
                pairs.add((free, coface))
    return pairs


# -- free pairs -----------------------------------------------------------------

def test_free_pairs_of_an_edge():
    c = SimplicialComplex([{"1", "2"}])
    assert set(free_pairs(c)) == {
        (frozenset({"1"}), frozenset({"1", "2"})),
        (frozenset({"2"}), frozenset({"1", "2"})),
    }


def test_triangle_boundary_has_no_free_pairs():
    assert free_pairs(TRIANGLE_BOUNDARY) == []


def test_free_pairs_of_edge_triangle_match_brute_force():
    expected = brute_free_pairs(EDGE_TRIANGLE)
    assert set(free_pairs(EDGE_TRIANGLE)) == expected
    assert (frozenset({"1"}), frozenset({"1", "2"})) in expected
    # every codimension-1 face of the triangle avoiding the shared edge is free
    assert (frozenset({"2", "3"}), frozenset({"2", "3", "4"})) in expected
    assert (frozenset({"3", "4"}), frozenset({"2", "3", "4"})) in expected
    assert len(expected) == 4


def test_free_pairs_match_brute_force_on_random_trees():
    rng = Random(57)
    for _ in range(20):
        c = random_tree(rng, max_facets=5, max_vertices=8)
        assert set(free_pairs(c)) == brute_free_pairs(c)


# -- elementary collapse -----------------------------------------------------------

def test_collapse_edge_to_point():
    c = SimplicialComplex([{"1", "2"}])
    step = CollapseStep(frozenset({"2"}), frozenset({"1", "2"}))
    assert elementary_collapse(c, step) == SimplicialComplex([{"1"}])


def test_collapse_triangle_interior():
    c = SimplicialComplex([{"1", "2", "3"}])
    step = CollapseStep(frozenset({"1", "2"}), frozenset({"1", "2", "3"}))
    assert elementary_collapse(c, step) == SimplicialComplex(
        [{"1", "3"}, {"2", "3"}])


def test_stale_step_rejected():
    c = SimplicialComplex([{"1", "2"}])
    step = CollapseStep(frozenset({"2"}), frozenset({"1", "2"}))
    after = elementary_collapse(c, step)
    with pytest.raises(InvalidStepError):
        elementary_collapse(after, step)


def test_non_free_face_rejected():
    step = CollapseStep(frozenset({"2"}), frozenset({"1", "2"}))
    with pytest.raises(InvalidStepError):
        elementary_collapse(EDGE_TRIANGLE, step)


def test_each_collapse_preserves_euler_characteristic():
    rng = Random(61)
    for _ in range(15):
        c = random_tree(rng, max_facets=5, max_vertices=8)
        cert = tree_collapse_certificate(c)
        current = c
        for step in cert.steps:
            after = elementary_collapse(current, step)
            assert after.euler_characteristic() == current.euler_characteristic()
            current = after


# -- simplex collapses ----------------------------------------------------------

def simplex_schedule(facet, target):
    """The schedule that tree certificates use for one leaf, replayed on the
    simplex ``facet`` and checked to end at the simplex ``target``."""
    start, goal = frozenset(facet), frozenset(target)
    seq = CollapseSequence(tuple(oracles.simplex_steps(start, goal)),
                           SimplicialComplex([goal]))
    assert verify_sequence(SimplicialComplex([start]), seq) == (True, None)
    return seq


def test_edge_to_vertex_is_one_step():
    seq = simplex_schedule({"1", "2"}, {"1"})
    assert len(seq.steps) == 1
    assert seq.terminal == SimplicialComplex([{"1"}])


def test_triangle_to_vertex_is_three_steps():
    seq = simplex_schedule({"1", "2", "3"}, {"3"})
    assert len(seq.steps) == 3  # (7 - 1) / 2, two faces per step
    ok, _ = verify_sequence(SimplicialComplex([{"1", "2", "3"}]), seq)
    assert ok


def test_tetrahedron_to_edge_is_six_steps():
    seq = simplex_schedule({"1", "2", "3", "4"}, {"3", "4"})
    assert len(seq.steps) == 6  # (15 - 3) / 2
    ok, _ = verify_sequence(SimplicialComplex([{"1", "2", "3", "4"}]), seq)
    assert ok


def test_simplex_collapse_never_touches_the_target():
    rng = Random(67)
    names = [str(i) for i in range(1, 8)]
    for _ in range(25):
        n = rng.randint(2, 7)
        facet = set(rng.sample(names, n))
        target = set(rng.sample(sorted(facet), rng.randint(1, n - 1)))
        seq = simplex_schedule(facet, target)
        assert len(seq.steps) == (2 ** n - 2 ** len(target)) // 2
        for step in seq.steps:
            assert not step.free_face <= frozenset(target)
            assert not step.coface <= frozenset(target)
        ok, _ = verify_sequence(SimplicialComplex([facet]), seq)
        assert ok


# -- tree certificates ------------------------------------------------------------

def test_point_collapses_in_zero_steps():
    seq = tree_collapse_certificate(SimplicialComplex([{"1"}]))
    assert seq.steps == ()
    assert seq.terminal == SimplicialComplex([{"1"}])


def test_edge_triangle_certificate():
    seq = tree_collapse_certificate(EDGE_TRIANGLE)
    assert len(seq.steps) == 4  # (9 - 1) / 2
    assert len(seq.terminal.facets) == 1
    assert len(seq.terminal.facets[0]) == 1
    assert verify_sequence(EDGE_TRIANGLE, seq) == (True, None)


def test_triangles_with_tail_certificate_is_pinned():
    # leaf order: the tail {4,5} onto {4}, then {1,2,3} onto {2,3}, then the
    # last triangle {2,3,4} onto its first vertex
    c = SimplicialComplex([{"1", "2", "3"}, {"2", "3", "4"}, {"4", "5"}])
    expected = [({"5"}, {"4", "5"}),
                ({"1", "3"}, {"1", "2", "3"}),
                ({"1"}, {"1", "2"}),
                ({"3", "4"}, {"2", "3", "4"}),
                ({"4"}, {"2", "4"}),
                ({"3"}, {"2", "3"})]
    seq = tree_collapse_certificate(c)
    assert seq.steps == tuple(CollapseStep(frozenset(free), frozenset(coface))
                              for free, coface in expected)
    assert seq.terminal == SimplicialComplex([{"2"}])


def test_non_trees_are_rejected_with_evidence():
    with pytest.raises(NotATreeError) as err:
        tree_collapse_certificate(TRIANGLE_BOUNDARY)
    assert err.value.witness is not None
    with pytest.raises(NotATreeError) as err:
        tree_collapse_certificate(SimplicialComplex([{"1"}, {"2"}]))
    assert err.value.reason == "disconnected"
    with pytest.raises(NotATreeError):
        tree_collapse_certificate(SimplicialComplex.empty())


def test_certificates_on_random_trees():
    rng = Random(73)
    for _ in range(25):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        seq = tree_collapse_certificate(c)
        assert len(seq.steps) == (len(c.faces()) - 1) // 2
        assert verify_sequence(c, seq) == (True, None)


# -- greedy collapse --------------------------------------------------------------

def test_greedy_reduces_trees_to_a_point():
    rng = Random(79)
    for _ in range(15):
        c = random_tree(rng, max_facets=5, max_vertices=8)
        seq, residual = greedy_collapse(c)
        assert residual.f_vector() == (1,)
        assert seq.terminal == residual
        assert verify_sequence(c, seq) == (True, None)


def test_greedy_sticks_on_the_triangle_boundary():
    seq, residual = greedy_collapse(TRIANGLE_BOUNDARY)
    assert seq.steps == ()
    assert residual == TRIANGLE_BOUNDARY


def test_greedy_collapses_the_full_simplex():
    seq, residual = greedy_collapse(SimplicialComplex([{"1", "2", "3", "4"}]))
    assert residual.f_vector() == (1,)


def test_greedy_is_deterministic():
    rng = Random(83)
    for _ in range(5):
        c = random_tree(rng, max_facets=5, max_vertices=8)
        first, _ = greedy_collapse(c)
        second, _ = greedy_collapse(c)
        assert first == second


def facet_ring(k: int) -> SimplicialComplex:
    """Three simplices on k vertices around a circle, neighbours sharing
    two vertices; homotopy equivalent to a circle, so never collapsible."""
    step = k - 2
    return SimplicialComplex([{str((j * step + r) % (3 * step) + 1) for r in range(k)}
                              for j in range(3)])


@pytest.mark.parametrize(("k", "steps"), [(6, 86), (7, 182), (8, 374)])
def test_greedy_heap_matches_the_rescanning_oracle_on_facet_rings(k, steps):
    ring = facet_ring(k)
    seq, residual = greedy_collapse(ring)
    assert (seq, residual) == oracles.greedy_collapse(ring)
    assert len(seq.steps) == steps
    assert verify_sequence(ring, seq) == (True, None)
    assert residual.f_vector()[0] > 1


def test_greedy_heap_matches_the_rescanning_oracle_on_random_complexes():
    rng = Random(89)
    for _ in range(40):
        c = random_complex(rng, max_vertices=8)
        assert greedy_collapse(c) == oracles.greedy_collapse(c)


# -- verification -----------------------------------------------------------------

def test_verify_round_trip():
    seq = tree_collapse_certificate(EDGE_TRIANGLE)
    assert verify_sequence(EDGE_TRIANGLE, seq) == (True, None)


def test_verify_flags_invalid_reordering():
    seq = tree_collapse_certificate(EDGE_TRIANGLE)
    # moving the vertex-coface step ahead of the triangle collapse makes
    # its free face sit inside two facets
    reordered = CollapseSequence(
        (seq.steps[0], seq.steps[2], seq.steps[1], seq.steps[3]), seq.terminal)
    ok, failing = verify_sequence(EDGE_TRIANGLE, reordered)
    assert not ok and failing == 1


def test_verify_flags_wrong_terminal():
    seq = tree_collapse_certificate(EDGE_TRIANGLE)
    wrong = CollapseSequence(seq.steps, SimplicialComplex([{"9"}]))
    ok, failing = verify_sequence(EDGE_TRIANGLE, wrong)
    assert not ok and failing == len(seq.steps)


def test_empty_sequence_with_matching_terminal():
    seq = CollapseSequence((), EDGE_TRIANGLE)
    assert verify_sequence(EDGE_TRIANGLE, seq) == (True, None)


# -- coface table against the scanning oracle ------------------------------------

@st.composite
def small_complexes(draw):
    names = [str(i) for i in range(1, draw(st.integers(1, 6)) + 1)]
    facets = draw(st.lists(st.sets(st.sampled_from(names), min_size=1),
                           min_size=1, max_size=8))
    return SimplicialComplex(facets)


def candidate_steps(rng, faces, names):
    """Steps to judge: codimension-1 pairs of present faces (valid, with a
    non-facet coface, with a shared or an empty free face), cofaces that
    are no face, and pairs of the wrong codimension or not nested."""
    for _ in range(12):
        c = rng.choice(faces)
        kind = rng.randrange(4)
        if kind == 0:
            yield CollapseStep(c - {rng.choice(sorted(c))}, c)
        elif kind == 1:
            yield CollapseStep(c, c | {rng.choice(names)})
        elif kind == 2:
            yield CollapseStep(c - set(rng.sample(sorted(c), min(2, len(c)))), c)
        else:
            yield CollapseStep(rng.choice(faces), c)


def facets_left(complex_, table):
    # the complex of the facets of a coface-bit table, named
    return SimplicialComplex._from_maximal(
        _face(complex_.vertices, f) for f, up in table.items() if not up)


@settings(max_examples=300)
@given(small_complexes(), st.randoms(use_true_random=True))
def test_coface_table_matches_scanning_oracle(complex_, rng):
    seq, residual = greedy_collapse(complex_)
    ref_seq, ref_residual = oracles.greedy_collapse(complex_)
    assert seq == ref_seq and residual == ref_residual
    assert free_pairs(complex_) == oracles.FaceSet(complex_).free_pairs()
    # an outside name makes cofaces that are no face
    names = list(complex_.vertices) + ["0"]
    table, ref = collapse._coface_bits(complex_), oracles.FaceSet(complex_)
    vertices = complex_.vertices
    for step in seq.steps + (None,):
        assert [(_face(vertices, free), _face(vertices, coface))
                for free, coface in collapse._free_pairs(table)] == ref.free_pairs()
        assert facets_left(complex_, table) == ref.to_complex()
        for candidate in candidate_steps(rng, sorted(ref.faces, key=sorted), names):
            # the replay of the candidate alone, from this state
            pairs, _ = collapse._mask_pairs(complex_, (candidate,))
            bad = collapse._replay(dict(table), pairs)
            assert (None if bad is None else bad[1]) == ref.step_violation(candidate)
        if step is not None:
            (pair,), _ = collapse._mask_pairs(complex_, (step,))
            assert collapse._replay(table, [pair]) is None
            ref.apply(step)


def assert_encodes(complex_, table, ref):
    # the faces f | b for the bits b of each entry are the oracle's cofaces
    vertices = complex_.vertices

    def name(mask):
        return _face(vertices, mask)

    assert {name(f): {name(f | 1 << i) for i in _bit_indices(up)}
            for f, up in table.items()} == ref.cofaces


@settings(max_examples=300)
@given(small_complexes())
def test_coface_bits_encode_the_oracle_cofaces_through_greedy(complex_):
    table, ref = collapse._coface_bits(complex_), oracles.CofaceTable(complex_)
    pairs, residual = collapse._greedy_steps(complex_)
    assert_encodes(complex_, table, ref)
    for free, coface in pairs:
        assert collapse._replay(table, [(free, coface)]) is None
        ref.apply(CollapseStep(_face(complex_.vertices, free),
                               _face(complex_.vertices, coface)))
        assert_encodes(complex_, table, ref)
    assert residual == sorted((f for f, up in table.items() if not up),
                              key=_mask_key)
    assert facets_left(complex_, table) == ref.to_complex()


# -- the mask-keyed table against the frozenset table ------------------------------

MESSAGES = {
    "empty free face": "free face must be nonempty",
    "non-maximal free face": "free face is not a maximal proper face of the coface",
    "coface not in the complex": "coface is not a face of the complex",
    "unknown vertex": "coface is not a face of the complex",
    "coface not a facet": "coface is not a facet",
    "free face in two facets": "free face lies in more than one facet",
}

# "9" < "10" and "b" < "aa" in vertex_key order, unlike string order
MIXED_NAMES = ("1", "2", "9", "10", "11", "a", "b", "z", "aa", "ab", "ba")


def renamed_tree(rng, names):
    tree = random_tree(rng, max_facets=6, max_vertices=9)
    rename = dict(zip(tree.vertices, names))
    return SimplicialComplex([{rename[v] for v in f} for f in tree.facets])


def corrupt_steps(ref, step, vertices, rng):
    """For each corruption kind, a step that the frozenset table ``ref``
    rejects for that reason in its current state, where ``step`` is the
    next valid step; kinds that the state cannot show are left out."""
    free, coface = step.free_face, step.coface
    present = sorted(ref.cofaces, key=face_key)
    found = {
        "empty free face": [CollapseStep(frozenset(), coface)],
        "non-maximal free face": [CollapseStep(coface, coface)]
        + [CollapseStep(free - {v}, coface) for v in sorted(free) if len(free) > 1],
        "coface not in the complex": [
            CollapseStep(f, f | {v}) for f in present if f
            for v in vertices if f | {v} not in ref.cofaces],
        "unknown vertex": [CollapseStep(coface, coface | {"zz"}),
                           CollapseStep(free | {"zz"}, coface | {"zz"})],
        "coface not a facet": [
            CollapseStep(f - {v}, f) for f in present
            if len(f) > 1 and ref.cofaces[f] for v in sorted(f)],
        "free face in two facets": [
            CollapseStep(f - {v}, f) for f in present
            if f and not ref.cofaces[f] for v in sorted(f)
            if len(f) > 1 and len(ref.cofaces[f - {v}]) > 1],
    }
    return {kind: rng.choice(steps) for kind, steps in found.items() if steps}


def check_corruptions(complex_, rng) -> set[str]:
    """Replay the tree certificate of ``complex_``; at each step, every
    corruption kind the state can show must be rejected at that step, by
    the library and the frozenset oracle alike, with the kind's message.
    Returns the kinds that were shown."""
    seq = tree_collapse_certificate(complex_)
    assert (verify_sequence(complex_, seq) == oracles.verify_sequence(complex_, seq)
            == (True, None))
    shown = set()
    ref = oracles.CofaceTable(complex_)
    for i, step in enumerate(seq.steps):
        for kind, bad in corrupt_steps(ref, step, complex_.vertices, rng).items():
            steps = seq.steps[:i] + (bad,) + seq.steps[i + 1:]
            corrupted = CollapseSequence(steps, seq.terminal)
            # the count-table replay names the same step and message
            assert ref.step_violation(bad) == MESSAGES[kind]
            assert collapse._first_violation(complex_, corrupted) == (i, MESSAGES[kind])
            assert (verify_sequence(complex_, corrupted)
                    == oracles.verify_sequence(complex_, corrupted) == (False, i))
            shown.add(kind)
        ref.apply(step)
    for terminal in (complex_, SimplicialComplex([{"zz"}]),
                     SimplicialComplex([set(complex_.vertices[:2])])):
        if terminal != seq.terminal:
            wrong = CollapseSequence(seq.steps, terminal)
            assert (verify_sequence(complex_, wrong)
                    == oracles.verify_sequence(complex_, wrong) == (False, len(seq.steps)))
            shown.add("wrong terminal")
    return shown


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=True), st.permutations(MIXED_NAMES))
def test_verify_matches_the_frozenset_replay_on_corrupted_certificates(rng, names):
    check_corruptions(renamed_tree(rng, names), rng)


def test_every_corruption_kind_is_exercised():
    rng = Random(97)
    shown = set()
    for _ in range(30):
        names = list(MIXED_NAMES)
        rng.shuffle(names)
        shown |= check_corruptions(renamed_tree(rng, names), rng)
    assert shown == set(MESSAGES) | {"wrong terminal"}


def test_elementary_collapse_keeps_its_six_messages():
    cases = [
        ((), {"1", "2"}, "free face must be nonempty"),
        ({"2"}, {"2", "3", "4"}, "free face is not a maximal proper face of the coface"),
        ({"1", "2"}, {"1", "2", "9"}, "coface is not a face of the complex"),
        ({"2", "4"}, {"1", "2", "4"}, "coface is not a face of the complex"),
        ({"2"}, {"2", "3"}, "coface is not a facet"),
        ({"2"}, {"1", "2"}, "free face lies in more than one facet"),
    ]
    for free, coface, message in cases:
        step = CollapseStep(frozenset(free), frozenset(coface))
        assert oracles.CofaceTable(EDGE_TRIANGLE).step_violation(step) == message
        with pytest.raises(InvalidStepError) as err:
            elementary_collapse(EDGE_TRIANGLE, step)
        assert str(err.value) == message
    # Collapses keep the face set closed under subsets, so a free face of a
    # present coface is always present; only a table with a face taken out
    # by hand shows the sixth message.
    step = CollapseStep(frozenset({"1"}), frozenset({"1", "2"}))
    table, ref = collapse._coface_bits(EDGE_TRIANGLE), oracles.CofaceTable(EDGE_TRIANGLE)
    pairs, _ = collapse._mask_pairs(EDGE_TRIANGLE, (step,))
    # the vertex {1} goes, and with it a coface of the empty face
    free = pairs[0][0]
    del table[free]
    table[0] ^= free
    del ref.cofaces[step.free_face]
    ref.cofaces[frozenset()].discard(step.free_face)
    assert (collapse._replay(table, pairs)[1] == ref.step_violation(step)
            == "free face is not a face of the complex")


# -- the mask schedule and certificate against the frozenset schedule -----------

@settings(max_examples=40)
@given(st.permutations(MIXED_NAMES))
def test_mask_schedule_matches_the_frozenset_schedule(names):
    # every nonempty proper goal face of the simplices on 1..7 of the names
    for n in range(1, 8):
        simplex = SimplicialComplex([names[:n]])
        vertices, full = simplex.vertices, (1 << n) - 1
        for goal in range(1, full):
            got = [(_face(vertices, free), _face(vertices, coface))
                   for free, coface in collapse._simplex_steps(full, goal)]
            expected = [(s.free_face, s.coface) for s in oracles.simplex_steps(
                frozenset(names[:n]), _face(vertices, goal))]
            assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=True), st.permutations(MIXED_NAMES))
def test_tree_certificate_equals_the_frozenset_schedule(rng, names):
    tree = renamed_tree(rng, names)
    assert tree_collapse_certificate(tree) == oracles.tree_collapse_certificate(tree)
