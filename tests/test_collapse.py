"""Elementary collapses, certificates, and their verification."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (CollapseSequence, CollapseStep, SimplicialComplex,
                       elementary_collapse, free_pairs, greedy_collapse,
                       tree_collapse_certificate, verify_sequence)
from treescarf import collapse
from treescarf.errors import InvalidStepError, NotATreeError

import oracles
from generators import random_tree

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
    seq = CollapseSequence(tuple(collapse._simplex_steps(start, goal)),
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


@settings(max_examples=300)
@given(small_complexes(), st.randoms(use_true_random=True))
def test_coface_table_matches_scanning_oracle(complex_, rng):
    seq, residual = greedy_collapse(complex_)
    ref_seq, ref_residual = oracles.greedy_collapse(complex_)
    assert seq == ref_seq and residual == ref_residual
    assert free_pairs(complex_) == oracles.FaceSet(complex_).free_pairs()
    # an outside name makes cofaces that are no face
    names = list(complex_.vertices) + ["0"]
    table, ref = collapse._FaceSet(complex_), oracles.FaceSet(complex_)
    for step in seq.steps + (None,):
        assert table.free_pairs() == ref.free_pairs()
        assert table.to_complex() == ref.to_complex()
        for candidate in candidate_steps(rng, sorted(ref.faces, key=sorted), names):
            assert table.step_violation(candidate) == ref.step_violation(candidate)
        if step is not None:
            table.apply(step)
            ref.apply(step)
