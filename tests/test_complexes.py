"""Core complex behavior: construction, faces, leaves, trees, induced parts."""

import itertools
from random import Random

import pytest

from treescarf import SimplicialComplex
from treescarf.errors import EmptyFaceError, EmptyInputError, NotAFacetError

from generators import random_tree

EDGE_TRIANGLE = [{"1", "2"}, {"2", "3", "4"}]
DIAMOND = [{"1", "2", "4"}, {"2", "3", "4"}]
TRIANGLES_WITH_TAIL = [{"1", "2", "3"}, {"2", "3", "4"}, {"4", "5"}]
TRIANGLE_BOUNDARY = [{"1", "2"}, {"2", "3"}, {"1", "3"}]


def powerset_faces(facets):
    # independent enumeration: union of the facets' nonempty power sets
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(map(frozenset, itertools.combinations(sorted(f), r)))
    return out


# -- construction ------------------------------------------------------------

def test_non_maximal_candidates_are_absorbed():
    c = SimplicialComplex([{"1", "2"}, {"2"}])
    assert c.facets == (frozenset({"1", "2"}),)


def test_edge_triangle_has_four_vertices_two_facets():
    c = SimplicialComplex(EDGE_TRIANGLE)
    assert len(c.vertices) == 4
    assert len(c.facets) == 2


def test_point_complex():
    c = SimplicialComplex([{"1"}])
    assert c.facets == (frozenset({"1"}),)
    assert c.faces() == [frozenset({"1"})]


def test_empty_candidate_list_rejected():
    with pytest.raises(EmptyInputError):
        SimplicialComplex([])


def test_empty_facet_rejected():
    with pytest.raises(EmptyFaceError):
        SimplicialComplex([{"1"}, set()])


def test_duplicate_candidates_collapse():
    assert SimplicialComplex([{"1", "2"}, {"2", "1"}]) == SimplicialComplex([{"1", "2"}])


def test_empty_complex_is_a_value_but_not_an_input():
    e = SimplicialComplex.empty()
    assert e.is_empty() and e.faces() == [] and e.f_vector() == ()


# -- faces and f-vectors -----------------------------------------------------

def test_faces_of_an_edge():
    c = SimplicialComplex([{"1", "2"}])
    assert c.faces() == [frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})]


def test_faces_of_edge_triangle_match_powerset_enumeration():
    c = SimplicialComplex(EDGE_TRIANGLE)
    expected = powerset_faces(EDGE_TRIANGLE)
    assert set(c.faces()) == expected
    assert len(c.faces()) == 9


def test_f_vectors():
    assert SimplicialComplex(EDGE_TRIANGLE).f_vector() == (4, 4, 1)
    assert SimplicialComplex(TRIANGLES_WITH_TAIL).f_vector() == (5, 6, 2)
    assert SimplicialComplex([{"1", "2", "3"}]).f_vector() == (3, 3, 1)


def test_f_vector_totals_match_face_count():
    rng = Random(11)
    for _ in range(20):
        c = random_tree(rng, max_facets=5, max_vertices=8)
        assert sum(c.f_vector()) == len(c.faces())


# -- facet removal ------------------------------------------------------------

def test_remove_facet():
    c = SimplicialComplex([{"1", "2"}, {"2", "3"}])
    assert c.remove_facet({"1", "2"}) == SimplicialComplex([{"2", "3"}])


def test_remove_facet_tail():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    assert c.remove_facet({"4", "5"}) == SimplicialComplex(
        [{"1", "2", "3"}, {"2", "3", "4"}])


def test_remove_last_facet_leaves_the_empty_complex():
    c = SimplicialComplex([{"1", "2"}])
    assert c.remove_facet({"1", "2"}).is_empty()


def test_remove_non_facet_rejected():
    c = SimplicialComplex([{"1", "2"}])
    with pytest.raises(NotAFacetError):
        c.remove_facet({"1"})


# -- induced subcomplexes ----------------------------------------------------

def test_induced_on_nonadjacent_pair_is_disconnected():
    c = SimplicialComplex(DIAMOND)
    sub = c.induced({"1", "3"})
    assert sub.facets == (frozenset({"1"}), frozenset({"3"}))
    assert not sub.is_connected()


def test_only_one_disconnected_induced_subset_in_diamond():
    # exhaustive over all vertex subsets
    c = SimplicialComplex(DIAMOND)
    disconnected = [
        x for r in range(len(c.vertices) + 1)
        for x in itertools.combinations(c.vertices, r)
        if not c.induced(x).is_connected()
    ]
    assert disconnected == [("1", "3")]


def test_induced_on_nothing_and_everything():
    c = SimplicialComplex(DIAMOND)
    assert c.induced(set()).is_empty()
    assert c.induced(c.vertices) == c


def test_induced_ignores_unknown_names_and_is_idempotent():
    c = SimplicialComplex(DIAMOND)
    x = {"1", "2", "zz"}
    sub = c.induced(x)
    assert sub == c.induced({"1", "2"})
    assert sub.induced(x) == sub


# -- leaves and free vertices --------------------------------------------------

def test_lone_facet_is_a_leaf_without_joint():
    c = SimplicialComplex([{"1", "2"}])
    assert c.is_leaf({"1", "2"}) == (True, None)


def test_leaf_with_joint():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    leaf, joint = c.is_leaf({"1", "2", "3"})
    assert leaf and joint == frozenset({"2", "3", "4"})


def test_leaf_matches_direct_definition_on_random_trees():
    # brute-force oracle: F is a leaf iff some other facet contains every
    # pairwise intersection
    rng = Random(23)
    for _ in range(30):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        for f in c.facets:
            others = [g for g in c.facets if g != f]
            expected = not others or any(
                all(f & h <= g for h in others) for g in others)
            assert c.is_leaf(f)[0] == expected


def test_triangle_boundary_edge_is_not_a_leaf():
    c = SimplicialComplex(TRIANGLE_BOUNDARY)
    assert c.is_leaf({"1", "2"}) == (False, None)


def test_not_a_facet_rejected_by_leaf_and_free_vertices():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    with pytest.raises(NotAFacetError):
        c.is_leaf({"2", "3"})
    with pytest.raises(NotAFacetError):
        c.free_vertices({"1"})


def test_free_vertices():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    assert c.free_vertices({"1", "2", "3"}) == {"1"}
    assert c.free_vertices({"2", "3", "4"}) == frozenset()
    lone = SimplicialComplex([{"1", "2"}])
    assert lone.free_vertices({"1", "2"}) == {"1", "2"}


def test_leaves_have_free_vertices_on_random_trees():
    rng = Random(5)
    for _ in range(30):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        for f in c.facets:
            if c.is_leaf(f)[0]:
                assert c.free_vertices(f)


def test_joint_tie_break_picks_first_facet():
    # both other facets contain the leaf's boundary {1,2}; the earlier wins
    c = SimplicialComplex([{"0", "1", "2"}, {"1", "2", "3"}, {"1", "2", "4"}])
    leaf, joint = c.is_leaf({"0", "1", "2"})
    assert leaf and joint == frozenset({"1", "2", "3"})


# -- connectivity, forests, trees -----------------------------------------------

def test_connectivity_cases():
    assert not SimplicialComplex([{"1"}, {"2"}]).is_connected()
    assert SimplicialComplex(TRIANGLES_WITH_TAIL).is_connected()
    assert SimplicialComplex.empty().is_connected()
    assert SimplicialComplex([{"1"}]).is_connected()


def test_triangle_boundary_is_not_a_forest():
    ok, witness = SimplicialComplex(TRIANGLE_BOUNDARY).is_forest()
    assert not ok
    assert set(witness) == set(map(frozenset, TRIANGLE_BOUNDARY))


def test_forest_answer_belongs_to_the_instance():
    cycle = SimplicialComplex(TRIANGLE_BOUNDARY)
    assert not cycle.is_forest()[0]
    for edge in TRIANGLE_BOUNDARY:
        assert cycle.remove_facet(edge).is_forest() == (True, None)
    assert cycle.is_forest() is cycle.is_forest()
    assert not cycle.is_forest()[0]


def test_forest_witness_has_minimal_size():
    # triangle boundary plus a pendant edge: the only leafless collection
    # is still the 3-cycle
    c = SimplicialComplex(TRIANGLE_BOUNDARY + [{"3", "5"}])
    ok, witness = c.is_forest()
    assert not ok and len(witness) == 3
    assert set(witness) == set(map(frozenset, TRIANGLE_BOUNDARY))


def test_tail_complex_is_a_forest_by_exhaustive_check():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    # independent check over all 7 nonempty facet subsets
    for r in range(1, 4):
        for combo in itertools.combinations(c.facets, r):
            has_leaf = len(combo) == 1 or any(
                any(all(f & h <= g for h in combo if h != f)
                    for g in combo if g != f)
                for f in combo)
            assert has_leaf
    assert c.is_forest() == (True, None)


def test_single_facet_is_a_forest():
    assert SimplicialComplex([{"1", "2", "3"}]).is_forest() == (True, None)


def test_tree_decisions():
    assert SimplicialComplex(EDGE_TRIANGLE).is_tree()
    assert not SimplicialComplex([{"1", "2"}, {"3", "4"}]).is_tree()
    assert not SimplicialComplex(TRIANGLE_BOUNDARY).is_tree()


def test_induced_subcomplexes_of_trees_are_forests():
    rng = Random(71)
    for _ in range(25):
        c = random_tree(rng, max_facets=5, max_vertices=7)
        for r in range(len(c.vertices) + 1):
            for x in itertools.combinations(c.vertices, r):
                assert c.induced(x).is_forest()[0]


def test_removing_a_leaf_from_a_tree_leaves_a_forest():
    rng = Random(101)
    for _ in range(30):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        if len(c.facets) < 2:
            continue
        for f in c.facets:
            if c.is_leaf(f)[0]:
                assert c.remove_facet(f).is_forest()[0]
