"""Core complex behavior: construction, faces, leaves, trees, induced parts.

Leaves are checked against the frozenset leaf test in oracles.py, the
forest decision against the exhaustive search over facet subsets there,
and the index-tuple and bitmask face enumerations against the frozenset
one.
"""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import SimplicialComplex
from treescarf import complexes
from treescarf.complexes import _bit_indices, face_key, vertex_key
from treescarf.errors import EmptyFaceError, EmptyInputError

import oracles
from generators import random_forest, random_tree

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
    assert oracles.dimension(e) == -1 and not oracles.has_face(e, set())


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


# names whose vertex_key order is not their string order: "9" < "10" and
# "b" < "aa" by length first
MIXED_NAMES = ("1", "2", "9", "10", "11", "a", "b", "z", "aa", "ab", "ba")


@settings(max_examples=300)
@given(st.lists(st.sets(st.sampled_from(MIXED_NAMES), min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_faces_and_f_vector_match_the_frozenset_enumeration(candidates):
    c = SimplicialComplex(candidates)
    assert c.faces() == oracles.faces(c)
    assert c.f_vector() == oracles.f_vector(c)
    assert len(c.f_vector()) - 1 == oracles.dimension(c)
    assert all(oracles.has_face(c, f) for f in c.faces())
    assert not oracles.has_face(c, set(c.vertices) | {"zz"})
    assert list(c.facets) == sorted(c.facets, key=face_key)
    assert list(c.vertices) == sorted(c.vertices, key=vertex_key)


def test_faces_follow_vertex_key_not_string_order():
    c = SimplicialComplex([{"10", "9"}, {"aa", "b"}])
    assert c.vertices == ("9", "b", "10", "aa")
    assert c.faces() == [frozenset({"9"}), frozenset({"b"}), frozenset({"10"}),
                         frozenset({"aa"}), frozenset({"9", "10"}),
                         frozenset({"b", "aa"})]
    assert c.facets == (frozenset({"9", "10"}), frozenset({"b", "aa"}))
    assert c.f_vector() == (4, 2)


# -- subcollections ------------------------------------------------------------

def test_remove_facet():
    # a subcollection is the constructor applied to the facets kept
    c = SimplicialComplex([{"1", "2"}, {"2", "3"}])
    rest = SimplicialComplex([g for g in c.facets if g != {"1", "2"}])
    assert rest == SimplicialComplex([{"2", "3"}])


def test_remove_facet_tail():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    tail = frozenset({"4", "5"})
    assert oracles.is_leaf(c, tail) == (True, frozenset({"2", "3", "4"}))
    assert SimplicialComplex([g for g in c.facets if g != tail]) == SimplicialComplex(
        [{"1", "2", "3"}, {"2", "3", "4"}])


def test_remove_last_facet_leaves_the_empty_complex():
    # the constructor refuses no facets; the empty complex is a named value
    c = SimplicialComplex([{"1", "2"}])
    with pytest.raises(EmptyInputError):
        SimplicialComplex([g for g in c.facets if g != {"1", "2"}])
    e = SimplicialComplex.empty()
    assert e.is_forest() == (True, None) and named_leaf_order(e) == []


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


# -- maximal sets, induced subcomplexes and connectivity against frozensets ------

NAMES = ("1", "2", "3", "4", "5", "6")


def mask_of(face):
    return sum(1 << NAMES.index(v) for v in face)


@st.composite
def candidate_facets(draw):
    """Nonempty vertex sets on NAMES, with repeats and nested parts mixed in."""
    sets = draw(st.lists(st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=4),
                         min_size=1, max_size=6))
    for f in draw(st.lists(st.sampled_from(sets), max_size=3)):
        # the whole set again, or a part of it
        sets.append(draw(st.frozensets(st.sampled_from(sorted(f)), min_size=1)))
    return draw(st.permutations(sets))


def test_maximal_masks_match_the_frozenset_filter():
    seen = set()

    @settings(max_examples=300)
    @given(candidate_facets(), st.booleans())
    def check(candidates, zero):
        expected = oracles.maximal(candidates)
        assert SimplicialComplex(candidates).facets == expected
        # the empty set is inside every other, and a zero mask is dropped
        masks = [mask_of(f) for f in candidates] + [0] * zero
        got = complexes._maximal(masks)
        assert len(set(got)) == len(got)
        assert sorted((frozenset(NAMES[i] for i in _bit_indices(m)) for m in got),
                      key=face_key) == list(expected)
        seen.add((len(set(candidates)) < len(candidates),
                  len(expected) < len(set(candidates))))

    check()
    # repeated candidates, and candidates strictly inside another, both come up
    assert {(True, True), (False, True)} <= seen


def test_induced_and_connectivity_match_the_frozenset_oracles():
    seen = set()

    @settings(max_examples=300)
    @given(candidate_facets(),
           st.frozensets(st.sampled_from(NAMES + ("zz", "7", "10"))))
    def check(candidates, names):
        c = SimplicialComplex(candidates)
        assert c.is_connected() == oracles.is_connected(c.facets)
        sub = c.induced(names)
        expected = oracles.induced(c, names)
        assert sub.facets == expected
        assert sub.vertices == tuple(v for v in c.vertices if v in names)
        assert sub.is_connected() == oracles.is_connected(expected)
        seen.add((sub.is_empty(), sub.is_connected(), c.is_connected()))

    check()
    # empty induced sets, disconnected induced subcomplexes, disconnected complexes
    assert {(True, True, True), (False, False, True), (False, False, False)} <= seen


@settings(max_examples=300)
@given(st.lists(st.frozensets(st.sampled_from(NAMES), max_size=3), max_size=6))
def test_connected_ignores_zero_masks(sets):
    assert complexes._connected(map(mask_of, sets)) == oracles.is_connected(
        [f for f in sets if f])


# -- leaves: the oracle and the forest code's leaf order ------------------------

def named_leaf_order(c):
    # the forest code's (leaf, joint) facet masks, as named faces
    def name(mask):
        return None if mask is None else frozenset(
            c.vertices[i] for i in _bit_indices(mask))

    return [(name(leaf), name(joint)) for leaf, joint in c._leaf_order()]


def test_lone_facet_is_a_leaf_without_joint():
    c = SimplicialComplex([{"1", "2"}])
    assert oracles.is_leaf(c, {"1", "2"}) == (True, None)
    assert named_leaf_order(c) == [(frozenset({"1", "2"}), None)]


def test_leaf_with_joint():
    c = SimplicialComplex(TRIANGLES_WITH_TAIL)
    leaf, joint = oracles.is_leaf(c, {"1", "2", "3"})
    assert leaf and joint == frozenset({"2", "3", "4"})
    # {4,5} comes first in facet order, so the leaf order prunes it first
    assert named_leaf_order(c) == [
        (frozenset({"4", "5"}), frozenset({"2", "3", "4"})),
        (frozenset({"1", "2", "3"}), frozenset({"2", "3", "4"})),
        (frozenset({"2", "3", "4"}), None)]


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
            assert oracles.is_leaf(c, f)[0] == expected


def test_triangle_boundary_edge_is_not_a_leaf():
    c = SimplicialComplex(TRIANGLE_BOUNDARY)
    assert oracles.is_leaf(c, {"1", "2"}) == (False, None)
    assert oracles.first_leaf(c) is None


def test_leaves_have_free_vertices_on_random_trees():
    # the joint holds the leaf's boundary, so the rest of the leaf is free
    rng = Random(5)
    for _ in range(30):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        for f in c.facets:
            if oracles.is_leaf(c, f)[0]:
                assert f - frozenset().union(*(g for g in c.facets if g != f))


def test_joint_tie_break_picks_first_facet():
    # both other facets contain the leaf's boundary {1,2}; the earlier wins
    c = SimplicialComplex([{"0", "1", "2"}, {"1", "2", "3"}, {"1", "2", "4"}])
    leaf, joint = oracles.is_leaf(c, {"0", "1", "2"})
    assert leaf and joint == frozenset({"1", "2", "3"})
    assert named_leaf_order(c)[0] == (frozenset({"0", "1", "2"}), joint)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True), st.sampled_from((1, 1, 2, 3)),
       st.sampled_from((6, 20)), st.booleans())
def test_leaf_order_matches_the_oracle_loop(rng, parts, max_facets, fan):
    forest = random_forest(rng, parts, max_facets=max_facets,
                           max_vertices=2 * max_facets)
    if fan:
        # a cone over a forest is a tree with one vertex in every facet
        forest = SimplicialComplex(f | {"apex"} for f in forest.facets)
    assert named_leaf_order(forest) == oracles.leaf_order(forest)


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
        path = SimplicialComplex([g for g in TRIANGLE_BOUNDARY if g != edge])
        assert path.is_forest() == (True, None)
    assert cycle.is_forest() is cycle.is_forest()
    assert not cycle.is_forest()[0]


def test_forest_witness_is_inclusion_minimal():
    # triangle boundary plus a pendant edge: the only leafless collection
    # is still the 3-cycle
    c = SimplicialComplex(TRIANGLE_BOUNDARY + [{"3", "5"}])
    ok, witness = c.is_forest()
    assert not ok and len(witness) == 3
    assert set(witness) == set(map(frozenset, TRIANGLE_BOUNDARY))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.sampled_from("123456"), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_forest_decision_matches_the_exhaustive_oracle(candidates):
    c = SimplicialComplex(candidates)
    ok, witness = c.is_forest()
    ref = oracles.leafless_subcollection(c)
    assert ok == (ref is None)
    if ok:
        assert witness is None
        return
    # canonical order, leafless, and every proper subcollection has a leaf
    assert list(witness) == sorted(witness, key=c.facets.index)
    assert oracles.first_leaf(SimplicialComplex(witness)) is None
    for f in witness:
        rest = SimplicialComplex(g for g in witness if g != f)
        assert oracles.leafless_subcollection(rest) is None
    assert len(witness) >= len(ref)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 8), st.permutations(range(1, 11)),
       st.lists(st.integers(0, 7), max_size=2))
def test_graph_cycle_witness_equals_the_oracle(q, names, pendants):
    # a graph cycle on shuffled names, with pendant edges to fresh vertices
    ring = [names[i % q] for i in range(q + 1)]
    edges = [{str(a), str(b)} for a, b in zip(ring, ring[1:])]
    edges += [{str(names[at % q]), f"p{k}"} for k, at in enumerate(pendants)]
    c = SimplicialComplex(edges)
    assert c.is_forest() == (False, oracles.leafless_subcollection(c))


@st.composite
def incidence_inputs(draw):
    # facets on ten vertices, so that some share two or more, or a random
    # forest; then maybe a graph cycle and an isolated facet on fresh
    # vertices, and maybe an apex in every facet, which makes a fan
    if draw(st.booleans()):
        facets = draw(st.lists(st.sets(st.sampled_from("0123456789"), min_size=1,
                                       max_size=4), min_size=1, max_size=10))
    else:
        rng = draw(st.randoms(use_true_random=True))
        facets = list(random_forest(rng, draw(st.sampled_from((1, 2, 3))),
                                    max_facets=12, max_vertices=24).facets)
    q = draw(st.sampled_from((0, 3, 4, 7)))
    facets += [{f"c{i}", f"c{(i + 1) % q}"} for i in range(q)]
    if draw(st.booleans()):
        facets.append({"i0", "i1", "i2"})
    if draw(st.booleans()):
        facets = [set(f) | {"apex"} for f in facets]
    return SimplicialComplex(facets)


@settings(max_examples=300, deadline=None)
@given(incidence_inputs())
def test_incidence_rows_are_the_dense_table(c):
    masks = oracles.facet_masks(c)
    assert list(c._facet_masks) == masks
    inter, meets = oracles.intersection_table(masks)
    rows = complexes._incidence(masks)
    assert rows == [{j: inter[i][j] for j in meets[i]} for i in range(len(masks))]


@settings(max_examples=300, deadline=None)
@given(incidence_inputs())
def test_forest_witness_equals_the_dense_decision(c):
    witness = oracles.simplicial_cycle_dense(c)
    assert c.is_forest() == (witness is None, witness)


def graph_cycle(q):
    return SimplicialComplex([{str(i), str((i + 1) % q)} for i in range(q)])


def triangle_path(q):
    return SimplicialComplex([{str(i), str(i + 1), str(i + 2)} for i in range(q)])


@pytest.fixture
def good_leaf_tests(monkeypatch):
    # counts the good-leaf tests of the forest decision
    count = [0]
    test = complexes._good_leaf

    def spy(row, others):
        count[0] += 1
        return test(row, others)

    monkeypatch.setattr(complexes, "_good_leaf", spy)
    return count


def test_ring_witness_takes_quadratic_work(good_leaf_tests):
    q = 100
    c = graph_cycle(q)
    assert c.is_forest() == (False, c.facets)
    assert 0 < good_leaf_tests[0] <= 2 * q * q


def test_path_decision_takes_linear_work(good_leaf_tests):
    q = 400
    assert triangle_path(q).is_forest() == (True, None)
    assert 0 < good_leaf_tests[0] <= 5 * q


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
            if oracles.is_leaf(c, f)[0]:
                rest = SimplicialComplex([g for g in c.facets if g != f])
                assert rest.is_forest()[0]
