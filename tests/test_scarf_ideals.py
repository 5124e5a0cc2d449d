"""Scarf ideal constructions and round trips back through the Scarf complex."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (SimplicialComplex, betti_table, build_intermediate,
                       build_J, build_Jprime, face_variable_ring,
                       is_boundary_of_simplex, is_minimal, lcm, m_double_prime,
                       parse_monomial, random_h, scarf_complex,
                       supports_resolution, verify_scarf)
from treescarf.errors import (ArityMismatchError, BadHError,
                              BoundaryOfSimplexError,
                              DegenerateVertexFacetError, TreescarfError)

import oracles
from generators import random_complex, random_tree

EDGE_TRIANGLE = SimplicialComplex([{"1", "2"}, {"2", "3", "4"}])
TRIANGLES_WITH_TAIL = SimplicialComplex([{"1", "2", "3"}, {"2", "3", "4"}, {"4", "5"}])
TRIANGLE_BOUNDARY = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])


# -- eligibility ------------------------------------------------------------------

def test_boundary_detection():
    assert is_boundary_of_simplex(TRIANGLE_BOUNDARY)
    assert is_boundary_of_simplex(SimplicialComplex([{"1"}, {"2"}]))
    assert not is_boundary_of_simplex(EDGE_TRIANGLE)
    assert not is_boundary_of_simplex(SimplicialComplex([{"1"}]))


def test_boundaries_are_rejected():
    with pytest.raises(BoundaryOfSimplexError):
        build_J(TRIANGLE_BOUNDARY)
    with pytest.raises(BoundaryOfSimplexError):
        build_Jprime(TRIANGLE_BOUNDARY)


# -- face variables ----------------------------------------------------------------

def test_face_variables_follow_the_compact_naming():
    ring = face_variable_ring(EDGE_TRIANGLE)
    assert ring.variables == ("x_1", "x_2", "x_3", "x_4", "x_12", "x_23",
                              "x_24", "x_34", "x_234")


def test_face_variables_use_separators_for_long_names():
    ring = face_variable_ring(SimplicialComplex([{"a", "b10"}]))
    assert set(ring.variables) == {"x_a", "x_b10", "x_a_b10"}


# -- the full construction -----------------------------------------------------------

def test_full_ideal_of_the_edge_triangle():
    ideal = build_J(EDGE_TRIANGLE)
    expected = [parse_monomial(s) for s in (
        "x_2*x_3*x_4*x_23*x_24*x_34*x_234",
        "x_1*x_3*x_4*x_34",
        "x_1*x_2*x_4*x_12*x_24",
        "x_1*x_2*x_3*x_12*x_23")]
    assert list(ideal.generators) == expected


def test_full_ideal_of_a_single_edge():
    ideal = build_J(SimplicialComplex([{"1", "2"}]))
    assert list(ideal.generators) == [parse_monomial("x_2"), parse_monomial("x_1")]


def test_full_ideal_factors_through_the_reduced_one():
    full = build_J(TRIANGLES_WITH_TAIL)
    reduced = build_Jprime(TRIANGLES_WITH_TAIL)
    for v, m_full, m_red in zip(TRIANGLES_WITH_TAIL.vertices,
                                full.generators, reduced.generators):
        assert m_full == m_double_prime(TRIANGLES_WITH_TAIL, v) * m_red


# -- the reduced construction ---------------------------------------------------------

def test_reduced_ideal_of_the_edge_triangle():
    ideal = build_Jprime(EDGE_TRIANGLE)
    expected = [parse_monomial(s) for s in (
        "x_2*x_23*x_24*x_34*x_234",
        "x_1*x_34",
        "x_1*x_2*x_12*x_24",
        "x_1*x_2*x_12*x_23")]
    assert list(ideal.generators) == expected


def test_reduced_generators_of_the_tail_complex():
    ideal = build_Jprime(TRIANGLES_WITH_TAIL)
    by_vertex = dict(zip(TRIANGLES_WITH_TAIL.vertices, ideal.generators))
    assert by_vertex["2"] == parse_monomial("x_13*x_34*x_4*x_5*x_45")
    assert by_vertex["4"] == parse_monomial("x_12*x_13*x_23*x_123*x_5")


def test_single_vertex_facets_are_rejected_by_the_reduced_form():
    c = SimplicialComplex([{"1", "2"}, {"3"}])
    with pytest.raises(DegenerateVertexFacetError):
        build_Jprime(c)
    build_J(c)  # the full construction still accepts them


def test_reduced_divides_full_everywhere():
    rng = Random(3)
    checked = 0
    for _ in range(40):
        c = random_complex(rng)
        if is_boundary_of_simplex(c) or any(len(f) == 1 for f in c.facets):
            continue
        full = build_J(c)
        reduced = build_Jprime(c)
        checked += 1
        for m_full, m_red in zip(full.generators, reduced.generators):
            assert m_red.divides(m_full)
    assert checked > 10


# -- cofactors -------------------------------------------------------------------------

def test_cofactors_of_the_tail_complex():
    assert m_double_prime(TRIANGLES_WITH_TAIL, "1") == parse_monomial("x_2*x_3")
    assert m_double_prime(TRIANGLES_WITH_TAIL, "4") == parse_monomial("x_1*x_2*x_3")


def test_cofactor_times_reduced_recovers_full():
    full = build_J(EDGE_TRIANGLE)
    reduced = build_Jprime(EDGE_TRIANGLE)
    for v, m_full, m_red in zip(EDGE_TRIANGLE.vertices,
                                full.generators, reduced.generators):
        assert m_double_prime(EDGE_TRIANGLE, v) * m_red == m_full


# -- the intermediate family -----------------------------------------------------------

def test_trivial_factors_give_the_reduced_ideal():
    assert build_intermediate(EDGE_TRIANGLE) == build_Jprime(EDGE_TRIANGLE)


def test_full_factors_give_the_full_ideal():
    h = {v: m_double_prime(EDGE_TRIANGLE, v) for v in EDGE_TRIANGLE.vertices}
    assert build_intermediate(EDGE_TRIANGLE, h) == build_J(EDGE_TRIANGLE)


def test_tail_complex_modified_at_one_vertex():
    ideal = build_intermediate(TRIANGLES_WITH_TAIL, {"4": parse_monomial("x_1")})
    reduced = build_Jprime(TRIANGLES_WITH_TAIL)
    expected = list(reduced.generators)
    expected[3] = parse_monomial("x_1") * expected[3]
    assert list(ideal.generators) == expected


def test_bad_factors_are_rejected():
    with pytest.raises(BadHError) as err:
        build_intermediate(EDGE_TRIANGLE, {"1": parse_monomial("x_1")})
    assert err.value.vertex == "1"
    with pytest.raises(BadHError):
        build_intermediate(EDGE_TRIANGLE, {"9": parse_monomial("x_1")})


# -- round trips -------------------------------------------------------------------------

def test_round_trips_on_the_worked_complexes():
    for c in (EDGE_TRIANGLE, TRIANGLES_WITH_TAIL):
        assert verify_scarf(c, build_J(c))[0] == "EQUAL"
        assert verify_scarf(c, build_Jprime(c))[0] == "EQUAL"


def test_round_trip_on_random_complexes():
    rng = Random(5)
    checked = 0
    while checked < 60:
        c = random_complex(rng, max_vertices=6)
        if is_boundary_of_simplex(c):
            continue
        checked += 1
        assert verify_scarf(c, build_J(c))[0] == "EQUAL"
        if all(len(f) > 1 for f in c.facets):
            assert verify_scarf(c, build_Jprime(c))[0] == "EQUAL"


def test_generator_count_must_match():
    with pytest.raises(ArityMismatchError):
        verify_scarf(EDGE_TRIANGLE, build_J(TRIANGLES_WITH_TAIL))


def test_lcm_collisions_agree_between_full_and_reduced():
    # for subsets s, t of the vertices: the reduced labels collide exactly
    # when the full labels do (checked exhaustively on small complexes)
    rng = Random(7)
    checked = 0
    while checked < 12:
        c = random_complex(rng, max_vertices=5)
        if is_boundary_of_simplex(c) or any(len(f) == 1 for f in c.facets):
            continue
        checked += 1
        full = build_J(c).generators
        red = build_Jprime(c).generators
        n = len(c.vertices)
        subsets = [s for r in range(1, n + 1)
                   for s in itertools.combinations(range(n), r)]
        for s, t in itertools.combinations(subsets, 2):
            full_eq = lcm([full[i] for i in s]) == lcm([full[i] for i in t])
            red_eq = lcm([red[i] for i in s]) == lcm([red[i] for i in t])
            assert full_eq == red_eq


def test_random_intermediate_ideals_stay_between_equal_and_contains():
    rng = Random(11)
    for _ in range(25):
        c = random_tree(rng, max_facets=4, max_vertices=6)
        if any(len(f) == 1 for f in c.facets) or is_boundary_of_simplex(c):
            continue
        h = random_h(c, rng)
        status, _ = verify_scarf(c, build_intermediate(c, h))
        assert status in ("EQUAL", "CONTAINS")


def test_tree_scarf_ideals_resolve_with_betti_equal_f():
    rng = Random(13)
    for _ in range(12):
        c = random_tree(rng, max_facets=4, max_vertices=6)
        assert betti_table(build_J(c)).vector == c.f_vector()
        if all(len(f) > 1 for f in c.facets):
            assert betti_table(build_Jprime(c)).vector == c.f_vector()


def test_tree_scarf_complexes_support_minimally():
    # acyclic complexes minimally resolve their Scarf ideals
    rng = Random(17)
    for _ in range(12):
        c = random_tree(rng, max_facets=4, max_vertices=6)
        sc = scarf_complex(build_J(c))
        assert supports_resolution(sc) == (True, None)
        assert is_minimal(sc)[0]


def test_point_complex_round_trip():
    # one vertex, one unit generator: the Scarf complex is the point itself
    point = SimplicialComplex([{"1"}])
    ideal = build_J(point)
    assert ideal.generators[0].is_unit()
    assert verify_scarf(point, ideal)[0] == "EQUAL"


# -- the product-and-radical definitions in oracles.py ---------------------------------

@st.composite
def small_complexes(draw):
    names = draw(st.sampled_from([("1", "2", "3", "4", "5", "6"),
                                  ("a", "b10", "c", "dd", "e", "f7")]))
    names = names[:draw(st.integers(1, 6))]
    facets = draw(st.lists(st.sets(st.sampled_from(names), min_size=1),
                           min_size=1, max_size=2 * len(names)))
    return SimplicialComplex(facets)


def outcome(build, *args):
    try:
        return build(*args)
    except (TreescarfError, KeyError) as exc:
        return type(exc)


@settings(max_examples=300)
@given(small_complexes(), st.integers(0, 2**32))
def test_constructions_match_the_oracles(c, seed):
    # values and variable order must agree, and so must the error raised
    # first on simplex boundaries, single-vertex facets and non-vertices
    assert outcome(build_J, c) == outcome(oracles.build_J, c)
    assert outcome(build_Jprime, c) == outcome(oracles.build_Jprime, c)
    for v in c.vertices + ("absent",):
        assert outcome(m_double_prime, c, v) == outcome(oracles.m_double_prime, c, v)
    h = outcome(random_h, c, Random(seed))
    assert h == outcome(oracles.random_h, c, Random(seed))
    if isinstance(h, dict):
        assert build_intermediate(c, h) == oracles.build_intermediate(c, h)
