"""Scarf complexes and Betti tables against the 2^t definitions in oracles.py,
the two Betti routes against each other, and the pair-lcm tree criterion
against the lcm-lattice loop.

Facets, labels, Betti vectors and the multigraded columns (in order) must
agree exactly, over the rationals and over GF(2), GF(3) and GF(5).
"""

from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treescarf import (BettiTable, LabeledComplex, MonomialIdeal, ScarfComparison,
                       betti_table, build_intermediate, build_J, build_Jprime,
                       parse_monomial, random_h, scarf_complex,
                       supports_resolution, supports_resolution_tree,
                       verify_scarf)
from treescarf import resolution
from treescarf.complexes import SimplicialComplex
from treescarf.errors import BoundaryOfSimplexError, DegenerateVertexFacetError
from treescarf.homology import QQ, FieldSpec
from treescarf.monomials import UNIT, Monomial, minimalize

import oracles
from generators import RING_VARS, random_forest, random_label_antichain, random_tree

FIELDS = (QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5))
fields = st.sampled_from(FIELDS)


def assert_matches_oracles(ideal, field):
    fast, ref = scarf_complex(ideal), oracles.scarf_complex(ideal)
    assert fast.complex.facets == ref.complex.facets
    assert fast.labels == ref.labels
    assert fast.variables == ref.variables
    ref_table = oracles.betti_table(ideal, field)
    for table in (betti_table(ideal, field), resolution._lattice_betti_table(ideal, field)):
        assert table.vector == ref_table.vector
        assert list(table.by_degree.items()) == list(ref_table.by_degree.items())


@st.composite
def antichain_ideals(draw, max_size=7):
    rng = draw(st.randoms(use_true_random=True))
    labels = random_label_antichain(rng, draw(st.integers(1, max_size)), max_vars=4)
    return MonomialIdeal(RING_VARS, labels)


@st.composite
def strongly_generic_ideals(draw):
    """No variable has the same positive exponent in two generators."""
    variables = RING_VARS[:draw(st.integers(3, 5))]
    t = draw(st.integers(2, 7))
    columns = []
    for _ in variables:
        exps = draw(st.permutations(range(1, t + 1)))
        keep = draw(st.lists(st.integers(0, 2), min_size=t, max_size=t))
        columns.append([e if k else 0 for e, k in zip(exps, keep)])
    gens = minimalize(Monomial(dict(zip(variables, row))) for row in zip(*columns))
    assume(len(gens) >= 2)
    return MonomialIdeal(variables, gens)


@st.composite
def tree_scarf_ideals(draw, max_facets=5, max_vertices=7):
    rng = draw(st.randoms(use_true_random=True))
    tree = random_tree(rng, max_facets=max_facets, max_vertices=max_vertices)
    variant = draw(st.sampled_from(("J", "Jprime", "intermediate")))
    try:
        if variant == "J":
            return build_J(tree)
        if variant == "Jprime":
            return build_Jprime(tree)
        return build_intermediate(tree, random_h(tree, rng))
    except (BoundaryOfSimplexError, DegenerateVertexFacetError):
        assume(False)


@st.composite
def wide_ideals(draw):
    """More variables than generators, so K_{<m} can be covered by many
    more maximal simplices than it has vertices."""
    t = draw(st.integers(2, 6))
    variables = tuple(f"x{k}" for k in range(draw(st.integers(t + 1, 12))))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=len(variables),
                                  max_size=len(variables)),
                         min_size=t, max_size=t))
    gens = minimalize(Monomial(dict(zip(variables, row))) for row in rows)
    return MonomialIdeal(variables, gens)


def subset_ideal(t: int, k: int) -> MonomialIdeal:
    """One variable x_T per k-subset T of the t generators; g_i has exponent
    1 in x_T when i is in T and 2 otherwise.  At the lcm of all generators
    the maximal A_x are the C(t, k) subsets T."""
    subsets = list(combinations(range(t), k))
    variables = tuple("x" + "_".join(map(str, T)) for T in subsets)
    return MonomialIdeal(variables, [
        Monomial({v: 1 if i in T else 2 for v, T in zip(variables, subsets)})
        for i in range(t)])


def complete_graph(n: int) -> SimplicialComplex:
    return SimplicialComplex(combinations(map(str, range(n)), 2))


@settings(max_examples=150)
@given(antichain_ideals(), fields)
def test_random_antichains_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


@settings(max_examples=100)
@given(strongly_generic_ideals(), fields)
def test_strongly_generic_ideals_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


@settings(max_examples=100)
@given(tree_scarf_ideals(), fields)
def test_tree_scarf_ideals_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


@settings(max_examples=100)
@given(wide_ideals(), fields)
def test_wide_ideals_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


# -- the lcm-lattice oracle: a second, independent Betti definition -------------

SPREAD = MonomialIdeal(("x", "y", "z", "u"), [parse_monomial(s) for s in
                                              ("x*y^2", "y*z", "x*z^2", "z*u")])


def test_lcm_lattice_oracle_indexing_on_the_spread_ideal():
    # generators sit in position 0 (the empty interval has rank 1 in
    # dimension -1); the triangle {2, 3, 4} of the supporting tree gives
    # position 2, and the lattice element x*y^2*z^2 carries no rank
    table = oracles.betti_table_lcm_lattice(SPREAD)
    assert table.vector == (4, 4, 1)
    assert table.by_degree[parse_monomial("y*z")] == (1,)
    assert table.by_degree[parse_monomial("x*y^2*z")] == (0, 1)
    assert table.by_degree[parse_monomial("x*y*z^2*u")] == (0, 0, 1)
    assert parse_monomial("x*y^2*z^2") not in table.by_degree


# the order complexes grow with the number of chains, so the inputs stay small
@settings(max_examples=100, deadline=None)
@given(antichain_ideals(max_size=5) | tree_scarf_ideals(max_facets=3, max_vertices=5),
       st.sampled_from((QQ, FieldSpec(2))))
def test_betti_table_matches_lcm_lattice_oracle(ideal, field):
    fast, ref = betti_table(ideal, field), oracles.betti_table_lcm_lattice(ideal, field)
    assert fast.vector == ref.vector
    assert list(fast.by_degree.items()) == list(ref.by_degree.items())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("ideal", [
    subset_ideal(5, 2), subset_ideal(6, 3), subset_ideal(8, 4),
    build_J(complete_graph(4)), build_J(complete_graph(5)),
], ids=["subsets-5-2", "subsets-6-3", "subsets-8-4", "J-K4", "J-K5"])
def test_many_maximal_covers_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


def test_nerve_cover_never_outnumbers_the_generators(monkeypatch):
    # subset_ideal(8, 4) has 70 maximal A_x at the top degree, whose nerve
    # has more than 2^35 faces; the dual cover has one set per generator.
    nerve = resolution._nerve

    def bounded_nerve(sets):
        assert len(sets) <= 8
        return nerve(sets)

    monkeypatch.setattr(resolution, "_nerve", bounded_nerve)
    assert betti_table(subset_ideal(8, 4)).vector == (8, 28, 56, 70, 35)


def test_tree_scarf_ideals_beyond_the_oracles_reach():
    # t >= 16 is out of reach for the 2^t definitions; the tree is its own
    # Scarf complex and its f-vector is the Betti vector of J and Jprime.
    rng = Random(5)
    tree = random_tree(rng, max_facets=10, max_vertices=20)
    while len(tree.vertices) < 16:
        tree = random_tree(rng, max_facets=10, max_vertices=20)
    for ideal in (build_J(tree), build_Jprime(tree)):
        assert verify_scarf(tree, ideal)[0] == ScarfComparison.EQUAL
        assert betti_table(ideal).vector == tree.f_vector()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("ideal", [
    MonomialIdeal((), [UNIT]),
    MonomialIdeal(("x", "y"), [UNIT]),
    MonomialIdeal(("x", "y"), [parse_monomial("x*y^2")]),
    MonomialIdeal(("x", "y", "z", "u"), [parse_monomial(v) for v in "xyzu"]),
    MonomialIdeal(("x", "y", "z"),
                  [parse_monomial(s) for s in ("x^2", "y*z", "x*y^3")]),
], ids=["unit-no-variables", "unit", "single", "coprime", "mixed"])
def test_edge_cases_match_oracles(ideal, field):
    assert_matches_oracles(ideal, field)


def test_edge_case_answers():
    for variables in ((), ("x",), ("x", "y")):
        assert betti_table(MonomialIdeal(variables, [UNIT])) == BettiTable({}, (1,))
    single = parse_monomial("x*y^2")
    table = betti_table(MonomialIdeal(("x", "y"), [single]))
    assert table.vector == (1,) and table.by_degree == {single: (1,)}
    coprime = MonomialIdeal(("x", "y", "z", "u"), [parse_monomial(v) for v in "xyzu"])
    assert betti_table(coprime).vector == tuple(comb(4, i + 1) for i in range(4))


# -- Betti routes: Scarf faces for strongly generic ideals, else the lattice ----

def generic_ideal(rng: Random, t: int, variables=("x", "y", "z", "u")) -> MonomialIdeal:
    """t minimal generators; each variable's exponents are a permutation of
    1..t with about one in eight set to 0, so no two generators share a
    nonzero exponent."""
    while True:
        columns = [[e if rng.random() > 0.125 else 0
                    for e in rng.sample(range(1, t + 1), t)] for _ in variables]
        gens = [Monomial(dict(zip(variables, row))) for row in zip(*columns)]
        if len(minimalize(gens)) == t:
            return MonomialIdeal(variables, gens)


@pytest.fixture
def lattice_spy(monkeypatch):
    """Records each lcm-lattice build and nerve rank computation."""
    calls = []
    lattice, ranks = MonomialIdeal.lcm_lattice, resolution.reduced_ranks_from_faces

    def spy_lattice(self):
        calls.append("lcm_lattice")
        return lattice(self)

    def spy_ranks(faces, field=QQ):
        calls.append("reduced_ranks_from_faces")
        return ranks(faces, field)

    monkeypatch.setattr(MonomialIdeal, "lcm_lattice", spy_lattice)
    monkeypatch.setattr(resolution, "reduced_ranks_from_faces", spy_ranks)
    return calls


def test_strongly_generic_ideals_build_no_lattice(lattice_spy):
    rng = Random(17)
    for t in (2, 5, 9, 14):
        for field in FIELDS:
            table = betti_table(generic_ideal(rng, t), field)
            assert table.vector[0] == t
    assert lattice_spy == []


def test_near_generic_ideal_takes_the_lattice_walk(lattice_spy):
    # x has exponent 1 in two generators, so the ideal is not strongly
    # generic, and its Scarf complex (one edge) supports no resolution
    ideal = MonomialIdeal(("x", "y", "z"), [parse_monomial(s) for s in
                                            ("x*y", "x*z", "y^2*z^2")])
    table = betti_table(ideal)
    assert "lcm_lattice" in lattice_spy and "reduced_ranks_from_faces" in lattice_spy
    assert table.vector == (3, 2) != scarf_complex(ideal).complex.f_vector()
    assert list(table.by_degree.items()) == list(oracles.betti_table(ideal).by_degree.items())


@pytest.mark.parametrize("t", range(10, 15))
def test_scarf_route_matches_the_lattice_walk_beyond_the_oracles_reach(t):
    ideal = generic_ideal(Random(f"generic:{t}"), t)
    for field in (QQ, FieldSpec(2)):
        fast, walk = betti_table(ideal, field), resolution._lattice_betti_table(ideal, field)
        assert fast.vector == walk.vector
        assert list(fast.by_degree.items()) == list(walk.by_degree.items())


# -- the tree criterion: pair lcms against the whole lcm lattice -----------------

@st.composite
def labeled_forests(draw):
    """Disjoint unions of one to three random trees on at most 8 vertices,
    labeled by a random antichain or by the generators of J' in a random
    order."""
    rng = draw(st.randoms(use_true_random=True))
    forest = random_forest(rng, draw(st.sampled_from((1, 1, 2, 3))))
    vertices = forest.vertices
    if draw(st.booleans()):
        try:
            ideal = build_Jprime(forest)
        except (BoundaryOfSimplexError, DegenerateVertexFacetError):
            pass
        else:
            order = draw(st.permutations(ideal.generators))
            return LabeledComplex(forest, dict(zip(vertices, order)), ideal.variables)
    labels = random_label_antichain(rng, len(vertices))
    return LabeledComplex(forest, dict(zip(vertices, labels)))


def test_tree_criterion_matches_the_lattice_loop_and_the_general_criterion():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(labeled_forests())
    def check(labeled):
        answer = supports_resolution_tree(labeled)
        assert answer == oracles.supports_resolution_tree(labeled)
        assert answer == supports_resolution(labeled)
        seen.add((labeled.complex.is_connected(), answer[0]))

    check()
    # both answers on trees; a disconnected forest never supports
    assert seen == {(True, True), (True, False), (False, False)}
