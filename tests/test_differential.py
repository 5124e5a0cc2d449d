"""Scarf complexes and Betti tables against the 2^t definitions in oracles.py,
the two Betti routes against each other, the pair-lcm tree criterion
against the lcm-lattice loop, and the general support criterion on face
masks against the loop that builds each divisor subcomplex.

Facets, labels, Betti vectors and the multigraded columns (in order) must
agree exactly, over the rationals and over GF(2), GF(3) and GF(5).
"""

import sys
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treescarf import (BettiTable, LabeledComplex, MonomialIdeal, ScarfComparison,
                       betti_table, build_intermediate, build_J, build_Jprime,
                       face_variable_ring, is_acyclic, is_minimal,
                       parse_monomial, random_h, scarf_complex,
                       supports_resolution, supports_resolution_tree,
                       verify_scarf)
from treescarf import complexes, resolution
from treescarf.complexes import SimplicialComplex
from treescarf.errors import BoundaryOfSimplexError, DegenerateVertexFacetError
from treescarf.homology import QQ, FieldSpec
from treescarf.monomials import UNIT, Monomial

import oracles
from generators import (RING_VARS, random_complex, random_forest,
                        random_label_antichain, random_tree)

FIELDS = (QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5))
fields = st.sampled_from(FIELDS)


def antichain(monomials):
    """Drop duplicates, keeping the first, then every multiple of another."""
    unique = list(dict.fromkeys(monomials))
    return [g for g in unique if not any(h != g and h.divides(g) for h in unique)]


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
    gens = antichain(Monomial(dict(zip(variables, row))) for row in zip(*columns))
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
    gens = antichain(Monomial(dict(zip(variables, row))) for row in rows)
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


@pytest.fixture
def ranked_masks(monkeypatch):
    """Records the masks of each complex the lattice walk ranks."""
    passed = []
    ranks = resolution.reduced_ranks_from_faces

    def spy_ranks(faces, field=QQ):
        passed.append(list(faces))
        return ranks(passed[-1], field)

    monkeypatch.setattr(resolution, "reduced_ranks_from_faces", spy_ranks)
    return passed


def test_nerve_cover_never_outnumbers_the_generators(ranked_masks):
    # subset_ideal(8, 4) has 70 maximal A_x at the top degree, whose nerve
    # has more than 2^35 faces; K_{<m} itself lies on the 8 generators.
    assert betti_table(subset_ideal(8, 4)).vector == (8, 28, 56, 70, 35)
    assert ranked_masks
    assert all(reduce(or_, masks, 0) < 1 << 8 for masks in ranked_masks)


def test_walk_ranks_one_mask_per_generator_or_per_variable(ranked_masks):
    # the walk hands over the r maximal A_x, at most one per variable, or
    # the |G_m| dual sets, one per generator; listing every face instead
    # passes 163 at the top degree of subset_ideal(8, 4), where max(t, n) = 70
    rng = Random(11)
    ideals = [subset_ideal(8, 4)]
    while len(ideals) < 31:
        tree = random_tree(rng, max_facets=6, max_vertices=10)
        try:
            ideals += (build_J(tree), build_Jprime(tree),
                       build_intermediate(tree, random_h(tree, rng)))
        except (BoundaryOfSimplexError, DegenerateVertexFacetError):
            continue
    for ideal in ideals:
        ranked_masks.clear()
        betti_table(ideal)
        bound = max(len(ideal.generators), len(ideal.variables))
        assert all(len(masks) <= bound for masks in ranked_masks)


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
        if len(antichain(gens)) == t:
            return MonomialIdeal(variables, gens)


@pytest.fixture
def lattice_spy(monkeypatch):
    """Records each lcm-lattice build and each rank computation, which the
    walk runs on facet masks, not on listed faces."""
    calls = []
    lattice, ranks = MonomialIdeal._lattice, resolution.reduced_ranks_from_faces

    def spy_lattice(self):
        calls.append("lcm_lattice")
        return lattice(self)

    def spy_ranks(faces, field=QQ):
        calls.append("reduced_ranks_from_faces")
        return ranks(faces, field)

    monkeypatch.setattr(MonomialIdeal, "_lattice", spy_lattice)
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


# -- the general criterion: face masks against built divisor subcomplexes ---------

@st.composite
def labeled_non_forests(draw):
    """A random complex on at most 6 vertices with random antichain labels,
    or the Scarf complex of a strongly generic ideal labeled by its
    generators, which supports a resolution; None when it is a forest."""
    rng = draw(st.randoms(use_true_random=True))
    if draw(st.booleans()):
        complex_ = random_complex(rng, max_vertices=6)
        labeled = LabeledComplex(complex_, dict(zip(
            complex_.vertices, random_label_antichain(rng, len(complex_.vertices)))))
    else:
        labeled = scarf_complex(draw(strongly_generic_ideals()))
    return None if labeled.complex.is_forest()[0] else labeled


def test_general_criterion_matches_the_built_subcomplex_loop():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(labeled_non_forests(), st.sampled_from((QQ, FieldSpec(2))))
    def check(labeled, field):
        if labeled is None:
            return
        answer = supports_resolution(labeled, field)
        assert answer == oracles.supports_resolution(labeled, field)
        seen.add(answer[0])

    check()
    assert seen == {True, False}


# -- mask-based minimality and Scarf verification against the frozenset walks ----

@st.composite
def labeled_complexes(draw):
    """A random tree (up to vertex "11"), random complex or full simplex,
    labeled by a random antichain; the simplex and the higher-dimensional
    facets give minimality violations."""
    rng = draw(st.randoms(use_true_random=True))
    kind = draw(st.sampled_from(("tree", "complex", "simplex")))
    if kind == "tree":
        complex_ = random_tree(rng, max_facets=5, max_vertices=11)
    elif kind == "complex":
        complex_ = random_complex(rng, max_vertices=6)
    else:
        complex_ = SimplicialComplex([[str(i) for i in range(1, rng.randint(2, 6) + 1)]])
    labels = random_label_antichain(rng, len(complex_.vertices))
    return LabeledComplex(complex_, dict(zip(complex_.vertices, labels)))


def test_mask_minimality_matches_the_frozenset_walk():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(labeled_complexes())
    def check(labeled):
        answer = is_minimal(labeled)
        assert answer == oracles.is_minimal(labeled)
        seen.add(answer[0])

    check()
    assert seen == {True, False}


def test_facet_comparison_matches_the_face_set_comparison():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=True), st.booleans())
    def check(rng, tree):
        # a tree with an intermediate Scarf ideal gives EQUAL or CONTAINS,
        # a random complex with random labels mostly NEITHER
        if tree:
            complex_ = random_tree(rng, max_facets=4, max_vertices=8)
            try:
                ideal = build_intermediate(complex_, random_h(complex_, rng))
            except (BoundaryOfSimplexError, DegenerateVertexFacetError):
                return
        else:
            complex_ = random_complex(rng, max_vertices=6)
            ideal = MonomialIdeal(RING_VARS, random_label_antichain(
                rng, len(complex_.vertices)))
        status, _ = verify_scarf(complex_, ideal)
        assert status == oracles.verify_scarf(complex_, ideal)
        seen.add(status)

    check()
    assert seen == {ScarfComparison.EQUAL, ScarfComparison.CONTAINS,
                    ScarfComparison.NEITHER}


def test_homology_minimality_and_scarf_checks_never_name_faces(monkeypatch):
    # inside the library faces are masks: these checks neither list
    # faces() nor sort or spell faces by face_key or face_sorted
    tree = SimplicialComplex([{"1", "2", "3"}, {"2", "3", "4"}, {"4", "5"}])
    circle = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
    ideal = build_J(tree)
    triangle = LabeledComplex(SimplicialComplex([{"1", "2", "3"}]), {
        "1": parse_monomial("x*y"), "2": parse_monomial("y*z"),
        "3": parse_monomial("x*z")})
    calls = []

    def spy(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapped

    for name in ("face_key", "face_sorted"):
        original = getattr(complexes, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("treescarf") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy(name, original))
    monkeypatch.setattr(SimplicialComplex, "faces", spy("faces", SimplicialComplex.faces))
    assert is_acyclic(tree) and not is_acyclic(circle)
    assert resolution._lattice_betti_table(ideal).vector == tree.f_vector()
    assert is_minimal(LabeledComplex(tree, dict(zip(tree.vertices, ideal.generators)),
                                     ideal.variables)) == (True, None)
    assert not is_minimal(triangle)[0]
    assert verify_scarf(tree, ideal)[0] == ScarfComparison.EQUAL
    assert verify_scarf(SimplicialComplex([tree.vertices]), ideal)[0] == ScarfComparison.NEITHER
    assert calls == []
    face_variable_ring(tree)  # the spies sit where the library looks
    assert {"faces", "face_sorted"} <= set(calls)
