"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Suites share two fixed seeded collections: 200 random
simplicial trees (at most 8 facets, 10 vertices) and 200 random labeled
trees (at most 5 ring variables, exponents at most 3).
"""

import itertools
from random import Random

import pytest

from treescarf import (LabeledComplex, MonomialIdeal, SimplicialComplex,
                       betti_table, build_intermediate, build_J, build_Jprime,
                       elementary_collapse, is_acyclic, is_boundary_of_simplex,
                       is_minimal, m_double_prime, parse_monomial,
                       reduced_homology_ranks, scarf_complex,
                       supports_resolution, supports_resolution_tree,
                       tree_collapse_certificate, verify_scarf, verify_sequence)

import oracles
from generators import random_complex, random_label_antichain, random_tree

TREE_COUNT = 200
LABELED_COUNT = 200
ROUND_TRIP_SAMPLES = 500

SPREAD_GENS = [parse_monomial(s) for s in ("x*y^2", "y*z", "x*z^2", "z*u")]
SPREAD = MonomialIdeal(("x", "y", "z", "u"), SPREAD_GENS)
DIAMOND = SimplicialComplex([{"1", "2", "4"}, {"2", "3", "4"}])
EDGE_TRIANGLE = SimplicialComplex([{"1", "2"}, {"2", "3", "4"}])
TAIL_TREE = SimplicialComplex([{"1", "2", "3"}, {"2", "3", "4"}, {"4", "5"}])


@pytest.fixture(scope="module")
def tree_suite():
    rng = Random(408)
    return [random_tree(rng, max_facets=8, max_vertices=10)
            for _ in range(TREE_COUNT)]


@pytest.fixture(scope="module")
def labeled_tree_suite():
    rng = Random(606)
    suite = []
    for _ in range(LABELED_COUNT):
        tree = random_tree(rng, max_facets=7, max_vertices=8)
        labels = random_label_antichain(rng, len(tree.vertices),
                                        max_vars=5, max_exp=3)
        suite.append(LabeledComplex(tree, dict(zip(tree.vertices, labels))))
    return suite


def test_criterion_1_spread_ideal_reproduction():
    assert betti_table(SPREAD).vector == (4, 4, 1)

    scarf = scarf_complex(SPREAD)
    assert scarf.complex.f_vector() == (4, 4, 1)
    assert supports_resolution(scarf) == (True, None)
    assert is_minimal(scarf)[0]

    labeled = LabeledComplex(DIAMOND, dict(zip("1234", SPREAD_GENS)),
                             SPREAD.variables)
    assert labeled.complex.f_vector() == (4, 5, 2)
    assert supports_resolution(labeled) == (True, None)
    assert not is_minimal(labeled)[0]
    print("ACCEPTANCE 1 PASS: spread ideal, its Scarf complex, and the "
          "non-minimal support reproduce exactly")


def test_criterion_2_edge_triangle_ideals():
    full = build_J(EDGE_TRIANGLE)
    expected_full = {parse_monomial(s) for s in (
        "x_2*x_3*x_4*x_23*x_24*x_34*x_234",
        "x_1*x_3*x_4*x_34",
        "x_1*x_2*x_4*x_12*x_24",
        "x_1*x_2*x_3*x_12*x_23")}
    assert set(full.generators) == expected_full

    reduced = build_Jprime(EDGE_TRIANGLE)
    expected_reduced = {parse_monomial(s) for s in (
        "x_2*x_23*x_24*x_34*x_234",
        "x_1*x_34",
        "x_1*x_2*x_12*x_24",
        "x_1*x_2*x_12*x_23")}
    assert set(reduced.generators) == expected_reduced

    f = EDGE_TRIANGLE.f_vector()
    assert betti_table(full).vector == f == (4, 4, 1)
    assert betti_table(reduced).vector == f
    assert verify_scarf(EDGE_TRIANGLE, full)[0] == "EQUAL"
    assert verify_scarf(EDGE_TRIANGLE, reduced)[0] == "EQUAL"
    print("ACCEPTANCE 2 PASS: both Scarf ideals of the edge-triangle "
          "complex print exactly and round-trip EQUAL")


def test_criterion_3_tail_tree_reproduction():
    assert TAIL_TREE.f_vector() == (5, 6, 2)
    full = build_J(TAIL_TREE)
    reduced = build_Jprime(TAIL_TREE)
    assert betti_table(full).vector == (5, 6, 2)
    assert betti_table(reduced).vector == (5, 6, 2)

    expected_reduced = [parse_monomial(s) for s in (
        "x_23*x_24*x_34*x_234*x_4*x_5*x_45",
        "x_13*x_34*x_4*x_5*x_45",
        "x_12*x_24*x_4*x_5*x_45",
        "x_12*x_13*x_23*x_123*x_5",
        "x_12*x_13*x_23*x_123*x_24*x_34*x_234*x_4")]
    assert list(reduced.generators) == expected_reduced

    for v, m_full, m_red in zip(TAIL_TREE.vertices, full.generators,
                                reduced.generators):
        assert oracles.product(m_double_prime(TAIL_TREE, v), m_red) == m_full

    modified = build_intermediate(TAIL_TREE, {"4": parse_monomial("x_1")})
    assert betti_table(modified).vector == (5, 7, 3)
    print("ACCEPTANCE 3 PASS: five-vertex tree reproduces f, both Betti "
          "vectors, all reduced generators, and the modified ideal's "
          "Betti vector (5,7,3)")


def test_criterion_3_modified_ideal_scarf_strictly_contains():
    # claimed behavior of the single-vertex modification h_4 = x_1
    modified = build_intermediate(TAIL_TREE, {"4": parse_monomial("x_1")})
    status, scarf = verify_scarf(TAIL_TREE, modified)
    strictly_larger = (status == "CONTAINS"
                       and scarf.complex.f_vector() == (5, 7, 3)
                       and is_acyclic(scarf.complex))
    print("ACCEPTANCE 3 (containment clause) "
          + ("PASS" if strictly_larger else "FAIL")
          + f": verify_scarf gave {status} with scarf "
          + f"f={scarf.complex.f_vector()}")
    assert strictly_larger, (
        "exact computation gives EQUAL: the Scarf complex of the modified "
        "ideal is the tree itself (see the decisions ledger)")


def test_criterion_4_collapsibility_suite(tree_suite):
    for tree in tree_suite:
        cert = tree_collapse_certificate(tree)
        assert verify_sequence(tree, cert) == (True, None)
        assert len(cert.terminal.facets) == 1
        assert len(cert.terminal.facets[0]) == 1
        current = tree
        chi = oracles.euler_characteristic(current)
        for step in cert.steps:
            current = elementary_collapse(current, step)
            assert oracles.euler_characteristic(current) == chi
        assert is_acyclic(tree)
    print(f"ACCEPTANCE 4 PASS: {len(tree_suite)} random trees collapse to "
          "a point with verified, characteristic-preserving certificates")


def test_criterion_5_induced_forest_suite(tree_suite):
    checked = 0
    for tree in tree_suite:
        verdicts = {}
        for r in range(len(tree.vertices) + 1):
            for subset in itertools.combinations(tree.vertices, r):
                sub = tree.induced(subset)
                key = sub.facets
                if key not in verdicts:
                    verdicts[key] = sub.is_forest()[0]
                assert verdicts[key]
                checked += 1
    print(f"ACCEPTANCE 5 PASS: {checked} induced subcomplexes across "
          f"{len(tree_suite)} trees are all forests")


def test_criterion_6_criterion_equivalence(labeled_tree_suite):
    failing = 0
    for labeled in labeled_tree_suite:
        general = supports_resolution(labeled)
        tree_path = supports_resolution_tree(labeled)
        assert general == tree_path  # decision and failing degree
        failing += (not general[0])
    assert 0 < failing < len(labeled_tree_suite)  # both outcomes exercised
    print(f"ACCEPTANCE 6 PASS: connectivity and acyclicity criteria agree "
          f"on {len(labeled_tree_suite)} labeled trees "
          f"({failing} failing cases, degrees included)")


def test_criterion_7_scarf_round_trip_suite():
    rng = Random(714)
    sampled = 0
    reduced_checked = 0
    seen = set()
    while sampled < ROUND_TRIP_SAMPLES:
        complex_ = random_complex(rng, max_vertices=5)
        if is_boundary_of_simplex(complex_):
            continue
        sampled += 1
        seen.add(complex_.facets)
        assert verify_scarf(complex_, build_J(complex_))[0] == "EQUAL"
        if all(len(f) > 1 for f in complex_.facets):
            reduced_checked += 1
            assert verify_scarf(complex_, build_Jprime(complex_))[0] == "EQUAL"
    assert reduced_checked > 50
    print(f"ACCEPTANCE 7 PASS: {sampled} sampled complexes "
          f"({len(seen)} distinct) are the Scarf complexes of their full "
          f"ideals; {reduced_checked} eligible ones of their reduced ideals")


def test_criterion_8_betti_oracle_validation(tree_suite, labeled_tree_suite):
    for tree in tree_suite:
        assert betti_table(build_J(tree)).vector == tree.f_vector()

    supporting = 0
    for labeled in labeled_tree_suite:
        ok, _ = supports_resolution(labeled)
        if not ok:
            continue
        supporting += 1
        betti = betti_table(labeled.ideal()).vector
        f = labeled.complex.f_vector()
        width = max(len(betti), len(f))
        betti += (0,) * (width - len(betti))
        f += (0,) * (width - len(f))
        assert all(b <= c for b, c in zip(betti, f))
        assert (betti == f) == is_minimal(labeled)[0]
    assert supporting
    print(f"ACCEPTANCE 8 PASS: Betti vector equals f on {len(tree_suite)} "
          f"tree Scarf ideals and is bounded by f (equality iff minimal) "
          f"on {supporting} supporting labeled trees")


def test_criterion_9_homology_sanity():
    point = SimplicialComplex([{"1"}])
    circle = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
    sphere = SimplicialComplex([{"1", "2", "3"}, {"1", "2", "4"},
                                {"1", "3", "4"}, {"2", "3", "4"}])
    two_points = SimplicialComplex([{"1"}, {"2"}])
    assert reduced_homology_ranks(point).nonzero() == {}
    assert reduced_homology_ranks(circle).nonzero() == {1: 1}
    assert reduced_homology_ranks(sphere).nonzero() == {2: 1}
    assert reduced_homology_ranks(two_points).nonzero() == {0: 1}

    rng = Random(909)
    for base in (circle, sphere, two_points):
        expected = reduced_homology_ranks(base)
        names = list(base.vertices)
        for _ in range(5):
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
            relabeled = SimplicialComplex(
                [{mapping[v] for v in f} for f in base.facets])
            assert reduced_homology_ranks(relabeled) == expected
    print("ACCEPTANCE 9 PASS: point, circle, sphere, and two points have "
          "the expected reduced ranks, invariant under relabeling")
