"""Exact homology: chain complexes, ranks, acyclicity."""

from fractions import Fraction
from random import Random

import pytest

from treescarf import (QQ, FieldSpec, SimplicialComplex, chain_complex,
                       is_acyclic, rank, reduced_homology_ranks,
                       tree_collapse_certificate)
from treescarf.homology import chain_complex_from_faces, reduced_ranks_from_faces

from generators import random_tree
from oracles import rank_fraction_gauss

POINT = SimplicialComplex([{"1"}])
CIRCLE = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
SPHERE = SimplicialComplex(
    [{"1", "2", "3"}, {"1", "2", "4"}, {"1", "3", "4"}, {"2", "3", "4"}])
TWO_POINTS = SimplicialComplex([{"1"}, {"2"}])


# -- field spec -----------------------------------------------------------------

def test_field_spec_accepts_zero_and_primes():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(7919)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


# -- rank -----------------------------------------------------------------------

def test_rank_identity_and_zero():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(eye) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_rank_of_circle_boundary():
    cc = chain_complex(CIRCLE)
    assert rank(cc.boundaries[1]) == 2


def test_rank_handles_fractions():
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank(singular) == 1
    regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 1)]]
    assert rank(regular) == 2


def test_rank_agrees_with_fraction_gauss_on_random_matrices():
    rng = Random(13)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == rank_fraction_gauss(m)


def test_mod_p_rank_can_differ_from_rational_rank():
    # 2x2 with determinant 2: full rank over the rationals, rank 1 mod 2
    m = [[1, 1], [1, -1]]
    assert rank(m, QQ) == 2
    assert rank(m, FieldSpec(2)) == 1


# -- chain complexes ---------------------------------------------------------------

def test_edge_boundary_column():
    cc = chain_complex(SimplicialComplex([{"1", "2"}]))
    col = [row[0] for row in cc.boundaries[1]]
    assert sorted(col) == [-1, 1]


def test_boundaries_compose_to_zero_on_a_simplex():
    cc = chain_complex(SimplicialComplex([{"1", "2", "3", "4"}]), include_empty=True)
    assert set(cc.boundaries) == {0, 1, 2, 3}  # construction checks composition


def test_chain_complex_of_empty_complex_is_zero():
    cc = chain_complex(SimplicialComplex.empty())
    assert cc.bases == {} and cc.boundaries == {}


def test_rank_nullity_bookkeeping():
    rng = Random(29)
    for _ in range(10):
        c = random_tree(rng, max_facets=4, max_vertices=7)
        cc = chain_complex(c, include_empty=True)
        for d, mat in cc.boundaries.items():
            cols = len(cc.bases[d])
            r = rank(mat)
            kernel = cols - r
            assert r + kernel == cols


# -- reduced homology ---------------------------------------------------------------

def test_point_is_acyclic():
    assert reduced_homology_ranks(POINT).nonzero() == {}


def test_circle_has_one_loop():
    assert reduced_homology_ranks(CIRCLE).nonzero() == {1: 1}


def test_sphere_has_one_two_cycle():
    assert reduced_homology_ranks(SPHERE).nonzero() == {2: 1}


def test_two_points_have_one_extra_component():
    assert reduced_homology_ranks(TWO_POINTS).nonzero() == {0: 1}


def test_void_and_empty_face_conventions():
    assert reduced_ranks_from_faces([]).is_zero()
    assert reduced_ranks_from_faces([frozenset()]).nonzero() == {-1: 1}


def test_ranks_invariant_under_vertex_relabeling():
    rng = Random(37)
    for base in (CIRCLE, SPHERE, SimplicialComplex([{"1", "2"}, {"2", "3", "4"}])):
        expected = reduced_homology_ranks(base)
        names = list(base.vertices)
        for _ in range(5):
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
            relabeled = SimplicialComplex(
                [{mapping[v] for v in f} for f in base.facets])
            assert reduced_homology_ranks(relabeled) == expected


def test_forest_homology_counts_components():
    rng = Random(41)
    for _ in range(15):
        parts = [random_tree(rng, max_facets=3, max_vertices=4) for _ in range(rng.randint(1, 3))]
        facets = []
        for i, part in enumerate(parts):
            facets.extend({f"{i}:{v}" for v in f} for f in part.facets)
        forest = SimplicialComplex(facets)
        assert forest.is_forest()[0]
        ranks = reduced_homology_ranks(forest)
        assert ranks.nonzero() in ({}, {0: len(parts) - 1})
        assert ranks.rank(0) == len(parts) - 1


def test_reduced_euler_identity():
    # alternating sum of reduced ranks equals the reduced Euler characteristic
    for c in (POINT, CIRCLE, SPHERE, TWO_POINTS):
        ranks = reduced_homology_ranks(c)
        f = c.f_vector()
        reduced_chi = -1 + sum((-1) ** i * n for i, n in enumerate(f))
        total = sum((-1) ** d * r for d, r in ranks.nonzero().items())
        assert total == reduced_chi


# -- acyclicity ------------------------------------------------------------------

def test_acyclicity_decisions():
    assert is_acyclic(SimplicialComplex.empty())
    assert not is_acyclic(CIRCLE)
    assert is_acyclic(POINT)


def test_trees_are_acyclic_both_ways():
    # cross-check homology against the collapse certificate on the same input
    rng = Random(43)
    for _ in range(20):
        c = random_tree(rng, max_facets=6, max_vertices=9)
        assert is_acyclic(c)
        cert = tree_collapse_certificate(c)
        assert len(cert.terminal.facets) == 1


def test_acyclicity_over_prime_fields():
    assert not is_acyclic(CIRCLE, FieldSpec(2))
    assert not is_acyclic(SPHERE, FieldSpec(3))
    assert is_acyclic(POINT, FieldSpec(2))


def test_faces_level_chain_complex_consistency():
    faces = SimplicialComplex([{"1", "2", "3"}]).faces()
    cc = chain_complex_from_faces(faces, include_empty=True)
    assert len(cc.bases[-1]) == 1
    assert len(cc.bases[0]) == 3
    assert reduced_ranks_from_faces(faces).is_zero()
