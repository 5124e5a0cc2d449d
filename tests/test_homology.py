"""Exact homology: chain complexes, ranks, acyclicity; the result value types."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (QQ, BettiTable, ChainComplex, CollapseSequence,
                       CollapseStep, FaceVariableRing, FieldSpec,
                       HomologyRanks, SimplicialComplex, is_acyclic,
                       parse_monomial, rank, reduced_homology_ranks,
                       tree_collapse_certificate)
from treescarf.homology import (_is_prime, chain_complex_from_faces,
                                reduced_ranks_from_faces)

from generators import random_complex, random_tree
from oracles import (is_prime_lucas, is_prime_trial_division, rank_fraction_gauss,
                     rank_mod_p_gauss)

POINT = SimplicialComplex([{"1"}])
CIRCLE = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
SPHERE = SimplicialComplex(
    [{"1", "2", "3"}, {"1", "2", "4"}, {"1", "3", "4"}, {"2", "3", "4"}])
TWO_POINTS = SimplicialComplex([{"1"}, {"2"}])


# -- field spec -----------------------------------------------------------------

def test_field_spec_accepts_zero_and_primes():
    assert FieldSpec() == FieldSpec(0) == QQ
    FieldSpec(2)
    FieldSpec(7919)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 825265, 321197185)
# Strong pseudoprimes to every prime base up to 7, 31, 37 and 41
# respectively, each with a factorisation that proves it composite.  The
# last is the smallest that passes all thirteen bases, so it is the first
# characteristic outside the range where the test is exact.
STRONG_PSEUDOPRIMES = {3215031751: (151, 751, 28351),
                       3825123056546413051: (149491, 747451, 34233211),
                       318665857834031151167461: (399165290221, 798330580441),
                       3317044064679887385961981: (1287836182261, 2575672364521)}
# Primes above 10^18 with the factorisation of p - 1 that certifies them.
LARGE_PRIMES = {
    10**18 + 3: {2: 1, 3: 1, 17: 1, 131: 1, 1427: 1, 52445056723: 1},
    10**18 + 9: {2: 3, 3: 2, 97: 1, 26209: 1, 32779: 1, 166667: 1},
    2**61 - 1: {2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1,
                151: 1, 331: 1, 1321: 1},
}


def test_miller_rabin_agrees_with_trial_division():
    for p in range(10**5 + 1):
        assert _is_prime(p) == is_prime_trial_division(p), p
    for n in CARMICHAEL:
        assert not is_prime_trial_division(n)
        assert not _is_prime(n), n


def test_miller_rabin_rejects_strong_pseudoprimes():
    *below_limit, beyond = STRONG_PSEUDOPRIMES
    for n, factors in STRONG_PSEUDOPRIMES.items():
        product = 1
        for q in factors:
            product *= q
        assert product == n and min(factors) > 1
    for n in below_limit:
        assert not _is_prime(n), n
        with pytest.raises(ValueError, match="0 or a prime"):
            FieldSpec(n)
    for n in (beyond, 2**89 - 1):  # the second is a Mersenne prime
        with pytest.raises(ValueError, match="below"):
            FieldSpec(n)


def test_large_primes_are_certified_fields():
    for p, factors in LARGE_PRIMES.items():
        assert is_prime_lucas(p, factors)
        assert _is_prime(p), p
        assert FieldSpec(p).characteristic == p
    assert not is_prime_lucas(10**18 + 1, {2: 18, 5: 18})


# -- rank -----------------------------------------------------------------------

def test_rank_identity_and_zero():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(eye) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_rank_of_circle_boundary():
    cc = chain_complex_from_faces(CIRCLE.faces())
    assert rank(cc.boundaries[1]) == 2


def test_rank_rejects_non_integer_entries():
    for field in (QQ, FieldSpec(3)):
        for entry in (Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                rank([[entry]], field)
            with pytest.raises(TypeError):
                rank([[1, 2], [1, entry]], field)
        assert rank([[True, False], [False, True]], field) == 2


PRIMES = (2, 3, 5, 7, 10**18 + 3)


def random_matrices(rng, count, bound):
    for _ in range(count):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        yield [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_rank_agrees_with_fraction_gauss_on_random_matrices():
    rng = Random(13)
    small = list(random_matrices(rng, 200, 3))
    huge = list(random_matrices(rng, 100, 10**20))  # entries beyond every prime
    low_rank = []  # products through an inner dimension of at most 3
    for _ in range(200):
        rows, cols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        low_rank.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                         for row in a])
    for m in small + huge + low_rank:
        assert rank(m) == rank_fraction_gauss(m)
        for p in PRIMES:
            assert rank(m, FieldSpec(p)) == rank_mod_p_gauss(m, p), (m, p)


def test_mod_p_rank_can_differ_from_rational_rank():
    # 2x2 with determinant 2: full rank over the rationals, rank 1 mod 2
    m = [[1, 1], [1, -1]]
    assert rank(m, QQ) == 2
    assert rank(m, FieldSpec(2)) == 1


# -- chain complexes ---------------------------------------------------------------

def test_edge_boundary_column():
    cc = chain_complex_from_faces(SimplicialComplex([{"1", "2"}]).faces())
    col = [row[0] for row in cc.boundaries[1]]
    assert sorted(col) == [-1, 1]


@settings(max_examples=200)
@given(st.randoms(use_true_random=True), st.booleans())
def test_builder_boundaries_compose_to_zero(rng, tree):
    if tree:
        complex_ = random_tree(rng, max_facets=5, max_vertices=8)
    else:
        complex_ = random_complex(rng, max_vertices=6)
    cc = chain_complex_from_faces(complex_.faces())
    assert set(cc.boundaries) == {d for d in cc.bases if d - 1 in cc.bases}
    for d, mat in cc.boundaries.items():
        assert len(mat) == len(cc.bases[d - 1])
        below = cc.boundaries.get(d - 1, ())
        for col in zip(*mat):
            assert sorted(map(abs, filter(None, col))) == [1] * (d + 1)
            assert not any(sum(a * b for a, b in zip(row, col)) for row in below)


def test_chain_complex_of_empty_complex_is_zero():
    cc = chain_complex_from_faces(SimplicialComplex.empty().faces())
    assert cc.bases == {} and cc.boundaries == {}


def test_rank_nullity_bookkeeping():
    rng = Random(29)
    for _ in range(10):
        c = random_tree(rng, max_facets=4, max_vertices=7)
        cc = chain_complex_from_faces(c.faces())
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
    cc = chain_complex_from_faces(faces)
    assert len(cc.bases[-1]) == 1
    assert len(cc.bases[0]) == 3
    assert reduced_ranks_from_faces(faces).is_zero()


# -- result value types ------------------------------------------------------------

VALUE_CASES = [
    (CollapseStep, ("free_face", "coface"),
     (frozenset(), frozenset({"1"})), (frozenset(), frozenset({"2"})),
     "CollapseStep(free_face=frozenset(), coface=frozenset({'1'}))"),
    (CollapseSequence, ("steps", "terminal"),
     ((CollapseStep(frozenset(), frozenset({"1"})),), SimplicialComplex([{"2"}])),
     ((), SimplicialComplex([{"2"}])),
     "CollapseSequence(steps=(CollapseStep(free_face=frozenset(), "
     "coface=frozenset({'1'})),), terminal=SimplicialComplex<{2}>)"),
    (FieldSpec, ("characteristic",), (3,), (5,), "FieldSpec(characteristic=3)"),
    (ChainComplex, ("bases", "boundaries"),
     ({-1: (frozenset(),), 0: (frozenset({"1"}),)}, {0: ((1,),)}),
     ({0: (frozenset({"1"}),)}, {}),
     "ChainComplex(bases={-1: (frozenset(),), 0: (frozenset({'1'}),)}, "
     "boundaries={0: ((1,),)})"),
    (HomologyRanks, ("ranks",), ((0, 1),), ((1,),), "HomologyRanks(ranks=(0, 1))"),
    (BettiTable, ("by_degree", "vector"),
     ({parse_monomial("x"): (1,)}, (1,)), ({}, ()),
     "BettiTable(by_degree={Monomial('x'): (1,)}, vector=(1,))"),
    (FaceVariableRing, ("complex", "variables", "of_face"),
     (SimplicialComplex([{"1"}]), ("x_1",), {frozenset({"1"}): "x_1"}),
     (SimplicialComplex([{"1"}]), ("x_2",), {frozenset({"1"}): "x_2"}),
     "FaceVariableRing(complex=SimplicialComplex<{1}>, variables=('x_1',), "
     "of_face={frozenset({'1'}): 'x_1'})"),
]


@pytest.mark.parametrize("cls, fields, args, other_args, text", VALUE_CASES,
                         ids=[case[0].__name__ for case in VALUE_CASES])
def test_result_types_are_frozen_values(cls, fields, args, other_args, text):
    value = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert value == by_keyword and not value != by_keyword
    assert value != cls(*other_args)
    assert value != args and value.__eq__(args) is NotImplemented
    assert value != object()
    try:
        hash(args)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(by_keyword)
    assert repr(value) == text
    for name, arg in zip(fields, args):
        assert getattr(value, name) == arg
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


def test_value_types_of_other_types_differ_with_equal_fields():
    assert BettiTable({}, ()) != CollapseStep({}, ())
    assert CollapseStep({}, ()) != BettiTable({}, ())


def test_value_types_keep_their_checks():
    assert HomologyRanks((1, 0, 0)).ranks == (1,)
    assert HomologyRanks([0, 0]) == HomologyRanks(())
    point = (frozenset({"1"}),)
    edge = (frozenset({"1", "2"}),)
    ends = (frozenset({"1"}), frozenset({"2"}))
    ChainComplex({-1: (frozenset(),), 0: ends, 1: edge},
                 {0: ((1, 1),), 1: ((-1,), (1,))})
    ChainComplex({-1: (frozenset(),), 0: point}, {0: ((1,),)})
