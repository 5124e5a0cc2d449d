"""Exact homology: chain complexes, ranks, acyclicity; the result value types."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (QQ, BettiTable, CollapseSequence, CollapseStep,
                       FaceVariableRing, FieldSpec, HomologyRanks,
                       SimplicialComplex, is_acyclic, parse_monomial, rank,
                       reduced_homology_ranks, tree_collapse_certificate)
from treescarf import homology
from treescarf.homology import (_is_prime, chain_complex_from_faces,
                                reduced_ranks_from_faces)

import oracles
from generators import random_complex, random_tree
from oracles import (is_prime_lucas, is_prime_trial_division, rank_fraction_gauss,
                     rank_mod_p_gauss)
from treescarf.complexes import _bit_indices, _coface_bits, _submasks

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


def test_field_spec_takes_ints_only():
    # a float characteristic used to pass and then break rank mod p in pow
    for bad in (2.0, 0.0, "2", None):
        with pytest.raises(TypeError):
            FieldSpec(bad)
    assert FieldSpec(2).characteristic == 2
    assert rank([[1, 1], [1, 1]], FieldSpec(2)) == 1


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
    _, boundaries = chain_complex_from_faces(CIRCLE._face_masks())
    assert rank(boundaries[1]) == 2


def test_rank_rejects_non_integer_entries():
    for field in (QQ, FieldSpec(3)):
        for entry in (Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                rank([[entry]], field)
            with pytest.raises(TypeError):
                rank([[1, 2], [1, entry]], field)
        assert rank([[True, False], [False, True]], field) == 2


def test_rank_rejects_ragged_matrices():
    # each of these once gave 0, 2 or an IndexError; the empty first row
    # is no shortcut past the check
    for field in (QQ, FieldSpec(3)):
        for matrix in ([[0], [0, 1]], [[0, 1], [1]], [[1, 0], [0]], [[], [1]]):
            with pytest.raises(ValueError, match="equal length"):
                rank(matrix, field)
        assert rank([[], []], field) == 0


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
    _, boundaries = chain_complex_from_faces(SimplicialComplex([{"1", "2"}])._face_masks())
    col = [row[0] for row in boundaries[1]]
    assert sorted(col) == [-1, 1]


@settings(max_examples=200)
@given(st.randoms(use_true_random=True), st.booleans())
def test_builder_boundaries_compose_to_zero(rng, tree):
    if tree:
        complex_ = random_tree(rng, max_facets=5, max_vertices=8)
    else:
        complex_ = random_complex(rng, max_vertices=6)
    bases, boundaries = chain_complex_from_faces(complex_._face_masks())
    assert set(boundaries) == {d for d in bases if d - 1 in bases}
    for d, mat in boundaries.items():
        assert len(mat) == len(bases[d - 1])
        below = boundaries.get(d - 1, ())
        for col in zip(*mat):
            assert sorted(map(abs, filter(None, col))) == [1] * (d + 1)
            assert not any(sum(a * b for a, b in zip(row, col)) for row in below)


def test_chain_complex_of_empty_complex_is_zero():
    bases, boundaries = chain_complex_from_faces(SimplicialComplex.empty()._face_masks())
    assert bases == {} and boundaries == {}


def test_builder_accepts_the_empty_face():
    # dimension -1 holds the empty face 0 whether or not it is listed
    for c in (POINT, CIRCLE, SPHERE, TWO_POINTS):
        faces = [*c._face_masks()]
        assert (chain_complex_from_faces(faces + [0])
                == chain_complex_from_faces(faces))
    assert chain_complex_from_faces([0]) == ({-1: (0,)}, {})
    assert reduced_ranks_from_faces([]).nonzero() == {}
    assert reduced_ranks_from_faces([0]).nonzero() == {-1: 1}
    for c, nonzero in ((CIRCLE, {1: 1}), (SPHERE, {2: 1}), (TWO_POINTS, {0: 1})):
        for faces in (c._face_masks(), [*c._face_masks(), 0]):
            assert reduced_ranks_from_faces(faces).nonzero() == nonzero


def test_rank_nullity_bookkeeping():
    rng = Random(29)
    for _ in range(10):
        c = random_tree(rng, max_facets=4, max_vertices=7)
        bases, boundaries = chain_complex_from_faces(c._face_masks())
        for d, mat in boundaries.items():
            cols = len(bases[d])
            r = rank(mat)
            kernel = cols - r
            assert r + kernel == cols


def assert_builders_agree(masks, names):
    # the mask builder against the frozenset oracle on the same faces, bit
    # i of a mask standing for names[i]
    def named(mask):
        return frozenset(names[i] for i in _bit_indices(mask))

    faces = list(map(named, masks))
    bases, boundaries = chain_complex_from_faces(masks)
    ref_bases, ref_boundaries = oracles.chain_complex_from_faces(faces)
    assert {d: tuple(map(named, fs)) for d, fs in bases.items()} == ref_bases
    assert boundaries == ref_boundaries
    for field in (QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)):
        assert (reduced_ranks_from_faces(masks, field)
                == oracles.reduced_ranks_from_faces(faces, field))


@settings(max_examples=200)
@given(st.randoms(use_true_random=True), st.booleans(), st.booleans())
def test_mask_builder_matches_the_frozenset_oracle(rng, tree, empty):
    # trees reach vertex "10", which vertex_key puts after "9"
    if tree:
        complex_ = random_tree(rng, max_facets=6, max_vertices=11)
    else:
        complex_ = random_complex(rng, max_vertices=6)
    masks = [*complex_._face_masks(), 0] if empty else complex_._face_masks()
    assert_builders_agree(masks, complex_.vertices)


@st.composite
def nerve_covers(draw):
    """11 to 14 sets of one or two points each, as masks, with no point in
    more than four sets, so that the nerve stays small."""
    rng = draw(st.randoms(use_true_random=True))
    points = draw(st.integers(8, 14))
    load = [0] * points
    sets = []
    for _ in range(draw(st.integers(11, 14))):
        free = [p for p in range(points) if load[p] < 4]
        picked = rng.sample(free, min(len(free), rng.randint(1, 2)))
        for p in picked:
            load[p] += 1
        sets.append(sum(1 << p for p in picked))
    return sets


@settings(max_examples=100)
@given(nerve_covers())
def test_mask_builder_matches_the_oracle_on_nerves_with_two_digit_names(sets):
    # the nerve's vertices are cover positions; the oracle names them "0",
    # "1", ..., "13", so "10" and up must sort after "9" by vertex_key.  Its
    # faces are the subsets of the dual sets {j : p in sets[j]}, one per point
    duals = [sum(1 << j for j, s in enumerate(sets) if s >> p & 1)
             for p in range(max(sets).bit_length())]
    faces = {face for dual in duals for face in _submasks(dual)}
    assert_builders_agree(list(faces), [str(j) for j in range(len(sets))])


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
    assert reduced_ranks_from_faces([0]).nonzero() == {-1: 1}


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


# -- collapse first, then eliminate ------------------------------------------------

# the six-vertex real projective plane: H_1 is Z/2, so its ranks over GF(2)
# differ from those over the other fields
RP2 = SimplicialComplex([set(f) for f in (
    "124", "126", "135", "136", "145", "234", "235", "256", "346", "456")])
RANK_FIELDS = (QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5))


@st.composite
def complexes_to_rank(draw):
    """Trees, graph cycles, simplex boundaries and the projective plane,
    each possibly coned off, which makes it collapsible."""
    kind = draw(st.sampled_from(["tree", "cycle", "boundary", "rp2"]))
    if kind == "tree":
        complex_ = random_tree(draw(st.randoms(use_true_random=True)),
                               max_facets=6, max_vertices=9)
    elif kind == "cycle":
        q = draw(st.integers(3, 9))
        complex_ = SimplicialComplex([{str(i), str((i + 1) % q)} for i in range(q)])
    elif kind == "boundary":  # of the simplex on 2 to 6 vertices
        names = {str(i) for i in range(draw(st.integers(2, 6)))}
        complex_ = SimplicialComplex([names - {v} for v in names])
    else:
        complex_ = RP2
    if draw(st.booleans()):
        complex_ = SimplicialComplex([f | {"apex"} for f in complex_.facets])
    return complex_


@settings(max_examples=200, deadline=None)
@given(complexes_to_rank(), st.sampled_from(["faces", "facets"]), st.booleans(),
       st.randoms(use_true_random=True), st.sampled_from(RANK_FIELDS))
def test_collapsed_ranks_match_the_dense_oracle(complex_, given_as, empty, rng, field):
    # every face or only the facets, with or without the empty face, in any
    # order, give the ranks of the dense elimination of every face
    masks = [*(complex_._face_masks() if given_as == "faces" else complex_._facet_masks)]
    masks = [m for m in masks if m] + [0] * empty
    rng.shuffle(masks)
    faces = complex_.faces() + [frozenset()] * empty
    assert (reduced_ranks_from_faces(masks, field)
            == oracles.reduced_ranks_from_faces(faces, field))


def test_projective_plane_ranks_depend_on_the_characteristic():
    assert reduced_homology_ranks(RP2).is_zero()
    assert reduced_homology_ranks(RP2, FieldSpec(2)).nonzero() == {1: 1, 2: 1}
    assert reduced_homology_ranks(RP2, FieldSpec(3)).is_zero()


def graph(*edges: str) -> SimplicialComplex:
    return SimplicialComplex([set(e) for e in edges])


def test_conventions_need_no_elimination(monkeypatch):
    # the void complex, the empty face alone, everything that collapses to
    # one point, and every residual with no face of 3 vertices (a graph,
    # answered from its vertex, edge and component counts) take no rank
    calls = []
    monkeypatch.setattr(homology, "rank", lambda *args: calls.append(args))
    assert reduced_ranks_from_faces([]) == HomologyRanks(())
    assert reduced_ranks_from_faces([0]) == HomologyRanks((1,))
    for faces in ([1], [0, 1], [1 << 9], [0b111], [0b11, 0b110, 0b1100],
                  POINT._face_masks(), SimplicialComplex([set("12345")])._facet_masks):
        assert reduced_ranks_from_faces(faces) == HomologyRanks(())
    assert is_acyclic(SimplicialComplex([set("123"), set("345")]))
    graphs = [
        CIRCLE,
        graph("12", "23", "13", "45", "56", "46"),        # two disjoint circles
        graph("12", "23", "34", "41", "13"),              # a theta graph
        graph("12", "23", "31", "34", "45", "53", "6"),   # two circles on a vertex, and a point
        *(SimplicialComplex([{str(i)} for i in range(k)]) for k in (1, 2, 3, 7)),
    ]
    for complex_ in graphs:
        for field in RANK_FIELDS:
            assert (reduced_ranks_from_faces(complex_._facet_masks, field)
                    == oracles.reduced_ranks_from_faces([frozenset(), *complex_.faces()], field))
    assert calls == []
    # the empty face is never freed, so a collapse ends at a point, not void
    table = _coface_bits(SimplicialComplex([set("123"), set("345")])._facet_masks)
    homology._collapse(table)
    assert len(table) == 2 and table[0].bit_count() == 1 and table[table[0]] == 0


def test_what_does_not_collapse_is_eliminated(monkeypatch):
    # the hollow tetrahedron has no free face, so its residual is all of it,
    # and a residual with a 2-face goes to elimination
    calls = []
    rank = homology.rank

    def spy(matrix, field=QQ):
        calls.append(len(matrix))
        return rank(matrix, field)

    monkeypatch.setattr(homology, "rank", spy)
    assert reduced_ranks_from_faces(SPHERE._facet_masks).nonzero() == {2: 1}
    # the augmentation row, then the boundaries of the edges and the triangles
    assert calls == [1, 4, 6]


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
    faces = SimplicialComplex([{"1", "2", "3"}])._face_masks()
    bases, _ = chain_complex_from_faces(faces)
    assert len(bases[-1]) == 1
    assert len(bases[0]) == 3
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
