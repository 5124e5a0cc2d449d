"""Support criteria, minimality, Betti tables, Scarf complexes."""

import itertools
from random import Random

import pytest

from treescarf import (LabeledComplex, MonomialIdeal, SimplicialComplex,
                       betti_table, is_minimal, lcm, parse_monomial,
                       scarf_complex, supports_resolution,
                       supports_resolution_tree)
from treescarf import QQ, FieldSpec, homology
from treescarf.errors import NotAFaceError, NotAForestError

import oracles
from generators import random_label_antichain, random_tree

VARS = ("x", "y", "z", "u")
GENS = [parse_monomial(s) for s in ("x*y^2", "y*z", "x*z^2", "z*u")]
SPREAD = MonomialIdeal(VARS, GENS)
DIAMOND = SimplicialComplex([{"1", "2", "4"}, {"2", "3", "4"}])


def diamond_labeled():
    return LabeledComplex(DIAMOND, dict(zip("1234", GENS)), VARS)


def adversarial_labeled():
    # the two labels whose lcm needs help sit on the non-adjacent pair
    labels = {"1": GENS[0], "3": GENS[1], "2": GENS[2], "4": GENS[3]}
    return LabeledComplex(DIAMOND, labels, VARS)


def taylor_simplex(ideal):
    """The full simplex on the generators, labeled positionally 1..t."""
    names = [str(i + 1) for i in range(len(ideal.generators))]
    return LabeledComplex(SimplicialComplex([names]),
                          dict(zip(names, ideal.generators)), ideal.variables)


def random_labeled_tree(rng, max_facets=6, max_vertices=7):
    tree = random_tree(rng, max_facets=max_facets, max_vertices=max_vertices)
    labels = random_label_antichain(rng, len(tree.vertices))
    return LabeledComplex(tree, dict(zip(tree.vertices, labels)))


# -- labels ---------------------------------------------------------------------

def test_face_labels():
    lc = diamond_labeled()
    assert oracles.face_label(lc, {"1"}) == GENS[0]
    taylor = taylor_simplex(SPREAD)
    assert oracles.face_label(taylor, {"1", "3"}) == parse_monomial("x*y^2*z^2")
    assert oracles.face_label(taylor, taylor.complex.vertices) == lcm(GENS)


def test_face_label_requires_a_face():
    lc = diamond_labeled()
    with pytest.raises(NotAFaceError):
        oracles.face_label(lc, {"1", "3", "9"})
    with pytest.raises(NotAFaceError):
        oracles.face_label(lc, set())


def test_labels_must_be_minimal_and_cover_vertices():
    with pytest.raises(ValueError):
        LabeledComplex(DIAMOND, dict(zip("1234", [
            parse_monomial("x"), parse_monomial("x*y"),
            parse_monomial("z"), parse_monomial("u")])))
    with pytest.raises(ValueError):
        LabeledComplex(DIAMOND, {"1": GENS[0]})


# -- divisor subcomplexes -----------------------------------------------------------

def test_divisor_subcomplex_extremes():
    lc = diamond_labeled()
    assert oracles.divisor_subcomplex(lc, lcm(GENS)) == DIAMOND
    assert oracles.divisor_subcomplex(lc, parse_monomial("1")).is_empty()


def test_divisor_subcomplex_of_mixed_degree():
    lc = diamond_labeled()
    sub = oracles.divisor_subcomplex(lc, parse_monomial("x*y^2*z^2"))
    assert set(sub.vertices) == {"1", "2", "3"}
    assert sub.is_connected()


# -- support criteria ----------------------------------------------------------------

def test_taylor_complex_always_supports():
    rng = Random(3)
    for _ in range(10):
        labels = random_label_antichain(rng, rng.randint(1, 5))
        variables = sorted({v for m in labels for v in m.variables})
        ideal = MonomialIdeal(variables, labels)
        ok, failing = supports_resolution(taylor_simplex(ideal))
        assert ok and failing is None


def test_diamond_supports_spread_ideal():
    assert supports_resolution(diamond_labeled()) == (True, None)


def test_adversarial_labels_fail_at_the_pair_lcm():
    ok, failing = supports_resolution(adversarial_labeled())
    assert not ok
    assert failing == parse_monomial("x*y^2*z")  # lcm of the split pair


def test_tree_criterion_agrees_on_the_diamond():
    assert supports_resolution_tree(diamond_labeled()) == (True, None)
    assert supports_resolution_tree(adversarial_labeled()) == (
        False, parse_monomial("x*y^2*z"))


def test_tree_criterion_rejects_non_forests():
    cycle = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
    labels = dict(zip("123", random_label_antichain(Random(5), 3)))
    with pytest.raises(NotAForestError) as err:
        supports_resolution_tree(LabeledComplex(cycle, labels))
    assert err.value.witness is not None


def test_criteria_agree_on_random_labeled_trees():
    rng = Random(7)
    for _ in range(40):
        lc = random_labeled_tree(rng)
        assert supports_resolution(lc) == supports_resolution_tree(lc)


def test_tree_criterion_never_builds_the_lcm_lattice(monkeypatch):
    calls = []
    lattice = MonomialIdeal._lattice

    def spy(self):
        calls.append(self)
        return lattice(self)

    monkeypatch.setattr(MonomialIdeal, "_lattice", spy)
    assert supports_resolution_tree(diamond_labeled()) == (True, None)
    assert supports_resolution_tree(adversarial_labeled())[0] is False
    rng = Random(23)
    for _ in range(20):
        supports_resolution_tree(random_labeled_tree(rng))
    assert calls == []


def test_general_criterion_eliminates_nothing_on_supporting_forests(monkeypatch):
    # each divisor subcomplex of a forest that supports is a tree, which
    # collapses to a point before any rank is taken
    eliminated = []
    monkeypatch.setattr(homology, "_rank_bareiss", eliminated.append)
    monkeypatch.setattr(homology, "_rank_mod_p", lambda m, p: eliminated.append(m))
    rng = Random(29)
    labeled = [diamond_labeled(), scarf_complex(SPREAD)]
    labeled += [random_labeled_tree(rng) for _ in range(60)]
    supporting = [lc for lc in labeled
                  if lc.complex.is_forest()[0] and supports_resolution_tree(lc)[0]]
    assert len(supporting) >= 10
    for lc in supporting:
        for field in (QQ, FieldSpec(2), FieldSpec(3)):
            assert supports_resolution(lc, field) == (True, None)
    assert eliminated == []


# -- minimality -----------------------------------------------------------------------

def test_taylor_of_spread_ideal_is_not_minimal():
    ok, pair = is_minimal(taylor_simplex(SPREAD))
    assert not ok
    face, sub = pair
    assert sub < face and len(sub) == len(face) - 1


def test_scarf_complex_of_spread_ideal_is_minimal():
    assert is_minimal(scarf_complex(SPREAD))[0]


def test_coprime_labels_are_always_minimal():
    lc = LabeledComplex(
        SimplicialComplex([{"1", "2", "3"}]),
        {"1": parse_monomial("x"), "2": parse_monomial("y"),
         "3": parse_monomial("z")})
    assert is_minimal(lc) == (True, None)


def test_diamond_with_spread_labels_is_not_minimal():
    ok, pair = is_minimal(diamond_labeled())
    assert not ok


# -- Betti tables ----------------------------------------------------------------------

def test_koszul_pair():
    ideal = MonomialIdeal(("x", "y"), [parse_monomial("x"), parse_monomial("y")])
    table = betti_table(ideal)
    assert table.vector == (2, 1)
    assert table.rank(1, parse_monomial("x*y")) == 1


def test_betti_vector_of_spread_ideal():
    assert betti_table(SPREAD).vector == (4, 4, 1)


def test_betti_degrees_live_in_the_lcm_lattice():
    lattice = set(oracles.lcm_lattice(SPREAD))
    assert set(betti_table(SPREAD).by_degree) <= lattice


def test_betti_invariant_under_generator_permutation_and_renaming():
    rng = Random(11)
    base = betti_table(SPREAD).vector
    for _ in range(5):
        order = list(GENS)
        rng.shuffle(order)
        assert betti_table(MonomialIdeal(VARS, order)).vector == base
    renamed = MonomialIdeal(
        ("a", "b", "c", "d"),
        [parse_monomial(s) for s in ("a*b^2", "b*c", "a*c^2", "c*d")])
    assert betti_table(renamed).vector == base


def test_betti_table_multigraded_column_positions():
    table = betti_table(SPREAD)
    for m, column in table.by_degree.items():
        for i, r in enumerate(column):
            assert r == table.rank(i, m)


# -- Scarf complexes ---------------------------------------------------------------------

def brute_scarf_faces(ideal):
    gens = ideal.generators
    t = len(gens)
    labels = {}
    for r in range(1, t + 1):
        for combo in itertools.combinations(range(t), r):
            labels[combo] = lcm([gens[i] for i in combo])
    values = list(labels.values())
    return {frozenset(str(i + 1) for i in s)
            for s, l in labels.items() if values.count(l) == 1}


def test_scarf_complex_of_spread_ideal():
    sc = scarf_complex(SPREAD)
    assert sc.complex.f_vector() == (4, 4, 1)
    assert set(sc.complex.faces()) == brute_scarf_faces(SPREAD)
    assert supports_resolution(sc) == (True, None)


def test_scarf_complex_of_coprime_generators_is_the_full_simplex():
    ideal = MonomialIdeal(("x", "y", "z"),
                          [parse_monomial(v) for v in "xyz"])
    sc = scarf_complex(ideal)
    assert sc.complex == SimplicialComplex([{"1", "2", "3"}])


def test_scarf_complex_keeps_every_vertex():
    rng = Random(13)
    for _ in range(20):
        labels = random_label_antichain(rng, rng.randint(1, 6))
        variables = sorted({v for m in labels for v in m.variables})
        ideal = MonomialIdeal(variables, labels)
        sc = scarf_complex(ideal)
        assert len(sc.complex.vertices) == len(labels)
        assert set(sc.complex.faces()) == brute_scarf_faces(ideal)


def test_scarf_complex_is_labeled_by_the_ideal_itself():
    rng = Random(31)
    for _ in range(10):
        labels = random_label_antichain(rng, rng.randint(1, 11))
        ideal = MonomialIdeal(sorted({v for m in labels for v in m.variables}), labels)
        sc = scarf_complex(ideal)
        assert sc.ideal() is ideal
        rebuilt = LabeledComplex(sc.complex, dict(zip(sc.complex.vertices, labels)),
                                 ideal.variables)
        assert (sc.labels, sc.variables, repr(sc)) == (
            rebuilt.labels, rebuilt.variables, repr(rebuilt))
        assert [sc.label(v) for v in sc.complex.vertices] == labels
        assert sc.ideal()._masks == rebuilt.ideal()._masks


def test_scarf_support_implies_minimality():
    rng = Random(17)
    seen_support = 0
    for _ in range(30):
        labels = random_label_antichain(rng, rng.randint(2, 5))
        variables = sorted({v for m in labels for v in m.variables})
        ideal = MonomialIdeal(variables, labels)
        sc = scarf_complex(ideal)
        ok, _ = supports_resolution(sc)
        if ok:
            seen_support += 1
            assert is_minimal(sc)[0]
            assert betti_table(ideal).vector == sc.complex.f_vector()
    assert seen_support  # the sample must exercise the implication


# -- Betti against f-vectors -------------------------------------------------------------

def betti_and_f(lc):
    """The Betti vector and the f-vector, zero-padded to a common length."""
    betti, fvec = betti_table(lc.ideal()).vector, lc.complex.f_vector()
    width = max(len(betti), len(fvec))
    return betti + (0,) * (width - len(betti)), fvec + (0,) * (width - len(fvec))


def test_comparison_strict_for_the_diamond():
    assert betti_and_f(diamond_labeled()) == ((4, 4, 1), (4, 5, 2))


def test_comparison_equal_on_the_scarf_complex():
    assert betti_and_f(scarf_complex(SPREAD)) == ((4, 4, 1), (4, 4, 1))


def test_comparison_equal_for_koszul_edge():
    lc = LabeledComplex(SimplicialComplex([{"1", "2"}]),
                        {"1": parse_monomial("x"), "2": parse_monomial("y")})
    assert betti_and_f(lc) == ((2, 1), (2, 1))


def test_betti_bounded_by_f_on_random_supporting_trees():
    rng = Random(19)
    supported = minimal = 0
    for _ in range(40):
        lc = random_labeled_tree(rng, max_facets=5, max_vertices=6)
        ok, _ = supports_resolution(lc)
        if not ok:
            continue
        supported += 1
        betti, fvec = betti_and_f(lc)
        assert all(b <= f for b, f in zip(betti, fvec))
        assert (betti == fvec) == is_minimal(lc)[0]
        minimal += betti == fvec
    assert 0 < minimal < supported  # the sample must contain both kinds


def test_support_criteria_build_no_complex(monkeypatch):
    # both criteria take divisor subcomplexes as vertex masks over the
    # labeled complex's own numbering; no SimplicialComplex is made
    cycle = SimplicialComplex([{"1", "2"}, {"2", "3"}, {"1", "3"}])
    cycle_labeled = LabeledComplex(cycle, dict(zip("123", GENS)), VARS)
    labeled = [diamond_labeled(), adversarial_labeled(), cycle_labeled]
    built = []
    init = SimplicialComplex._init_canonical

    def spy(self, *args, **kwargs):
        built.append(self)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "_init_canonical", spy)
    answers = [supports_resolution(l) for l in labeled]
    answers += [supports_resolution_tree(l) for l in labeled[:2]]
    assert built == []
    assert [a[0] for a in answers] == [True, False, False, True, False]
