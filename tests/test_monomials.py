"""Monomial arithmetic, parsing, ideals, and the lcm lattice."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescarf import (UNIT, LabeledComplex, Monomial, MonomialIdeal,
                       SimplicialComplex, format_monomial, lcm, parse_monomial)
from treescarf.errors import EmptyListError, MonomialParseError

from generators import RING_VARS, random_monomial

XY2 = parse_monomial("x*y^2")
YZ = parse_monomial("y*z")
XZ2 = parse_monomial("x*z^2")
ZU = parse_monomial("z*u")


def spread_ideal():
    return MonomialIdeal(("x", "y", "z", "u"), [XY2, YZ, XZ2, ZU])


# -- divisibility and lcm -------------------------------------------------------

def test_divides():
    assert YZ.divides(parse_monomial("x*y^2*z^2"))
    assert UNIT.divides(XY2) and UNIT.divides(UNIT)
    assert not XY2.divides(parse_monomial("x*y"))


def test_lcm_componentwise_max():
    assert lcm([XY2, XZ2]) == parse_monomial("x*y^2*z^2")
    assert lcm([XY2]) == XY2
    assert lcm([XY2, UNIT]) == XY2


def test_lcm_of_nothing_rejected():
    with pytest.raises(EmptyListError):
        lcm([])


def test_lcm_algebra_laws():
    rng = Random(3)
    variables = ("x", "y", "z")
    for _ in range(100):
        a = random_monomial(rng, variables)
        b = random_monomial(rng, variables)
        c = random_monomial(rng, variables)
        assert a.lcm(b) == b.lcm(a)
        assert a.lcm(a) == a
        assert a.lcm(b).lcm(c) == a.lcm(b.lcm(c))
        assert a.divides(a.lcm(b))


# -- radical ------------------------------------------------------------------

def test_radical():
    assert parse_monomial("x^2*y^3").radical() == parse_monomial("x*y")
    square_free = parse_monomial("x*y*z")
    assert square_free.radical() == square_free


def test_radical_of_a_face_variable_product():
    # the product that reduces the first generator of the edge-triangle ideal
    product = parse_monomial("x_2") * parse_monomial(
        "x_234*x_23*x_24*x_34")
    assert (product * parse_monomial("x_23")).radical() == parse_monomial(
        "x_2*x_23*x_24*x_34*x_234")


def test_radical_commutes_with_lcm():
    rng = Random(4)
    variables = ("x", "y", "z", "u")
    for _ in range(100):
        a = random_monomial(rng, variables)
        b = random_monomial(rng, variables)
        assert a.lcm(b).radical() == a.radical().lcm(b.radical())


# -- products and quotients ------------------------------------------------------

def test_multiplication_adds_exponents():
    assert XY2 * YZ == parse_monomial("x*y^3*z")


def test_exact_division():
    assert parse_monomial("x*y^3*z").divide_exact(YZ) == XY2
    with pytest.raises(ValueError):
        XY2.divide_exact(YZ)


# -- parsing and formatting ---------------------------------------------------

def test_parse_basic():
    assert parse_monomial("x*y^2") == Monomial({"x": 1, "y": 2})
    assert parse_monomial("1") == UNIT
    assert parse_monomial("x_234*x_4") == Monomial({"x_234": 1, "x_4": 1})


def test_parse_repeated_variable_accumulates():
    assert parse_monomial("x*x") == Monomial({"x": 2})


@pytest.mark.parametrize("text,position", [
    ("x**y", 2),
    ("x^", 2),
    ("^2", 0),
    ("x y", 2),
    ("", 0),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(MonomialParseError) as err:
        parse_monomial(text)
    assert err.value.position == position


def test_format_round_trip():
    rng = Random(17)
    variables = ("x", "y", "z", "u", "v")
    for _ in range(100):
        m = random_monomial(rng, variables)
        assert parse_monomial(format_monomial(m)) == m
    assert format_monomial(UNIT) == "1"


def test_format_respects_variable_order():
    assert format_monomial(ZU, ("x", "y", "z", "u")) == "z*u"
    assert format_monomial(ZU) == "u*z"


# -- ideals ---------------------------------------------------------------------

def test_ideal_requires_minimal_generators():
    with pytest.raises(ValueError):
        MonomialIdeal(("x", "y"), [parse_monomial("x"), parse_monomial("x*y")])


def test_ideal_requires_declared_variables():
    with pytest.raises(ValueError):
        MonomialIdeal(("x",), [YZ])


def test_lcm_lattice_of_two_coprime_variables():
    ideal = MonomialIdeal(("x", "y"), [parse_monomial("x"), parse_monomial("y")])
    assert set(ideal.lcm_lattice()) == {
        parse_monomial("x"), parse_monomial("y"), parse_monomial("x*y")}


def test_lcm_lattice_of_spread_ideal():
    # oracle: fold lcm over all 15 nonempty generator subsets, deduplicate
    ideal = spread_ideal()
    expected = set()
    for r in range(1, 5):
        for combo in itertools.combinations(ideal.generators, r):
            expected.add(lcm(combo))
    assert len(expected) == 12
    assert set(ideal.lcm_lattice()) == expected


def test_lcm_lattice_of_single_generator():
    ideal = MonomialIdeal(("x", "y"), [XY2])
    assert ideal.lcm_lattice() == (XY2,)


def test_lcm_lattice_sorted_lexicographically():
    ideal = spread_ideal()
    keys = [ideal.monomial_key(m) for m in ideal.lcm_lattice()]
    assert keys == sorted(keys)


# -- the private mask encoding ------------------------------------------------------

# small exponents collide across generators; huge ones test that a mask
# takes one bit per level, not one per unit of exponent
EXPONENTS = st.one_of(st.integers(1, 3), st.integers(2, 10**30))


@st.composite
def encoded_cases(draw):
    """An ideal (some declared variables unused, sometimes the unit ideal),
    a labeled complex on its generators, and an arbitrary monomial."""
    variables = draw(st.permutations(RING_VARS + ("w",)))[:draw(st.integers(1, 6))]
    used = [x for x in variables if x != "w"]
    if not used or draw(st.integers(0, 9)) == 0:
        gens = [UNIT]
    else:
        drawn = draw(st.lists(st.dictionaries(st.sampled_from(used), EXPONENTS,
                                              min_size=1), min_size=1, max_size=5))
        gens = list(dict.fromkeys(map(Monomial, drawn)))
        gens = [g for g in gens if not any(h != g and h.divides(g) for h in gens)]
    ideal = MonomialIdeal(variables, gens)
    names = [str(i + 1) for i in range(len(gens))]
    facets = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), max_size=4))
    complex_ = SimplicialComplex(facets + [{v} for v in names])
    # exponents above every level, and variables outside the ideal
    m = Monomial(draw(st.dictionaries(st.sampled_from(RING_VARS + ("w", "s")),
                                      st.one_of(EXPONENTS, st.just(10**31)))))
    return ideal, LabeledComplex(complex_, dict(zip(names, gens)), variables), m


@settings(max_examples=200, deadline=None)
@given(encoded_cases())
def test_masks_agree_with_monomial_arithmetic(case):
    ideal, labeled, m = case
    gens, t, n = ideal.generators, len(ideal.generators), len(ideal.variables)
    subsets = {lcm(c) for r in range(1, t + 1) for c in itertools.combinations(gens, r)}
    masks = ideal._lattice()
    lattice = ideal.lcm_lattice()
    assert masks == sorted(masks)
    assert lattice == tuple(map(ideal._decode, masks))
    assert list(lattice) == sorted(subsets, key=ideal.monomial_key)
    assert all(mask.bit_length() <= t * n for mask in masks)
    assert [ideal._decode(ideal._encode(g)) for g in gens] == list(gens)
    for a, ma in zip(masks, lattice):
        for b, mb in zip(masks, lattice):
            assert (not a & ~b) == ma.divides(mb)
            assert ideal._decode(a | b) == ma.lcm(mb)
    complex_ = labeled.complex
    assert labeled.divisor_subcomplex(m) == complex_.induced(
        v for v in complex_.vertices if labeled.label(v).divides(m))
