"""Monomial arithmetic, parsing, ideals, and the lcm lattice."""

import itertools
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treescarf import (UNIT, LabeledComplex, Monomial, MonomialIdeal,
                       SimplicialComplex, format_monomial, lcm, parse_monomial)
from treescarf.errors import EmptyListError, MonomialParseError
from treescarf.monomials import _is_name

import oracles
from generators import RING_VARS, random_monomial

XY2 = parse_monomial("x*y^2")
YZ = parse_monomial("y*z")
XZ2 = parse_monomial("x*z^2")
ZU = parse_monomial("z*u")


def spread_ideal():
    return MonomialIdeal(("x", "y", "z", "u"), [XY2, YZ, XZ2, ZU])


def decoded_lattice(ideal):
    # the library's sorted lcm closure of the generator masks, decoded
    return tuple(map(ideal._decode, ideal._lattice()))


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
    assert oracles.radical(parse_monomial("x^2*y^3")) == parse_monomial("x*y")
    square_free = parse_monomial("x*y*z")
    assert oracles.radical(square_free) == square_free


def test_radical_of_a_face_variable_product():
    # the product that reduces the first generator of the edge-triangle ideal
    product = oracles.product(parse_monomial("x_2"),
                              parse_monomial("x_234*x_23*x_24*x_34"))
    assert oracles.radical(oracles.product(product, parse_monomial("x_23"))) == (
        parse_monomial("x_2*x_23*x_24*x_34*x_234"))


def test_radical_commutes_with_lcm():
    rng = Random(4)
    variables = ("x", "y", "z", "u")
    for _ in range(100):
        a = random_monomial(rng, variables)
        b = random_monomial(rng, variables)
        assert oracles.radical(a.lcm(b)) == oracles.radical(a).lcm(oracles.radical(b))


# -- products and quotients ------------------------------------------------------

def test_multiplication_adds_exponents():
    assert oracles.product(XY2, YZ) == parse_monomial("x*y^3*z")


def test_exact_division():
    assert oracles.divide_exact(parse_monomial("x*y^3*z"), YZ) == XY2
    with pytest.raises(ValueError):
        oracles.divide_exact(XY2, YZ)


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
    # the given order is followed as given, a repeated name included, and
    # the leftover names come after by (length, name)
    assert format_monomial(parse_monomial("x*y^2*z*u_1"), ("y", "w", "y")) == "y^2*y^2*x*z*u_1"


# -- ideals ---------------------------------------------------------------------

def test_ideal_requires_minimal_generators():
    with pytest.raises(ValueError):
        MonomialIdeal(("x", "y"), [parse_monomial("x"), parse_monomial("x*y")])


def test_ideal_requires_declared_variables():
    with pytest.raises(ValueError):
        MonomialIdeal(("x",), [YZ])


def test_lcm_lattice_of_two_coprime_variables():
    ideal = MonomialIdeal(("x", "y"), [parse_monomial("x"), parse_monomial("y")])
    assert set(decoded_lattice(ideal)) == {
        parse_monomial("x"), parse_monomial("y"), parse_monomial("x*y")}
    assert decoded_lattice(ideal) == oracles.lcm_lattice(ideal)


def test_lcm_lattice_of_spread_ideal():
    # oracle: fold lcm over all 15 nonempty generator subsets, deduplicate
    ideal = spread_ideal()
    expected = set()
    for r in range(1, 5):
        for combo in itertools.combinations(ideal.generators, r):
            expected.add(lcm(combo))
    assert len(expected) == 12
    assert set(decoded_lattice(ideal)) == expected
    assert decoded_lattice(ideal) == oracles.lcm_lattice(ideal)


def test_lcm_lattice_of_single_generator():
    ideal = MonomialIdeal(("x", "y"), [XY2])
    assert decoded_lattice(ideal) == (XY2,) == oracles.lcm_lattice(ideal)


def test_lcm_lattice_sorted_lexicographically():
    ideal = spread_ideal()
    keys = [oracles.monomial_key(ideal, m) for m in decoded_lattice(ideal)]
    assert keys == sorted(keys)


def test_lattice_oracles_read_only_public_members():
    # a stand-in with the public members alone: the oracles cannot reach
    # the masks they are the reference for
    ideal = spread_ideal()
    public = SimpleNamespace(variables=ideal.variables, generators=ideal.generators)
    lattice = oracles.lcm_lattice(public)
    assert lattice == decoded_lattice(ideal)
    assert [oracles.monomial_key(public, m) for m in lattice] == [
        oracles.exponent_vector(m, ("x", "y", "z", "u")) for m in lattice]


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
    lattice = oracles.lcm_lattice(ideal)
    assert masks == sorted(masks)
    assert lattice == tuple(map(ideal._decode, masks))
    assert list(lattice) == sorted(subsets, key=lambda s: oracles.monomial_key(ideal, s))
    assert all(mask.bit_length() <= t * n for mask in masks)
    assert ideal._masks == tuple(oracles.encode(ideal, g) for g in gens)
    assert ideal._encode(m) == oracles.encode(ideal, m)
    assert [ideal._decode(ideal._encode(g)) for g in gens] == list(gens)
    for a, ma in zip(masks, lattice):
        for b, mb in zip(masks, lattice):
            assert (not a & ~b) == ma.divides(mb)
            assert (a == b) == (ma == mb)
            decoded, joined = ideal._decode(a | b), ma.lcm(mb)
            assert decoded == joined and hash(decoded) == hash(joined)
    # equal values compare equal and hash alike, whatever built them and in
    # whatever order their variables came; unequal ones compare unequal
    values = [m, UNIT, *lattice, *map(ideal._decode, masks)]
    vectors = [oracles.exponent_vector(x, RING_VARS + ("w", "s")) for x in values]
    for x in values:
        pairs = [(v, x.exponent(v)) for v in x.variables]
        same = [Monomial(dict(reversed(pairs))), Monomial._of(pairs),
                parse_monomial(format_monomial(x)), x.lcm(UNIT), lcm([UNIT, x, x])]
        assert all(y == x and hash(y) == hash(x) for y in same)
    for x, vx in zip(values, vectors):
        for y, vy in zip(values, vectors):
            assert (x == y) == (vx == vy) and (x != y) == (vx != vy)
    complex_ = labeled.complex
    keep = ideal._divisors(ideal._encode(m))
    names = [v for i, v in enumerate(complex_.vertices) if keep >> i & 1]
    assert complex_.induced(names) == oracles.divisor_subcomplex(labeled, m)
    # the public constructor and the ideal's own labeling agree
    built = LabeledComplex._from_ideal(complex_, ideal)
    assert (built.labels, built.variables, repr(built)) == (
        labeled.labels, labeled.variables, repr(labeled))
    assert [built.label(v) for v in complex_.vertices] == [
        labeled.label(v) for v in complex_.vertices] == list(gens)
    for absent in ("", "0", "w", str(t + 1), "10" + str(t)):
        for lc in (labeled, built):
            with pytest.raises(KeyError):
                lc.label(absent)


# -- the parser against the regex grammar ---------------------------------------

# the grammar's characters, their non-ASCII look-alikes, and whitespace
PARSE_CHARS = st.sampled_from(list("xyzXZ_019^* 1") + ["\t", "\n", "\x0b", "\u00e9",
                                                        "\u00b2", "\u0663", "\uff11",
                                                        "\u212a", "\xa0", "-"])


def parse_outcome(parse, text):
    try:
        return parse(text)
    except MonomialParseError as exc:
        return type(exc), str(exc), exc.position


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(PARSE_CHARS, max_size=12),
                 st.text(max_size=8),
                 st.lists(st.tuples(st.sampled_from(["x", "y_1", "Z", "ab9"]),
                                    st.sampled_from(["", "^0", "^2", "^007", "^" + "9" * 4301]),
                                    st.sampled_from(["*", " * ", "**", " "])),
                          max_size=4).map(lambda ts: "".join(map("".join, ts)))))
# digits and letters that are not ASCII, which str methods accept
@example("x^\u0663")
@example("x^1\u00b2")
@example("x\u00e9*y")
@example("\u212a")
@example("x^" + "9" * 4301)
def test_parser_matches_the_regex_grammar(text):
    assert parse_outcome(parse_monomial, text) == parse_outcome(oracles.parse_monomial, text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(PARSE_CHARS, max_size=6), st.text(max_size=4)))
def test_name_test_matches_the_regex_grammar(text):
    assert _is_name(text) == bool(oracles.NAME_RE.fullmatch(text))


# -- decoding lattice masks -----------------------------------------------------

@st.composite
def leveled_ideals(draw):
    """A minimal ideal whose variables may take several levels, some above
    1, with a declared variable unused; sometimes the unit ideal."""
    variables = draw(st.permutations(RING_VARS + ("w",)))[:draw(st.integers(1, 6))]
    used = [x for x in variables if x != "w"]
    if not used or draw(st.integers(0, 9)) == 0:
        return MonomialIdeal(variables, [UNIT])
    drawn = draw(st.lists(st.dictionaries(st.sampled_from(used), EXPONENTS, min_size=1),
                          min_size=1, max_size=7))
    gens = list(dict.fromkeys(map(Monomial, drawn)))
    gens = [g for g in gens if not any(h != g and h.divides(g) for h in gens)]
    return MonomialIdeal(variables, gens)


@settings(max_examples=300, deadline=None)
@given(leveled_ideals())
@example(MonomialIdeal(("x",), [UNIT]))
@example(MonomialIdeal(("x", "y"), [Monomial({"x": 3}), Monomial({"x": 1, "y": 5}),
                                    Monomial({"y": 7})]))
def test_decode_reads_top_bits_as_the_span_walk_does(ideal):
    masks = ideal._lattice() + list(map(ideal._encode, ideal.generators))
    for mask in masks:
        assert ideal._decode(mask) == oracles.decode(ideal, mask)
