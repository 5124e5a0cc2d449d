"""Exact monomial arithmetic and monomial ideals.

A monomial is its exponent map alone, from variable names to positive
integer exponents (the unit monomial is the empty map), as plain Python
ints, so nothing overflows.  Ideals carry an explicit ordered variable list,
which fixes the lexicographic order used for deterministic serialization
and for reporting failing degrees.

Inside the library an ideal also encodes monomials as private int masks.
Each variable gets one bit per level, a distinct nonzero exponent among the
generators, with the first variable in the highest bits, and an exponent
reaching k levels sets the low k bits of its span.  The levels are read
off the generators' exponent maps in one pass, and a monomial is encoded
off its own.  On generators and their lcms, divisibility is
``a & ~b == 0``, lcm is ``a | b`` and int order is lexicographic; a mask
has at most t*n bits, however large the exponents.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping
from itertools import compress

from .complexes import vertex_key
from .errors import EmptyListError, MonomialParseError


class Monomial:
    """An exponent vector over named variables; immutable and hashable."""

    __slots__ = ("_exps",)

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        exps = {}
        for name, e in dict(exponents).items():
            if not isinstance(name, str) or not name:
                raise TypeError(f"variable names must be nonempty strings, got {name!r}")
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {name} must be a non-negative int, got {e!r}")
            if e > 0:
                exps[name] = e
        self._exps = exps

    @classmethod
    def _of(cls, exponents: Iterable[tuple[str, int]]) -> "Monomial":
        """The monomial of (name, positive exponent) pairs with distinct
        names, which the caller vouches for: nothing is checked."""
        m = cls.__new__(cls)
        m._exps = dict(exponents)
        return m

    # -- queries -------------------------------------------------------------

    def exponent(self, name: str) -> int:
        return self._exps.get(name, 0)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self._exps))

    def is_unit(self) -> bool:
        return not self._exps

    def divides(self, other: "Monomial") -> bool:
        o = other._exps
        return all(e <= o.get(v, 0) for v, e in self._exps.items())

    # -- arithmetic -----------------------------------------------------------

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._exps.items():
            if e > exps.get(v, 0):
                exps[v] = e
        return Monomial._of(exps.items())

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self) -> int:
        return hash(frozenset(self._exps.items()))

    def __str__(self) -> str:
        return format_monomial(self)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"


UNIT = Monomial()


def lcm(monomials: Iterable[Monomial]) -> Monomial:
    """Componentwise max over a nonempty list."""
    ms = list(monomials)
    if not ms:
        raise EmptyListError("lcm of an empty list")
    out = ms[0]
    for m in ms[1:]:
        out = out.lcm(m)
    return out


# -- text format ---------------------------------------------------------------
#
# monomial = "1" | term ("*" term)*
# term     = name ("^" positive-integer)?
# name     = letter (letter | digit | "_")*
#
# with ASCII letters and digits only.

_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}


def _is_name(s: str) -> bool:
    """Whether ``s`` is a whole name of the grammar above."""
    return s.isascii() and s[:1].isalpha() and s.replace("_", "a").isalnum()


def parse_monomial(text: str) -> Monomial:
    """Parse the grammar above; raises MonomialParseError with the offset."""
    if text.strip() == "1":
        return UNIT
    exps: dict[str, int] = {}
    pos = 0
    n = len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        start = pos
        if pos == n or text[pos] not in _LETTERS:
            raise MonomialParseError("expected a variable name", pos)
        pos += 1
        while pos < n and text[pos] in _NAME_CHARS:
            pos += 1
        name = text[start:pos]
        exp = 1
        if pos < n and text[pos] == "^":
            pos += 1
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            if pos == start:
                raise MonomialParseError("expected an integer exponent", pos)
            try:
                exp = int(text[start:pos])
            except ValueError:  # more digits than int() converts
                raise MonomialParseError("exponent too large", start) from None
            if exp < 1:
                raise MonomialParseError("exponent must be positive", start)
        exps[name] = exps.get(name, 0) + exp
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            break
        if text[pos] != "*":
            raise MonomialParseError("expected '*' between terms", pos)
        pos += 1
    return Monomial._of(exps.items())  # the grammar checked names and exponents


def format_monomial(m: Monomial, variables: Iterable[str] | None = None) -> str:
    """Canonical text for a monomial; round-trips through parse_monomial.

    With ``variables`` the factors follow that order (any leftover variables
    come after, in default order); otherwise variables sort by (length, name).
    """
    exps = m._exps
    if not exps:
        return "1"
    order = [v for v in variables or () if v in exps]
    order += sorted(exps.keys() - set(order), key=vertex_key)
    return "*".join(v if (e := exps[v]) == 1 else f"{v}^{e}" for v in order)


class MonomialIdeal:
    """A monomial ideal given by a minimal generating set.

    The constructor checks minimality (no generator divides another) and
    that every variable used by a generator appears in the declared ordered
    variable list.
    """

    __slots__ = ("_variables", "_generators", "_spans", "_starts", "_masks", "_levels")

    def __init__(self, variables: Iterable[str], generators: Iterable[Monomial]):
        self._variables = tuple(variables)
        if len(set(self._variables)) != len(self._variables):
            raise ValueError("duplicate variable names")
        self._generators = gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        # each variable's distinct exponents, in one pass over the generators
        values: dict[str, set[int]] = {x: set() for x in self._variables}
        for g in gens:
            for x, e in g._exps.items():
                if x not in values:
                    missing = sorted(g._exps.keys() - values.keys())
                    raise ValueError(f"generator {g} uses undeclared variables {missing}")
                values[x].add(e)
        # variable -> (levels, shift), the last in the lowest bits; the lowest
        # bit of each nonempty span; per bit, from the lowest, its (variable, exponent)
        self._spans, self._starts, self._levels, shift = {}, 0, [], 0
        for x in reversed(self._variables):
            levels = sorted(values[x])
            self._spans[x] = levels, shift
            self._starts |= bool(levels) << shift
            shift += len(levels)
            self._levels += [(x, e) for e in levels]
        self._masks = tuple(map(self._encode, gens))
        for i, g in enumerate(self._masks):
            for j, h in enumerate(self._masks):
                if i != j and not h & ~g:
                    raise ValueError(f"not a minimal generating set: {gens[j]} divides {gens[i]}")

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return self._generators

    def format(self, m: Monomial) -> str:
        return format_monomial(m, self._variables)

    def _encode(self, m: Monomial) -> int:
        """Mask of m, exact for divisibility by generators: exponents clip to levels."""
        mask = 0
        for x, e in m._exps.items():
            if span := self._spans.get(x):  # a variable outside the ring sets no bit
                levels, shift = span
                mask |= (1 << bisect_right(levels, e)) - 1 << shift
        return mask

    def _decode(self, mask: int) -> Monomial:
        """The monomial of an lcm of generator masks: the top set bit of
        each variable's span names its (variable, exponent) in a table
        built with the spans, picked out by one pass in C over the bits."""
        bits = bin(self._tops(mask))[:1:-1]  # lowest bit first
        return Monomial._of(compress(self._levels, map("1".__eq__, bits)))

    def _divisors(self, m: int) -> int:
        """The mask of the generator positions whose masks divide the mask m."""
        return sum(1 << i for i, g in enumerate(self._masks) if not g & ~m)

    def _tops(self, mask: int) -> int:
        """The highest set bit of each variable's span in the mask."""
        return mask & ~(mask >> 1 & ~(self._starts >> 1))

    def _lattice(self) -> list[int]:
        """Sorted masks of every nonempty generator subset's lcm, by closure."""
        values: set[int] = set()
        for g in self._masks:
            values |= {g} | {g | v for v in values}
        return sorted(values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (self._variables == other._variables
                and self._generators == other._generators)

    def __hash__(self) -> int:
        return hash((self._variables, self._generators))

    def __repr__(self) -> str:
        gens = ", ".join(self.format(g) for g in self._generators)
        return f"MonomialIdeal({gens})"
