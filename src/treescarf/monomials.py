"""Exact monomial arithmetic and monomial ideals.

Monomials are maps from variable names to positive integer exponents (the
unit monomial is the empty map); exponents are plain Python ints, so nothing
overflows.  Ideals carry an explicit ordered variable list, which fixes the
lexicographic order used for deterministic serialization and for reporting
failing degrees.

Inside the library an ideal also encodes monomials as private int masks.
Each variable gets one bit per level, a distinct nonzero exponent among the
generators, with the first variable in the highest bits, and an exponent
reaching k levels sets the low k bits of its span.  On generators and their
lcms, divisibility is ``a & ~b == 0``, lcm is ``a | b`` and int order is
lexicographic; a mask has at most t*n bits, however large the exponents.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Mapping

from .complexes import vertex_key
from .errors import EmptyListError, MonomialParseError


class Monomial:
    """An exponent vector over named variables; immutable and hashable."""

    __slots__ = ("_exps", "_items")

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
        self._items = tuple(sorted(exps.items()))

    # -- queries -------------------------------------------------------------

    def exponent(self, name: str) -> int:
        return self._exps.get(name, 0)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._items)

    def is_unit(self) -> bool:
        return not self._exps

    def divides(self, other: "Monomial") -> bool:
        o = other._exps
        return all(e <= o.get(v, 0) for v, e in self._items)

    def exponent_vector(self, variables: Iterable[str]) -> tuple[int, ...]:
        """Exponents in the given variable order (missing variables are 0)."""
        return tuple(self._exps.get(v, 0) for v in variables)

    # -- arithmetic -----------------------------------------------------------

    def lcm(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._items:
            if e > exps.get(v, 0):
                exps[v] = e
        return Monomial(exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self._exps)
        for v, e in other._items:
            exps[v] = exps.get(v, 0) + e
        return Monomial(exps)

    def divide_exact(self, other: "Monomial") -> "Monomial":
        """Quotient self / other; raises ValueError when not divisible."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial({v: e - other.exponent(v) for v, e in self._items})

    def radical(self) -> "Monomial":
        """Every positive exponent set to 1."""
        return Monomial({v: 1 for v, _ in self._items})

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


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
        m = _NAME_RE.match(text, pos)
        if m is None:
            raise MonomialParseError("expected a variable name", pos)
        name = m.group()
        pos = m.end()
        exp = 1
        if pos < n and text[pos] == "^":
            pos += 1
            d = _INT_RE.match(text, pos)
            if d is None:
                raise MonomialParseError("expected an integer exponent", pos)
            try:
                exp = int(d.group())
            except ValueError:  # more digits than int() converts
                raise MonomialParseError("exponent too large", pos) from None
            if exp < 1:
                raise MonomialParseError("exponent must be positive", pos)
            pos = d.end()
        exps[name] = exps.get(name, 0) + exp
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            break
        if text[pos] != "*":
            raise MonomialParseError("expected '*' between terms", pos)
        pos += 1
    return Monomial(exps)


def format_monomial(m: Monomial, variables: Iterable[str] | None = None) -> str:
    """Canonical text for a monomial; round-trips through parse_monomial.

    With ``variables`` the factors follow that order (any leftover variables
    come after, in default order); otherwise variables sort by (length, name).
    """
    if m.is_unit():
        return "1"
    present = set(m.variables)
    order = []
    if variables is not None:
        order = [v for v in variables if v in present]
    order += sorted(present - set(order), key=vertex_key)
    parts = []
    for v in order:
        e = m.exponent(v)
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


class MonomialIdeal:
    """A monomial ideal given by a minimal generating set.

    The constructor checks minimality (no generator divides another) and
    that every variable used by a generator appears in the declared ordered
    variable list.
    """

    __slots__ = ("_variables", "_generators", "_spans", "_starts", "_masks")

    def __init__(self, variables: Iterable[str], generators: Iterable[Monomial]):
        self._variables = tuple(variables)
        if len(set(self._variables)) != len(self._variables):
            raise ValueError("duplicate variable names")
        self._generators = gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        known = set(self._variables)
        for g in gens:
            missing = set(g.variables) - known
            if missing:
                raise ValueError(f"generator {g} uses undeclared variables {sorted(missing)}")
        # (variable, levels, shift) per variable, the last in the lowest bits
        spans, shift = [], 0
        for x in reversed(self._variables):
            levels = sorted({g.exponent(x) for g in gens} - {0})
            spans.append((x, levels, shift))
            shift += len(levels)
        self._spans = spans
        self._starts = sum(1 << s for _, levels, s in spans if levels)
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

    def monomial_key(self, m: Monomial) -> tuple[int, ...]:
        """Lexicographic key under this ideal's variable order."""
        return m.exponent_vector(self._variables)

    def format(self, m: Monomial) -> str:
        return format_monomial(m, self._variables)

    def lcm_lattice(self) -> tuple[Monomial, ...]:
        """Distinct lcms of nonempty generator subsets, in lexicographic order."""
        return tuple(map(self._decode, self._lattice()))

    def _encode(self, m: Monomial) -> int:
        """Mask of m, exact for divisibility by generators: exponents clip to levels."""
        mask = 0
        for x, levels, shift in self._spans:
            mask |= (1 << bisect_right(levels, m.exponent(x))) - 1 << shift
        return mask

    def _decode(self, mask: int) -> Monomial:
        """The monomial of an lcm of generator masks."""
        exps = {}
        for x, levels, shift in self._spans:
            if k := (mask >> shift & (1 << len(levels)) - 1).bit_length():
                exps[x] = levels[k - 1]
        return Monomial(exps)

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
