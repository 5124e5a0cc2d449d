"""Building monomial ideals whose Scarf complex is a given complex.

Work in the polynomial ring with one variable per nonempty face of the
complex.  The full construction assigns to each vertex v the product of the
variables of all faces avoiding v; the reduced construction shaves that
generator down to a squarefree monomial built from the facets around v, and
an interpolating family multiplies the reduced generators by divisors of
the leftover factor.  Round-trip verification recovers the Scarf complex of
the built ideal and compares it with the input complex.

None of this applies to the boundary of a simplex, which is not the Scarf
complex of any monomial ideal.
"""

from __future__ import annotations

from random import Random
from typing import Mapping, Optional

from ._frozen import FrozenValue
from .complexes import Face, SimplicialComplex, face_sorted
from .errors import (BadHError, BoundaryOfSimplexError,
                     DegenerateVertexFacetError, DivisibilityViolationError,
                     IndexMismatchError)
from .monomials import UNIT, Monomial, MonomialIdeal
from .resolution import LabeledComplex, scarf_complex


class FaceVariableRing(FrozenValue):
    """One polynomial variable per nonempty face of a complex.

    Names are "x_" plus the concatenated sorted vertex names, with an extra
    underscore separator when any vertex name has more than one character
    (so vertices 1..4 give the compact x_2, x_23, x_234 style).
    """

    __slots__ = ("complex", "variables", "of_face")

    def __init__(self, complex: SimplicialComplex, variables: tuple[str, ...],
                 of_face: dict):
        self._fill(complex, variables, of_face)

    def name(self, face: Face) -> str:
        return self.of_face[face]


def face_variable_ring(complex_: SimplicialComplex) -> FaceVariableRing:
    faces = complex_.faces()
    sep = "" if all(len(v) == 1 for v in complex_.vertices) else "_"
    of_face = {f: "x_" + sep.join(face_sorted(f)) for f in faces}
    names = [of_face[f] for f in faces]
    if len(set(names)) != len(names):
        raise ValueError("vertex names produce ambiguous face-variable names")
    return FaceVariableRing(complex_, tuple(names), of_face)


class VertexFacetSplit(FrozenValue):
    """Per-vertex split of the facets: the ones avoiding v and the ones with v."""

    __slots__ = ("not_containing", "containing")

    def __init__(self, not_containing: dict, containing: dict):
        self._fill(not_containing, containing)


def vertex_facet_split(complex_: SimplicialComplex) -> VertexFacetSplit:
    avoid = {}
    meet = {}
    for v in complex_.vertices:
        avoid[v] = tuple(f for f in complex_.facets if v not in f)
        meet[v] = tuple(f for f in complex_.facets if v in f)
        if not meet[v]:
            raise AssertionError(f"vertex {v} lies in no facet")
    return VertexFacetSplit(avoid, meet)


def is_boundary_of_simplex(complex_: SimplicialComplex) -> bool:
    """All (r-1)-subsets of an r-element vertex set, and nothing else."""
    r = len(complex_.vertices)
    return (len(complex_.facets) == r
            and all(len(f) == r - 1 for f in complex_.facets))


def _require_eligible(complex_: SimplicialComplex) -> None:
    if is_boundary_of_simplex(complex_):
        raise BoundaryOfSimplexError(
            "the boundary of a simplex is not a Scarf complex")


def build_J(complex_: SimplicialComplex) -> MonomialIdeal:
    """The full Scarf ideal: one generator per vertex v, the product of the
    face variables over every nonempty face avoiding v."""
    _require_eligible(complex_)
    ring = face_variable_ring(complex_)
    faces = complex_.faces()
    gens = [Monomial({ring.name(f): 1 for f in faces if v not in f})
            for v in complex_.vertices]
    return MonomialIdeal(ring.variables, gens)


def _reduced_parts(complex_: SimplicialComplex):
    """Shared construction: ring, full generators, reduced generators.

    The reduced generator for v is the radical of the product of x_{G - v}
    over facets G containing v, times x_F and all its codimension-1 face
    variables for every facet F avoiding v.
    """
    _require_eligible(complex_)
    if any(len(f) == 1 for f in complex_.facets):
        raise DegenerateVertexFacetError(
            "a single-vertex facet leaves the reduced generator undefined")
    ring = face_variable_ring(complex_)
    split = vertex_facet_split(complex_)
    full = build_J(complex_)
    reduced = []
    for v in complex_.vertices:
        product = UNIT
        for g in split.containing[v]:
            product = product * Monomial({ring.name(g - {v}): 1})
        for f in split.not_containing[v]:
            product = product * Monomial({ring.name(f): 1})
            for w in f:
                product = product * Monomial({ring.name(f - {w}): 1})
        reduced.append(product.radical())
    for m_full, m_red in zip(full.generators, reduced):
        if not m_red.divides(m_full):
            raise DivisibilityViolationError(
                "a reduced generator does not divide the full one")
    return ring, full.generators, tuple(reduced)


def build_Jprime(complex_: SimplicialComplex) -> MonomialIdeal:
    """The squarefree reduced Scarf ideal.

    Single-vertex facets are rejected: G - {v} would be the empty face,
    which has no variable.
    """
    ring, _, reduced = _reduced_parts(complex_)
    return MonomialIdeal(ring.variables, reduced)


def m_double_prime(complex_: SimplicialComplex, vertex: str) -> Monomial:
    """Exact cofactor: full generator of the vertex over the reduced one."""
    if vertex not in complex_.vertices:
        raise KeyError(vertex)
    _, full, reduced = _reduced_parts(complex_)
    i = complex_.vertices.index(vertex)
    try:
        return full[i].divide_exact(reduced[i])
    except ValueError as exc:
        raise DivisibilityViolationError(str(exc)) from None


def build_intermediate(complex_: SimplicialComplex,
                       h: Optional[Mapping[str, Monomial]] = None) -> MonomialIdeal:
    """Generators h_v * m'_v, where each h_v divides the cofactor m''_v.

    Missing h entries default to 1, so build_intermediate(c) is the reduced
    ideal and h_v = m''_v for all v rebuilds the full one.
    """
    ring, full, reduced = _reduced_parts(complex_)
    factors = dict(h or {})
    unknown = set(factors) - set(complex_.vertices)
    if unknown:
        raise BadHError(f"h given for non-vertices {sorted(unknown)}",
                        vertex=sorted(unknown)[0])
    gens = []
    for v, m_full, m_red in zip(complex_.vertices, full, reduced):
        hv = factors.get(v, UNIT)
        if not hv.divides(m_full.divide_exact(m_red)):
            raise BadHError(f"h_{v} = {hv} does not divide the cofactor of {v}",
                            vertex=v)
        gens.append(hv * m_red)
    return MonomialIdeal(ring.variables, gens)


def random_h(complex_: SimplicialComplex, rng: Random) -> dict:
    """A uniformly random divisor of each cofactor m''_v."""
    _, full, reduced = _reduced_parts(complex_)
    out = {}
    for v, m_full, m_red in zip(complex_.vertices, full, reduced):
        cofactor = m_full.divide_exact(m_red)
        out[v] = Monomial({name: rng.randint(0, cofactor.exponent(name))
                           for name in cofactor.variables})
    return out


class ScarfComparison:
    EQUAL = "EQUAL"
    CONTAINS = "CONTAINS"
    NEITHER = "NEITHER"


def verify_scarf(complex_: SimplicialComplex,
                 ideal: MonomialIdeal) -> tuple[str, LabeledComplex]:
    """Compare a complex with the Scarf complex of an ideal.

    Generators correspond to vertices positionally (generator i labels the
    i-th vertex in canonical order).  Returns EQUAL when the face sets
    coincide, CONTAINS when the Scarf complex strictly contains the input,
    NEITHER otherwise, along with the computed Scarf complex.
    """
    if len(ideal.generators) != len(complex_.vertices):
        raise IndexMismatchError(
            f"{len(ideal.generators)} generators for {len(complex_.vertices)} vertices")
    scarf = scarf_complex(ideal)
    rename = {str(i + 1): v for i, v in enumerate(complex_.vertices)}
    scarf_faces = {frozenset(rename[n] for n in f) for f in scarf.complex.faces()}
    own_faces = set(complex_.faces())
    if scarf_faces == own_faces:
        return ScarfComparison.EQUAL, scarf
    if scarf_faces > own_faces:
        return ScarfComparison.CONTAINS, scarf
    return ScarfComparison.NEITHER, scarf
