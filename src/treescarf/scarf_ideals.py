"""Building monomial ideals whose Scarf complex is a given complex.

Work in the polynomial ring with one variable per nonempty face of the
complex.  Every construction here is squarefree, so a generator is a set of
faces, the product of their variables.  The full construction assigns to
each vertex v the faces avoiding v; the reduced construction keeps only
faces built from the facets around v, and an interpolating family adds to
each reduced generator some of the faces it left out.  Round-trip
verification recovers the Scarf complex of the built ideal and compares it
with the input complex.

None of this applies to the boundary of a simplex, which is not the Scarf
complex of any monomial ideal.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._frozen import FrozenValue
from .complexes import SimplicialComplex, face_sorted
from .errors import (ArityMismatchError, BadHError, BoundaryOfSimplexError,
                     DegenerateVertexFacetError)
from .monomials import UNIT, Monomial, MonomialIdeal, _is_name
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


def face_variable_ring(complex_: SimplicialComplex) -> FaceVariableRing:
    """Raises ValueError for vertex names that make a face-variable name
    outside the monomial grammar or the same name for two faces."""
    for v in complex_.vertices:
        # other face-variable names join vertex names with "" or "_"
        if not _is_name("x_" + v):
            raise ValueError(f"vertex name {v!r} cannot be part of a variable name")
    faces = complex_.faces()
    sep = "" if all(len(v) == 1 for v in complex_.vertices) else "_"
    of_face = {f: "x_" + sep.join(face_sorted(f)) for f in faces}
    names = [of_face[f] for f in faces]
    if len(set(names)) != len(names):
        raise ValueError("vertex names produce ambiguous face-variable names")
    return FaceVariableRing(complex_, tuple(names), of_face)


def is_boundary_of_simplex(complex_: SimplicialComplex) -> bool:
    """All (r-1)-subsets of an r-element vertex set, and nothing else."""
    r = len(complex_.vertices)
    return (len(complex_.facets) == r
            and all(len(f) == r - 1 for f in complex_.facets))


def _face_sets(complex_: SimplicialComplex, reduced: bool):
    """The face variables and, for each vertex v in vertex order, the
    variables of the full generator J_v (a list, in variable order) and,
    when ``reduced``, of the reduced generator J'_v (a set; else None).

    J_v takes every nonempty face avoiding v.  J'_v takes G - {v} for each
    facet G containing v, and each facet F avoiding v with its
    codimension-1 faces.  Those faces avoid v too, so J'_v divides J_v by
    construction, and the cofactor m''_v = J_v / J'_v takes the faces of
    J_v not in J'_v.  A single-vertex facet would put the empty face, which
    has no variable, into J'_v, so the reduced form rejects it.
    """
    if is_boundary_of_simplex(complex_):
        raise BoundaryOfSimplexError(
            "the boundary of a simplex is not a Scarf complex")
    if reduced and any(len(f) == 1 for f in complex_.facets):
        raise DegenerateVertexFacetError(
            "a single-vertex facet leaves the reduced generator undefined")
    ring = face_variable_ring(complex_)
    name = ring.of_face
    per_vertex = []
    for v in complex_.vertices:
        full = [x for f, x in name.items() if v not in f]
        kept = None
        if reduced:
            kept = set()
            for g in complex_.facets:
                if v in g:
                    kept.add(name[g - {v}])
                else:
                    kept.add(name[g])
                    kept.update(name[g - {w}] for w in g)
        per_vertex.append((full, kept))
    return ring.variables, per_vertex


def _product(variables) -> Monomial:
    """The squarefree monomial over these face-variable names, unchecked."""
    return Monomial._of(dict.fromkeys(variables, 1).items())


def build_J(complex_: SimplicialComplex) -> MonomialIdeal:
    """The full Scarf ideal: one generator per vertex v, the product of the
    face variables over every nonempty face avoiding v."""
    variables, per_vertex = _face_sets(complex_, reduced=False)
    return MonomialIdeal(variables, [_product(full) for full, _ in per_vertex])


def build_Jprime(complex_: SimplicialComplex) -> MonomialIdeal:
    """The squarefree reduced Scarf ideal.

    The generator for v is the product of x_{G - v} over facets G
    containing v, and of x_F and its codimension-1 face variables over
    facets F avoiding v, each variable once.  Single-vertex facets are
    rejected: G - {v} would be the empty face, which has no variable.
    """
    variables, per_vertex = _face_sets(complex_, reduced=True)
    return MonomialIdeal(variables, [_product(kept) for _, kept in per_vertex])


def m_double_prime(complex_: SimplicialComplex, vertex: str) -> Monomial:
    """Exact cofactor: full generator of the vertex over the reduced one."""
    if vertex not in complex_.vertices:
        raise KeyError(vertex)
    _, per_vertex = _face_sets(complex_, reduced=True)
    full, kept = per_vertex[complex_.vertices.index(vertex)]
    return _product(x for x in full if x not in kept)


def build_intermediate(complex_: SimplicialComplex,
                       h: Mapping[str, Monomial] | None = None) -> MonomialIdeal:
    """Generators h_v * m'_v, where each h_v divides the cofactor m''_v.

    Missing h entries default to 1, so build_intermediate(c) is the reduced
    ideal and h_v = m''_v for all v rebuilds the full one.
    """
    variables, per_vertex = _face_sets(complex_, reduced=True)
    factors = dict(h or {})
    unknown = set(factors) - set(complex_.vertices)
    if unknown:
        raise BadHError(f"h given for non-vertices {sorted(unknown)}",
                        vertex=sorted(unknown)[0])
    gens = []
    for v, (full, kept) in zip(complex_.vertices, per_vertex):
        hv = factors.get(v, UNIT)
        if not hv.divides(_product(x for x in full if x not in kept)):
            raise BadHError(f"h_{v} = {hv} does not divide the cofactor of {v}",
                            vertex=v)
        # a divisor of the squarefree cofactor adds variables J'_v lacks
        gens.append(_product([*kept, *hv.variables]))
    return MonomialIdeal(variables, gens)


def random_h(complex_: SimplicialComplex, rng) -> dict:
    """A uniformly random divisor of each cofactor m''_v, drawn from the
    ``random.Random`` instance ``rng`` one variable at a time, in sorted
    name order."""
    _, per_vertex = _face_sets(complex_, reduced=True)
    out = {}
    for v, (full, kept) in zip(complex_.vertices, per_vertex):
        cofactor = sorted(x for x in full if x not in kept)
        out[v] = Monomial({x: rng.randint(0, 1) for x in cofactor})
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
    NEITHER otherwise, along with the computed Scarf complex.  Compares
    facet masks: bit i is generator i on both sides ("1".."t" sort so).
    """
    if len(ideal.generators) != len(complex_.vertices):
        raise ArityMismatchError(
            f"{len(ideal.generators)} generators for {len(complex_.vertices)} vertices")
    scarf = scarf_complex(ideal)
    mine, theirs = complex_._facet_masks, scarf.complex._facet_masks
    if mine == theirs:
        return ScarfComparison.EQUAL, scarf
    if all(any(not f & ~g for g in theirs) for f in mine):
        return ScarfComparison.CONTAINS, scarf
    return ScarfComparison.NEITHER, scarf
