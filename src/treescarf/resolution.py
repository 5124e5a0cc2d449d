"""Labeled complexes, the support criterion for resolutions, Betti numbers,
and Scarf complexes.

A labeled complex is a complex and a monomial ideal, and only those: the
ideal's minimal generators label the vertices, both in order, and each
face is labeled by the lcm of its vertex labels.  The chain complex of
the labeled complex resolves the quotient by the ideal exactly when
every divisor subcomplex is empty or acyclic, and the resolution is
minimal exactly when no two nested faces share a label.  For forests,
acyclicity degrades to connectivity, and only the lcms of vertex pairs
need testing, which is the fast path.  Both criteria take a divisor
subcomplex as a vertex mask and build no complex.

The multigraded Betti numbers are read off the Scarf complex whenever it
is known to support a resolution, which is then minimal
(Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998): one rank per
face, at the face's label.  It is known to for a strongly generic ideal,
where no variable has the same nonzero exponent in two generators, and
for any ideal whose Scarf complex is a forest that passes the pair
criterion, as the paper's J and J' of every simplicial tree do.  Every
other ideal takes the lcm-lattice walk, which is independent of any
candidate complex: it takes the strict-divisor subcomplexes K_{<m} of
the full simplex on the generators, one per element m of the lcm
lattice, and replaces each K_{<m} by the nerve of its cover by maximal
simplices, which has the same reduced homology (nerve theorem), unless
that cover has more sets than K_{<m} has vertices.  Either complex goes
to the rank as its facets, and no face is listed; a set of generators is
a mask on their positions.  The walk is what ``supports --verify``
checks the table against.  The Scarf complex is grown level by level
from its vertices, using that a subset's lcm is unique exactly when no
outside generator divides it and no codimension-1 subset shares it.
Neither enumerates the 2^t generator subsets; the definitions that do
live in ``tests/oracles.py`` as the reference both are tested against.
Every loop runs on the ideal's generator masks (see ``MonomialIdeal``),
and the generators dividing a degree are one mask,
``MonomialIdeal._divisors``; Monomials are built only for failing
degrees and ``by_degree`` keys.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._frozen import FrozenValue
from .complexes import (Face, SimplicialComplex, _bit_indices, _connected, _face,
                        _mask_key, _maximal, vertex_key)
from .errors import NotAForestError
from .homology import QQ, FieldSpec, reduced_ranks_from_faces
from .monomials import Monomial, MonomialIdeal


class LabeledComplex:
    """A simplicial complex with vertices labeled by minimal generators.

    ``variables`` fixes the ring's variable order (defaults to the sorted
    union of label variables); generator order is the complex's vertex
    order.
    """

    __slots__ = ("_complex", "_ideal")

    def __init__(self, complex_: SimplicialComplex,
                 labels: Mapping[str, Monomial],
                 variables: Iterable[str] | None = None):
        labels = dict(labels)
        if set(labels) != set(complex_.vertices):
            raise ValueError("labels must cover exactly the vertex set")
        if variables is None:
            variables = sorted({x for m in labels.values() for x in m._exps},
                               key=vertex_key)
        self._complex = complex_
        self._ideal = MonomialIdeal(variables, [labels[v] for v in complex_.vertices])

    @classmethod
    def _from_ideal(cls, complex_: SimplicialComplex,
                    ideal: MonomialIdeal) -> "LabeledComplex":
        # the complex with its vertices, in order, labeled by the ideal's
        # generators; the ideal is kept as it is, not built again
        labeled = cls.__new__(cls)
        labeled._complex = complex_
        labeled._ideal = ideal
        return labeled

    @property
    def complex(self) -> SimplicialComplex:
        return self._complex

    @property
    def labels(self) -> dict:
        return dict(zip(self._complex.vertices, self._ideal.generators))

    @property
    def variables(self) -> tuple[str, ...]:
        return self._ideal.variables

    def label(self, vertex: str) -> Monomial:
        return self.labels[vertex]

    def ideal(self) -> MonomialIdeal:
        """The ideal generated by the vertex labels, in vertex order."""
        return self._ideal

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}:{g}" for v, g in self.labels.items())
        return f"LabeledComplex({pairs})"


def supports_resolution(labeled: LabeledComplex,
                        field: FieldSpec = QQ) -> tuple[bool, Monomial | None]:
    """Whether the labeled complex supports a free resolution of its ideal.

    Checks that the divisor subcomplex is empty or acyclic for every
    monomial; only lcms of generator subsets need checking, because the
    divisor subcomplex of any monomial is reproduced by the lcm of the
    labels dividing it.  On failure returns the lexicographically smallest
    failing degree under the ideal's variable order.  Cost: per lattice
    element m, the q facet masks cut by the vertices whose labels divide m,
    and ``reduced_ranks_from_faces`` on the cuts: the coface-bit table of
    Delta_{<=m} (a cut inside a larger one costs one lookup), its
    collapse, and ranks only on what is left.  A divisor subcomplex that
    collapses to a point, as every one of a supporting forest does, takes
    no elimination.
    """
    ideal = labeled.ideal()
    facets = labeled.complex._facet_masks
    for m in ideal._lattice():
        keep = ideal._divisors(m)
        if reduced_ranks_from_faces([f & keep for f in facets], field).ranks:
            return False, ideal._decode(m)
    return True, None


def supports_resolution_tree(labeled: LabeledComplex) -> tuple[bool, Monomial | None]:
    """Support check specialized to forests, over pair lcms only.

    Induced subcomplexes of a forest are forests, and a forest is acyclic
    exactly when it is connected (or empty).  If some Delta_{<=m} with m in
    the lcm lattice separates vertices u and v, then so does its subcomplex
    Delta_{<=lcm(m_u, m_v)}, and lcm(m_u, m_v) divides m, so it is
    lexicographically no larger.  Testing connectivity at the distinct
    pair lcms, in lexicographic order, therefore gives the answer and the
    failing degree of ``supports_resolution`` on every forest, in at most
    t(t-1)/2 checks of O(q^2) mask operations on the q facet masks cut by
    the divisor vertex mask, and without building the lcm lattice.  Raises
    NotAForestError (with the leafless witness) otherwise, from the
    complex's kept forest decision.
    """
    forest, witness = labeled.complex.is_forest()
    if not forest:
        raise NotAForestError("tree criterion needs a forest", witness=witness)
    ideal = labeled.ideal()
    masks = ideal._masks
    facets = labeled.complex._facet_masks
    for m in sorted({g | h for i, g in enumerate(masks) for h in masks[i + 1:]}):
        keep = ideal._divisors(m)
        if not _connected([f & keep for f in facets]):
            return False, ideal._decode(m)
    return True, None


def is_minimal(labeled: LabeledComplex) -> tuple[bool, tuple[Face, Face] | None]:
    """No face shares its label with a maximal proper subface.

    Codimension-1 checking suffices: labels divide along inclusions, so an
    equality across any chain forces one at an adjacent step.  Walks the
    face masks in canonical face order, dropping one vertex bit at a time,
    low to high, and returns the first violating (face, subface) pair.
    """
    names = labeled.complex.vertices
    label = {1 << i: g for i, g in enumerate(labeled.ideal()._masks)}
    for face in sorted(labeled.complex._face_masks(), key=_mask_key):
        if face in label:
            continue  # a vertex
        subs = [face ^ 1 << i for i in _bit_indices(face)]
        # the lcm of a face: that of its first subface and its lowest vertex
        label[face] = mine = label[subs[0]] | label[face ^ subs[0]]
        for sub in subs:
            if label[sub] == mine:
                return False, (_face(names, face), _face(names, sub))
    return True, None


class BettiTable(FrozenValue):
    """Multigraded Betti ranks and their aggregate vector.

    ``vector[0]`` counts the minimal generators, so ``vector[i]`` lines up
    with f_i of a supporting complex.  ``by_degree`` maps each monomial
    degree with some nonzero rank to its (beta_0, beta_1, ...) column.
    """

    __slots__ = ("by_degree", "vector")

    def __init__(self, by_degree: dict, vector: tuple[int, ...]):
        self._fill(by_degree, vector)

    def rank(self, i: int, m: Monomial) -> int:
        col = self.by_degree.get(m, ())
        return col[i] if i < len(col) else 0


def _lattice_betti_table(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers, one lcm-lattice element at a time.

    The rank in homological position i at degree m is the reduced homology
    rank, in dimension i-1, of K_{<m}: the faces of the full simplex on
    the generators whose label strictly divides m, the empty face included
    (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998).  Only lcms of
    generator subsets can carry a nonzero rank, so the loop runs over the
    L masks of ``ideal._lattice()``, the sorted lcm closure of the
    generator masks.

    A subset's lcm falls short of m exactly when all its generators fall
    short of m in some variable x, so K_{<m} is the union of the full
    simplices on A_x = {g | m : deg_x g < deg_x m}.  Any nonempty
    intersection of those simplices is again a simplex, so by the nerve
    theorem (Bjoerner, *Topological methods*, 1995) K_{<m} has the reduced
    homology of the nerve of the maximal A_x, over every field.  The
    nerve is made of the dual sets {j : i in A_j}, one per generator i
    dividing m, and their subsets; when m is itself a generator they are
    all empty, and the complex of the empty face alone has rank 1 in
    dimension -1, beta_0 at m.  The nerve of the dual cover is K_{<m}
    itself, whose facets are the maximal A_x; it is used when it has
    fewer vertices, that is when the number r of distinct maximal A_x
    exceeds the number |G_m| of generators dividing m (r alone can reach
    C(|G_m|, |G_m|/2) when there are more variables than generators).
    Either way ``reduced_ranks_from_faces`` gets max(r, |G_m|) masks, on
    min(r, |G_m|) vertices, and no face is listed.  Sets of generators
    are masks on generator positions: the holders of each mask bit are
    found once per ideal, so each A_x is one operation on the mask of
    G_m.  Cost: O(t*n) mask operations to find the holders, then per
    element t divisibility tests, n operations for the A_x, r*|G_m| for
    the dual sets, and the coface-bit table of the masks passed (the sum
    of 2^|F| over them), its collapse, and ranks on what is left.  The 2^t
    definition is kept as a test oracle in ``tests/oracles.py``.  Serves
    the ideals whose Scarf complex is not shown to support a resolution
    (see ``betti_table``), and checks the Scarf routes under ``supports
    --verify``.
    """
    masks = ideal._masks
    t = len(masks)
    # holders[b]: the mask of the generator positions whose masks have bit b
    holders = [0] * max(masks).bit_length()
    for i, g in enumerate(masks):
        for b in _bit_indices(g):
            holders[b] |= 1 << i
    by_degree = {}
    vector: list[int] = []
    for m in ideal._lattice():
        if not m:
            continue  # only the unit ideal has this degree, and nothing below it
        below = ideal._divisors(m)
        # each A_x, the generators of below lacking m's top bit b in x
        maximal = _maximal(below & ~holders[b] for b in _bit_indices(ideal._tops(m)))
        if len(maximal) <= below.bit_count():
            # the nerve, by its dual sets; [0] when m is a generator
            maximal = [sum(1 << j for j, a in enumerate(maximal) if a >> i & 1)
                       for i in _bit_indices(below)]
        column = reduced_ranks_from_faces(maximal, field).ranks
        for i, r in enumerate(column):
            if r:
                while len(vector) <= i:
                    vector.append(0)
                vector[i] += r
        if column:
            by_degree[ideal._decode(m)] = column
    if not vector:
        vector = [t]  # only for the unit ideal, whose quotient is zero
    elif vector[0] != t:
        raise AssertionError("generator count disagrees with degree ranks")
    return BettiTable(by_degree, tuple(vector))


def _strongly_generic(ideal: MonomialIdeal) -> bool:
    """No variable has the same nonzero exponent in two generators, that is,
    no two generator masks share a top bit."""
    seen = 0
    for tops in map(ideal._tops, ideal._masks):
        if seen & tops:
            return False
        seen |= tops
    return True


def betti_table(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers of the quotient by the ideal.

    ``by_degree`` lists its degrees in lexicographic order under the
    ideal's variable order.  A Scarf complex that supports a resolution
    supports a minimal one, over every field, since no two of its faces
    share a label (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998).
    Then each face F of ``scarf_complex(ideal)`` gives one rank, in
    homological position |F| - 1 at its label, and ``vector`` is the
    f-vector; reading them off costs sorting the faces by label.  For t
    generators in n variables there are three routes:

    - A strongly generic ideal other than the unit ideal, found by an O(t)
      mask test: its Scarf complex always supports.  Cost: that of
      ``scarf_complex``, O(t) mask operations per candidate face.
    - Any other ideal but the unit ideal whose Scarf complex is a forest
      that passes the pair criterion of ``supports_resolution_tree``, as
      the ideals J and J' that ``scarf_ideals`` builds from a simplicial
      tree do: the tree is their Scarf complex.  Cost: the Scarf faces, built once,
      the forest decision on their facets, and t(t-1)/2 connectivity tests.
    - Every other ideal, the unit ideal included: the lcm-lattice walk,
      one reduced homology rank computation per lattice element
      (``_lattice_betti_table``), after the Scarf faces when the ideal is
      not strongly generic.  The forest decision is skipped when the Scarf
      faces' Euler characteristic, sum of (-1)^(|F|-1), is below 1, which
      no forest's is.
    """
    # by minimality, the unit ideal is the one whose first generator is 1
    if not ideal._masks[0]:
        return _lattice_betti_table(ideal, field)
    faces = _scarf_faces(ideal._masks)
    if not _strongly_generic(ideal):
        # a nonempty forest collapses to one point per component, so its
        # Euler characteristic is its number of components, at least 1
        if sum(1 if face.bit_count() & 1 else -1 for face in faces) < 1:
            return _lattice_betti_table(ideal, field)
        scarf = _scarf_labeled(ideal, faces)
        if not (scarf.complex.is_forest()[0] and supports_resolution_tree(scarf)[0]):
            return _lattice_betti_table(ideal, field)
    vector = [0] * max(map(int.bit_count, faces))
    by_degree = {}
    # label masks sort in the labels' lexicographic order
    for face, m in sorted(faces.items(), key=lambda item: item[1]):
        vector[face.bit_count() - 1] += 1
        by_degree[ideal._decode(m)] = (0,) * (face.bit_count() - 1) + (1,)
    return BettiTable(by_degree, tuple(vector))


def _scarf_faces(masks: tuple[int, ...]) -> dict[int, int]:
    """Every face of the Scarf complex, as a generator-position mask,
    mapped to its label mask; grown level by level (see ``scarf_complex``),
    so faces come in order of size."""
    t = len(masks)
    level = {1 << i: g for i, g in enumerate(masks)}
    faces = {}
    while level:
        faces.update(level)
        grown = {}
        for face, label in level.items():
            for w in range(face.bit_length(), t):
                cand = face | 1 << w
                if any(cand ^ 1 << k not in level for k in _bit_indices(face)):
                    continue
                m = label | masks[w]
                if all(g & ~m for u, g in enumerate(masks) if not cand >> u & 1):
                    grown[cand] = m
        level = grown
    return faces


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Faces of the full simplex on the generators whose label is unique.

    Vertices are named by generator position ("1".."t").  A subset S has a
    unique lcm exactly when (a) no generator outside S divides lcm(S) and
    (b) no S - {v} has the same lcm.  The Scarf complex is downward closed
    (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998), so it is grown
    level by level: a kept face is extended by a higher-indexed generator
    only when every subface of the candidate was kept.  Then (b) holds
    already, because a kept S - {v} satisfies (a), which puts g_v outside
    its lcm; only (a) is tested.  Every single generator is kept, by
    minimality.  Cost: O(t) mask operations per candidate, and there are at
    most t candidates per kept face.  The 2^t definition is kept as a test
    oracle in ``tests/oracles.py``.  The result is labeled by ``ideal``
    itself: "1".."t" sort in generator order, so nothing is rebuilt.
    """
    return _scarf_labeled(ideal, _scarf_faces(ideal._masks))


def _scarf_labeled(ideal: MonomialIdeal, faces: dict[int, int]) -> LabeledComplex:
    # the Scarf complex of the ideal from its faces (``_scarf_faces``)
    names = tuple(str(i + 1) for i in range(len(ideal.generators)))
    covered = {face ^ 1 << k for face in faces for k in _bit_indices(face)}
    complex_ = SimplicialComplex._from_maximal(
        _face(names, face) for face in faces if face not in covered)
    return LabeledComplex._from_ideal(complex_, ideal)
