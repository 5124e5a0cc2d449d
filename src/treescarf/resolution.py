"""Labeled complexes, the support criterion for resolutions, Betti numbers,
and Scarf complexes.

A labeled complex carries a bijection from vertices to the minimal
generators of a monomial ideal; each face is labeled by the lcm of its
vertex labels.  The chain complex of the labeled complex resolves the
quotient by the ideal exactly when every divisor subcomplex is empty or
acyclic, and the resolution is minimal exactly when no two nested faces
share a label.  For forests, acyclicity degrades to connectivity, and only
the lcms of vertex pairs need testing, which is the fast path.

The multigraded Betti numbers of a strongly generic ideal, where no
variable has the same nonzero exponent in two generators, are read off
its Scarf complex, which supports a minimal resolution of every such
ideal (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998): one rank per
face, at the face's label.  Every other ideal takes the lcm-lattice walk,
which is independent of any candidate complex: it takes the
strict-divisor subcomplexes K_{<m} of the full simplex on the
generators, one per element m of the lcm lattice, and replaces each
K_{<m} by the nerve of its cover by maximal simplices, which has the same
reduced homology (nerve theorem), unless that cover has more sets than
K_{<m} has vertices.  The walk is what ``supports --verify`` checks the
table against.  The Scarf complex is grown level by level from its
vertices, using that a subset's lcm is unique exactly when no outside
generator divides it and no codimension-1 subset shares it.  Neither
enumerates the 2^t generator subsets; the definitions that do live in
``tests/oracles.py`` as the reference both are tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._frozen import FrozenValue
from .complexes import Face, SimplicialComplex, face_sorted, vertex_key
from .errors import NotAFaceError, NotAForestError
from .homology import QQ, FieldSpec, is_acyclic, reduced_ranks_from_faces
from .monomials import Monomial, MonomialIdeal, lcm


class LabeledComplex:
    """A simplicial complex with vertices labeled by minimal generators.

    ``variables`` fixes the ring's variable order (defaults to the sorted
    union of label variables); generator order is the complex's vertex
    order.
    """

    __slots__ = ("_complex", "_labels", "_variables", "_ideal")

    def __init__(self, complex_: SimplicialComplex,
                 labels: Mapping[str, Monomial],
                 variables: Iterable[str] | None = None):
        self._complex = complex_
        self._labels = dict(labels)
        if set(self._labels) != set(complex_.vertices):
            raise ValueError("labels must cover exactly the vertex set")
        if variables is None:
            seen = set()
            for m in self._labels.values():
                seen.update(m.variables)
            variables = sorted(seen, key=vertex_key)
        self._variables = tuple(variables)
        self._ideal = MonomialIdeal(
            self._variables,
            [self._labels[v] for v in complex_.vertices])

    @property
    def complex(self) -> SimplicialComplex:
        return self._complex

    @property
    def labels(self) -> dict:
        return dict(self._labels)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def label(self, vertex: str) -> Monomial:
        return self._labels[vertex]

    def ideal(self) -> MonomialIdeal:
        """The ideal generated by the vertex labels, in vertex order."""
        return self._ideal

    def face_label(self, face: Iterable[str]) -> Monomial:
        """lcm of the labels of the face's vertices."""
        f = frozenset(face)
        if not f or not self._complex.has_face(f):
            raise NotAFaceError(f"{sorted(f)} is not a nonempty face")
        return lcm([self._labels[v] for v in f])

    def divisor_subcomplex(self, m: Monomial) -> SimplicialComplex:
        """Subcomplex induced on the vertices whose labels divide m."""
        return self._complex.induced(
            v for v in self._complex.vertices if self._labels[v].divides(m))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}:{self._labels[v]}" for v in self._complex.vertices)
        return f"LabeledComplex({pairs})"


def taylor_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """The full simplex on the generators, labeled positionally 1..t."""
    names = [str(i + 1) for i in range(len(ideal.generators))]
    labels = dict(zip(names, ideal.generators))
    return LabeledComplex(SimplicialComplex([names]), labels, ideal.variables)


def supports_resolution(labeled: LabeledComplex,
                        field: FieldSpec = QQ) -> tuple[bool, Monomial | None]:
    """Whether the labeled complex supports a free resolution of its ideal.

    Checks that the divisor subcomplex is empty or acyclic for every
    monomial; only lcms of generator subsets need checking, because the
    divisor subcomplex of any monomial is reproduced by the lcm of the
    labels dividing it.  On failure returns the lexicographically smallest
    failing degree under the ideal's variable order.  Cost: one acyclicity
    test per element of ``labeled.ideal().lcm_lattice()``.
    """
    for m in labeled.ideal().lcm_lattice():
        if not is_acyclic(labeled.divisor_subcomplex(m), field):
            return False, m
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
    t(t-1)/2 checks and without building the lcm lattice.  Raises
    NotAForestError (with the leafless witness) otherwise, from the
    complex's kept forest decision.
    """
    forest, witness = labeled.complex.is_forest()
    if not forest:
        raise NotAForestError("tree criterion needs a forest", witness=witness)
    ideal = labeled.ideal()
    gens = ideal.generators
    pairs = {g.lcm(h) for i, g in enumerate(gens) for h in gens[i + 1:]}
    for m in sorted(pairs, key=ideal.monomial_key):
        if not labeled.divisor_subcomplex(m).is_connected():
            return False, m
    return True, None


def is_minimal(labeled: LabeledComplex) -> tuple[bool, tuple[Face, Face] | None]:
    """No face shares its label with a maximal proper subface.

    Codimension-1 checking suffices: labels divide along inclusions, so an
    equality across any chain forces one at an adjacent step.  Returns the
    first violating (face, subface) pair in canonical face order.
    """
    label: dict = {}
    for face in labeled.complex.faces():
        names = face_sorted(face)
        if len(names) == 1:
            label[face] = labeled.label(names[0])
            continue
        sub_labels = [(face - {v}, label[face - {v}]) for v in names]
        mine = sub_labels[0][1]
        for _, l in sub_labels[1:]:
            mine = mine.lcm(l)
        label[face] = mine
        for sub, l in sub_labels:
            if l == mine:
                return False, (face, sub)
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


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _nerve(sets: list) -> list[Face]:
    """Index sets of ``sets`` with a nonempty common intersection, plus the
    empty face; grown depth-first, since the family is downward closed."""
    faces: list[Face] = [frozenset()]
    stack = [((j,), s) for j, s in enumerate(sets)]
    while stack:
        idx, common = stack.pop()
        faces.append(frozenset(map(str, idx)))
        for k in range(idx[-1] + 1, len(sets)):
            meet = common & sets[k]
            if meet:
                stack.append((idx + (k,), meet))
    return faces


def _lattice_betti_table(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers, one lcm-lattice element at a time.

    The rank in homological position i at degree m is the reduced homology
    rank, in dimension i-1, of K_{<m}: the faces of the full simplex on
    the generators whose label strictly divides m, the empty face included
    (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998).  Only lcms of
    generator subsets can carry a nonzero rank, so the loop runs over the
    L elements of ``ideal.lcm_lattice()``.

    A subset's lcm falls short of m exactly when all its generators fall
    short of m in some variable x, so K_{<m} is the union of the full
    simplices on A_x = {g | m : deg_x g < deg_x m}.  Any nonempty
    intersection of those simplices is again a simplex, so by the nerve
    theorem (Bjoerner, *Topological methods*, 1995) K_{<m} has the reduced
    homology of the nerve of the maximal A_x, over every field.  The
    nerve of the dual cover, which covers the vertices of K_{<m} by the
    maximal A_x each lies in, is K_{<m} itself; it is used when it has
    fewer sets.  With r distinct maximal A_x and |G_m| generators
    dividing m, the nerve then has at most 2^min(r, |G_m|) faces (r
    alone can reach C(|G_m|, |G_m|/2) when there are more variables than
    generators).  Cost: L * (t*n + r*|G_m| + nerve size) plus the rank
    computations on the nerves.  The 2^t definition is kept as a test
    oracle in ``tests/oracles.py``.  Serves every ideal that is not
    strongly generic, and checks the Scarf route under ``supports --verify``.
    """
    gens = ideal.generators
    variables = ideal.variables
    t = len(gens)
    gvecs = [g.exponent_vector(variables) for g in gens]
    by_degree = {}
    vector: list[int] = []
    for m in ideal.lcm_lattice():
        vec = ideal.monomial_key(m)
        if not any(vec):
            continue  # only the unit ideal has this degree, and nothing below it
        below = [g for g in gvecs if _divides(g, vec)]
        covers = dict.fromkeys(
            frozenset(i for i, g in enumerate(below) if g[x] < e)
            for x, e in enumerate(vec) if e)
        covers.pop(frozenset(), None)
        maximal = [a for a in covers if not any(a < b for b in covers)]
        if len(maximal) > len(below):
            # Every g in below falls short of m in some variable (g = m
            # would leave maximal empty), so no dual set is empty.
            maximal = [frozenset(j for j, a in enumerate(maximal) if i in a)
                       for i in range(len(below))]
        column = reduced_ranks_from_faces(_nerve(maximal), field).ranks
        for i, r in enumerate(column):
            if r:
                while len(vector) <= i:
                    vector.append(0)
                vector[i] += r
        if column:
            by_degree[m] = column
    if not vector:
        vector = [t]  # only for the unit ideal, whose quotient is zero
    elif vector[0] != t:
        raise AssertionError("generator count disagrees with degree ranks")
    return BettiTable(by_degree, tuple(vector))


def _strongly_generic(gvecs: list) -> bool:
    """No variable has the same nonzero exponent in two generators."""
    for column in zip(*gvecs):
        nonzero = [e for e in column if e]
        if len(set(nonzero)) != len(nonzero):
            return False
    return True


def betti_table(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers of the quotient by the ideal.

    ``by_degree`` lists its degrees in lexicographic order under the
    ideal's variable order.  For t generators in n variables there are two
    routes, chosen by an O(t*n) test:

    - A strongly generic ideal other than the unit ideal: the Scarf
      complex supports its minimal resolution over every field
      (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998),
      so each face F of ``scarf_complex(ideal)`` gives one rank, in
      homological position |F| - 1 at its label, and ``vector`` is the
      f-vector.  Cost: that of ``scarf_complex``, O(t*n) per candidate
      face, plus sorting the faces by label.
    - Every other ideal: the lcm-lattice walk, one reduced homology rank
      computation per lattice element (``_lattice_betti_table``).
    """
    gens = ideal.generators
    gvecs = [g.exponent_vector(ideal.variables) for g in gens]
    # by minimality, the unit ideal is the one whose first generator is 1
    if gens[0].is_unit() or not _strongly_generic(gvecs):
        return _lattice_betti_table(ideal, field)
    faces = _scarf_faces(gvecs)
    vector = [0] * max(map(len, faces))
    by_degree = {}
    # a face's lcm vector is its label's key under ideal.monomial_key
    for face, vec in sorted(faces.items(), key=lambda item: item[1]):
        vector[len(face) - 1] += 1
        by_degree[Monomial(zip(ideal.variables, vec))] = (0,) * (len(face) - 1) + (1,)
    return BettiTable(by_degree, tuple(vector))


def _scarf_faces(gvecs: list) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every face of the Scarf complex, as increasing generator positions,
    mapped to its lcm exponent vector; grown level by level (see
    ``scarf_complex``), so faces come in order of size."""
    t = len(gvecs)
    level = {(i,): g for i, g in enumerate(gvecs)}
    faces = {}
    while level:
        faces.update(level)
        grown = {}
        for face, vec in level.items():
            for w in range(face[-1] + 1, t):
                cand = face + (w,)
                if any(cand[:k] + cand[k + 1:] not in level
                       for k in range(len(face))):
                    continue
                m = tuple(map(max, vec, gvecs[w]))
                if not any(_divides(g, m) for u, g in enumerate(gvecs)
                           if u not in cand):
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
    minimality.  Cost: O(t*n) per candidate, and there are at most t
    candidates per kept face.  The 2^t definition is kept as a test oracle
    in ``tests/oracles.py``.
    """
    gens = ideal.generators
    names = [str(i + 1) for i in range(len(gens))]
    faces = _scarf_faces([g.exponent_vector(ideal.variables) for g in gens])
    covered = {face[:k] + face[k + 1:] for face in faces for k in range(len(face))}
    complex_ = SimplicialComplex._from_maximal(
        frozenset(names[i] for i in face) for face in faces if face not in covered)
    return LabeledComplex(complex_, dict(zip(names, gens)), ideal.variables)
