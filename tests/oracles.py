"""Reference implementations that the library's fast paths are tested against.

The Betti table and the Scarf complex here are the definitions
themselves, exponential in the number of generators t: both enumerate the
lcm of every one of the 2^t generator subsets.  The library computes the
same objects in time that scales with their output (see
``treescarf.resolution``); differential tests compare the two.  The Betti
table is also computed a second way, from the order complexes of intervals
in the lcm lattice, which shares no code with the first.  The tree
support criterion tests connectivity at every lcm-lattice element, where
the library tests only the lcms of vertex pairs, and it builds each
divisor subcomplex from frozensets: the maximal-set filter, the induced
subcomplex and the connectivity test here are the references for the
library's mask versions, which cut facet masks by a vertex mask.  The
general criterion builds each divisor subcomplex as a complex and tests
it with ``is_acyclic``, where the library ranks the parent complex's face
masks inside the divisor vertex mask.  Plain Gaussian
elimination over Fractions is the reference for the library's
fraction-free rank, and Gauss-Jordan elimination mod p for its rank over
GF(p).  The face set that answers every free-face question by
scanning the vertex universe is the reference for the library's coface
table, and its greedy loop the reference for ``greedy_collapse``.  The
library enumerates faces as bitmasks; the frozenset enumeration sorted
by ``face_key`` is the reference for ``faces`` and ``f_vector``, and the
coface table keyed by frozensets, with its replay, the reference for
the coface-bit replay on masks behind ``verify_sequence``, and the
frozenset simplex schedule, joined along the frozenset leaf order, the
reference for the mask schedule of tree certificates.  Trial
division and the Lucas test (which certifies a prime from the factorisation
of p - 1) are the references for the Miller-Rabin test behind ``FieldSpec``.
The Scarf ideals built by monomial products, radicals and exact quotients
are the references for ``treescarf.scarf_ideals``, which builds each
squarefree generator as a set of faces.  The frozenset leaf test, and the
loop that prunes a forest with it one complex at a time, are the
references for the bitmask leaf test and the leaf order of the forest code.
The search for a leafless subcollection over all 2^q - 1 facet subsets,
by increasing size, is the reference for the library's polynomial forest
decision.  The library builds chain complexes and checks minimality on
vertex bitmasks in ``_mask_key`` order; the frozenset chain-complex
builder sorted by ``face_key``, with its ranks, and the frozenset
minimality walk over ``faces`` are their references, as the comparison
of the two face sets is for ``verify_scarf``, and both Betti
table oracles build their chain complexes with it, so they share no
chain-complex code with the library.
"""

import itertools
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, Mapping, Optional

from treescarf.collapse import CollapseSequence, CollapseStep
from treescarf.complexes import Face, SimplicialComplex, face_key, face_sorted, vertex_key
from treescarf.errors import (BadHError, BoundaryOfSimplexError,
                              DegenerateVertexFacetError)
from treescarf.homology import QQ, FieldSpec, HomologyRanks, is_acyclic, rank
from treescarf.monomials import UNIT, Monomial, MonomialIdeal
from treescarf.resolution import BettiTable, LabeledComplex
from treescarf.scarf_ideals import face_variable_ring, is_boundary_of_simplex


def chain_complex_from_faces(faces: Iterable[Face]) -> tuple[dict, dict]:
    """Augmented chain complex of a downward-closed face set, as the pair
    ``(bases, boundaries)``.

    ``bases[d]`` lists the faces of dimension d in canonical order, and
    ``boundaries[d]`` maps dimension d to d-1 with +-1/0 entries, rows
    indexed by ``bases[d-1]`` and columns by ``bases[d]``.  Dimension -1
    holds the empty face whenever any face is given, listed or not, so
    every vertex maps to it with coefficient 1.  No faces at all give
    ``({}, {})``.
    """
    by_dim: dict[int, set[Face]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, set()).add(f)
    if by_dim:
        by_dim[-1] = {frozenset()}
    bases = {d: tuple(sorted(fs, key=face_key)) for d, fs in by_dim.items()}
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in bases.items()}
    boundaries = {}
    for d in bases:
        if d == -1:
            continue
        mat = [[0] * len(bases[d]) for _ in bases[d - 1]]
        for col, face in enumerate(bases[d]):
            for k, v in enumerate(face_sorted(face)):
                mat[index[d - 1][face - {v}]][col] = (-1) ** k
        boundaries[d] = tuple(map(tuple, mat))
    return bases, boundaries


def reduced_ranks_from_faces(faces: Iterable[Face], field: FieldSpec = QQ) -> HomologyRanks:
    """Reduced homology ranks of an explicit face set.

    The face set may contain the empty face.  A set with no faces at all
    (the void complex) has all ranks zero; any other set is augmented,
    which is what makes the answer reduced, so the set containing only the
    empty face has rank 1 in dimension -1.
    """
    bases, boundaries = chain_complex_from_faces(faces)
    if not bases:
        return HomologyRanks(())
    r = {d: rank(mat, field) for d, mat in boundaries.items()}
    return HomologyRanks(tuple(len(bases[d]) - r.get(d, 0) - r.get(d + 1, 0)
                               for d in range(-1, max(bases) + 1)))


def is_minimal(labeled: LabeledComplex) -> tuple[bool, Optional[tuple[Face, Face]]]:
    """No face shares its label with a maximal proper subface.

    Codimension-1 checking suffices: labels divide along inclusions, so an
    equality across any chain forces one at an adjacent step.  Returns the
    first violating (face, subface) pair in canonical face order.
    """
    label: dict = {}
    for face in faces(labeled.complex):
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


def betti_table(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers straight from the definition.

    For each lcm m of generator subsets, the rank in homological position i
    at degree m is the reduced homology rank, in dimension i-1, of the
    subcomplex of the full simplex on the generators spanned by the faces
    whose label *strictly* divides m (the empty face included).
    """
    gens = ideal.generators
    variables = ideal.variables
    t = len(gens)
    names = [str(i + 1) for i in range(t)]
    gvecs = [g.exponent_vector(variables) for g in gens]
    value_faces: dict[tuple, list[Face]] = {}
    subset_vec: list = [None] * (1 << t)
    for mask in range(1, 1 << t):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        vec = gvecs[i] if not rest else tuple(map(max, subset_vec[rest], gvecs[i]))
        subset_vec[mask] = vec
        value_faces.setdefault(vec, []).append(
            frozenset(names[j] for j in range(t) if mask >> j & 1))
    lattice = sorted(value_faces)
    zero = (0,) * len(variables)
    by_degree = {}
    vector: list[int] = []
    for vec in lattice:
        strict = [frozenset()] if vec != zero else []
        for other, fs in value_faces.items():
            if other != vec and all(a <= b for a, b in zip(other, vec)):
                strict.extend(fs)
        ranks = reduced_ranks_from_faces(strict, field)
        column = []
        for i in range(len(ranks.ranks)):
            r = ranks.rank(i - 1)
            column.append(r)
            if r:
                while len(vector) <= i:
                    vector.append(0)
                vector[i] += r
        if any(column):
            m = Monomial(dict(zip(variables, vec)))
            by_degree[m] = tuple(column)
    if not vector:
        vector = [t]  # only for the unit ideal, whose quotient is zero
    elif vector[0] != t:
        raise AssertionError("generator count disagrees with degree ranks")
    return BettiTable(by_degree, tuple(vector))


def betti_table_lcm_lattice(ideal: MonomialIdeal, field: FieldSpec = QQ) -> BettiTable:
    """Multigraded Betti numbers from the lcm lattice (Gasharov, Peeva and
    Welker, "The lcm-lattice in monomial resolutions", 1999).

    The lattice holds the lcm of every subset of generators, the unit
    monomial (the empty subset) as its bottom.  For m above the bottom, the
    rank in homological position i at degree m is the reduced homology
    rank, in dimension i-1, of the order complex of the open interval
    (1, m): the chains of lattice elements strictly between 1 and m, the
    empty chain included.  Shares no code with the Taylor-subcomplex
    definition in ``betti_table``.
    """
    variables = ideal.variables
    bottom = (0,) * len(variables)
    lattice = {bottom}
    for g in ideal.generators:
        vec = g.exponent_vector(variables)
        lattice |= {tuple(map(max, vec, m)) for m in lattice}
    by_degree = {}
    vector: list[int] = []
    for m in sorted(lattice - {bottom}):
        inside = sorted((x for x in lattice if x not in (bottom, m)
                         and all(a <= b for a, b in zip(x, m))), key=sum)
        ranks = reduced_ranks_from_faces(_chains(inside), field)
        column = tuple(ranks.rank(i - 1) for i in range(len(ranks.ranks)))
        if any(column):
            by_degree[Monomial(dict(zip(variables, m)))] = column
        for i, r in enumerate(column):
            if i == len(vector):
                vector.append(0)
            vector[i] += r
    if not vector:
        vector = [len(ideal.generators)]  # only for the unit ideal
    return BettiTable(by_degree, tuple(vector))


def _chains(elements: list) -> list[Face]:
    """Every chain of the componentwise order on ``elements`` (exponent
    vectors sorted so that each comes after all it exceeds), as faces on
    their positions, the empty chain included."""
    faces = []

    def extend(chain):
        faces.append(frozenset(map(str, chain)))
        top = elements[chain[-1]] if chain else None
        for j in range(chain[-1] + 1 if chain else 0, len(elements)):
            if top is None or all(a <= b for a, b in zip(top, elements[j])):
                extend(chain + (j,))

    extend(())
    return faces


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Faces of the full simplex on the generators whose label is unique.

    Vertices are named by generator position ("1".."t").  Every vertex
    survives (a vertex label equal to another face's label would contradict
    generator minimality) and the surviving face set is downward closed;
    both facts are verified, and a closure failure raises
    AssertionError since it can only mean a logic bug.
    """
    gens = ideal.generators
    t = len(gens)
    names = [str(i + 1) for i in range(t)]
    gvecs = [g.exponent_vector(ideal.variables) for g in gens]
    subset_vec: list = [None] * (1 << t)
    counts: dict[tuple, int] = {}
    for mask in range(1, 1 << t):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        vec = gvecs[i] if not rest else tuple(map(max, subset_vec[rest], gvecs[i]))
        subset_vec[mask] = vec
        counts[vec] = counts.get(vec, 0) + 1
    kept = set()
    for mask in range(1, 1 << t):
        if counts[subset_vec[mask]] == 1:
            kept.add(frozenset(names[j] for j in range(t) if mask >> j & 1))
    for face in kept:
        if len(face) < 2:
            continue
        for v in face:
            if face - {v} not in kept:
                raise AssertionError(
                    f"face {sorted(face)} kept but its subface misses {v}")
    for name in names:
        if frozenset({name}) not in kept:
            raise AssertionError("a generator vertex fell out of the Scarf complex")
    maximal = [f for f in kept if not any(f < g for g in kept)]
    complex_ = SimplicialComplex._from_maximal(maximal)
    return LabeledComplex(complex_, dict(zip(names, gens)), ideal.variables)


def verify_scarf(complex_: SimplicialComplex, ideal: MonomialIdeal) -> str:
    """EQUAL, CONTAINS or NEITHER, from the two face sets: the Scarf faces
    renamed positionally to the complex's vertices against its own."""
    rename = {str(i + 1): v for i, v in enumerate(complex_.vertices)}
    scarf_faces = {frozenset(rename[n] for n in f)
                   for f in faces(scarf_complex(ideal).complex)}
    own_faces = set(faces(complex_))
    if scarf_faces == own_faces:
        return "EQUAL"
    if scarf_faces > own_faces:
        return "CONTAINS"
    return "NEITHER"


def maximal(candidates: Iterable[Iterable[str]]) -> tuple[Face, ...]:
    """The distinct candidates not strictly inside another, sorted by
    ``face_key``; reference for the mask filter behind the constructor and
    ``induced``."""
    distinct = set(map(frozenset, candidates))
    return tuple(sorted((f for f in distinct if not any(f < g for g in distinct)),
                        key=face_key))


def induced(complex_: SimplicialComplex, names: Iterable[str]) -> tuple[Face, ...]:
    """The facets of the subcomplex induced on ``names``, sorted by
    ``face_key``: the maximal nonempty cuts of the facets by the names
    that are vertices.  Reference for ``SimplicialComplex.induced``."""
    keep = frozenset(names) & set(complex_.vertices)
    return maximal({f & keep for f in complex_.facets} - {frozenset()})


def is_connected(facets: Iterable[Face]) -> bool:
    """Connectivity of the 1-skeleton of the complex with these facets,
    grown one facet at a time; no facets or one facet count as connected.
    Reference for ``SimplicialComplex.is_connected``."""
    remaining = list(facets)
    if len(remaining) <= 1:
        return True
    component = set(remaining.pop())
    while remaining:
        for i, f in enumerate(remaining):
            if f & component:
                component |= f
                del remaining[i]
                break
        else:
            return False
    return True


def supports_resolution_tree(labeled: LabeledComplex) -> tuple[bool, Optional[Monomial]]:
    """The tree criterion over the whole lcm lattice: the lexicographically
    first m whose divisor subcomplex is disconnected, one connectivity test
    per lattice element, on frozenset facets.  Reference for the library's
    pair-lcm test; the input must be a forest."""
    complex_ = labeled.complex
    for m in labeled.ideal().lcm_lattice():
        names = [v for v in complex_.vertices if labeled.label(v).divides(m)]
        if not is_connected(induced(complex_, names)):
            return False, m
    return True, None


def supports_resolution(labeled: LabeledComplex,
                        field: FieldSpec = QQ) -> tuple[bool, Optional[Monomial]]:
    """The general criterion as stated: the lexicographically first m in
    the lcm lattice whose divisor subcomplex, built as a complex, is not
    acyclic.  Reference for the library's rank test on face masks."""
    for m in labeled.ideal().lcm_lattice():
        if not is_acyclic(labeled.divisor_subcomplex(m), field):
            return False, m
    return True, None


def rank_fraction_gauss(matrix) -> int:
    """Plain Gaussian elimination over Fractions; reference for ``homology.rank``."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n_rows):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, n_cols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
        if r == n_rows:
            break
    return r


def rank_mod_p_gauss(matrix, p: int) -> int:
    """Plain Gauss-Jordan elimination mod p; reference for ``rank`` over GF(p)."""
    rows = [[x % p for x in r] for r in matrix]
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def is_prime_trial_division(p: int) -> bool:
    """Trial division; reference for ``homology._is_prime``."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def is_prime_lucas(p: int, factors_of_p_minus_1: dict) -> bool:
    """Lucas test: p is prime iff some a has order exactly p - 1 modulo p.

    ``factors_of_p_minus_1`` maps each prime q dividing p - 1 to its
    exponent; each q is checked by trial division, so the factors must be
    small enough for it.  Returns False when no base below 200 has full
    order, which for a prime p is vanishingly unlikely.
    """
    product = 1
    for q, e in factors_of_p_minus_1.items():
        if not is_prime_trial_division(q):
            raise ValueError(f"{q} is not prime")
        product *= q ** e
    if product != p - 1:
        raise ValueError("the factors do not multiply to p - 1")
    return any(pow(a, p - 1, p) == 1
               and all(pow(a, (p - 1) // q, p) != 1 for q in factors_of_p_minus_1)
               for a in range(2, 200))


def faces(complex_: SimplicialComplex) -> list[Face]:
    """All nonempty faces: the frozenset subsets of each facet, sorted by
    ``face_key``."""
    found = set()
    for facet in complex_.facets:
        names = face_sorted(facet)
        for r in range(1, len(names) + 1):
            found.update(map(frozenset, itertools.combinations(names, r)))
    return sorted(found, key=face_key)


def f_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by dimension, from ``faces``."""
    counts: dict[int, int] = {}
    for face in faces(complex_):
        counts[len(face) - 1] = counts.get(len(face) - 1, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))


class CofaceTable:
    """Mutable face set of a complex: each present face, the empty face
    included, maps to the frozensets of its present codimension-1 cofaces.

    A face is a facet when it has none, and free when it has exactly one.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.cofaces = {f: set() for f in faces(complex_)}
        if self.cofaces:
            self.cofaces[frozenset()] = set()
        for f in self.cofaces:
            for v in f:
                self.cofaces[f - {v}].add(f)

    def step_violation(self, step: CollapseStep) -> Optional[str]:
        """None when the step is valid now, else the violated condition."""
        free, coface = step.free_face, step.coface
        if not free:
            return "free face must be nonempty"
        if not (free < coface and len(free) == len(coface) - 1):
            return "free face is not a maximal proper face of the coface"
        if coface not in self.cofaces:
            return "coface is not a face of the complex"
        if free not in self.cofaces:
            return "free face is not a face of the complex"
        if self.cofaces[coface]:
            return "coface is not a facet"
        if len(self.cofaces[free]) > 1:
            return "free face lies in more than one facet"
        return None

    def apply(self, step: CollapseStep) -> None:
        for face in (step.coface, step.free_face):
            del self.cofaces[face]
            for v in face:
                self.cofaces[face - {v}].discard(face)

    def to_complex(self) -> SimplicialComplex:
        return SimplicialComplex._from_maximal(
            f for f, up in self.cofaces.items() if not up)


def verify_sequence(complex_: SimplicialComplex,
                    sequence: CollapseSequence) -> tuple[bool, Optional[int]]:
    """Replay a certificate on the frozenset coface table: (True, None),
    or (False, the first invalid step, or len(steps) for a wrong
    terminal)."""
    table = CofaceTable(complex_)
    for i, step in enumerate(sequence.steps):
        if table.step_violation(step) is not None:
            return False, i
        table.apply(step)
    if table.to_complex() != sequence.terminal:
        return False, len(sequence.steps)
    return True, None


def simplex_steps(start: Face, goal: Face) -> Iterator[CollapseStep]:
    """Collapse the full simplex on ``start`` down to the simplex on the
    nonempty proper face ``goal``, on frozenset faces.

    Follows the inductive schedule: with the simplex's vertices ordered
    x_1..x_n so that x_n avoids the goal, first collapse away the maximal
    face missing x_1, then eliminate each remaining maximal face F_i
    (i = 2..n-1) through the cascade of its intersections with earlier
    maximal faces, always paired against the same intersection extended by
    x_1; what is left is the simplex without x_n, and the construction
    recurses.  Each round halves toward the goal, removing exactly two
    faces per step.
    """
    cur = set(start)
    while cur != goal:
        x_last = max(cur - goal, key=vertex_key)
        x = sorted(cur - {x_last}, key=vertex_key) + [x_last]
        n = len(x)
        yield CollapseStep(frozenset(cur - {x[0]}), frozenset(cur))
        for i in range(2, n):
            # subsets of {x_2..x_{i-1}} in binary-counting order
            for code in range(1 << (i - 2)):
                dropped = {x[i - 1]}
                dropped.update(x[b + 1] for b in range(i - 2) if code >> b & 1)
                coface = frozenset(cur - dropped)
                yield CollapseStep(coface - {x[0]}, coface)
        cur.discard(x_last)


class FaceSet:
    """Mutable face set of a complex; every question scans the vertex universe.

    A face has a strict superface iff it has one of codimension 1
    (downward closure), so each question tries one-vertex extensions.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.faces = set(faces(complex_))
        self.universe = set(complex_.vertices)

    def step_violation(self, step: CollapseStep) -> Optional[str]:
        """None when the step is valid now, else the violated condition."""
        free, coface = step.free_face, step.coface
        if not free:
            return "free face must be nonempty"
        if not (free < coface and len(free) == len(coface) - 1):
            return "free face is not a maximal proper face of the coface"
        if coface not in self.faces:
            return "coface is not a face of the complex"
        if free not in self.faces:
            return "free face is not a face of the complex"
        for v in self.universe - coface:
            if coface | {v} in self.faces:
                return "coface is not a facet"
        for v in self.universe - free:
            ext = free | {v}
            if ext != coface and ext in self.faces:
                return "free face lies in more than one facet"
        return None

    def apply(self, step: CollapseStep) -> None:
        self.faces.discard(step.coface)
        self.faces.discard(step.free_face)

    def free_pairs(self) -> list[tuple[Face, Face]]:
        pairs = []
        for free in self.faces:
            exts = [free | {v} for v in self.universe - free if free | {v} in self.faces]
            if len(exts) != 1:
                continue
            coface = exts[0]
            if not any(coface | {v} in self.faces for v in self.universe - coface):
                pairs.append((frozenset(free), frozenset(coface)))
        return sorted(pairs, key=lambda pair: (face_key(pair[0]), face_key(pair[1])))

    def to_complex(self) -> SimplicialComplex:
        maximal = [f for f in self.faces
                   if not any(f | {v} in self.faces for v in self.universe - f)]
        return SimplicialComplex._from_maximal(map(frozenset, maximal))


def is_leaf(complex_: SimplicialComplex, facet) -> tuple[bool, Optional[Face]]:
    """Whether a facet is a leaf, and a joint witnessing it.

    A facet F is a leaf when it is the only facet, or when some other
    facet G contains the whole intersection of F with the rest of the
    complex.  The joint returned is the first eligible facet in the
    canonical facet order (no joint for a lone facet).
    """
    face = frozenset(facet)
    if face not in complex_.facets:
        raise ValueError(f"{sorted(face)} is not a facet")
    others = [g for g in complex_.facets if g != face]
    if not others:
        return True, None
    boundary = frozenset().union(*(face & g for g in others))
    for g in others:
        if boundary <= g:
            return True, g
    return False, None


def first_leaf(complex_: SimplicialComplex) -> Optional[tuple[Face, Optional[Face]]]:
    """The first facet that ``is_leaf`` accepts, with its joint; None when
    the complex is leafless."""
    for f in complex_.facets:
        leaf, joint = is_leaf(complex_, f)
        if leaf:
            return f, joint
    return None


def leaf_order(forest: SimplicialComplex) -> list[tuple[Face, Optional[Face]]]:
    """Prune a forest: take its first leaf, record the joint, drop the leaf
    and start again on the complex of the facets left."""
    order = []
    facets = list(forest.facets)
    while facets:
        leaf, joint = first_leaf(SimplicialComplex(facets))
        order.append((leaf, joint))
        facets.remove(leaf)
    return order


def tree_collapse_certificate(tree: SimplicialComplex) -> CollapseSequence:
    """The tree certificate from ``leaf_order`` and ``simplex_steps``: each
    leaf's simplex onto its intersection with its joint, then the last
    facet onto its first vertex; not replayed."""
    *pruned, (last, _) = leaf_order(tree)
    steps = [s for leaf, joint in pruned for s in simplex_steps(leaf, leaf & joint)]
    point = frozenset({min(last, key=vertex_key)})
    steps.extend(simplex_steps(last, point))
    return CollapseSequence(tuple(steps), SimplicialComplex([point]))


def leafless_subcollection(complex_: SimplicialComplex) -> Optional[tuple[Face, ...]]:
    """The first leafless subcollection by size, then by canonical facet
    order, over all 2^q - 1 facet subsets: a witness of minimum size.  None
    exactly when the complex is a forest."""
    facets = complex_.facets
    for size in range(1, len(facets) + 1):
        for combo in itertools.combinations(facets, size):
            # facets of a complex are an antichain, so every subset is the
            # facet tuple of its own complex, in the same order
            if first_leaf(SimplicialComplex(combo)) is None:
                return combo
    return None


def greedy_collapse(complex_: SimplicialComplex) -> tuple[CollapseSequence, SimplicialComplex]:
    """Apply the first free pair, rescanning every face, until none remain."""
    fs = FaceSet(complex_)
    steps = []
    while True:
        pairs = fs.free_pairs()
        if not pairs:
            break
        free, coface = pairs[0]
        step = CollapseStep(free, coface)
        fs.apply(step)
        steps.append(step)
    residual = fs.to_complex()
    return CollapseSequence(tuple(steps), residual), residual


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
    gens = [Monomial({ring.of_face[f]: 1 for f in faces if v not in f})
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
    full = build_J(complex_)
    reduced = []
    for v in complex_.vertices:
        product = UNIT
        for g in complex_.facets:
            if v in g:
                product = product * Monomial({ring.of_face[g - {v}]: 1})
        for f in complex_.facets:
            if v in f:
                continue
            product = product * Monomial({ring.of_face[f]: 1})
            for w in f:
                product = product * Monomial({ring.of_face[f - {w}]: 1})
        reduced.append(product.radical())
    for m_full, m_red in zip(full.generators, reduced):
        if not m_red.divides(m_full):
            raise AssertionError("a reduced generator does not divide the full one")
    return ring, full.generators, tuple(reduced)


def build_Jprime(complex_: SimplicialComplex) -> MonomialIdeal:
    """The squarefree reduced Scarf ideal."""
    ring, _, reduced = _reduced_parts(complex_)
    return MonomialIdeal(ring.variables, reduced)


def m_double_prime(complex_: SimplicialComplex, vertex: str) -> Monomial:
    """Exact cofactor: full generator of the vertex over the reduced one."""
    if vertex not in complex_.vertices:
        raise KeyError(vertex)
    _, full, reduced = _reduced_parts(complex_)
    i = complex_.vertices.index(vertex)
    return full[i].divide_exact(reduced[i])


def build_intermediate(complex_: SimplicialComplex,
                       h: Optional[Mapping[str, Monomial]] = None) -> MonomialIdeal:
    """Generators h_v * m'_v, where each h_v divides the cofactor m''_v."""
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
