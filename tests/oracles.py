"""Reference implementations that the library's fast paths are tested against.

The Betti table and the Scarf complex here are the definitions
themselves, exponential in the number of generators t: both enumerate the
lcm of every one of the 2^t generator subsets.  The library computes the
same objects in time that scales with their output (see
``treescarf.resolution``); differential tests compare the two.  The Betti
table is also computed a second way, from the order complexes of intervals
in the lcm lattice, which shares no code with the first.  The tree
support criterion tests connectivity at every lcm-lattice element, where
the library tests only the lcms of vertex pairs.  Plain Gaussian
elimination over Fractions is the reference for the library's
fraction-free rank, and Gauss-Jordan elimination mod p for its rank over
GF(p).  The face set that answers every free-face question by
scanning the vertex universe is the reference for the library's coface
table, and its greedy loop the reference for ``greedy_collapse``.  Trial
division and the Lucas test (which certifies a prime from the factorisation
of p - 1) are the references for the Miller-Rabin test behind ``FieldSpec``.
The Scarf ideals built by monomial products, radicals and exact quotients
are the references for ``treescarf.scarf_ideals``, which builds each
squarefree generator as a set of faces.
"""

from fractions import Fraction
from random import Random
from typing import Mapping, Optional

from treescarf.collapse import CollapseSequence, CollapseStep
from treescarf.complexes import Face, SimplicialComplex, face_key
from treescarf.errors import (BadHError, BoundaryOfSimplexError,
                              DegenerateVertexFacetError)
from treescarf.homology import QQ, FieldSpec, reduced_ranks_from_faces
from treescarf.monomials import UNIT, Monomial, MonomialIdeal
from treescarf.resolution import BettiTable, LabeledComplex
from treescarf.scarf_ideals import face_variable_ring, is_boundary_of_simplex


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


def supports_resolution_tree(labeled: LabeledComplex) -> tuple[bool, Optional[Monomial]]:
    """The tree criterion over the whole lcm lattice: the lexicographically
    first m whose divisor subcomplex is disconnected, one connectivity test
    per lattice element.  Reference for the library's pair-lcm test; the
    input must be a forest."""
    for m in labeled.ideal().lcm_lattice():
        if not labeled.divisor_subcomplex(m).is_connected():
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


class FaceSet:
    """Mutable face set of a complex; every question scans the vertex universe.

    A face has a strict superface iff it has one of codimension 1
    (downward closure), so each question tries one-vertex extensions.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.faces = set(complex_.faces())
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
