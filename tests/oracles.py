"""Reference implementations that the library's fast paths are tested against.

The Betti table and the Scarf complex here are the definitions
themselves, exponential in the number of generators t: both enumerate the
lcm of every one of the 2^t generator subsets.  The library computes the
same objects in time that scales with their output (see
``treescarf.resolution``); differential tests compare the two.  Plain
Gaussian elimination over Fractions is the reference for the library's
fraction-free rank.
"""

from fractions import Fraction

from treescarf.complexes import Face, SimplicialComplex
from treescarf.errors import ScarfClosureError
from treescarf.homology import QQ, FieldSpec, reduced_ranks_from_faces
from treescarf.monomials import Monomial, MonomialIdeal
from treescarf.resolution import BettiTable, LabeledComplex


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


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Faces of the full simplex on the generators whose label is unique.

    Vertices are named by generator position ("1".."t").  Every vertex
    survives (a vertex label equal to another face's label would contradict
    generator minimality) and the surviving face set is downward closed;
    both facts are verified, and a closure failure raises
    ScarfClosureError since it can only mean a logic bug.
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
                raise ScarfClosureError(
                    f"face {sorted(face)} kept but its subface misses {v}")
    for name in names:
        if frozenset({name}) not in kept:
            raise AssertionError("a generator vertex fell out of the Scarf complex")
    maximal = [f for f in kept if not any(f < g for g in kept)]
    complex_ = SimplicialComplex._from_maximal(maximal)
    return LabeledComplex(complex_, dict(zip(names, gens)), ideal.variables)


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
