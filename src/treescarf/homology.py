"""Reduced simplicial homology ranks over an exact field.

Everything here is exact: ranks over the rationals come from fraction-free
integer elimination (Bareiss), ranks over GF(p) from modular elimination.
No floating point is used anywhere.

Chain complexes are built on vertex-bitmask faces (``treescarf.complexes``)
with the standard alternating-sign boundary over the bit order, and
augmented to dimension -1 (the empty face 0), which makes homology reduced.

Ranks are taken only after collapsing.  Elementary collapses keep reduced
homology over every field, so ``reduced_ranks_from_faces`` first removes
free pairs from the complex's coface-bit table (``complexes._coface_bits``,
the table collapse certificates replay on) and eliminates only what is
left.  A residual with no face of 3 vertices is a graph, and its ranks
come from counts of vertices, edges and components; so a complex that
collapses to a graph, a point included, needs no elimination.  The dense
elimination of every face is the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import index

from ._frozen import FrozenValue
from .complexes import SimplicialComplex, _bit_indices, _coface_bits, _mask_key, _remove

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= p < _MR_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec(FrozenValue):
    """Coefficient field: characteristic 0 (rationals) or a prime p.

    Primes are certified exactly, so p must lie below 3.3 * 10^24.  A
    characteristic that ``operator.index`` refuses, such as a float,
    raises TypeError.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        c = index(characteristic)
        if c >= _MR_LIMIT:
            raise ValueError(f"characteristic must be below {_MR_LIMIT}, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")
        self._fill(c)


QQ = FieldSpec(0)


# -- exact rank -----------------------------------------------------------------

def rank(matrix, field: FieldSpec = QQ) -> int:
    """Exact rank of a matrix of ints over the field.

    An entry that ``operator.index`` refuses, such as a rational or a
    float, raises TypeError; bools count as ints.  Rows of different
    lengths raise ValueError.
    """
    rows = [list(map(index, r)) for r in matrix]
    if len(set(map(len, rows))) > 1:
        raise ValueError("rank needs rows of equal length")
    if not rows or not rows[0]:
        return 0
    if field.characteristic == 0:
        return _rank_bareiss(rows)
    return _rank_mod_p(rows, field.characteristic)


def _rank_bareiss(m: list[list[int]]) -> int:
    """Bareiss elimination in integers; every division is exact."""
    n_rows = len(m)
    n_cols = len(m[0])
    r = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivval = m[r][c]
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, n_cols):
                row[j] = (pivval * row[j] - f * m[r][j]) // prev
            row[c] = 0
        prev = pivval
        r += 1
        if r == n_rows:
            break
    return r


def _rank_mod_p(m: list[list[int]], p: int) -> int:
    """Gaussian elimination over GF(p), scaling each pivot to 1."""
    rows = [[x % p for x in r] for r in m]
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, n_rows):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


# -- chain complexes ---------------------------------------------------------------

def chain_complex_from_faces(faces: Iterable[int]) -> tuple[dict, dict]:
    """Augmented chain complex of a downward-closed set of face masks, as
    the pair ``(bases, boundaries)``.

    ``bases[d]`` lists the masks of dimension d in ``_mask_key`` order
    (size, then ascending bit indices), and ``boundaries[d]`` maps
    dimension d to d-1 with +-1/0 entries, rows indexed by ``bases[d-1]``
    and columns by ``bases[d]``; dropping the k-th lowest bit of a face
    has sign (-1)^k.  Dimension -1 holds the empty face 0 whenever any
    face is given, listed or not, so every vertex maps to it with
    coefficient 1.  No faces at all give ``({}, {})``.
    """
    by_dim: dict[int, set[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, set()).add(f)
    if by_dim:
        by_dim[-1] = {0}
    bases = {d: tuple(sorted(fs, key=_mask_key)) for d, fs in by_dim.items()}
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in bases.items()}
    boundaries = {}
    for d in bases:
        if d == -1:
            continue
        mat = [[0] * len(bases[d]) for _ in bases[d - 1]]
        for col, face in enumerate(bases[d]):
            for k, i in enumerate(_bit_indices(face)):
                mat[index[d - 1][face ^ 1 << i]][col] = (-1) ** k
        boundaries[d] = tuple(map(tuple, mat))
    return bases, boundaries


# -- homology ranks -----------------------------------------------------------------

class HomologyRanks(FrozenValue):
    """Reduced homology ranks, indexed from dimension -1 upward.

    ``ranks[0]`` is the rank in dimension -1; trailing zeros are stripped,
    so the all-zero answer is the empty tuple.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]):
        rs = tuple(ranks)
        while rs and rs[-1] == 0:
            rs = rs[:-1]
        self._fill(rs)

    def rank(self, dim: int) -> int:
        idx = dim + 1
        if 0 <= idx < len(self.ranks):
            return self.ranks[idx]
        return 0

    def nonzero(self) -> dict[int, int]:
        return {i - 1: r for i, r in enumerate(self.ranks) if r}

    def is_zero(self) -> bool:
        return not self.ranks


def _collapse(table: dict[int, int]) -> None:
    """Remove free pairs from a coface-bit table until none is left.

    Elementary collapses keep reduced homology over every field, and the
    order they come in does not change it, so the pairs come off an
    order-free worklist: first every free face, then after each removal
    the faces whose entries it changed.  A face is checked when it is
    popped, so one that went stale is dropped; a face with one coface
    makes that coface a facet, by downward closure, so the pair is free.
    The empty face is never freed.  Cost: O(N) for N faces to fill the
    worklist, then O(d) per removal for faces of at most d vertices.
    """
    get = table.get
    work = [f for f, up in table.items() if up and not up & (up - 1)]
    while work:
        free = work.pop()
        up = get(free)
        if not (free and up) or up & (up - 1):
            continue
        coface = free | up
        _remove(table, free, coface)
        rest = free
        while rest:
            low = rest & -rest
            work += (coface ^ low, free ^ low)
            rest ^= low


def _graph_ranks(table: dict[int, int]) -> tuple[int, ...]:
    """Reduced ranks of a graph from counts, given its coface-bit table.

    With no vertex left only the empty face remains: rank 1 in dimension
    -1.  Otherwise, with V vertices, E edges and c components, H_0 has
    rank c - 1 and H_1 rank E - V + c, over every field.  The components
    come from a search over the vertex entries, which hold the neighbours.
    """
    left = table[0]  # every vertex extends the empty face
    if not left:
        return (1,)
    edges = sum(f.bit_count() == 2 for f in table)
    vertices = left.bit_count()
    components = 0
    while left:
        components += 1
        reached = left & -left
        while reached:
            left ^= reached
            grown = 0
            for v in _bit_indices(reached):
                grown |= table[1 << v]
            reached = grown & left
    return (0, components - 1, edges - vertices + components)


def reduced_ranks_from_faces(faces: Iterable[int], field: FieldSpec = QQ) -> HomologyRanks:
    """Reduced homology ranks of the complex made of the given face masks
    and all their subfaces.

    The masks may be every face, or only the facets, and may contain the
    empty face 0.  No masks at all (the void complex) give all ranks
    zero; any other set is augmented, which is what makes the answer
    reduced, so the set containing only the empty face has rank 1 in
    dimension -1.  The complex is collapsed first (``_collapse``), and
    only what is left is eliminated.  A residual with no face of 3
    vertices takes no rank at all: it is a graph, answered from counts
    (``_graph_ranks``).  Cost: the coface-bit table (the sum of 2^|F| over
    the facets F, after sorting the masks by size), the collapse, then
    O(N) for a graph residual of N faces, or else one rank per dimension
    of the residual's chain complex.
    """
    table = _coface_bits(sorted(faces, key=int.bit_count, reverse=True))
    _collapse(table)
    if not table:
        return HomologyRanks(())  # the void complex
    if all(f.bit_count() < 3 for f in table):
        return HomologyRanks(_graph_ranks(table))
    bases, boundaries = chain_complex_from_faces(table)
    r = {d: rank(mat, field) for d, mat in boundaries.items()}
    return HomologyRanks(tuple(len(bases[d]) - r.get(d, 0) - r.get(d + 1, 0)
                               for d in range(-1, max(bases) + 1)))


def reduced_homology_ranks(complex_: SimplicialComplex, field: FieldSpec = QQ) -> HomologyRanks:
    """Reduced homology ranks of a complex; the empty complex is all zeros."""
    return reduced_ranks_from_faces(complex_._facet_masks, field)


def is_acyclic(complex_: SimplicialComplex, field: FieldSpec = QQ) -> bool:
    """Empty, or all reduced homology ranks vanish over the field."""
    return complex_.is_empty() or reduced_homology_ranks(complex_, field).is_zero()
