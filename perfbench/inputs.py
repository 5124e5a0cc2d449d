"""Seeded input families for the treescarf benchmark.

Everything here is plain Python with no import from the package under test
or from its test suite, so the inputs and the facts the answer checks rely
on are produced independently of the code being measured.  Randomness comes
only from the ``random.Random`` instance a caller passes in.

Complexes are lists of facets, each facet a sorted list of vertex-name
strings.  Ideals are ``(variables, exponent_vectors)`` pairs.
"""

from __future__ import annotations

import itertools
from random import Random


def vertex_key(name: str) -> tuple[int, str]:
    """Canonical vertex order of the file formats: length, then text."""
    return (len(name), name)


def _relabel(facets, rng: Random) -> list[list[str]]:
    """Name the vertices 0..n-1 by a seeded increasing run of numerals.

    The names keep the construction order, so the program's canonical facet
    order, and with it the work of its order-sensitive searches, is the
    same for every seed; the seed still changes every name and the order of
    the facets in the file.
    """
    vertices = sorted({v for f in facets for v in f})
    names = sorted(rng.sample(range(1, 10 * len(vertices)), len(vertices)))
    rename = {v: str(name) for v, name in zip(vertices, names)}
    out = [sorted((rename[v] for v in f), key=vertex_key) for f in facets]
    rng.shuffle(out)
    return out


# -- trees -----------------------------------------------------------------------

def triangle_path(q: int, rng: Random):
    """q triangles {i, i+1, i+2}: a strip in which neighbours share an edge."""
    return _relabel([range(i, i + 3) for i in range(q)], rng)


def facet_chain(q: int, k: int, shared: int, rng: Random):
    """q simplices on k vertices, each sharing ``shared`` vertices with the next."""
    step = k - shared
    return _relabel([range(i * step, i * step + k) for i in range(q)], rng)


def simplex(n: int, rng: Random):
    """The full simplex on n vertices (a single facet)."""
    return _relabel([range(n)], rng)


def attachment_tree(q: int, rng: Random):
    """A random tree with q facets, grown by leaf attachment.

    Each new facet is a proper nonempty subset of an existing facet plus one
    to three fresh vertices.  Attachment alone can close a special cycle, so
    a candidate that fails the nest-point test is drawn again.
    """
    while True:
        facets = [set(range(rng.randint(2, 4)))]
        fresh = len(facets[0])
        while len(facets) < q:
            base = sorted(rng.choice(facets))
            keep = set(rng.sample(base, rng.randint(1, len(base) - 1)))
            grow = rng.choice((1, 1, 2, 2, 3))
            facets.append(keep | set(range(fresh, fresh + grow)))
            fresh += grow
        if is_forest(facets):
            return _relabel(facets, rng)


def tree_on(t: int, q: int, rng: Random):
    """A tree of q triangles on t vertices, grown by leaf attachment.

    Each new triangle keeps one or two vertices of an existing triangle, and
    t fixes how many keep one, so every seed gives the same f-vector
    (t, 3 + 3a + 2b, q) with a = t - q - 2 keeping one and b = q - 1 - a two.
    """
    ones = t - q - 2
    if not 0 <= ones <= q - 1:
        raise ValueError(f"no tree of {q} triangles on {t} vertices")
    while True:
        keeps = [1] * ones + [2] * (q - 1 - ones)
        rng.shuffle(keeps)
        facets = [{0, 1, 2}]
        for keep in keeps:
            base = sorted(rng.choice(facets))
            fresh = len(set().union(*facets))
            facets.append(set(rng.sample(base, keep)) | set(range(fresh, fresh + 3 - keep)))
        if is_forest(facets):
            return _relabel(facets, rng)


def is_forest(facets) -> bool:
    """Nest-point elimination: the facet hypergraph is beta-acyclic.

    A complex is a simplicial forest exactly when its facet hypergraph has
    no special cycle, which holds exactly when vertices can be deleted one
    at a time, each a nest point (its edges form a chain under inclusion).
    """
    edges = [frozenset(f) for f in facets]
    vertices = set().union(*edges)
    while vertices:
        for v in sorted(vertices):
            around = sorted((e for e in edges if v in e), key=len)
            if all(a <= b for a, b in zip(around, around[1:])):
                break
        else:
            return False
        vertices.discard(v)
        edges = [e - {v} for e in edges if e - {v}]
    return True


# -- not trees -----------------------------------------------------------------

def graph_cycle(q: int, rng: Random):
    """The cycle graph C_q; its only leafless subcollection is all q edges."""
    return _relabel([(i, (i + 1) % q) for i in range(q)], rng)


def facet_cycle(m: int, k: int, shared: int, rng: Random):
    """m simplices on k vertices around a circle, neighbours sharing
    ``shared`` vertices and no vertex in three facets (needs k >= 2*shared).

    The whole cycle is the smallest leafless subcollection, and the complex
    is homotopy equivalent to a circle, so no collapse reaches a point.
    """
    step = k - shared
    n = m * step
    return _relabel([[(j * step + r) % n for r in range(k)] for j in range(m)], rng)


# -- monomial ideals ---------------------------------------------------------------

GENERIC_VARIABLES = ("x", "y", "z", "w")


def strongly_generic_ideal(n: int, t: int, rng: Random):
    """t minimal generators in n variables; each variable's exponents are a
    permutation of 1..t, so no two generators share a nonzero exponent.

    Draws again until no generator divides another.
    """
    while True:
        columns = [rng.sample(range(1, t + 1), t) for _ in range(n)]
        if _antichain(columns):
            return list(GENERIC_VARIABLES[:n]), [tuple(col[i] for col in columns)
                                                  for i in range(t)]


def _antichain(columns) -> bool:
    """No generator divides another, given each variable's exponents.

    Exponents of one variable are distinct, so i divides j exactly when j
    is larger in every variable; ``above[i]`` keeps, as a bit mask, the
    generators larger than i in every variable seen so far.
    """
    t = len(columns[0])
    above = [(1 << t) - 1] * t
    for col in columns:
        larger = 0
        for i in sorted(range(t), key=col.__getitem__, reverse=True):
            above[i] &= larger
            larger |= 1 << i
    return not any(above)


def format_monomial(variables, vec) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, vec) if e]
    return "*".join(parts) or "1"


def scarf_facets(vecs) -> list[list[str]]:
    """Scarf complex by definition: generator subsets whose lcm no other
    subset shares.  Vertices are named "1".."t" in generator order."""
    t = len(vecs)
    lcms = [None] * (1 << t)
    subsets: dict = {}
    for mask in range(1, 1 << t):
        low = mask & -mask
        rest = mask ^ low
        vec = vecs[low.bit_length() - 1]
        lcms[mask] = tuple(map(max, lcms[rest], vec)) if rest else vec
        subsets.setdefault(lcms[mask], []).append(mask)
    faces = [frozenset(i for i in range(t) if masks[0] >> i & 1)
             for masks in subsets.values() if len(masks) == 1]
    maximal = [f for f in faces if not any(f < g for g in faces)]
    return sorted(sorted((str(i + 1) for i in f), key=vertex_key) for f in maximal)


# -- face counts --------------------------------------------------------------------

def faces(facets) -> set:
    """Every nonempty face of the complex generated by ``facets``."""
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(map(frozenset, itertools.combinations(f, r)))
    return out


def f_vector(facets) -> list[int]:
    counts: dict[int, int] = {}
    for face in faces(facets):
        counts[len(face) - 1] = counts.get(len(face) - 1, 0) + 1
    return [counts[d] for d in range(max(counts) + 1)]
