"""Seeded random generators for combinatorial test structures.

All randomness flows through an explicit random.Random instance so every
suite is reproducible.
"""

from random import Random

from treescarf import Monomial, SimplicialComplex

RING_VARS = ("x", "y", "z", "u", "v")


def random_tree(rng: Random, max_facets: int = 8, max_vertices: int = 10) -> SimplicialComplex:
    """A random simplicial tree, built by leaf attachment.

    Each new facet takes a proper nonempty subset of one existing facet
    plus fresh vertices, which keeps the complex connected and an
    antichain.  The tree property is confirmed by ``is_tree``, whose forest
    decision is checked against the exhaustive search in oracles.py; a
    failing candidate is resampled (attachment makes this rare).
    """
    while True:
        target_q = rng.randint(1, max_facets)
        first = rng.randint(1, 4) if target_q == 1 else rng.randint(2, 4)
        names = [str(i) for i in range(1, max_vertices + 1)]
        facets = [set(names[:first])]
        used = first
        while len(facets) < target_q and used < max_vertices:
            base = rng.choice([f for f in facets if len(f) >= 2])
            seed = set(rng.sample(sorted(base), rng.randint(1, len(base) - 1)))
            grow = min(max_vertices - used, rng.choice((1, 1, 1, 2, 2, 3)))
            fresh = set(names[used:used + grow])
            used += grow
            facets.append(seed | fresh)
        candidate = SimplicialComplex(facets)
        if candidate.is_tree():
            return candidate


def random_forest(rng: Random, parts: int, max_facets: int = 4,
                  max_vertices: int = 8) -> SimplicialComplex:
    """A disjoint union of ``parts`` random trees on at most max_vertices
    vertices in all."""
    facets, offset = [], 0
    for _ in range(parts):
        tree = random_tree(rng, max_facets=max_facets,
                           max_vertices=max_vertices // parts)
        facets.extend({str(int(v) + offset) for v in f} for f in tree.facets)
        offset += len(tree.vertices)
    return SimplicialComplex(facets)


def random_complex(rng: Random, max_vertices: int = 5) -> SimplicialComplex:
    """A random complex on at most max_vertices vertices."""
    n = rng.randint(1, max_vertices)
    names = [str(i) for i in range(1, n + 1)]
    count = rng.randint(1, 2 * n)
    candidates = []
    for _ in range(count):
        size = rng.randint(1, n)
        candidates.append(rng.sample(names, size))
    return SimplicialComplex(candidates)


def random_monomial(rng: Random, variables, max_exp: int = 3) -> Monomial:
    """A random non-unit monomial with exponents up to max_exp."""
    while True:
        m = Monomial({v: rng.randint(0, max_exp) for v in variables})
        if not m.is_unit():
            return m


def random_label_antichain(rng: Random, size: int, max_vars: int = 5,
                           max_exp: int = 3) -> list[Monomial]:
    """Random monomials with no dividing pair (a minimal generating set).

    The variable count adapts to the requested size so an antichain that
    long exists; candidates incompatible with the ones already drawn are
    rejected, and a stuck batch restarts.
    """
    min_vars = 2 if size <= 4 else (3 if size <= 10 else 4)
    while True:
        variables = RING_VARS[:rng.randint(min(min_vars, max_vars), max_vars)]
        labels: list[Monomial] = []
        stuck = 0
        while len(labels) < size and stuck < 200:
            m = random_monomial(rng, variables, max_exp)
            if any(m.divides(l) or l.divides(m) for l in labels):
                stuck += 1
                continue
            labels.append(m)
        if len(labels) == size:
            return labels
