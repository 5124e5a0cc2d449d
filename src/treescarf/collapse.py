"""Elementary collapses and collapsibility certificates.

An elementary collapse removes a *free pair*: a facet together with a
maximal proper face of it that lies in no other facet.  Collapsibility
claims are never returned as bare booleans; they come as an ordered step
sequence that ``verify_sequence`` can replay against the definition, so
every certificate is independently checkable.

Faces here are vertex bitmasks (see ``treescarf.complexes``).  One table
answers every "is this face free?" question: it maps each present face to
the OR of the vertex bits that extend it to a present face, so an entry of
0 marks a facet and an entry of one bit b a free face whose coface is
face | b.  Every replay, of a tree certificate, of a certificate read back
from a file, of one elementary collapse or of each greedy step, is the one
routine ``_replay`` on that table, which ``complexes._coface_bits`` builds
from the facet masks: a face s inside a facet F is extended by the
vertices of F ^ s.  The same table and its one removal step,
``complexes._remove``, serve the homology ranks, which collapse in any
order; here the order of the steps is part of the output.  A tree
certificate is scheduled as mask pairs and replayed once, against the
whole complex; the greedy collapse applies its pairs one at a time as a
heap hands them out.  Frozenset faces are built only for the public
results; the ``collapse`` command lays out certificate text straight from
the masks (``io._certificate_text``), and ``verify-collapse`` echoes the
certificate it reads through the same layout, from the masks its replay
ran on: ``_mask_pairs`` is the one encoder of a certificate's names.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._frozen import FrozenValue
from .complexes import (Face, SimplicialComplex, _coface_bits, _face, _mask_key,
                        _remove, vertex_key)
from .errors import InvalidStepError, NotATreeError


class CollapseStep(FrozenValue):
    """One elementary collapse: remove ``coface`` and its free face."""

    __slots__ = ("free_face", "coface")

    def __init__(self, free_face: Face, coface: Face):
        self._fill(free_face, coface)


class CollapseSequence(FrozenValue):
    """Ordered collapse steps and the complex they are claimed to reach."""

    __slots__ = ("steps", "terminal")

    def __init__(self, steps: tuple[CollapseStep, ...], terminal: SimplicialComplex):
        self._fill(steps, terminal)


def _step_key(pair):
    # face_key order on (free, coface) mask pairs
    return _mask_key(pair[0]) + _mask_key(pair[1])


def _named(vertices: tuple[str, ...], pairs: list[tuple[int, int]],
           left: list[int]) -> CollapseSequence:
    # the sequence of (free, coface) mask pairs that leaves the facet masks
    # ``left``, named over a complex's vertices
    steps = tuple(CollapseStep(_face(vertices, free), _face(vertices, coface))
                  for free, coface in pairs)
    return CollapseSequence(
        steps, SimplicialComplex._from_maximal(_face(vertices, f) for f in left))


def _mask_pairs(complex_: SimplicialComplex, steps, terminal=()):
    # the one encoder of a certificate: numbers the complex's vertices and
    # the names of the steps and terminal facets together, in vertex_key
    # order, and returns those names and, over them, the facet masks, the
    # (free, coface) mask pairs and the terminal masks.  A name outside the
    # complex is in no facet, so no face that holds it is present
    faces = (face for s in steps for face in (s.free_face, s.coface))
    names = tuple(sorted(set(complex_.vertices).union(*faces, *terminal),
                         key=vertex_key))
    bit = {v: 1 << i for i, v in enumerate(names)}.__getitem__

    def mask(face):
        return sum(map(bit, face))

    pairs = [(mask(s.free_face), mask(s.coface)) for s in steps]
    return names, list(map(mask, complex_.facets)), pairs, list(map(mask, terminal))


def _replay(table: dict[int, int], pairs: list[tuple[int, int]],
            terminal: set[int] | None = None) -> tuple[int, str] | None:
    """Apply (free, coface) mask pairs to a coface-bit table, in order.

    Every step is checked against six conditions, in this order: the free
    face is nonempty, it is a maximal proper face of the coface, the
    coface is present, the free face is present, the coface is a facet,
    and the free face lies in no other facet.  A valid step removes both
    faces in O(d) (``_remove``).  Returns None when every step is valid
    and, when ``terminal`` (a set of facet masks) is given,
    the facets left are exactly those; else (i, violation) for the first
    invalid step i, or (len(pairs), violation) when only the terminal
    differs.  An invalid step leaves the table as it was before that
    step; otherwise ``table`` is left in the state the replay reached.
    """
    get = table.get
    for i, (free, coface) in enumerate(pairs):
        if not free:
            return i, "free face must be nonempty"
        if free & ~coface or (coface ^ free).bit_count() != 1:
            return i, "free face is not a maximal proper face of the coface"
        up = get(coface)
        if up is None:
            return i, "coface is not a face of the complex"
        down = get(free)
        if down is None:
            return i, "free face is not a face of the complex"
        if up:
            return i, "coface is not a facet"
        if down & (down - 1):
            return i, "free face lies in more than one facet"
        _remove(table, free, coface)
    if terminal is not None and {f for f, up in table.items() if not up} != terminal:
        return len(pairs), "the faces left are not the terminal complex"
    return None


def _free_pairs(table: dict[int, int]) -> list[tuple[int, int]]:
    # the (free, coface) mask pairs eligible now, in _step_key order
    pairs = [(free, free | up) for free, up in table.items()
             if free and up and not up & (up - 1)]
    return sorted(pairs, key=_step_key)


def free_pairs(complex_: SimplicialComplex) -> list[tuple[Face, Face]]:
    """All pairs (free face, facet) eligible for an elementary collapse."""
    vertices = complex_.vertices
    return [(_face(vertices, free), _face(vertices, coface))
            for free, coface in _free_pairs(_coface_bits(complex_._facet_masks))]


def elementary_collapse(complex_: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove the step's two faces; raises InvalidStepError when not free."""
    names, facets, pairs, _ = _mask_pairs(complex_, (step,))
    table = _coface_bits(facets)
    bad = _replay(table, pairs)
    if bad is not None:
        raise InvalidStepError(bad[1])
    return SimplicialComplex._from_maximal(
        _face(names, f) for f, up in table.items() if not up)


def _first_violation(complex_: SimplicialComplex, sequence: CollapseSequence):
    # the replay of a named certificate: its encoding (names, mask pairs,
    # terminal masks) and None, or (first bad step, violation)
    names, facets, pairs, terminal = _mask_pairs(complex_, sequence.steps,
                                                 sequence.terminal.facets)
    return (names, pairs, terminal), _replay(_coface_bits(facets), pairs, set(terminal))


def verify_sequence(complex_: SimplicialComplex,
                    sequence: CollapseSequence) -> tuple[bool, int | None]:
    """Replay a certificate against the definition.

    Returns (True, None) when every step is valid in order and the final
    complex equals ``sequence.terminal``; otherwise (False, i) where i is
    the first invalid step, or len(steps) when only the terminal differs.
    Every step is checked against all six conditions of ``_replay``; the
    steps' names become vertex bitmasks first (``_mask_pairs``), in one
    numbering of the complex's vertices and the names outside it, sorted
    by ``vertex_key``, so no face that holds an outside name is present
    and every name must be a string.  Cost: one sort of the n names, one
    dict update per subset of each facet F (the sum of 2^|F|) to build
    the coface-bit table, then O(d) per step for faces of at most d
    vertices.
    """
    bad = _first_violation(complex_, sequence)[1]
    return (True, None) if bad is None else (False, bad[0])


def _simplex_steps(start: int, goal: int) -> Iterator[tuple[int, int]]:
    """(free, coface) mask pairs collapsing the full simplex on ``start``
    down to the simplex on its nonempty face ``goal``.

    Follows the inductive schedule: with the simplex's vertices ordered
    x_1..x_n by bit, except that x_n, the top bit outside the goal, goes
    last, first collapse away the maximal face missing x_1, then eliminate
    each remaining maximal face F_i (i = 2..n-1), the one missing x_i,
    through the cascade of its intersections with earlier maximal faces,
    always paired against the same intersection extended by x_1; what is
    left is the simplex without x_n, and the construction recurses.  The
    vertices dropped besides x_i run through the subsets of x_2..x_{i-1}
    as submasks in increasing order, ``s = (s - span) & span``, which is
    binary counting.  Each step removes exactly two faces.
    """
    cur = start
    while cur != goal:
        rest = cur ^ (1 << ((cur & ~goal).bit_length() - 1))  # drop x_n
        first = rest & -rest
        yield cur ^ first, cur
        middle = rest ^ first
        span = 0
        while middle:
            low = middle & -middle  # x_i
            middle ^= low
            top = cur ^ low
            s = 0
            while True:
                coface = top ^ s
                yield coface ^ first, coface
                s = (s - span) & span
                if not s:
                    break
            span |= low
        cur = rest


def _tree_steps(complex_: SimplicialComplex,
                table: dict[int, int] | None = None) -> tuple[list[tuple[int, int]], int]:
    """The verified (free, coface) mask pairs that collapse a simplicial
    tree to a point, and the mask of that point.

    Prunes the tree leaf by leaf, in the order the forest code gives:
    each leaf F is the first in facet order of the facets still left, and
    G is its first joint.  For each, schedules the collapse of the simplex
    on F onto F & G (valid in the whole complex: each face it removes
    sticks out of every other facet left), then collapses the last facet
    to its first vertex.  The joined schedules are replayed once, against
    the whole complex, terminal included, on ``table``: the complex's
    ``_coface_bits``, which the replay consumes, built here when not
    given.  There are (#faces - 1) / 2 pairs.

    The input must be a simplicial tree: callers decide that first, once.
    """
    pairs: list[tuple[int, int]] = []
    *pruned, (last, _) = complex_._leaf_order()
    for leaf, joint in pruned:
        pairs.extend(_simplex_steps(leaf, leaf & joint))
    point = last & -last
    pairs.extend(_simplex_steps(last, point))
    if table is None:
        table = _coface_bits(complex_._facet_masks)
    bad = _replay(table, pairs, {point})
    if bad is not None:
        raise AssertionError(f"tree collapse certificate failed at step {bad[0]}")
    return pairs, point


def tree_collapse_certificate(complex_: SimplicialComplex) -> CollapseSequence:
    """A verified collapse of a simplicial tree down to a single point.

    The steps of ``_tree_steps``, which schedules them leaf by leaf and
    replays them once against the whole complex, named.  Raises
    NotATreeError with the evidence when the input is empty, disconnected,
    or has a leafless subcollection.
    """
    if complex_.is_empty():
        raise NotATreeError("the empty complex cannot collapse to a point",
                            reason="empty")
    if not complex_.is_connected():
        raise NotATreeError("complex is not connected", reason="disconnected")
    forest, witness = complex_.is_forest()
    if not forest:
        raise NotATreeError("complex has a leafless subcollection",
                            witness=witness)
    pairs, point = _tree_steps(complex_)
    return _named(complex_.vertices, pairs, [point])


def _greedy_steps(complex_: SimplicialComplex) -> tuple[list[tuple[int, int]], list[int]]:
    """The (free, coface) mask pairs of the greedy collapse, and the masks
    of the facets left, in ``_mask_key`` order.

    The free pairs wait in a heap, keyed by ``_step_key``.  A step changes
    the coface bits only of the codimension-1 faces of its two removed
    faces, so only those can become free, and only they are pushed.  Each
    popped pair is applied with ``_replay``, which refuses it exactly when
    it went stale: a face with one coface makes that coface a facet, so
    the six checks pass just when the free face still has the one coface
    it was pushed with.  A refused pair never becomes free again (faces
    only go), so it is dropped.  Cost: the sum of 2^|F| over the facets F
    to build the table of N faces of at most d vertices, one scan and sort
    of it, then per step O(d) to apply it and at most 2d heap pushes of
    O(d log d + log P) each, for at most P pairs in the heap.
    """
    from heapq import heappop, heappush  # only this heuristic needs a heap

    table = _coface_bits(complex_._facet_masks)
    get = table.get
    # _free_pairs comes sorted by _step_key, so this is already a heap
    heap = [(_step_key(pair), pair) for pair in _free_pairs(table)]
    taken = []
    while heap:
        pair = heappop(heap)[1]
        if _replay(table, [pair]) is not None:
            continue
        taken.append(pair)
        for face in pair:
            rest = face
            while rest:
                low = rest & -rest
                rest ^= low
                sub = face ^ low
                up = get(sub)
                if sub and up and not up & (up - 1):
                    freed = (sub, sub | up)
                    heappush(heap, (_step_key(freed), freed))
    return taken, sorted((f for f, up in table.items() if not up), key=_mask_key)


def greedy_collapse(complex_: SimplicialComplex) -> tuple[CollapseSequence, SimplicialComplex]:
    """Apply the first free pair until none remain; heuristic only.

    Steps are taken in lexicographic face order (``_step_key``), so the
    residual is reproducible.  A residual bigger than a point proves
    nothing about non-collapsibility.  The steps and residual of
    ``_greedy_steps``, named; the rescanning loop that sorted the whole
    face set per step is the reference in ``tests/oracles.py``.  Cost:
    that of ``_greedy_steps`` (the sum of 2^|F| over the facets F for the
    table, then per step O(d) and at most 2d heap pushes, for faces of at
    most d vertices), plus O(d) per step to name it.
    """
    sequence = _named(complex_.vertices, *_greedy_steps(complex_))
    return sequence, sequence.terminal
