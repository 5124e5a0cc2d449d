"""Elementary collapses and collapsibility certificates.

An elementary collapse removes a *free pair*: a facet together with a
maximal proper face of it that lies in no other facet.  Collapsibility
claims are never returned as bare booleans; they come as an ordered step
sequence that ``verify_sequence`` can replay against the definition, so
every certificate is independently checkable.  A replay looks each face
up in one table of its codimension-1 cofaces, and a tree certificate is
replayed once, against the whole complex.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._frozen import FrozenValue
from .complexes import Face, SimplicialComplex, face_key, vertex_key
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
    free, coface = pair
    return (face_key(free), face_key(coface))


class _FaceSet:
    """Mutable face-set view of a complex while replaying collapses.

    One table maps each present face, the empty face included, to the set
    of its present codimension-1 cofaces.  A face is a facet when it has
    none, and free when it has exactly one (downward closure makes it a facet).
    """

    __slots__ = ("cofaces",)

    def __init__(self, complex_: SimplicialComplex):
        self.cofaces = {f: set() for f in complex_.faces()}
        if self.cofaces:
            self.cofaces[frozenset()] = set()
        for f in self.cofaces:
            for v in f:
                self.cofaces[f - {v}].add(f)

    def step_violation(self, step: CollapseStep) -> str | None:
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

    def free_pairs(self) -> list[tuple[Face, Face]]:
        pairs = [(free, coface) for free, up in self.cofaces.items()
                 if free and len(up) == 1 for coface in up]
        return sorted(pairs, key=_step_key)

    def to_complex(self) -> SimplicialComplex:
        return SimplicialComplex._from_maximal(
            f for f, up in self.cofaces.items() if not up)


def free_pairs(complex_: SimplicialComplex) -> list[tuple[Face, Face]]:
    """All pairs (free face, facet) eligible for an elementary collapse."""
    return _FaceSet(complex_).free_pairs()


def elementary_collapse(complex_: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Remove the step's two faces; raises InvalidStepError when not free."""
    fs = _FaceSet(complex_)
    violation = fs.step_violation(step)
    if violation is not None:
        raise InvalidStepError(violation)
    fs.apply(step)
    return fs.to_complex()


def verify_sequence(complex_: SimplicialComplex,
                    sequence: CollapseSequence) -> tuple[bool, int | None]:
    """Replay a certificate against the definition.

    Returns (True, None) when every step is valid in order and the final
    complex equals ``sequence.terminal``; otherwise (False, i) where i is
    the first invalid step, or len(steps) when only the terminal differs.
    """
    fs = _FaceSet(complex_)
    for i, step in enumerate(sequence.steps):
        if fs.step_violation(step) is not None:
            return False, i
        fs.apply(step)
    if fs.to_complex() != sequence.terminal:
        return False, len(sequence.steps)
    return True, None


def _simplex_steps(start: Face, goal: Face) -> Iterator[CollapseStep]:
    """Collapse the full simplex on ``start`` down to the simplex on the
    nonempty proper face ``goal``.

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


def tree_collapse_certificate(complex_: SimplicialComplex) -> CollapseSequence:
    """A verified collapse of a simplicial tree down to a single point.

    Prunes the tree leaf by leaf, in the order the forest code gives:
    each leaf F is the first in facet order of the facets still left, and
    G is its first joint.  For each, schedules the collapse of the simplex
    on F onto F & G (valid in the whole complex: each face it removes
    sticks out of every other facet left), then collapses the last facet
    to its first vertex.  The joined schedules are replayed once, against
    the whole complex.  The sequence length is (#faces - 1) / 2.

    Raises NotATreeError with the evidence when the input is empty,
    disconnected, or has a leafless subcollection.
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
    steps: list[CollapseStep] = []
    *pruned, (last, _) = complex_._leaf_order()
    for leaf, joint in pruned:
        steps.extend(_simplex_steps(leaf, leaf & joint))
    point = min(last, key=vertex_key)
    if len(last) > 1:
        steps.extend(_simplex_steps(last, frozenset({point})))
    sequence = CollapseSequence(tuple(steps), SimplicialComplex([{point}]))
    ok, bad = verify_sequence(complex_, sequence)
    if not ok:
        raise AssertionError(f"tree collapse certificate failed at step {bad}")
    return sequence


def greedy_collapse(complex_: SimplicialComplex) -> tuple[CollapseSequence, SimplicialComplex]:
    """Apply the first free pair until none remain; heuristic only.

    Steps are taken in lexicographic face order (``_step_key``), so the
    residual is reproducible.  A residual bigger than a point proves
    nothing about non-collapsibility.

    The free pairs wait in a heap.  A step changes the coface sets only of
    the codimension-1 faces of its two removed faces, so only those can
    become free, and only they are pushed; a popped pair that is no longer
    free never becomes free again (coface sets only shrink), so it is
    dropped.  Cost: one scan and sort of the coface table, then per step at
    most 2d heap pushes of O(d log d + log P) each, for facets of at most
    d vertices and at most P pairs in the heap; the rescanning loop that
    sorted the whole table per step is the reference in
    ``tests/oracles.py``.
    """
    from heapq import heappop, heappush  # only this heuristic needs a heap

    fs = _FaceSet(complex_)
    cofaces = fs.cofaces
    # free_pairs() comes sorted by _step_key, so this is already a heap
    heap = [(_step_key(pair), pair) for pair in fs.free_pairs()]
    steps = []
    while heap:
        free, coface = heappop(heap)[1]
        if cofaces.get(free) != {coface}:
            continue
        step = CollapseStep(free, coface)
        fs.apply(step)
        steps.append(step)
        for face in (coface, free):
            for v in face:
                sub = face - {v}
                up = cofaces.get(sub)
                if sub and up is not None and len(up) == 1:
                    pair = (sub, *up)
                    heappush(heap, (_step_key(pair), pair))
    residual = fs.to_complex()
    return CollapseSequence(tuple(steps), residual), residual
