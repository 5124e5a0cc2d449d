"""Finite simplicial complexes over named vertices.

A complex is stored by its facets (the maximal faces); a set is a face
exactly when it is contained in some facet, so faces are only enumerated on
demand.  Public faces (``faces``, ``facets``, witnesses) are frozensets of
vertex-name strings, and the empty face has dimension -1.  Every value is
immutable after construction and every operation is a pure function.  The
face masks and the forest decision are computed once per instance and
kept; each write is idempotent and stores an immutable value, so instances
stay safe to share between threads.

Inside the library a face is a vertex bitmask: bit i stands for the i-th
vertex in canonical order, and 0 is the empty face.  A complex stores
its facets as masks.  This module maps its vertex names to bits
(``_vertex_bits``; ``_face`` maps back), and so do
``collapse._mask_pairs``, which replays a certificate's steps, and
``io._sequence_text``, which writes a certificate.  ``_face_masks`` is
the one face enumeration, over ``_submasks``, the one walk of a facet's
subsets, ``_mask_key`` the one face order (size, then vertex indices:
``face_key`` order), ``_maximal`` the one maximal-set filter and
``_connected`` the one connectivity test.  ``_coface_bits`` is the one
table of which faces are free, and ``_remove`` the one removal of a free
pair from it; collapse certificates and homology ranks both run on them.
Names are built only for public results.

The forest decision deletes good leaves until none is left and shrinks a
complex that does not empty out to a simplicial cycle; it and a forest's
leaf order read one sparse map of the facets that meet (``_incidence``).

The complex with no facets (the *empty complex*) is a legal value: it is
produced by ``SimplicialComplex.empty()`` and by induced subcomplexes, and
is connected and a forest by convention.  It is not a legal constructor
input.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import permutations

from .errors import EmptyFaceError, EmptyInputError

Vertex = str
Face = frozenset


def vertex_key(name: Vertex) -> tuple[int, str]:
    """Sort key for vertex and variable names: length first, then
    lexicographic.

    Keeps numeral names in natural order ("2" before "10").
    """
    return (len(name), name)


def face_sorted(face: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Vertices of a face in canonical order."""
    return tuple(sorted(face, key=vertex_key))


def face_key(face: Iterable[Vertex]):
    """Deterministic sort key for faces: dimension first, then vertex names."""
    names = face_sorted(face)
    return (len(names), tuple(vertex_key(v) for v in names))


def _bit_indices(mask: int) -> list[int]:
    # the vertex indices of a face mask, ascending
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def _submasks(mask: int) -> list[int]:
    # all 2^|mask| submasks of a mask, 0 first: each vertex bit in turn is
    # ORed into the submasks so far, so the walk costs no Python loop step
    # per submask
    subs = [0]
    while mask:
        low = mask & -mask
        mask ^= low
        subs += [*map(low.__or__, subs)]
    return subs


def _mask_key(mask: int) -> tuple[int, list[int]]:
    # face_key order on masks: size, then ascending vertex indices, which
    # follow vertex_key order
    indices = _bit_indices(mask)
    return (len(indices), indices)


def _f_vector(masks: Iterable[int]) -> tuple[int, ...]:
    # face counts by size 1, 2, ... of distinct face masks; the empty face
    # (0), when given, is not counted
    counts = Counter(map(int.bit_count, masks))
    return tuple(counts[size] for size in range(1, max(counts, default=0) + 1))


def _face(vertices: tuple[Vertex, ...], mask: int) -> Face:
    # the named face of a mask over a complex's vertices
    return frozenset(map(vertices.__getitem__, _bit_indices(mask)))


def _maximal(masks: Iterable[int]) -> list[int]:
    # the distinct nonzero masks not inside another, in first-seen order;
    # m lies inside n when m & n == m, which only a larger n can satisfy
    distinct = dict.fromkeys(masks)
    distinct.pop(0, None)
    larger = sorted(distinct, key=int.bit_count, reverse=True)
    sizes = [-n.bit_count() for n in larger]
    return [m for m in distinct
            if m not in map(m.__and__, larger[:bisect_left(sizes, -m.bit_count())])]


def _connected(masks: Iterable[int]) -> bool:
    # whether the nonzero masks chain into one connected union; True for none
    left = [m for m in masks if m]
    component = left[-1] if left else 0
    while left:
        rest = [m for m in left if not m & component]
        if len(rest) == len(left):
            return False
        for m in left:
            component |= m if m & component else 0
        left = rest
    return True


def _coface_bits(masks: Iterable[int]) -> dict[int, int]:
    # the coface-bit table of the complex the masks generate (their
    # submasks): the mask of each face, the empty face (0) included, to the
    # OR of the vertex bits v that extend it to a face: a face is a facet
    # when its entry is 0, and free when the entry is one bit b (downward
    # closure then makes its one coface, face | b, a facet); the popcount
    # is the number of cofaces.  Built mask by mask: the vertices that
    # extend a submask s of a mask F are F ^ s, so each s ORs in F ^ s.  A
    # mask already in the table lies inside one walked before, whose walk
    # gave each of its submasks s a superset of F ^ s, so it is skipped;
    # given larger masks first, the cost is one dict update per subset of
    # each facet F (the sum of 2^|F|) plus one lookup per other mask
    table: dict[int, int] = {}
    get = table.get
    for facet in masks:
        if facet in table:
            continue
        for s in _submasks(facet):
            table[s] = get(s, 0) | facet ^ s
    return table


def _remove(table: dict[int, int], free: int, coface: int) -> None:
    # remove a free pair from a coface-bit table in O(d): the faces that
    # lose a coface are the free face's, and the coface's other
    # codimension-1 faces, one per vertex of the free face, and each loses
    # the bit of that vertex
    del table[coface], table[free]
    rest = free
    while rest:
        low = rest & -rest
        table[coface ^ low] ^= low
        table[free ^ low] ^= low
        rest ^= low


def _as_face(vertices: Iterable[Vertex]) -> Face:
    face = frozenset(vertices)
    for v in face:
        if not isinstance(v, str) or not v:
            raise TypeError(f"vertex names must be nonempty strings, got {v!r}")
    return face


class SimplicialComplex:
    """A finite simplicial complex represented by its facets.

    The constructor accepts any list of candidate facets and discards the
    non-maximal ones, so ``SimplicialComplex([{1,2},{2}])`` has the single
    facet {1,2}.  Facets and vertices are kept in a canonical sorted order,
    which makes equality structural and every derived sequence
    deterministic.
    """

    __slots__ = ("_facets", "_vertices", "_facet_masks", "_masks", "_forest")

    def __init__(self, candidate_facets: Iterable[Iterable[Vertex]]):
        candidates = [_as_face(f) for f in candidate_facets]
        if not candidates:
            raise EmptyInputError("a complex needs at least one facet")
        if not all(candidates):
            raise EmptyFaceError("facets must be nonempty vertex sets")
        self._init_canonical(candidates, _maximal)

    def _init_canonical(self, facets: Iterable[Face], keep=list) -> None:
        # facet masks and facets in _mask_key order; ``keep`` picks the masks
        facets = list(facets)
        self._vertices = tuple(sorted(set().union(*facets), key=vertex_key))
        bits = self._vertex_bits()
        named = {sum(map(bits.__getitem__, f)): f for f in facets}
        self._facet_masks = tuple(sorted(keep(named), key=_mask_key))
        self._facets = tuple(map(named.__getitem__, self._facet_masks))
        self._masks = None
        self._forest = None

    @classmethod
    def _from_maximal(cls, facets: Iterable[Face]) -> "SimplicialComplex":
        # internal: facets already pairwise incomparable, possibly empty
        self = object.__new__(cls)
        self._init_canonical(facets)
        return self

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The complex with no facets."""
        return cls._from_maximal(())

    # -- basic queries ------------------------------------------------------

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    def is_empty(self) -> bool:
        return not self._facets

    def faces(self) -> list[Face]:
        """All nonempty faces in a deterministic order (dimension, then
        vertex names).

        The N face masks (``_face_masks``) sorted by ``_mask_key``, which
        is the ``face_key`` order, and named; O(N d log N) for faces of at
        most d vertices.  Built afresh on every call.
        """
        names = self._vertices
        return [_face(names, m) for m in sorted(self._face_masks(), key=_mask_key)]

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, (f_0, f_1, ...); () for the empty complex.

        Counts the popcounts of the N face masks (``_face_masks``) in
        O(N), so it builds no face list and sorts nothing.
        """
        return _f_vector(self._face_masks())

    def _face_masks(self) -> frozenset[int]:
        # the bitmasks of all nonempty faces, in no order, kept per
        # instance: the submasks of each facet
        if self._masks is None:
            found = set()
            for facet in self._facet_masks:
                found.update(_submasks(facet))
            found.discard(0)
            self._masks = frozenset(found)
        return self._masks

    # -- structural operations ------------------------------------------------

    def induced(self, names: Iterable[Vertex]) -> "SimplicialComplex":
        """Induced subcomplex on a vertex subset: all faces inside it.

        Names outside the vertex set are ignored; callers pass divisor sets
        computed elsewhere.  The result may be disconnected or empty.
        """
        bits = self._vertex_bits()
        keep = sum(map(bits.__getitem__, bits.keys() & set(names)))
        return SimplicialComplex._from_maximal(
            _face(self._vertices, f) for f in _maximal(f & keep for f in self._facet_masks))

    # -- leaves, trees, forests ------------------------------------------------

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton, decided on the facet masks.

        The empty complex and one-vertex complexes count as connected.
        """
        return _connected(self._facet_masks)

    def is_forest(self) -> tuple[bool, tuple[Face, ...] | None]:
        """Whether every nonempty subcollection has a leaf.

        Returns (True, None), or (False, a simplicial cycle): a leafless
        subcollection whose proper subcollections all have leaves, in
        canonical facet order.  The witness is inclusion-minimal, not
        always of minimum size.  Decided in polynomial time by good-leaf
        elimination (see ``_simplicial_cycle``).  It runs once per
        instance: the answer is kept, and as the complex is immutable every
        writer stores the same value.  ``induced`` and the constructor
        return new complexes, which decide afresh.
        """
        if self._forest is None:
            witness = self._simplicial_cycle()
            self._forest = (witness is None, witness)
        return self._forest

    def _simplicial_cycle(self) -> tuple[Face, ...] | None:
        # A good leaf is a leaf of every subcollection that holds it, and
        # every forest has one (Herzog-Hibi-Trung-Zheng 2008), so the
        # complex is a forest exactly when deleting good leaves empties it.
        # Otherwise shrink the stuck core: drop each facet in turn and adopt
        # the stuck core of the rest whenever one is left.  Every facet of
        # the result was dropped once without success, so each proper
        # subcollection is a forest while the whole is not: a simplicial
        # cycle (Caboara-Faridi-Selinger 2007).
        near = _incidence(self._facet_masks)
        core = _stuck_core(near, range(len(near)), range(len(near)))
        if not core:
            return None
        for i in sorted(core):
            if i in core:
                rest = core - {i}
                smaller = _stuck_core(near, rest, [j for j in near[i] if j in rest])
                if smaller:
                    core = smaller
        return tuple(self._facets[i] for i in sorted(core))

    def _leaf_order(self) -> Iterator[tuple[int, int | None]]:
        # yields the (leaf, joint) facet masks pruning a forest to nothing:
        # each leaf is the first facet left whose traces on the others left
        # lie inside one of them, its joint: the first whose trace is their
        # union, or the first other facet left when there are no traces
        masks = self._facet_masks
        near = _incidence(masks)
        left = dict.fromkeys(range(len(masks)))
        while left:
            for i in left:
                row = near[i]
                union = 0
                for j in row:
                    union |= row[j] if j in left else 0
                joint = min((j for j in row if j in left and row[j] == union), default=None)
                if joint is not None or not union:
                    break
            del left[i]
            if not union:  # i is apart from the facets left: the first one joins it
                joint = next(iter(left), None)
            yield masks[i], None if joint is None else masks[joint]

    def _vertex_bits(self) -> dict[Vertex, int]:
        # the bit of each vertex in a face mask; Python ints keep masks
        # exact for any vertex count
        return {v: 1 << i for i, v in enumerate(self._vertices)}

    def is_tree(self) -> bool:
        """Connected and a forest."""
        return self.is_connected() and self.is_forest()[0]

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        inside = ", ".join("{%s}" % ",".join(face_sorted(f)) for f in self._facets)
        return f"SimplicialComplex<{inside}>"


def _incidence(masks) -> list[dict[int, int]]:
    # row i maps each facet j != i that shares a vertex with facet i to
    # masks[i] & masks[j]; built from the facets on each vertex, so it
    # costs the sum of the squared vertex degrees, not q^2
    on: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        for v in _bit_indices(m):
            on.setdefault(v, []).append(i)
    near: list[dict[int, int]] = [{} for _ in masks]
    for around in on.values():
        for i, j in permutations(around, 2):
            near[i][j] = masks[i] & masks[j]
    return near


def _good_leaf(row, live) -> bool:
    # Facet i, with row = near[i], is a good leaf among the facets in
    # `live` when its traces on them form a chain under inclusion
    traces = sorted((row[j] for j in row if j in live), key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(traces, traces[1:]))


def _stuck_core(near, live, pending) -> set[int]:
    # Delete good leaves from the facet indices `live` until none is left.
    # Only the facets in `pending` can be good leaves at the start; after a
    # deletion only the facets in the deleted one's row can become good.
    # A good leaf stays good when any facet is deleted, so the stuck core
    # returned does not depend on the order of deletion.
    live = set(live)
    pending = dict.fromkeys(sorted(pending, reverse=True))
    while pending:
        i = pending.popitem()[0]
        if _good_leaf(near[i], live):
            live.discard(i)
            for j in near[i]:
                if j in live:
                    pending.setdefault(j)
    return live
