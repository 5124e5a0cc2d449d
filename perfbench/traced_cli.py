"""Run one treescarf command with every public function timed as a span.

Usage:  python traced_cli.py SPANS_FILE QUERY_ID COMMAND [ARGS...]

Before calling ``treescarf.cli.main`` this script wraps the public functions
of each package module, the public methods of the classes defined there and
a few constructors that do real work.  Every binding of a wrapped function is
replaced, including the copies that ``from ... import`` put into other
modules and the command table in ``cli``, so calls between layers nest as
spans.  A span is ``(id, parent_id, name, start, end, size)``; spans stay in
memory and are written with ``marshal`` as ``(query_id, spans)`` when the
command returns.  ``size`` carries the work counters listed in ``SIZES``,
and the time spent computing them is recorded as a ``trace.sizes`` span so
it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import marshal
import sys
import time

MODULES = ("cli", "io", "complexes", "collapse", "homology", "monomials",
           "resolution", "scarf_ideals")

# Constructors that do work beyond storing fields: facet maximality,
# minimality of generators, the boundary-composition check, the labeled ideal.
CONSTRUCTORS = {"SimplicialComplex", "MonomialIdeal", "ChainComplex", "LabeledComplex"}

# Called once per face or per generator inside the inner loops of the other
# layers; a span there would cost more than the work it measures.
SKIP = {"complexes.vertex_key", "complexes.face_key", "complexes.face_sorted",
        "monomials.Monomial", "monomials.lcm", "monomials.format_monomial"}


def _face_count(facets) -> int:
    seen = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            seen.update(map(frozenset, itertools.combinations(f, r)))
    return len(seen)


def _rank_size(args, result):
    rows = args[0]
    return (sum(len(r) for r in rows), sum(1 for r in rows for x in r if x))


SIZES = {
    "homology.rank": _rank_size,
    "collapse.tree_collapse_certificate": lambda args, r: len(r.steps),
    "collapse.greedy_collapse": lambda args, r: len(r[0].steps),
    "monomials.MonomialIdeal.lcm_lattice": lambda args, r: len(r),
    "resolution.scarf_complex": lambda args, r: (
        _face_count(r.complex.facets), (1 << len(args[0].generators)) - 1),
    "scarf_ideals.face_variable_ring": lambda args, r: len(r.variables),
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.clock = time.perf_counter

    def wrap(self, name, fn):
        size = SIZES.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, None)
            if size is not None:
                t0 = clock()
                measured = size(args, result)
                spans[sid] = (sid, parent, name, start, end, measured)
                spans.append((len(spans), parent, "trace.sizes", t0, clock(), None))
            return result
        return traced

    def install(self, package):
        """Wrap every public function and method, then rebind every copy."""
        replaced = {}
        modules = [getattr(package, m) for m in MODULES]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                qual = f"{short}.{name}"
                if name.startswith("_") or qual in SKIP or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(qual, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(qual, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def _wrap_class(self, qual, cls):
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr == "__init__" and cls.__name__ in CONSTRUCTORS:
                setattr(cls, attr, self.wrap(qual, value))
            elif not attr.startswith("_"):
                setattr(cls, attr, self.wrap(f"{qual}.{attr}", value))


def main(argv) -> int:
    spans_file, query_id, cli_args = argv[0], argv[1], argv[2:]
    import treescarf
    import treescarf.cli
    tracer = Tracer()
    tracer.install(treescarf)
    try:
        code = treescarf.cli.main(cli_args)
    finally:
        with open(spans_file, "wb") as handle:
            marshal.dump((query_id, tracer.spans), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
