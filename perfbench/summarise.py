"""Turn the spans of a traced pass into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; spans of one process nest strictly, so the children never
overlap.  ``trace.sizes`` spans hold the time the tracer spent measuring
work counters and count toward no layer.  Each metric sums over every query
of one pass.
"""

from __future__ import annotations

import marshal
from collections import defaultdict
from pathlib import Path

from traced_cli import MODULES

# metric name -> span names whose self time it sums
SELF_TIME = {
    "io.load.s": ("io.load_complex", "io.load_ideal", "io.load_sequence",
                  "io.parse_complex_data", "io.parse_ideal_data",
                  "io.parse_sequence_data"),
    "io.dump.s": ("io.dump_json", "io.complex_to_data", "io.ideal_to_data",
                  "io.sequence_to_data"),
    "complexes.is_forest.s": ("complexes.SimplicialComplex.is_forest",),
    "complexes.is_connected.s": ("complexes.SimplicialComplex.is_connected",),
    "complexes.induced.s": ("complexes.SimplicialComplex.induced",),
    "complexes.faces.s": ("complexes.SimplicialComplex.faces",),
    "collapse.tree_collapse_certificate.s": ("collapse.tree_collapse_certificate",),
    "collapse.collapse_simplex_to_face.s": ("collapse.collapse_simplex_to_face",),
    "collapse.verify_sequence.s": ("collapse.verify_sequence",),
    "collapse.greedy_collapse.s": ("collapse.greedy_collapse",),
    "homology.rank.s": ("homology.rank",),
    "homology.chain_complex_from_faces.s": ("homology.chain_complex_from_faces",),
    "monomials.lcm_lattice.s": ("monomials.MonomialIdeal.lcm_lattice",),
    "monomials.MonomialIdeal.s": ("monomials.MonomialIdeal",),
    "resolution.scarf_complex.s": ("resolution.scarf_complex",),
    "resolution.betti_table.s": ("resolution.betti_table",),
    "resolution.supports_resolution.s": ("resolution.supports_resolution",),
    "resolution.supports_resolution_tree.s": ("resolution.supports_resolution_tree",),
    "resolution.is_minimal.s": ("resolution.is_minimal",),
    "scarf_ideals.build.s": ("scarf_ideals.build_J", "scarf_ideals.build_Jprime",
                             "scarf_ideals.build_intermediate", "scarf_ideals.random_h"),
    "scarf_ideals.verify_scarf.s": ("scarf_ideals.verify_scarf",),
}

# metric name -> span names whose call count it sums
CALLS = {
    "complexes.is_forest.calls": ("complexes.SimplicialComplex.is_forest",),
    "complexes.is_connected.calls": ("complexes.SimplicialComplex.is_connected",),
    "complexes.induced.calls": ("complexes.SimplicialComplex.induced",),
    "complexes.is_leaf.calls": ("complexes.SimplicialComplex.is_leaf",),
    "collapse.collapse_simplex_to_face.calls": ("collapse.collapse_simplex_to_face",),
    "collapse.verify_sequence.calls": ("collapse.verify_sequence",),
    "homology.rank.calls": ("homology.rank",),
    "homology.reduced_ranks_from_faces.calls": ("homology.reduced_ranks_from_faces",),
    "homology.is_acyclic.calls": ("homology.is_acyclic",),
}


class Summary:
    """Accumulates spans over the queries of one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(lambda: [0, 0])
        self.cache_lookups = 0
        self.cache_misses = 0

    def add_file(self, path: Path) -> None:
        with open(path, "rb") as handle:
            _query, spans = marshal.load(handle)
        self.add(spans)

    def add(self, spans) -> None:
        child_time = defaultdict(float)
        names = {}
        for sid, parent, name, start, end, size in spans:
            names[sid] = name
            child_time[parent] += end - start
        for sid, parent, name, start, end, size in spans:
            if name == "trace.sizes":
                continue
            self.self_s[name] += end - start - child_time[sid]
            self.calls[name] += 1
            if size is not None:
                acc = self.sizes[name]
                if isinstance(size, tuple):
                    acc[0] += size[0]
                    acc[1] += size[1]
                else:
                    acc[0] += size
            if names.get(parent) == "resolution.supports_resolution":
                if name == "resolution.LabeledComplex.divisor_subcomplex":
                    self.cache_lookups += 1
                elif name == "homology.is_acyclic":
                    self.cache_misses += 1

    def metrics(self) -> dict:
        """Per-layer values for this pass, keyed by metric name."""
        out = {}
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".")[0] == module)
        for metric, spans in SELF_TIME.items():
            out[metric] = sum(self.self_s.get(n, 0.0) for n in spans)
        for metric, spans in CALLS.items():
            out[metric] = sum(self.calls.get(n, 0) for n in spans)
        rank = self.sizes["homology.rank"]
        out["homology.rank.entries"] = rank[0]
        out["homology.rank.nonzeros"] = rank[1]
        out["collapse.steps"] = (self.sizes["collapse.tree_collapse_certificate"][0]
                                 + self.sizes["collapse.greedy_collapse"][0])
        out["monomials.lattice_size"] = self.sizes["monomials.MonomialIdeal.lcm_lattice"][0]
        kept, subsets = self.sizes["resolution.scarf_complex"]
        out["resolution.scarf_kept_ratio"] = kept / subsets if subsets else 0.0
        out["resolution.acyclic_cache_hit_ratio"] = (
            1 - self.cache_misses / self.cache_lookups if self.cache_lookups else 0.0)
        out["scarf_ideals.face_variables"] = self.sizes["scarf_ideals.face_variable_ring"][0]
        return out
