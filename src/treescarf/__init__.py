"""Simplicial trees, collapsibility certificates, and Scarf ideals.

The package decides when a labeled simplicial complex supports a (minimal)
free resolution of a monomial ideal, certifies that simplicial trees are
collapsible, and builds Scarf ideals for a given complex, all with exact
arithmetic.
"""

from .collapse import (CollapseSequence, CollapseStep, elementary_collapse,
                       free_pairs, greedy_collapse, tree_collapse_certificate,
                       verify_sequence)
from .complexes import Face, SimplicialComplex, face_key, face_sorted, vertex_key
from .homology import (QQ, ChainComplex, FieldSpec, HomologyRanks, is_acyclic,
                       rank, reduced_homology_ranks)
from .monomials import (UNIT, Monomial, MonomialIdeal, format_monomial, lcm,
                        minimalize, parse_monomial)
from .resolution import (BettiTable, LabeledComplex, betti_table, is_minimal,
                         scarf_complex, supports_resolution,
                         supports_resolution_tree, taylor_complex)
from .scarf_ideals import (FaceVariableRing, ScarfComparison, build_intermediate,
                           build_J, build_Jprime, face_variable_ring,
                           is_boundary_of_simplex, m_double_prime, random_h,
                           verify_scarf)

__all__ = [
    "CollapseSequence", "CollapseStep", "elementary_collapse", "free_pairs",
    "greedy_collapse",
    "tree_collapse_certificate", "verify_sequence",
    "Face", "SimplicialComplex", "face_key", "face_sorted", "vertex_key",
    "QQ", "ChainComplex", "FieldSpec", "HomologyRanks", "is_acyclic", "rank",
    "reduced_homology_ranks",
    "UNIT", "Monomial", "MonomialIdeal", "format_monomial", "lcm",
    "minimalize", "parse_monomial",
    "BettiTable", "LabeledComplex", "betti_table", "is_minimal",
    "scarf_complex", "supports_resolution", "supports_resolution_tree",
    "taylor_complex",
    "FaceVariableRing", "ScarfComparison",
    "build_intermediate", "build_J", "build_Jprime", "face_variable_ring",
    "is_boundary_of_simplex", "m_double_prime", "random_h", "verify_scarf",
]
