"""Simplicial trees, collapsibility certificates, and Scarf ideals.

The package decides when a labeled simplicial complex supports a (minimal)
free resolution of a monomial ideal, certifies that simplicial trees are
collapsible, and builds Scarf ideals for a given complex, all with exact
arithmetic.

Every command runs as its own process, so the package imports nothing up
front: a public name, or a submodule, is imported on first access
(PEP 562), and each command imports the library modules it runs.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "collapse": ("CollapseSequence", "CollapseStep", "elementary_collapse",
                 "free_pairs", "greedy_collapse", "tree_collapse_certificate",
                 "verify_sequence"),
    "complexes": ("Face", "SimplicialComplex", "face_key", "face_sorted",
                  "vertex_key"),
    "homology": ("QQ", "FieldSpec", "HomologyRanks", "is_acyclic", "rank",
                 "reduced_homology_ranks"),
    "monomials": ("UNIT", "Monomial", "MonomialIdeal", "format_monomial", "lcm",
                  "parse_monomial"),
    "resolution": ("BettiTable", "LabeledComplex", "betti_table", "is_minimal",
                   "scarf_complex", "supports_resolution",
                   "supports_resolution_tree"),
    "scarf_ideals": ("FaceVariableRing", "ScarfComparison", "build_intermediate",
                     "build_J", "build_Jprime", "face_variable_ring",
                     "is_boundary_of_simplex", "m_double_prime", "random_h",
                     "verify_scarf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "io"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per module
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
