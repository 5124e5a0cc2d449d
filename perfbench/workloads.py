"""The three benchmark workloads: seeded input files and their query lists.

A workload is a fixed ladder of input sizes.  The seed picks vertex names,
the facet order in each file, the shapes of the random trees, the prime of
a field and the seed of the intermediate Scarf family; it leaves alone what
moves the amount of work (see README.md), so every seed costs about the
same.  ``build`` returns the files to write before timing starts and the
queries of one pass, in the order they run.  Each query carries what its
answer check needs, all of it derived from how the input was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

import inputs

WORKLOADS = ("trees", "cycles", "scarf")


@dataclass
class Query:
    """One CLI command; ``argv`` follows ``python -m treescarf.cli``."""

    qid: str
    check: str
    argv: list
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    files: dict
    queries: list


# Size ladders.  "full" is what the benchmark measures; "tiny" keeps every
# query kind but shrinks sizes so the smoke test finishes in seconds.
LADDERS = {
    "full": {
        "triangle_path": (12, 14, 16, 18),
        "facet_chain": (14, 16, 18, 19),
        "simplex": (10, 11, 12),
        "attachment_tree": (12, 14, 15, 16),
        "graph_cycle": (14, 15, 16, 17, 18, 17, 18, 18),
        "facet_cycle": (6, 7, 8),
        # (variables, generators)
        "generic": ((3, 8), (4, 8), (4, 8), (4, 9), (4, 9)),
        "scarf": (("J", 11, 6), ("J", 14, 7), ("J", 16, 9),
                  ("Jprime", 12, 6), ("Jprime", 15, 8),
                  ("intermediate", 9, 5), ("intermediate", 9, 5),
                  ("intermediate", 9, 5)),
    },
    "tiny": {
        "triangle_path": (4,),
        "facet_chain": (4,),
        "simplex": (4,),
        "attachment_tree": (4,),
        "graph_cycle": (5,),
        "facet_cycle": (4,),
        "generic": ((3, 4),),
        "scarf": (("J", 5, 2), ("Jprime", 5, 2), ("intermediate", 5, 2)),
    },
}


def _complex_file(files, name, facets):
    files[name] = {"facets": facets}
    return name


def _tree_queries(name, facets, files, queries):
    path = _complex_file(files, f"{name}.json", facets)
    expect = {"facets": facets, "f_vector": inputs.f_vector(facets)}
    queries.append([Query(f"{name}-check", "tree_check", ["check", path], expect),
                    Query(f"{name}-collapse", "tree_collapse",
                          ["collapse", path, "--out", f"{name}.cert.json"],
                          dict(expect, certificate=f"{name}.cert.json"))])


def _trees(ladder, rng, files, groups):
    for q in ladder["triangle_path"]:
        _tree_queries(f"tri{q}", inputs.triangle_path(q, rng), files, groups)
    for q in ladder["facet_chain"]:
        _tree_queries(f"chain{q}", inputs.facet_chain(q, 6, 2, rng), files, groups)
    for n in ladder["simplex"]:
        _tree_queries(f"simplex{n}", inputs.simplex(n, rng), files, groups)
    for q in ladder["attachment_tree"]:
        _tree_queries(f"attach{q}", inputs.attachment_tree(q, rng), files, groups)


def _cycles(ladder, rng, files, groups):
    for i, q in enumerate(ladder["graph_cycle"]):
        facets = inputs.graph_cycle(q, rng)
        path = _complex_file(files, f"cycle{i}-{q}.json", facets)
        groups.append([Query(f"cycle{i}-{q}-check", "cycle_check", ["check", path],
                             {"witness": facets, "f_vector": inputs.f_vector(facets)})])
    for i, k in enumerate(ladder["facet_cycle"]):
        facets = inputs.facet_cycle(3, k, 2, rng)
        path = _complex_file(files, f"ring{i}-{k}.json", facets)
        groups.append([Query(f"ring{i}-{k}-collapse", "cycle_collapse",
                             ["collapse", path], {"facets": facets})])
    for i, (n, t) in enumerate(ladder["generic"]):
        # The cost of a Betti table varies up to fourfold between random
        # ideals of one shape, and as much with the order of the generators,
        # so each ladder entry draws its ideal from a fixed seed.
        variables, vecs = inputs.strongly_generic_ideal(n, t, Random(f"generic:{i}"))
        ideal = f"generic{i}.json"
        files[ideal] = {"variables": variables,
                        "generators": [inputs.format_monomial(variables, v) for v in vecs]}
        scarf = inputs.scarf_facets(vecs)
        complex_ = _complex_file(files, f"generic{i}.scarf.json", scarf)
        expect = {"facets": scarf, "f_vector": inputs.f_vector(scarf)}
        prime = rng.choice((2, 3, 5, 7))
        groups.append([
            Query(f"generic{i}-scarf", "generic_scarf", ["scarf", ideal], expect),
            Query(f"generic{i}-supports", "generic_supports",
                  ["supports", complex_, ideal], expect),
            Query(f"generic{i}-betti0", "generic_betti", ["betti", ideal], expect),
            Query(f"generic{i}-betti{prime}", "generic_betti",
                  ["betti", ideal, "--field", str(prime)], expect),
        ])


def _scarf(ladder, rng, files, groups):
    for i, (variant, t, q) in enumerate(ladder["scarf"]):
        facets = inputs.tree_on(t, q, rng)
        name = f"built{i}-{variant}{t}"
        path = _complex_file(files, f"{name}.json", facets)
        out = f"{name}.ideal.json"
        build = ["build-scarf", path, "--variant", variant, "--out", out]
        if variant == "intermediate":
            build += ["--seed", str(rng.randrange(1 << 16))]
        expect = {"facets": facets, "f_vector": inputs.f_vector(facets),
                  "variant": variant}
        groups.append([
            Query(f"{name}-build", "built_ideal", build, expect),
            Query(f"{name}-scarf", "built_scarf", ["scarf", out], expect),
            Query(f"{name}-betti", "built_betti", ["betti", out], expect),
        ])


def build(workload: str, seed: int, scale: str = "full") -> Plan:
    """Input files and one pass of queries for a workload and seed."""
    rng = Random(f"{workload}:{seed}")
    files: dict = {}
    groups: list = []
    {"trees": _trees, "cycles": _cycles, "scarf": _scarf}[workload](
        LADDERS[scale], rng, files, groups)
    # Groups keep a command next to the ones that read its output files.
    rng.shuffle(groups)
    return Plan(files, [q for g in groups for q in g])
