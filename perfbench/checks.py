"""Answer checks for benchmark queries, run outside the timed region.

Every expectation follows from how the input was built (see ``inputs``),
never from the package under test:

* trees are trees, and a collapse certificate to a point has
  (#faces - 1) / 2 steps and replays by the definition of a free pair;
* a cycle's only leafless subcollection is the whole planted cycle, and a
  complex shaped like a circle never collapses to a point;
* the Scarf complex of a strongly generic ideal supports its minimal
  resolution (Bayer-Peeva-Sturmfels), so its f-vector is the Betti vector
  over every field;
* the ideals built for a tree have the tree as Scarf complex (J, Jprime) or
  a Scarf complex containing it (intermediate), and every Scarf face adds
  one to the Betti number of its dimension.

``check`` returns None for a correct report, else a one-line reason.
"""

from __future__ import annotations

import json
from pathlib import Path

import inputs


def _faceset(facets) -> set:
    return {frozenset(f) for f in facets}


def replay(facets, certificate) -> str | None:
    """Replay collapse steps on the face set; None when every step removes a
    free pair and the maximal remaining faces are the stated terminal."""
    faces = inputs.faces(facets)
    universe = set().union(*faces)
    for i, step in enumerate(certificate["steps"]):
        free, coface = frozenset(step["free"]), frozenset(step["coface"])
        if not (free and free < coface and len(coface) == len(free) + 1):
            return f"step {i} is not a codimension-1 pair"
        if coface not in faces or free not in faces:
            return f"step {i} removes a face that is gone"
        if any(coface | {v} in faces for v in universe - coface):
            return f"step {i}: coface is not maximal"
        if any(free | {v} in faces for v in universe - coface):
            return f"step {i}: free face lies in another face"
        faces -= {free, coface}
    maximal = {f for f in faces if not any(f | {v} in faces for v in universe - f)}
    if maximal != _faceset(certificate["terminal"]):
        return "terminal differs from the replayed complex"
    return None


def _renamed_scarf_faces(report, facets) -> set:
    """Scarf faces with generator positions renamed to the tree's vertices."""
    order = sorted({v for f in facets for v in f}, key=inputs.vertex_key)
    return inputs.faces([[order[int(n) - 1] for n in f]
                         for f in report["facets"]])


def _tree_check(r, e, workdir):
    if not (r["connected"] and r["forest"] and r["tree"]) or r["witness"] is not None:
        return "a tree was not reported as a tree"
    if r["f_vector"] != e["f_vector"]:
        return "wrong f-vector"
    if r["collapse"]["steps"] * 2 + 1 != sum(e["f_vector"]):
        return "collapse step count is not (#faces - 1) / 2"
    if len(r["collapse"]["terminal"]) != 1 or len(r["collapse"]["terminal"][0]) != 1:
        return "collapse does not end at a point"
    return None


def _tree_collapse(r, e, workdir):
    if not r["collapsed_to_point"] or r["steps"] * 2 + 1 != sum(e["f_vector"]):
        return "tree certificate is not a collapse to a point"
    written = json.loads((workdir / e["certificate"]).read_text())
    if written != r["certificate"]:
        return "certificate file differs from the report"
    return replay(e["facets"], r["certificate"])


def _cycle_check(r, e, workdir):
    if not r["connected"] or r["forest"] or r["tree"]:
        return "a cycle was reported as a forest"
    if r["witness"] is None or _faceset(r["witness"]) != _faceset(e["witness"]):
        return "witness is not the planted cycle"
    if r["f_vector"] != e["f_vector"]:
        return "wrong f-vector"
    return None


def _cycle_collapse(r, e, workdir):
    if r["collapsed_to_point"]:
        return "a circle collapsed to a point"
    remaining = len(inputs.faces(r["terminal"]))
    if r["steps"] != len(r["certificate"]["steps"]) or \
            2 * r["steps"] + remaining != len(inputs.faces(e["facets"])):
        return "step count does not match the faces removed"
    return replay(e["facets"], r["certificate"])


def _generic_scarf(r, e, workdir):
    if _faceset(r["facets"]) != _faceset(e["facets"]) or r["f_vector"] != e["f_vector"]:
        return "Scarf complex differs from the definition"
    return None


def _generic_supports(r, e, workdir):
    if not (r["supports"] and r["minimal"]) or r["failing_degree"] is not None:
        return "Scarf complex of a generic ideal does not support its resolution"
    if r["betti"] != e["f_vector"] or r["f_vector"] != e["f_vector"]:
        return "Betti vector differs from the Scarf f-vector"
    return None


def _generic_betti(r, e, workdir):
    if r["betti"] != e["f_vector"]:
        return "Betti vector differs from the Scarf f-vector"
    return None


def _exact(variant) -> bool:
    return variant in ("J", "Jprime")


def _built_ideal(r, e, workdir):
    allowed = {"EQUAL"} if _exact(e["variant"]) else {"EQUAL", "CONTAINS"}
    if r["verification"] not in allowed:
        return f"verification {r['verification']} for variant {e['variant']}"
    if r["variant"] != e["variant"] or len(r["generators"]) != e["f_vector"][0]:
        return "wrong variant or generator count"
    return None


def _built_scarf(r, e, workdir):
    scarf = _renamed_scarf_faces(r, e["facets"])
    tree = inputs.faces(e["facets"])
    if _exact(e["variant"]) and scarf != tree:
        return "Scarf complex of the built ideal is not the tree"
    if not scarf >= tree:
        return "Scarf complex of the built ideal does not contain the tree"
    return None


def _built_betti(r, e, workdir):
    betti, fv = r["betti"], e["f_vector"]
    if _exact(e["variant"]):
        return None if betti == fv else "Betti vector differs from the tree's f-vector"
    if len(betti) < len(fv) or betti[0] != fv[0] or \
            any(b < f for b, f in zip(betti, fv)):
        return "Betti vector below the f-vector of a contained Scarf complex"
    return None


CHECKS = {
    "tree_check": _tree_check, "tree_collapse": _tree_collapse,
    "cycle_check": _cycle_check, "cycle_collapse": _cycle_collapse,
    "generic_scarf": _generic_scarf, "generic_supports": _generic_supports,
    "generic_betti": _generic_betti, "built_ideal": _built_ideal,
    "built_scarf": _built_scarf, "built_betti": _built_betti,
}


def check(query, report: dict, workdir: Path) -> str | None:
    """None when the report answers the query correctly, else why not."""
    if report.get("command") != query.argv[0]:
        return "report is for another command"
    try:
        return CHECKS[query.check](report["result"], query.expect, workdir)
    except (KeyError, TypeError, IndexError, ValueError, OSError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
