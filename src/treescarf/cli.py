"""Command-line front end: JSON files in, deterministic JSON reports out.

Every command prints one report object with the keys "command", "inputs",
"result" and "diagnostics", serialized with sorted keys so identical inputs
and seeds give byte-identical output.  Exit code 0 means the computation
ran (whatever the mathematical answer); nonzero means an operational error,
reported as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .collapse import greedy_collapse, tree_collapse_certificate
from .complexes import face_sorted
from .errors import ArityMismatchError, InputFileError, TreescarfError
from .homology import FieldSpec
from .monomials import format_monomial
from .resolution import (LabeledComplex, _lattice_betti_table, betti_table,
                         is_minimal, scarf_complex, supports_resolution,
                         supports_resolution_tree)
from .scarf_ideals import (build_intermediate, build_J, build_Jprime, random_h,
                           verify_scarf)


def _field(args) -> FieldSpec:
    try:
        return FieldSpec(args.field)
    except ValueError as exc:
        raise InputFileError(str(exc)) from None


def cmd_check(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    connected = complex_.is_connected()
    forest, witness = complex_.is_forest()
    result = {
        "connected": connected,
        "forest": forest,
        "tree": connected and forest,
        "f_vector": list(complex_.f_vector()),
        "witness": None if witness is None else [list(face_sorted(f)) for f in witness],
        "collapse": None,
    }
    diagnostics = []
    if result["tree"]:
        cert = tree_collapse_certificate(complex_)
        result["collapse"] = {"steps": len(cert.steps),
                              "terminal": io.complex_to_data(cert.terminal)["facets"]}
        diagnostics.append("collapse certificate verified")
    return {"inputs": {"complex": io.complex_to_data(complex_)}, "result": result,
            "diagnostics": diagnostics}


def cmd_fvector(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    return {"inputs": {"complex": io.complex_to_data(complex_)},
            "result": {"f_vector": list(complex_.f_vector())}, "diagnostics": []}


def cmd_supports(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    ideal = io.load_ideal(args.ideal_file)
    if len(ideal.generators) != len(complex_.vertices):
        raise ArityMismatchError(
            f"{len(ideal.generators)} generators for {len(complex_.vertices)} vertices")
    order = list(complex_.vertices)
    if args.labels is not None:
        order = args.labels.split(",")
        if sorted(order) != sorted(complex_.vertices):
            raise InputFileError("--labels must list every vertex exactly once")
    labeled = LabeledComplex(complex_, dict(zip(order, ideal.generators)),
                             ideal.variables)
    field = _field(args)
    diagnostics = []
    forest, _ = complex_.is_forest()
    if forest:
        supports, failing = supports_resolution_tree(labeled)
        diagnostics.append("tree criterion used (connectivity of divisor subcomplexes)")
        if args.verify:
            general = supports_resolution(labeled, field)
            if general != (supports, failing):
                raise AssertionError("tree and general criteria disagree")
            diagnostics.append("cross-checked against the general acyclicity criterion")
    else:
        supports, failing = supports_resolution(labeled, field)
        diagnostics.append("general criterion used (complex is not a forest)")
    minimal, _ = is_minimal(labeled)
    betti = betti_table(ideal, field)
    if args.verify:
        if _lattice_betti_table(ideal, field) != betti:
            raise AssertionError("Betti table disagrees with the lcm-lattice walk")
        diagnostics.append("Betti table cross-checked against the lcm-lattice walk")
    result = {
        "supports": supports,
        "minimal": minimal,
        "failing_degree": None if failing is None else ideal.format(failing),
        "betti": list(betti.vector),
        "f_vector": list(complex_.f_vector()),
    }
    return {"inputs": {"complex": io.complex_to_data(complex_),
                       "ideal": io.ideal_to_data(ideal),
                       "labels": order, "field": args.field},
            "result": result, "diagnostics": diagnostics}


def cmd_scarf(args) -> dict:
    ideal = io.load_ideal(args.ideal_file)
    scarf = scarf_complex(ideal)
    result = {
        "facets": io.complex_to_data(scarf.complex)["facets"],
        "f_vector": list(scarf.complex.f_vector()),
        "labels": {v: ideal.format(scarf.label(v)) for v in scarf.complex.vertices},
    }
    return {"inputs": {"ideal": io.ideal_to_data(ideal)}, "result": result,
            "diagnostics": []}


def cmd_build_scarf(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    diagnostics = []
    try:
        if args.variant == "J":
            ideal = build_J(complex_)
        elif args.variant == "Jprime":
            ideal = build_Jprime(complex_)
        else:
            from random import Random  # only this variant samples
            h = random_h(complex_, Random(args.seed))
            ideal = build_intermediate(complex_, h)
            diagnostics.append(f"h sampled with seed {args.seed}")
    except ValueError as exc:
        # vertex names whose face-variable names no ideal file can hold
        raise InputFileError(str(exc), path=args.complex_file) from None
    status, _ = verify_scarf(complex_, ideal)
    result = dict(io.ideal_to_data(ideal))
    result["variant"] = args.variant
    result["verification"] = status
    if args.variant == "intermediate":
        result["h"] = {v: format_monomial(h[v], ideal.variables)
                       for v in complex_.vertices}
    if args.out:
        io.dump_json(io.ideal_to_data(ideal), args.out)
        diagnostics.append(f"ideal written to {args.out}")
    return {"inputs": {"complex": io.complex_to_data(complex_),
                       "variant": args.variant, "seed": args.seed},
            "result": result, "diagnostics": diagnostics}


def cmd_betti(args) -> dict:
    ideal = io.load_ideal(args.ideal_file)
    field = _field(args)
    table = betti_table(ideal, field)
    by_degree = {ideal.format(m): list(col)
                 for m, col in sorted(table.by_degree.items(),
                                      key=lambda kv: ideal.monomial_key(kv[0]))}
    return {"inputs": {"ideal": io.ideal_to_data(ideal), "field": args.field},
            "result": {"betti": list(table.vector), "by_degree": by_degree},
            "diagnostics": []}


def cmd_collapse(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    diagnostics = []
    if complex_.is_tree():
        sequence = tree_collapse_certificate(complex_)
        diagnostics.append("tree certificate (verified, ends at a point)")
    else:
        sequence, _ = greedy_collapse(complex_)
        diagnostics.append("greedy collapse; a large residual proves nothing")
    certificate = io.sequence_to_data(sequence)
    result = {
        "steps": len(sequence.steps),
        "terminal": certificate["terminal"],
        "collapsed_to_point": (len(sequence.terminal.facets) == 1
                               and len(sequence.terminal.facets[0]) == 1),
        "certificate": certificate,
    }
    if args.out:
        io.dump_json(certificate, args.out)
        diagnostics.append(f"certificate written to {args.out}")
    return {"inputs": {"complex": io.complex_to_data(complex_)}, "result": result,
            "diagnostics": diagnostics}


_COMMANDS = {
    "check": cmd_check,
    "fvector": cmd_fvector,
    "supports": cmd_supports,
    "scarf": cmd_scarf,
    "build-scarf": cmd_build_scarf,
    "betti": cmd_betti,
    "collapse": cmd_collapse,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treescarf",
        description="Simplicial trees, collapse certificates, and Scarf ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="tree/forest/connectivity report")
    check.add_argument("complex_file")

    fvector = sub.add_parser("fvector", help="face counts by dimension")
    fvector.add_argument("complex_file")

    supports = sub.add_parser(
        "supports", help="does the labeled complex support a resolution?")
    supports.add_argument("complex_file")
    supports.add_argument("ideal_file")
    supports.add_argument("--field", type=int, default=0,
                          help="coefficient field characteristic (0 or a prime)")
    supports.add_argument("--labels", default=None,
                          help="comma-separated vertex order for the generators")
    supports.add_argument(
        "--verify", action="store_true",
        help="cross-check the tree criterion against the general one, and the "
             "Betti table against the lcm-lattice walk")

    scarf = sub.add_parser("scarf", help="Scarf complex of an ideal")
    scarf.add_argument("ideal_file")

    build = sub.add_parser("build-scarf", help="build a Scarf ideal for a complex")
    build.add_argument("complex_file")
    build.add_argument("--variant", choices=("J", "Jprime", "intermediate"),
                       default="J")
    build.add_argument("--seed", type=int, default=0,
                       help="seed for sampling the intermediate-family factors")
    build.add_argument("--out", default=None, help="write the ideal file here")

    betti = sub.add_parser("betti", help="Betti vector and multigraded table")
    betti.add_argument("ideal_file")
    betti.add_argument("--field", type=int, default=0)

    collapse = sub.add_parser("collapse", help="collapse certificate")
    collapse.add_argument("complex_file")
    collapse.add_argument("--out", default=None, help="write the certificate here")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (TreescarfError, ValueError) as exc:
        error = {"command": args.command, "error": type(exc).__name__,
                 "message": str(exc)}
        print(json.dumps(error, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    report = {"command": args.command, "inputs": report["inputs"],
              "result": report["result"], "diagnostics": report["diagnostics"]}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
