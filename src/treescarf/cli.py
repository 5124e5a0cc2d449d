"""Command-line front end: JSON files in, deterministic JSON reports out.

Every command prints one report object with the keys "command", "inputs",
"result" and "diagnostics" as ``json.dumps(report, indent=2,
sort_keys=True)`` writes it, so identical inputs and seeds give
byte-identical output.  ``treescarf.io.json_text`` writes those bytes
without importing json, over json's C string quoter; ``collapse`` and
``verify-collapse`` lay out their certificate from masks and hand the text
to that writer, which places it where json would put the certificate's
data (see ``treescarf.io``).  Exit code 0
means the computation ran (whatever the mathematical answer).  A bad
file, or a flag value that parses but is wrong (``--field 4``, a bad
``--labels``), exits 2 with a JSON error on stderr.  A command line that
argparse rejects (an unknown command or flag, a missing argument,
``--field two``) exits 2 with argparse's usage text on stderr instead.

Each command runs in its own process, so its fixed cost matters: a command
line spelled exactly as ``_GRAMMAR`` writes it is parsed without argparse,
and each command imports only the library modules it runs; no valid
command line imports json or re.  argparse is built from the same table,
and only for the other lines, so every help, usage and error text is
still argparse's own.  ``python -m treescarf.cli`` runs with the cyclic
garbage collector off, and once ``main()`` returns it flushes stdout and
stderr and ends with ``os._exit(code)``, skipping the interpreter's
finalisation.  Whatever ``main()`` raises (argparse's ``SystemExit``, an
uncaught error, a ``BrokenPipeError``) and a stream that cannot be flushed
still exit the normal way.  ``main()`` called in process,
as by the ``treescarf`` console script, is unaffected: it leaves the
collector as it finds it, and its process keeps the normal exit.
"""

from __future__ import annotations

if __name__ == "__main__":
    # this process runs one command and exits, which frees everything, so
    # cyclic garbage collection would only cost time: it is off from before
    # the package's modules load.  main() called in process leaves the
    # collector as it finds it.
    import gc
    gc.disable()

import sys
from types import SimpleNamespace

from . import io
from .errors import ArityMismatchError, InputFileError, TreescarfError


def _field(args):
    from .homology import FieldSpec
    try:
        return FieldSpec(args.field)
    except ValueError as exc:
        raise InputFileError(str(exc)) from None


def cmd_check(args) -> dict:
    from .collapse import _tree_steps
    from .complexes import _coface_bits, _f_vector, face_sorted
    complex_ = io.load_complex(args.complex_file)
    connected = complex_.is_connected()
    forest, witness = complex_.is_forest()
    tree = connected and forest
    if tree:
        # one walk of the facets' subsets: the f-vector is counted off the
        # coface table before the replay removes its faces
        table = _coface_bits(complex_._facet_masks)
        f_vector = _f_vector(table)
    else:
        f_vector = complex_.f_vector()
    result = {
        "connected": connected,
        "forest": forest,
        "tree": tree,
        "f_vector": list(f_vector),
        "witness": None if witness is None else [list(face_sorted(f)) for f in witness],
        "collapse": None,
    }
    diagnostics = []
    if tree:
        pairs, point = _tree_steps(complex_, table)
        result["collapse"] = {"steps": len(pairs),
                              "terminal": [[complex_.vertices[point.bit_length() - 1]]]}
        diagnostics.append("collapse certificate verified")
    return {"inputs": {"complex": io.complex_to_data(complex_)}, "result": result,
            "diagnostics": diagnostics}


def cmd_fvector(args) -> dict:
    complex_ = io.load_complex(args.complex_file)
    return {"inputs": {"complex": io.complex_to_data(complex_)},
            "result": {"f_vector": list(complex_.f_vector())}, "diagnostics": []}


def cmd_supports(args) -> dict:
    from .resolution import (LabeledComplex, _lattice_betti_table, betti_table,
                             is_minimal, supports_resolution,
                             supports_resolution_tree)
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
    f_vector = betti = list(complex_.f_vector())
    # a minimal complex that supports a resolution over the field just
    # decided supports the minimal one, so its f-vector is the Betti vector
    # (Bayer-Peeva-Sturmfels, *Monomial resolutions*, 1998)
    minimal_support = supports and minimal
    if not minimal_support or args.verify:
        table = betti_table(ideal, field)
        if args.verify:
            if _lattice_betti_table(ideal, field) != table:
                raise AssertionError("Betti table disagrees with the lcm-lattice walk")
            if minimal_support and list(table.vector) != f_vector:
                raise AssertionError("Betti vector differs from the f-vector of "
                                     "a minimal support")
            diagnostics.append("Betti table cross-checked against the lcm-lattice walk")
        betti = list(table.vector)
    result = {
        "supports": supports,
        "minimal": minimal,
        "failing_degree": None if failing is None else ideal.format(failing),
        "betti": betti,
        "f_vector": f_vector,
    }
    return {"inputs": {"complex": io.complex_to_data(complex_),
                       "ideal": io.ideal_to_data(ideal),
                       "labels": order, "field": args.field},
            "result": result, "diagnostics": diagnostics}


def cmd_scarf(args) -> dict:
    from .resolution import scarf_complex
    ideal = io.load_ideal(args.ideal_file)
    scarf = scarf_complex(ideal)
    data = io.ideal_to_data(ideal)
    # vertex i of the Scarf complex is generator i, so its label is written once
    result = {
        "facets": io.complex_to_data(scarf.complex)["facets"],
        "f_vector": list(scarf.complex.f_vector()),
        "labels": dict(zip(scarf.complex.vertices, data["generators"])),
    }
    return {"inputs": {"ideal": data}, "result": result, "diagnostics": []}


def cmd_build_scarf(args) -> dict:
    from .monomials import format_monomial
    from .scarf_ideals import (build_intermediate, build_J, build_Jprime, random_h,
                               verify_scarf)
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
    data = io.ideal_to_data(ideal)
    result = {**data, "variant": args.variant, "verification": status}
    if args.variant == "intermediate":
        result["h"] = {v: format_monomial(h[v], ideal.variables)
                       for v in complex_.vertices}
    if args.out:
        io.dump_json(data, args.out)
        diagnostics.append(f"ideal written to {args.out}")
    return {"inputs": {"complex": io.complex_to_data(complex_),
                       "variant": args.variant, "seed": args.seed},
            "result": result, "diagnostics": diagnostics}


def cmd_betti(args) -> dict:
    from .resolution import betti_table
    ideal = io.load_ideal(args.ideal_file)
    field = _field(args)
    table = betti_table(ideal, field)
    by_degree = {ideal.format(m): list(col) for m, col in table.by_degree.items()}
    return {"inputs": {"ideal": io.ideal_to_data(ideal), "field": args.field},
            "result": {"betti": list(table.vector), "by_degree": by_degree},
            "diagnostics": []}


def cmd_collapse(args) -> dict:
    from .collapse import _greedy_steps, _tree_steps
    complex_ = io.load_complex(args.complex_file)
    diagnostics = []
    if complex_.is_tree():
        pairs, point = _tree_steps(complex_)
        left = [point]
        diagnostics.append("tree certificate (verified, ends at a point)")
    else:
        pairs, left = _greedy_steps(complex_)
        diagnostics.append("greedy collapse; a large residual proves nothing")
    # text straight from the masks of the steps and the facets left, laid
    # out once for the report and the --out file; no CollapseStep is built
    vertices = complex_.vertices
    certificate = io._certificate_text(vertices, pairs, left)
    terminal = [io._names(vertices, f) for f in left]
    result = {
        "certificate": io._Laid(certificate),
        "steps": len(pairs),
        "terminal": terminal,
        "collapsed_to_point": len(terminal) == 1 and len(terminal[0]) == 1,
    }
    if args.out:
        io._write_file(certificate, args.out)
        diagnostics.append(f"certificate written to {args.out}")
    return {"inputs": {"complex": io.complex_to_data(complex_)}, "result": result,
            "diagnostics": diagnostics}


def cmd_verify_collapse(args) -> dict:
    from .collapse import _first_violation
    complex_ = io.load_complex(args.complex_file)
    sequence = io.load_sequence(args.certificate_file)
    # the echo is laid out from the masks the replay ran on
    encoding, bad = _first_violation(complex_, sequence)
    result = {"valid": bad is None,
              "first_bad_step": None if bad is None else bad[0],
              "violation": None if bad is None else bad[1]}
    return {"inputs": {"certificate": io._Laid(io._certificate_text(*encoding)),
                       "complex": io.complex_to_data(complex_)},
            "result": result, "diagnostics": []}


_COMMANDS = {
    "check": cmd_check,
    "fvector": cmd_fvector,
    "supports": cmd_supports,
    "scarf": cmd_scarf,
    "build-scarf": cmd_build_scarf,
    "betti": cmd_betti,
    "collapse": cmd_collapse,
    "verify-collapse": cmd_verify_collapse,
}


# The command line, as one table that both parsers read.  Per command: its
# help line, its positionals in order, and its options as (flag, kind,
# default, help).  A kind is ``int``, ``str``, ``bool`` (a switch, default
# False) or a tuple of the values allowed.
_GRAMMAR = {
    "check": ("tree/forest/connectivity report", ("complex_file",), ()),
    "fvector": ("face counts by dimension", ("complex_file",), ()),
    "supports": ("does the labeled complex support a resolution?",
                 ("complex_file", "ideal_file"), (
        ("--field", int, 0, "coefficient field characteristic (0 or a prime)"),
        ("--labels", str, None, "comma-separated vertex order for the generators"),
        ("--verify", bool, False,
         "cross-check the tree criterion against the general one, and the "
         "Betti table against the lcm-lattice walk"),
    )),
    "scarf": ("Scarf complex of an ideal", ("ideal_file",), ()),
    "build-scarf": ("build a Scarf ideal for a complex", ("complex_file",), (
        ("--variant", ("J", "Jprime", "intermediate"), "J", None),
        ("--seed", int, 0, "seed for sampling the intermediate-family factors"),
        ("--out", str, None, "write the ideal file here"),
    )),
    "betti": ("Betti vector and multigraded table", ("ideal_file",), (
        ("--field", int, 0, None),
    )),
    "collapse": ("collapse certificate", ("complex_file",), (
        ("--out", str, None, "write the certificate here"),
    )),
    "verify-collapse": ("replay a collapse certificate against a complex",
                        ("complex_file", "certificate_file"), ()),
}


def _parse_exact(argv):
    """The arguments of a command line spelled exactly as the grammar
    writes it, or None.

    Accepted: a command name, then its positionals and its flags in any
    order, each flag spelled in full and any value as the next token, not
    starting with "-".  Values convert as argparse converts them.  Anything
    else, such as ``-h``, ``--``, ``--flag=value``, an abbreviated flag, a
    missing or extra positional or a value that does not convert, gives
    None, and argparse parses the line instead.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, positionals, options = _GRAMMAR[argv[0]]
    values = {"command": argv[0]}
    flags = {}
    for flag, kind, default, _ in options:
        dest = flag[2:].replace("-", "_")
        values[dest] = default
        flags[flag] = dest, kind
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in flags:
            return None
        dest, kind = flags[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of the same grammar.  It parses the command lines
    that ``_parse_exact`` declines, and writes every help, usage and error
    text."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="treescarf",
        description="Simplicial trees, collapse certificates, and Scarf ideals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options) in _GRAMMAR.items():
        command = sub.add_parser(name, help=text)
        for positional in positionals:
            command.add_argument(positional)
        for flag, kind, default, text in options:
            if kind is bool:
                shape = {"action": "store_true"}
            elif kind is str:
                shape = {}
            else:
                shape = {"type": int} if kind is int else {"choices": kind}
            command.add_argument(flag, default=default, help=text, **shape)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (TreescarfError, ValueError) as exc:
        error = {"command": args.command, "error": type(exc).__name__,
                 "message": str(exc)}
        print(io.json_text(error), file=sys.stderr)
        return 2
    report["command"] = args.command
    print(io.json_text(report))
    return 0


if __name__ == "__main__":
    # this process runs one command and exits: its --out files are closed
    # and the package registers no atexit hooks, so the interpreter's
    # finalisation (a full cyclic collection, then every module torn down)
    # would only free memory the OS takes back.  Once the streams are
    # flushed, os._exit skips it.  Whatever main() raises (argparse's
    # SystemExit, an AssertionError, a BrokenPipeError from print) never
    # reaches os._exit and exits the normal way; so does a stream that
    # cannot be flushed (a reader gone, a full disk), whose flush the
    # normal exit retries and reports, with exit status 120.
    import os
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
