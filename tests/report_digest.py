"""One sha256 over every report the benchmark's plans make a source tree write.

Usage (from the repository root):  python3 tests/report_digest.py SRC_DIR

``SRC_DIR`` is a directory holding the ``treescarf`` package, such as
``src`` or the ``src`` of another checkout.  For each workload of
``perfbench/workloads.py`` (trees, cycles, scarf) at seeds 0, 1 and 2, the
plan's input files are written to a fresh directory and every query runs
in plan order as ``python -m treescarf.cli``, with ``SRC_DIR`` first on
``PYTHONPATH``.  Each ``supports`` runs again with ``--verify`` and again
with ``--labels`` listing the vertices in reverse ``vertex_key`` order (so
the generators label a permutation of the vertices), each ``collapse --out``
is followed by ``verify-collapse`` of the file it wrote, and each
``build-scarf`` by ``betti --field 2`` of the ideal it wrote.  Then, past
the plans' trees of at most 19 facets, ``check``, ``collapse --out`` and
``verify-collapse`` run on complexes built here, all but the fan by
``perfbench/inputs.py``: triangle paths of 100 and 400 facets, chains of
100 and 200 six-vertex facets that share two vertices, a fan of 40
triangles {0, i, i+1}, a 60-facet attachment tree and the 60-cycle graph.
The digest covers each command's argv, exit code, stdout and stderr and the
bytes of its ``--out`` file, so two source trees whose commands write the
same bytes print the same line.  The plans are read from ``perfbench/``
without writing to it.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random

sys.dont_write_bytecode = True  # import perfbench's modules, write nothing there
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def large_complexes() -> dict:
    """The complexes past the plans' sizes, as complex files by name."""
    rng = Random(0)
    complexes = {
        "path100": inputs.triangle_path(100, rng),
        "path400": inputs.triangle_path(400, rng),
        "chain100": inputs.facet_chain(100, 6, 2, rng),
        "chain200": inputs.facet_chain(200, 6, 2, rng),
        "fan40": [[str(v) for v in (0, i, i + 1)] for i in range(1, 41)],
        "attach60": inputs.attachment_tree(60, Random(1)),
        "cycle60": inputs.graph_cycle(60, rng),
    }
    return {f"{name}.json": {"facets": facets} for name, facets in complexes.items()}


def batches():
    """Each set of input files, with the command lines run on it in order."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            plan = workloads.build(workload, seed)
            yield plan.files, list(commands(plan))
    files = large_complexes()
    yield files, [argv for path in files for argv in (
        ["check", path],
        ["collapse", path, "--out", f"cert-{path}"],
        ["verify-collapse", path, f"cert-{path}"])]


def commands(plan):
    """The command lines of one plan, in the order they run."""
    for query in plan.queries:
        argv = list(query.argv)
        yield argv
        if argv[0] == "supports":
            yield argv + ["--verify"]
            vertices = {v for facet in plan.files[argv[1]]["facets"] for v in facet}
            # vertex_key order is length, then name
            order = sorted(vertices, key=lambda v: (len(v), v), reverse=True)
            yield argv + ["--labels", ",".join(order)]
        elif argv[0] == "collapse" and "--out" in argv:
            yield ["verify-collapse", argv[1], argv[argv.index("--out") + 1]]
        elif argv[0] == "build-scarf":
            yield ["betti", argv[argv.index("--out") + 1], "--field", "2"]


def digest(src) -> tuple[str, int]:
    """The sha256 of every command's output, and the number of commands."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(src).resolve()), os.environ.get("PYTHONPATH")) if p))
    sha = hashlib.sha256()
    count = 0
    for files, argvs in batches():
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                Path(tmp, name).write_text(json.dumps(data))
            for argv in argvs:
                proc = subprocess.run([sys.executable, "-m", "treescarf.cli", *argv],
                                      cwd=tmp, env=env, capture_output=True)
                outs = [Path(tmp, argv[i + 1]).read_bytes()
                        for i, a in enumerate(argv) if a == "--out"]
                for part in (json.dumps(argv).encode(), str(proc.returncode).encode(),
                             proc.stdout, proc.stderr, *outs):
                    sha.update(len(part).to_bytes(8, "big"))
                    sha.update(part)
                count += 1
    return sha.hexdigest(), count


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sha, count = digest(argv[0])
    print(f"{sha}  {count} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
