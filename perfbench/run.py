"""End-to-end benchmark of the treescarf command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {trees,cycles,scarf} --seed N \
        --seconds S --trace {0,1} [--tiny]

One closed-loop client runs one command at a time, each as its own
``python -m treescarf.cli`` subprocess with ``src`` on PYTHONPATH, over input
files generated from the seed.  A pass runs the workload's whole query list;
passes repeat until ``--seconds`` have gone by, at least twice.  Every
answer is checked after the timed passes (see ``checks``).

The speed of a shared machine drifts by tens of percent over seconds to
minutes.  So a calibration command, a fixed pure-Python loop in a fresh
interpreter that imports nothing of the package, runs before every timed
command, and each time is reported at a reference speed: multiplied by
``CALIBRATION_REF_S`` over the mean of the calibrations just before and just
after it.  The result file keeps the raw wall times as well.

With ``--trace 0`` the last line of output holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics (see ``traced_cli`` and
``summarise``).  A fuller record of each run goes to
``.perfbench/results/``.  ``--tiny`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import summarise
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORK = STATE / "work"
RESULTS = STATE / "results"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 0
SETUPS = 9            # set-ups per run; setup_s is their median
STARTUP_PROBES = 7    # trivial commands timed for cli.startup_s
TIMEOUT_S = 60        # per command
TAIL_LADDER = (50, 75, 90, 95, 99)
MIN_PASSES = 2
PROBE = "probe.json"

CALIBRATION = """
seen = {}
for i in range(20000):
    f = frozenset((i % 13, i % 7, i % 5))
    seen[f] = seen.get(f, 0) + 1
    if f <= {0, 1, 2, 3, 4, 5, 6}:
        seen[f] += len(sorted(f))
"""
CALIBRATION_REF_S = 0.08   # about its median wall time on the 2-vCPU machine this was tuned on


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _cli(*args) -> list:
    return [sys.executable, "-m", "treescarf.cli", *args]


def run_command(argv, env, cwd=WORK):
    """(seconds from spawn to exit, stdout or None, error or None)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"timed out after {TIMEOUT_S} s"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return elapsed, proc.stdout, f"exit {proc.returncode}: {' '.join(tail)}"
    return elapsed, proc.stdout, None


class Clock:
    """Runs the calibration command and scales times to the reference speed.

    ``mark`` runs one calibration and returns its index; a command run
    right after mark ``i`` lies between calibrations ``i`` and ``i + 1``.
    Only these two neighbours scale its time: the machine's speed moves
    within seconds, and medians over wider windows tracked it worse.
    """

    def __init__(self, env):
        self.env = env
        self.samples = []

    def mark(self) -> int:
        elapsed, _, error = run_command([sys.executable, "-c", CALIBRATION], self.env, ROOT)
        if error:
            raise BenchError(f"calibration command failed: {error}")
        self.samples.append(elapsed)
        return len(self.samples) - 1

    def scale(self, seconds, mark) -> float:
        speed = (self.samples[mark] + self.samples[mark + 1]) / 2
        return seconds * CALIBRATION_REF_S / speed


def setup(workload, seed, scale, env):
    """Fresh inputs and a cold bytecode cache, then one warm-up command."""
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    shutil.rmtree(SRC / "treescarf" / "__pycache__", ignore_errors=True)
    plan = workloads.build(workload, seed, scale)
    WORK.mkdir(parents=True)
    for name, data in {PROBE: {"facets": [["1", "2"], ["2", "3"]]}, **plan.files}.items():
        (WORK / name).write_text(json.dumps(data))
    _, _, error = run_command(_cli("fvector", PROBE), env)
    if error:
        raise BenchError(f"warm-up command failed: {error}")
    return time.perf_counter() - start, plan


def run_pass(plan, env, clock, spans_dir=None):
    """Run every query once, each after a calibration.

    Returns [(raw seconds, calibration mark, stdout, error)] in query order.
    """
    out = []
    for i, query in enumerate(plan.queries):
        if spans_dir is None:
            argv = _cli(*query.argv)
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(spans_dir / f"{i}.spans"), query.qid, *query.argv]
        mark = clock.mark()
        seconds, stdout, error = run_command(argv, env)
        out.append((seconds, mark, stdout, error))
    return out


def scaled_times(passes, clock):
    """Per pass, each query's time at the reference speed, in query order."""
    return [[clock.scale(seconds, mark) for seconds, mark, _, _ in results]
            for results in passes]


def batch_seconds(times):
    """Time of one pass, taken query by query as the median over passes.

    A per-query median keeps one slow stretch from deciding the figure.
    """
    return sum(statistics.median(per_query) for per_query in zip(*times))


def result_digest(stdout):
    """sha256 of the report's "result" in canonical JSON, or None."""
    try:
        report = json.loads(stdout)
        canonical = json.dumps(report["result"], sort_keys=True, separators=(",", ":"))
    except (ValueError, KeyError, TypeError):
        return None, None
    return hashlib.sha256(canonical.encode()).hexdigest(), report


def judge(plan, passes, golden):
    """Check every execution; returns (attempted, failures, digests)."""
    verdicts = [{} for _ in plan.queries]     # per query: digest -> error
    digests = {}
    failures = []
    attempted = 0
    for results in passes:
        for query, verdict, (_, _, stdout, error) in zip(plan.queries, verdicts, results):
            attempted += 1
            if error is None:
                digest, report = result_digest(stdout)
                expected = golden.get(query.qid, digests.setdefault(query.qid, digest))
                if digest is None:
                    error = "output is not a JSON report"
                elif digest != expected:
                    error = "result differs from the recorded answer"
                else:
                    if digest not in verdict:
                        verdict[digest] = checks.check(query, report, WORK)
                    error = verdict[digest]
            if error is not None:
                failures.append(f"{query.qid}: {error}")
    return attempted, failures, digests


def interquartile_mean(times):
    """Mean of the middle half of the samples.

    Like the median it ignores the slowest and fastest queries, but it
    averages over every query size near the middle instead of picking one,
    so it does not jump from run to run between neighbouring sizes.
    """
    ordered = sorted(times)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def tail(times, floor):
    """(percentile, mean time of the samples beyond it).

    The percentile is the highest of the ladder with at least ten samples
    beyond it among ``floor`` samples, the count of the fewest passes a run
    makes, so it does not move with the machine's speed.  The mean beyond
    it is reported rather than the percentile itself: the query mix has
    gaps of tens of percent between neighbouring query sizes, and a single
    order statistic jumps across them from run to run.
    """
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if floor - math.ceil(p / 100 * floor) >= 10:
            chosen = p
    ordered = sorted(times)
    return chosen, statistics.fmean(ordered[math.ceil(chosen / 100 * len(ordered)):])


def source_identity():
    """(git commit or None, sha256 of the package's source files)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "treescarf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return commit, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "treescarf" / "cli.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no treescarf sources under {SRC} or no BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    scale = "tiny" if args.tiny else "full"
    env = _env()

    clock = Clock(env)
    setups = []
    for _ in range(SETUPS):
        mark = clock.mark()
        seconds, plan = setup(args.workload, args.seed, scale, env)
        setups.append((seconds, mark))
    probes = []
    for _ in range(STARTUP_PROBES):
        mark = clock.mark()
        probes.append((run_command(_cli("fvector", PROBE), env)[0], mark))

    plain, traced, summaries = [], [], []
    spans_dir = WORK / "spans"
    start = time.perf_counter()
    pass_s = 0.0
    # A new pass starts only if it should end within half a pass of the
    # deadline, so a run lasts about --seconds whatever the pass length.
    while (time.perf_counter() - start + pass_s / 2 < args.seconds
           or len(plain) < MIN_PASSES or (args.trace and not traced)):
        begun = time.perf_counter()
        if args.trace and len(traced) < len(plain):
            spans_dir.mkdir(exist_ok=True)
            traced.append(run_pass(plan, env, clock, spans_dir))
            summary = summarise.Summary()
            for path in sorted(spans_dir.iterdir()):
                summary.add_file(path)
                path.unlink()
            summaries.append(summary.metrics())
        else:
            plain.append(run_pass(plan, env, clock))
            pass_s = time.perf_counter() - begun
    clock.mark()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    golden = {}
    golden_path = GOLDEN / f"{args.workload}.json"
    if args.seed == DEFAULT_SEED and scale == "full" and golden_path.exists():
        golden = json.loads(golden_path.read_text())
    attempted, failures, digests = judge(plan, plain + traced, golden)

    plain_times = scaled_times(plain, clock)
    times = [t for pass_times in plain_times for t in pass_times]
    percentile, tail_s = tail(times, MIN_PASSES * len(plan.queries))
    startup = statistics.median(clock.scale(t, mark) for t, mark in probes)
    values = {
        "setup_s": statistics.median(clock.scale(t, mark) for t, mark in setups),
        "batch_s": batch_seconds(plain_times),
        "query_iqm_s": interquartile_mean(times),
        "query_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        layers = {name: statistics.fmean(s[name] for s in summaries) for name in summaries[0]}
        layers["cli.startup_s"] = startup
        layers["io.report_bytes"] = statistics.fmean(
            sum(len(out or b"") for _, _, out, _ in results) for results in traced)
        traced_s = batch_seconds(scaled_times(traced, clock))
        layers["trace.overhead_frac"] = traced_s / values["batch_s"] - 1
        values = layers
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    commit, source = source_identity()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": scale, "seconds": args.seconds,
        "commit": commit, "source_sha256": source,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "queries_per_pass": len(plan.queries), "passes": len(plain),
        "traced_passes": len(traced), "query_count": len(times),
        "query_tail_percentile": percentile, "cli.startup_s": startup,
        "setup_s_all": [clock.scale(t, mark) for t, mark in setups],
        "setup_s_raw": [t for t, _ in setups], "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures[:50],
        "query_s": {q.qid: [times[i] for times in plain_times]
                    for i, q in enumerate(plan.queries)},
        "query_s_raw": {q.qid: [r[i][0] for r in plain] for i, q in enumerate(plan.queries)},
        "calibration_ref_s": CALIBRATION_REF_S, "calibration_s": clock.samples,
        "result_sha256": digests, "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
