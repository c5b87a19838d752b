"""ncgb benchmark: closed-loop passes over a workload through ``ncgb.cli.main``.

    python3 perfbench/run.py --workload triangle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread, one problem at a time: each problem of
the workload goes through ``ncgb.cli.main(["run", ...])`` or
``(["verify", ...])`` in process with its output captured, and each output
is checked against the committed reference bases.  A pass runs every
problem of the workload once, in an order shuffled by ``--seed``; passes
repeat while the next one is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over passes).  Every
reported time is scaled to a reference host speed by a probe timed around
each pass (see hostspeed.py); the raw times are printed on earlier lines.
``--trace 1`` alternates untraced and traced passes, reports per-layer
metrics from the traced ones (see tracing.py), checks that the traced
counts equal the untraced statistics rows, times the primitives (see
micro.py) and writes the spans of the last traced pass under ``out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import hostspeed
import micro
from tracing import Tracer
from workloads import (
    CORPUS,
    HERE,
    SRC,
    STATS_FIELDS,
    WORKLOADS,
    check_output,
    format_row,
    load_reference,
)

SETUPS_PER_PASS = 4
OUT = HERE / "out"
END_TO_END = ("wall_s", "cpu_s", "max_problem_s", "setup_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    """Every metric's unit follows from its name."""
    if name.endswith(("_us", "us_per_call")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", ".rho")):
        return "ratio"
    if name.endswith("_terms"):
        return "terms"
    return "count"


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up: import the program, parse the problems, load the references
# ---------------------------------------------------------------------------

def fresh_import():
    """Import ``ncgb.cli`` from this checkout's sources, discarding earlier imports."""
    if not (SRC / "ncgb" / "cli.py").is_file():
        raise SetupError(f"no ncgb sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ncgb" or m.startswith("ncgb.")]:
        del sys.modules[name]
    cli = importlib.import_module("ncgb.cli")
    if not cli.__file__.startswith(str(SRC)):
        raise SetupError(f"imported ncgb from {cli.__file__}, not from {SRC}")
    return cli


def setup(jobs):
    """(cli module, references by job, seconds taken)."""
    gc.collect()
    t = time.perf_counter()
    cli = fresh_import()
    for job in jobs:
        cli.parse_problem(CORPUS / f"{job.problem}.prob")
    refs = {job: load_reference(job.reference) for job in jobs if job.command == "run"}
    return cli, refs, time.perf_counter() - t


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    job: object
    code: object            # exit code, or the exception the problem raised
    text: str               # captured standard output
    start: float
    end: float
    counts: Counter | None  # boundary counts of a traced pass


@dataclass
class Pass:
    start: float
    end: float
    cpu: float
    outcomes: list = field(default_factory=list)

    @property
    def wall(self):
        return self.end - self.start


def run_pass(cli, jobs, rng, tracer=None) -> Pass:
    order = list(jobs)
    rng.shuffle(order)
    argvs = [job.argv() for job in order]
    outcomes = []
    gc.collect()
    root = tracer.open("bench.pass") if tracer else None
    t0, c0 = time.perf_counter(), time.process_time()
    for job, argv in zip(order, argvs):
        out = io.StringIO()
        if tracer:
            tracer.counts = Counter()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:   # a raising problem counts as failed
            code = repr(exc)
        outcomes.append(Outcome(job, code, out.getvalue(), t, time.perf_counter(),
                                tracer.counts if tracer else None))
    t1, cpu = time.perf_counter(), time.process_time() - c0
    if tracer:
        tracer.close(root)
    return Pass(t0, t1, cpu, outcomes)


def repeat_passes(seconds, step):
    """Call ``step`` until the next call is expected to overrun ``seconds``."""
    start = time.perf_counter()
    while True:
        last = step()
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds:
            return


class Checker:
    """Checks every outcome and keeps the statistics row of each run job."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.rows = {}
        self.problems = []

    def check(self, p: Pass):
        for o in p.outcomes:
            self.attempted += 1
            ok, row = check_output(o.job, o.code, o.text, self.refs.get(o.job))
            if not ok:
                self.failed += 1
                self.problems.append(f"{o.job.label}: exit {o.code}, output failed the check")
            elif row is not None:
                self.rows.setdefault(o.job.label, row)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def describe(name, values, unit):
    lo, hi = quartiles(values)
    return (f"{name} {statistics.median(values):.4f} {unit} "
            f"(median of {len(values)}, quartiles {lo:.4f}..{hi:.4f})")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def probed(body):
    """(body's result, factor that scales the times it measured to reference speed)."""
    before = hostspeed.probe()
    result = body()
    return result, hostspeed.scale(before, hostspeed.probe())


def end_to_end(jobs, refs, rng, seconds):
    """Set-up is repeated before every pass, so its samples spread over the run."""
    checker = Checker(refs)
    raw = {"wall_s": [], "cpu_s": [], "max_problem_s": [], "setup_s": []}
    scaled = {name: [] for name in raw}

    def body():
        times = []
        for _ in range(SETUPS_PER_PASS):
            cli, _, taken = setup(jobs)
            times.append(taken)
        return times, run_pass(cli, jobs, rng)

    def step():
        t = time.perf_counter()
        (setup_times, p), factor = probed(body)
        checker.check(p)
        measured = {
            "wall_s": [p.wall],
            "cpu_s": [p.cpu],
            "max_problem_s": [max(o.end - o.start for o in p.outcomes)],
            "setup_s": setup_times,
        }
        for name, values in measured.items():
            raw[name] += values
            scaled[name] += [v * factor for v in values]
        return time.perf_counter() - t

    repeat_passes(seconds, step)
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for label, row in checker.rows.items():
        print("row", format_row(label, row))
    for name, values in scaled.items():
        print(describe(name, values, unit_of(name)), "at reference host speed")
    for name, values in raw.items():
        print(describe(name, values, unit_of(name)), "as measured")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.4f} MB")
    print(f"failed_frac {checker.failed / checker.attempted:.4f} "
          f"({checker.failed} of {checker.attempted} problems)")
    return checker, metrics


def traced(cli, jobs, refs, rng, seconds, workload, seed):
    """Per-layer metrics; times are scaled by probes taken around each pass."""
    modules = {"cli": cli, "engine": sys.modules["ncgb.engine"],
               "obstructions": sys.modules["ncgb.obstructions"]}
    tracer = Tracer(modules)
    checker = Checker(refs)
    untraced_walls, layer_series = [], []

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return run_pass(cli, jobs, rng, tracer)
        finally:
            tracer.uninstall()

    def step():
        t = time.perf_counter()
        plain, factor = probed(lambda: run_pass(cli, jobs, rng))
        checker.check(plain)
        untraced_walls.append(plain.wall * factor)
        p, factor = probed(traced_pass)
        checker.check(p)
        compare_counts(checker, p)
        layer_series.append(scale_times(layer_metrics(tracer.summarize(), p), factor))
        return time.perf_counter() - t

    repeat_passes(seconds, step)
    tracer.write(OUT / f"trace-{workload}-{seed}.tsv.gz")
    metrics = {name: statistics.median(s[name] for s in layer_series)
               for name in layer_series[0]}
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(untraced_walls) - 1
    timings, factor = probed(lambda: micro.run(cli, seed))
    metrics.update(scale_times(timings, factor))
    for label, row in checker.rows.items():
        print("row", format_row(label, row))
    print("layer self time, traced pass, at reference host speed:")
    layers = {name[6:-2]: metrics[name] for name in metrics if name.startswith("layer.")}
    layers["sum"] = sum(layers.values())
    for layer, seconds in layers.items():
        print(f"  {layer:13s} {seconds:9.4f} s {seconds / metrics['trace.wall_s']:7.2%}")
    return checker, metrics


def scale_times(metrics, factor):
    return {name: value * factor if unit_of(name) in ("s", "us") else value
            for name, value in metrics.items()}


def compare_counts(checker, p: Pass):
    """The traced boundary counts must reproduce the untraced statistics rows."""
    for o in p.outcomes:
        row = checker.rows.get(o.job.label)
        if row is None:
            continue
        got = {name: o.counts[name] for name in STATS_FIELDS}
        if got != row:
            checker.failed += 1
            checker.problems.append(f"{o.job.label}: traced counts {got} differ from row {row}")


LAYERS = ("bench", "cli", "engine", "obstructions", "criteria", "division",
          "polynomial", "words")


def layer_metrics(summary, p: Pass) -> dict:
    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = Counter()
    for o in p.outcomes:
        c.update(o.counts)
    reduce_calls = calls("division.reduce")
    poly = [name for name in summary if name.startswith("polynomial.")]
    m = {
        "engine.complete_s": incl("engine.complete"),
        "engine.interreduce_s": incl("engine.interreduce"),
        "engine.verify_s": incl("engine.verify"),
        "engine.self_s": own("engine.complete"),
        "engine.select_s": incl("engine.select"),
        "engine.sel": c["sel"],
        "engine.gb": c["gb"],
        "engine.rgb": c["rgb"],
        "engine.zero_frac": ratio(c["zero"], c["sel"]),
        "engine.truncated_frac": ratio(c["truncated"], c["tot"]),
        "obstructions.construct_s": incl("obstructions.construct"),
        "obstructions.tot": c["constructed"],
        "obstructions.spoly_s": incl("obstructions.spoly"),
        "obstructions.spoly_calls": calls("obstructions.spoly"),
    }
    for kind in ("m", "f", "tail", "bk"):
        m[f"criteria.{kind}_s"] = incl(f"criteria.{kind}")
        m[f"criteria.{kind}_removed"] = c[kind]
    m.update({
        "criteria.rho": ratio(c["sel"], c["tot"]),
        "division.reduce_s": incl("division.reduce"),
        "division.calls": reduce_calls,
        "division.zero_frac": ratio(c["division_zero"], reduce_calls),
        "division.in_terms": ratio(c["in_terms"], reduce_calls),
        "division.out_terms": ratio(c["out_terms"], reduce_calls),
        "division.us_per_call": ratio(incl("division.reduce"), reduce_calls) * 1e6,
        "polynomial.self_s": sum(own(name) for name in poly),
        "polynomial.calls": sum(calls(name) for name in poly),
        "words.overlap_s": incl("words.overlap"),
        "words.calls": calls("words.overlap"),
        "cli.parse_s": incl("cli.parse"),
    })
    layer_self = Counter()
    for name, (_, _, seconds) in summary.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = layer_self[layer]
    m["trace.wall_s"] = incl("bench.pass")
    m["trace.spans"] = sum(calls(name) for name in summary)
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs = WORKLOADS[args.workload]
    try:
        cli, refs, _ = setup(jobs)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    if args.trace:
        checker, metrics = traced(cli, jobs, refs, rng, args.seconds, args.workload, args.seed)
    else:
        checker, metrics = end_to_end(jobs, refs, rng, args.seconds)
    for problem in checker.problems:
        print("FAILED", problem)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
