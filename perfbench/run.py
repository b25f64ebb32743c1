"""Benchmark of the ``nqh`` command line, run in process through
``nqh.cli.main``.

    python3 perfbench/run.py --workload skew3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from a source checkout: it imports ``nqh`` from ``src/`` next to this
directory and writes its inputs and spans under ``.bench_build/perfbench/``.

With ``--trace 0`` it reports the end-to-end metrics of the workload:

    wall_s       median wall time of one pass over the workload's items
    item_s_hi    median wall time of the slowest item: each item's median over
                 the timed passes, and the highest of these
    setup_s      median over repeated set-ups of importing nqh afresh plus
                 generating and writing the seeded inputs
    peak_rss_mb  ru_maxrss of this process, which runs only this workload

The three times are scaled to a reference host speed (see ``REFERENCE_S``);
the table also prints the pass and set-up medians as measured.

With ``--trace 1`` it reports per-layer metrics from a traced run: calls and
self time of each traced function (see ``tracing.TRACED``), work sizes,
errors per module, exact ``Scalar`` operation counts, and the tracing
overhead.  Every item's output is checked; an item fails if it exits non-zero,
raises, or gives a wrong output.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, ROOT)

from perfbench import tracing, workloads  # noqa: E402

SETUP_REPEATS = 25
MIN_PASSES = 3

# The speed of a core on a shared machine moves by tens of percent from one
# minute to the next, with whatever runs beside it, and nqh's pure-Python
# work moves with it.  So a fixed loop that runs no nqh code is timed just
# before and just after each timed item and set-up, and that item's time is
# scaled by REFERENCE_S over the mean of the two loop times.  Scaled times
# are seconds at the host speed at which the loop takes REFERENCE_S.  No
# change to nqh moves the loop, so the scaling hides none.
REFERENCE_S = 0.005
CALIBRATION_LOOPS = 60000
CALIBRATION_REPEATS = 5


def loop_seconds():
    """Median time of the calibration loop, now."""
    timings = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def to_reference(seconds, before, after):
    """``seconds`` at the reference host speed, given the loop times taken
    just before and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)


def run_item(cli, item):
    """(seconds, exit code or None if it raised, stdout, stderr) of one
    command, run through ``cli.main`` as looked up now."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(item.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over a workload's items and checks every output.

    Each pass must also reproduce the stdout bytes of the first pass, so a
    traced or counting pass that changed an output is caught here.  With
    ``scaled`` the item times are scaled to the reference host speed, and
    ``unscaled`` keeps each pass's total as measured.
    """

    def __init__(self, cli, items, scaled=False):
        self.cli = cli
        self.items = items
        self.scaled = scaled
        self.unscaled = []
        self.attempted = 0
        self.problems = []
        self.reference = None

    def run_pass(self, label, tracer=None):
        """Item wall times of one pass, in item order.  ``tracer`` spans
        are tagged with the item that caused them."""
        gc.collect()
        times, outputs = [], []
        unscaled = 0.0
        before = loop_seconds() if self.scaled else None
        for k, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = item.name
            seconds, code, out, err = run_item(self.cli, item)
            unscaled += seconds
            if self.scaled:
                after = loop_seconds()
                times.append(to_reference(seconds, before, after))
                before = after
            else:
                times.append(seconds)
            self.attempted += 1
            if code is None:
                problem = "raised " + err.strip().splitlines()[-1]
            else:
                problem = item.check(code, out)
            if problem is None and self.reference and out != self.reference[k]:
                problem = "stdout differs from the first pass"
            if problem:
                detail = err.strip().splitlines()[-1:] if err.strip() else []
                self.problems.append(" ".join([f"{label} {item.name}: {problem}"] + detail))
            outputs.append(out)
        if self.reference is None:
            self.reference = outputs
        self.unscaled.append(unscaled)
        return times


def set_up(workload, seed, directory):
    """(seconds, input files) of importing nqh afresh, then generating and
    writing the seeded inputs."""
    for name in tracing.nqh_modules():
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("nqh.cli")
    files = workloads.generate(workload, seed)
    workloads.write_inputs(files, directory)
    return time.perf_counter() - start, files


def slowest_item(passes, items):
    """(median seconds, name) of the item whose median over the passes is
    the highest.  It does not depend on how many passes there were."""
    return max((statistics.median(times[k] for times in passes), item.name)
               for k, item in enumerate(items))


def repeat_until(deadline, minimum, step):
    """Results of calling ``step`` at least ``minimum`` times, and again
    while another call, as long as the last, would end by ``deadline``."""
    results = []
    took = 0.0
    while len(results) < minimum or time.perf_counter() + took <= deadline:
        begin = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - begin
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, directory):
    """End-to-end metrics of the untraced workload."""
    setups = []
    before = loop_seconds()
    for _ in range(SETUP_REPEATS):
        took, files = set_up(workload, seed, directory)
        after = loop_seconds()
        setups.append((to_reference(took, before, after), took, files))
        before = after
    exactness = []
    if any(files != setups[0][2] for _, _, files in setups):
        exactness.append("the same seed generated different input bytes")
    items = workloads.items(workload, directory)
    runner = Runner(sys.modules["nqh.cli"], items, scaled=True)
    numbers = itertools.count(1)
    passes = repeat_until(time.perf_counter() + seconds, MIN_PASSES,
                          lambda: runner.run_pass(f"pass {next(numbers)}"))
    item_hi, slowest = slowest_item(passes, items)
    setup_times = [took for took, _, _ in setups]
    metrics = {
        "wall_s": metric(statistics.median(sum(times) for times in passes), "s"),
        "item_s_hi": metric(item_hi, "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes of {len(items)} items;"
                  f" {statistics.median(runner.unscaled):.4g} s unscaled",
        "item_s_hi": f"median of {len(passes)} samples of {slowest}, the slowest item",
        "setup_s": f"median of {len(setup_times)} set-ups;"
                   f" {statistics.median(took for _, took, _ in setups):.4g} s unscaled",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return runner, exactness, metrics, notes


def measure_traced(workload, seed, seconds, directory):
    """Per-layer metrics: a counting-only pass, untraced and traced passes
    in alternation, then a second counting-only pass.  The first pass is
    untraced and gives the output bytes every later pass must reproduce."""
    set_up(workload, seed, directory)
    items = workloads.items(workload, directory)
    runner = Runner(sys.modules["nqh.cli"], items)
    runner.run_pass("warm-up")
    exactness = []
    start = time.perf_counter()
    with tracing.ScalarCounter() as first_count:
        runner.run_pass("counting pass 1")
    deadline = start + seconds - (time.perf_counter() - start)
    tracer = tracing.Tracer()

    def pair():
        number = len(tracer.passes) + 1
        untraced = sum(runner.run_pass(f"untraced pass {number}"))
        tracer.begin_pass()
        with tracer:
            traced = sum(runner.run_pass(f"traced pass {number}", tracer))
        tracer.end_pass()
        return untraced, traced

    pairs = repeat_until(deadline, 2, pair)
    with tracing.ScalarCounter() as last_count:
        runner.run_pass("counting pass 2")

    if first_count.counts() != last_count.counts():
        exactness.append(f"Scalar counts differ between passes: {first_count.counts()}"
                         f" then {last_count.counts()}")
    first, last = tracer.passes[0][1], tracer.passes[-1][1]
    if first != last:
        changed = sorted(k for k in set(first) | set(last) if first[k] != last[k])
        exactness.append(f"per-pass counts differ between the first and last traced"
                         f" pass: {', '.join(changed)}")
    write_spans(tracer, os.path.join(directory, "spans.jsonl"))

    values = dict(last)
    per_pass = [tracing.self_times(spans) for spans, _ in tracer.passes]
    for span in tracing.span_names():
        values[f"{span}.self_s"] = statistics.median(
            times.get(span, 0.0) for times in per_pass)
    values.update(last_count.counts())
    values[tracing.RATIONAL_RATIO] = (last_count.rational_inverse / last_count.inverse
                                      if last_count.inverse else 0.0)
    values[tracing.OVERHEAD] = statistics.median(t - u for u, t in pairs)
    metrics = {name: metric(values.get(name, 0), unit)
               for name, unit, _better in tracing.per_layer_metrics()}
    notes = {tracing.OVERHEAD: f"median over {len(pairs)} adjacent pairs of a"
                               f" traced minus an untraced pass"}
    return runner, exactness, metrics, notes


def write_spans(tracer, path):
    """All spans of the traced passes, one JSON array per line:
    [pass, name, start, end, parent, item]."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, (spans, _) in enumerate(tracer.passes, 1):
            for name, start, end, parent, item in spans:
                handle.write(json.dumps([number, name, start, end, parent, item]) + "\n")


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(args):
    directory = os.path.join(BUILD, f"{args.workload}-{args.seed}")
    measure_fn = measure_traced if args.trace else measure
    runner, exactness, metrics, notes = measure_fn(
        args.workload, args.seed, args.seconds, directory)
    failed = len(runner.problems)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  nproc {os.cpu_count()}  python {platform.python_version()}"
          f"  commit {commit()}")
    for name, entry in metrics.items():
        if args.trace and name.endswith(".self_s") and not entry["value"]:
            continue
        note = notes.get(name, "")
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']:<6} {note}".rstrip())
    print(f"  {'fail_ratio':<48} {failed / runner.attempted:>14.6g} {'1':<6}"
          f" {failed} of {runner.attempted} items failed")
    for problem in runner.problems + exactness:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems and not exactness,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    results = {}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = None
        if proc.returncode or not (results[workload] or {}).get("correct"):
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nqh", "cli.py")):
        print(f"error: no nqh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
