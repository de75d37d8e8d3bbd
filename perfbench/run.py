"""ordstat benchmark: two closed-loop workloads, timed end to end and per module.

    python3 perfbench/run.py --workload reproduce|certify \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ordstat from ``src/``.
One client drives one workload in this process (closed loop: the next op
starts when the previous one returns).  Ops run until their summed time
reaches ``--seconds``; each op's output is checked after it returns,
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then a second loop with every ordstat layer wrapped by
``tracing.Tracer``, and prints the per-layer metrics.  Self times are ms
per op over all traced ops.  Counts are per op over the first cycle of the
schedule, so they repeat exactly for a given seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts ops that raised or failed a check, and any such
op makes ``correct`` false.  ``--full-range`` lifts the body limit on the
certify inputs (see ``workloads``); failures of the checks
in ``workloads.PROPERTY_CHECKS``, which the seed program fails on some of
those inputs, then still count in ``failed`` but leave ``correct`` true.
The line before the result holds the run's provenance.  Spans are written
to ``perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import Tracer
from workloads import PROPERTY_CHECKS, WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
# half of the set-up probes run before the loop and half after it, so that
# their median spans the machine's slow and fast phases
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60

SELF_TIME_LAYERS = ("cli", "svgplot.render", "scenarios.parse", "stochorder.validate",
                    "stochorder.check", "orderstats.sf", "orderstats.hazard",
                    "orderstats.oracle", "marginals", "copula.joint_eval",
                    "copula.numeric_fallback", "mcsim.sample", "mcsim.empirical")
# reported name -> (counter name, unit)
COUNTS = {
    "orderstats.sf.calls_per_op": ("orderstats.sf.calls", "count"),
    "orderstats.hazard.calls_per_op": ("orderstats.hazard.calls", "count"),
    "orderstats.sf.points": ("orderstats.sf.points", "count"),
    "marginals.calls": ("marginals.calls", "count"),
    "orderstats.oracle.subsets": ("orderstats.oracle.subsets", "count"),
    "copula.joint_eval.calls": ("copula.joint_eval.calls", "count"),
    "copula.custom_psi.calls": ("copula.custom_psi.calls", "count"),
    "mcsim.draws": ("mcsim.draws", "count"),
    "cli.bytes_written": ("cli.bytes_written", "B"),
    "svgplot.bytes": ("svgplot.bytes", "B"),
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(args, count: int) -> list[dict]:
    """Set-up of ``count`` fresh interpreters, run one at a time.

    Each probe reports its wall time (``setup_s``) and its stage times.
    """
    # bytecode is cached inside the checkout, whatever the caller's settings
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    probes = []
    for i in range(count):
        work = OUT / f"work-{os.getpid()}-probe{i}"
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                 args.workload, str(args.seed), str(work)]
                + (["--full-range"] if args.full_range else []),
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, env=env)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        stages = json.loads(proc.stdout.splitlines()[-1])
        probes.append({"setup_s": time.perf_counter() - t0,
                       **{f"setup.{k}": v for k, v in stages.items()}})
    return probes


class Loop:
    """Outcome of one closed loop over a workload's inputs."""

    def __init__(self, cycle_len: int):
        self.cycle_len = cycle_len
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.failures: Counter = Counter()
        self.unexpected = False
        self.notes: Counter = Counter()

    def throughput(self) -> float:
        """Ops per second of the median cycle, so that a slow stretch of the
        machine moves it less than it moves the mean."""
        lat, k = self.latencies_ns, self.cycle_len
        cycles = [sum(lat[i:i + k]) for i in range(0, len(lat), k)]
        return k / (statistics.median(cycles) / 1e9)


def run_loop(workload, ordstat, inputs, seconds: float, tolerated=frozenset(),
             tracer=None) -> Loop:
    """Run ops until their summed time reaches ``seconds``, then finish the
    cycle, so every run holds whole cycles and the same mix of op shapes.
    A failed check outside ``tolerated`` makes the loop incorrect."""
    loop = Loop(workload.cycle_len)
    budget_ns = seconds * 1e9
    elapsed = 0
    clock = time.perf_counter_ns
    i = 0
    while elapsed < budget_ns or i % workload.cycle_len:
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = workload.run(ordstat, inp)
            raised = None
        except Exception as exc:  # an op that raises is a failed op, and the loop goes on
            raised = exc
        dt = clock() - t0
        if tracer is not None:
            if raised is None and workload.output_counts is not None:
                for name, amount in workload.output_counts(inp).items():
                    tracer.count(name, amount)
            tracer.end_op()
        loop.latencies_ns.append(dt)
        elapsed += dt
        i += 1
        if raised is None:
            try:
                failed = workload.check(ordstat, inp, out)
            except Exception:  # a check that cannot read the output fails the op
                failed = ["check_raised"]
                if not loop.failures["check_raised"]:
                    traceback.print_exc()
        else:
            failed = [f"raised:{type(raised).__name__}"]
            if not loop.failures[failed[0]]:
                traceback.print_exception(raised)
        if workload.note is not None and raised is None:
            label = workload.note(inp, out)
            if label is not None:
                loop.notes[label] += 1
        if failed:
            loop.failed += 1
            loop.failures.update(failed)
            if set(failed) - tolerated:
                loop.unexpected = True
    return loop


def end_to_end(loop: Loop, setup: dict) -> dict:
    lat_ms = [v / 1e6 for v in loop.latencies_ns]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "throughput_ops_s": (loop.throughput(), "ops/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, traced: Loop, untraced: Loop, setup: dict, cycle_len: int) -> dict:
    ops = len(traced.latencies_ns)
    self_ms = tracer.self_ms_by_name()
    metrics = {f"{name}.self_ms": (self_ms.get(name, 0.0) / ops, "ms")
               for name in SELF_TIME_LAYERS}
    counts = tracer.counts_over(range(cycle_len))
    for name, (counter, unit) in COUNTS.items():
        metrics[name] = (counts[counter] / cycle_len, unit)
    for stage in ("import_s", "inputs_s", "warmup_s"):
        metrics[f"setup.{stage}"] = (setup[f"setup.{stage}"], "s")
    metrics["trace.overhead_ratio"] = (untraced.throughput() / traced.throughput(), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-range", action="store_true",
                        help="certify inputs beyond each scenario's body")
    args = parser.parse_args(argv)
    tolerated = PROPERTY_CHECKS if args.full_range else frozenset()

    if not (SRC / "ordstat" / "__init__.py").is_file():
        print(f"perfbench: no ordstat package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    probes = probe_setup(args, SETUP_PROBES // 2)
    sys.path.insert(0, str(SRC))
    import numpy
    import ordstat.cli

    if not Path(ordstat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported ordstat from {ordstat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # a path relative to the checkout root keeps the written reports, and so
    # cli.bytes_written, the same wherever the checkout lies
    os.chdir(ROOT)
    work = OUT.relative_to(ROOT) / "work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, args.full_range)
        inputs = workload.build(ordstat, work)
        for inp in workload.warmup(ordstat, work):
            workload.run(ordstat, inp)
        # the inputs live through the run; keep them out of the collector's
        # passes, so that collection costs in ops stay those of the program
        gc.collect()
        gc.freeze()
        loop = run_loop(workload, ordstat, inputs, args.seconds, tolerated)
        probes += probe_setup(args, SETUP_PROBES - len(probes))
        setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
        metrics = end_to_end(loop, setup)
        result_loop = loop
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(ordstat)
            if workload.prepare_trace is not None:
                workload.prepare_trace(tracer, inputs)
            try:
                traced = run_loop(workload, ordstat, inputs, args.seconds, tolerated, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(tracer, traced, loop, setup, workload.cycle_len)
            result_loop = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "full_range": args.full_range,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "ordstat": ordstat.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "ops": len(result_loop.latencies_ns), "failures": dict(result_loop.failures),
        "notes": result_loop.notes,
    }
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", provenance)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not (loop.unexpected or result_loop.unexpected),
        "attempted": len(result_loop.latencies_ns),
        "failed": result_loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
