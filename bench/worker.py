"""One workload in one process: build the seeded queries, answer them in
whole passes for the given number of seconds, check every answer with the
referee, and print the figures as one JSON line.

run.py starts this file with PYTHONPATH pointing at the checkout's src/.
With --setup-only it prints "ready" and the CPU time it has used once the
inputs are built, and exits; that is how run.py times set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

_T0 = perf_counter()
import ivp  # noqa: E402
import ivp.cli  # noqa: E402,F401
IMPORT_S = perf_counter() - _T0

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


class CliLauncher:
    """Plain `python -m ivp.cli`, or the traced shim that appends each
    call's per-layer figures to trace_file."""

    def __init__(self, trace_file: Path):
        self.traced = False
        self.trace_file = trace_file

    def command(self, argv):
        if self.traced:
            return [sys.executable, str(BENCH / "cli_child.py"), *argv]
        return [sys.executable, "-m", "ivp.cli", *argv]

    def env(self):
        env = dict(os.environ)
        if self.traced:
            env["IVP_BENCH_TRACE_FILE"] = str(self.trace_file)
        return env


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and of the children it
    has waited for.

    The program is single-threaded and never waits, so on an idle host
    this is its elapsed time.  A shared host's hypervisor steals the vCPU
    in bursts; elapsed time counts the stolen time, this clock does not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def answer_pass(queries):
    """Time of each query (program time only) and its outcome.

    A failure is kept as text: the exception's traceback would keep the
    failed call's frames, and the large tables in them, alive.
    """
    times, outcomes = [], []
    for q in queries:
        t0 = cpu_clock()
        try:
            out, err = q.run(), None
        except Exception as exc:          # counted as failed, never dropped
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(cpu_clock() - t0)
        outcomes.append((out, err))
    return times, outcomes


class Tally:
    """Attempted, failed and checked queries over a run."""

    def __init__(self, queries):
        self.queries = queries
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.errors: dict[str, str] = {}
        self._verdicts: dict = {}

    def check(self, outcomes):
        for i, (q, (out, err)) in enumerate(zip(self.queries, outcomes)):
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.errors.setdefault(q.name, err)
                continue
            try:
                key = (i, out)
                hash(key)
            except TypeError:
                key = None
            ok = self._verdicts.get(key) if key is not None else None
            if ok is None:
                ok = bool(q.check(out))
                if key is not None:
                    self._verdicts[key] = ok
            if not ok:
                self.wrong.append(q.name)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    trace_file = OUT / f"cli-calls-{args.seed}-{os.getpid()}.jsonl"
    launcher = CliLauncher(trace_file)
    if args.workload == "cli":
        queries = workloads.build_cli(ivp, rng, launcher)
    else:
        queries = workloads.BUILDERS[args.workload](ivp, rng)
    if args.setup_only:
        print(f"ready {process_time()!r}", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    tally = Tally(queries)
    walls, latencies, traced_walls, layers = [], [], [], []
    if args.trace:
        import calltrace
        tracer = calltrace.Tracer()
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        times, outcomes = answer_pass(queries)
        walls.append(sum(times))
        latencies.extend(times)
        tally.check(outcomes)
        if args.trace:
            tracer.reset()
            if args.workload == "cli":
                launcher.traced = True
                trace_file.unlink(missing_ok=True)
                times, outcomes = answer_pass(queries)
                launcher.traced = False
                layers.append(_cli_layers(trace_file, tracer))
                trace_file.unlink(missing_ok=True)
            else:
                tracer.install()
                try:
                    times, outcomes = answer_pass(queries)
                finally:
                    tracer.uninstall()
                evals = tracer.calls_under("polys.RatPoly.eval_at",
                                           "membership.is_integer_valued")
                figures = calltrace.layer_metrics(tracer.totals(), evals)
                figures["cli.import_s"] = IMPORT_S
                layers.append(figures)
            traced_walls.append(sum(times))
            tally.check(outcomes)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - t_pass) > args.seconds:
            break

    if args.trace:
        metrics = {name: statistics.median(fig[name] for fig in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        tracer.write_spans(
            str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" \
            else resource.RUSAGE_SELF
        metrics = {
            "wall_s": statistics.median(walls),
            "query_p50_ms": statistics.median(latencies) * 1000,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "passes": len(walls),
        "queries_per_pass": len(queries),
        "wrong": tally.wrong,
        "errors": tally.errors,
    }))
    return 0


def _cli_layers(trace_file: Path, tracer) -> dict:
    """Sum the per-layer figures the traced command lines appended, and
    keep their spans, one list per call, in tracer.spans."""
    import calltrace
    totals: dict[str, list] = {}
    evals, imports = 0, []
    with open(trace_file) as fh:
        for line in fh:
            call = json.loads(line)
            for name, (n, total, self_s) in call["totals"].items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += total
                acc[2] += self_s
            evals += call["evals_in_intval"]
            imports.append(call["import_s"])
            tracer.spans.append(call["spans"])
    figures = calltrace.layer_metrics(totals, evals)
    figures["cli.import_s"] = statistics.median(imports)
    return figures


if __name__ == "__main__":
    sys.exit(main())
