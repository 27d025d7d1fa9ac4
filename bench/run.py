"""Benchmark of ivp: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload intval --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import KNOWN_FAULTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_RUNS = 7
UNITS = {"wall_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MiB",
         "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def time_setup(args, env) -> float:
    """CPU time from process launch to the first query: interpreter start,
    import ivp, build the seeded inputs."""
    proc = subprocess.run(worker_cmd(args, "--setup-only"), cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    word, _, seconds = proc.stdout.strip().partition(" ")
    if word != "ready" or proc.returncode:
        raise RuntimeError(f"set-up run exited {proc.returncode}")
    return float(seconds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ivp" / "__init__.py").is_file():
        print(f"run.py: no ivp sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    (BENCH / "out").mkdir(exist_ok=True)

    setup = None
    if not args.trace:
        setup = statistics.median(time_setup(args, env)
                                  for _ in range(SETUP_RUNS))
    proc = subprocess.Popen(worker_cmd(args), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: workload did not finish in 150 s", file=sys.stderr)
        return 1
    if proc.returncode:
        print(f"run.py: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if setup is not None:
        metrics["setup_s"] = setup
    raw["metrics"] = {name: {"value": value,
                             "unit": UNITS.get(name, _unit(name))}
                      for name, value in metrics.items()}
    raw_path = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw_path.write_text(json.dumps(raw, indent=1) + "\n")
    for name in raw["wrong"]:
        print(f"wrong answer: {name}", file=sys.stderr)
    for name, error in raw["errors"].items():
        known = KNOWN_FAULTS.get(name, "not a known fault")
        print(f"failed: {name}: {error} ({known})", file=sys.stderr)
    print(json.dumps({key: raw[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
