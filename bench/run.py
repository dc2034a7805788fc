"""Benchmark of ire-sim: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload storage_sweep --seed 1 --seconds 10 --trace 0

--workload is one of storage_sweep, angular_crosscheck, heatmap_export,
tilt_survey, or `all` (the default) for each in turn. The load is a closed
loop with one client: each round starts in a fresh interpreter after the
previous one has ended, and rounds repeat until --seconds have passed
(at least one; the default is BENCHMARK.json's run_seconds). --trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 runs untraced and traced rounds in pairs and prints the
per-layer metrics, with the tracing overhead. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the full run record goes to .bench_out/results/. The exit code is 0 when
every check and operation passed, 1 when one failed and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(ROOT, ".bench_out", "results")
WORKLOADS = ("storage_sweep", "angular_crosscheck", "heatmap_export", "tilt_survey")

# Set-up samples per untraced run (each round gives one; the rest come from
# set-up-only interpreters), so that setup_s is a median.
SETUP_SAMPLES = 3
# A run must end within 180 s; no interpreter is started or waited on past this.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run: no package, or an interpreter failed."""


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = _spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child(workload: str, seed: int, mode: str, trace: int, deadline: float) -> dict:
    """Run child.py once in its own session and return its record."""
    path = os.path.join(RESULTS, f"{workload}-{seed}-{mode}-{trace}.part.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace), "--result", path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # The child's own output goes to stderr: stdout carries only the result.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        # The child's pool workers share its session: end them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} {mode} did not end within the run's budget") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited with code {proc.returncode}")
    with open(path) as fh:
        record = json.load(fh)
    os.remove(path)
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All rounds of one run; returns the run record with its metrics."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    rounds, traced = [], []
    while True:
        rounds.append(_child(workload, seed, "round", 0, deadline))
        if trace:
            traced.append(_child(workload, seed, "round", 1, deadline))
        if time.monotonic() - start >= seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, seed, "setup", 0, deadline)["setup_s"])

    end_units, layer_units = _metric_units()
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in layer_units if name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in rounds))
        units = layer_units
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = end_units
    every = rounds + traced
    # An operation that raised or a program that exited non-zero left outputs
    # the checks could not test, so a failed operation fails the run too.
    correct = not any(r["check_failures"] or r["failed"] for r in every)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": every[0]["environment"],
        "correct": correct,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
        "setup_samples": setups,
        "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in every],
        "spans": [r["trace"] for r in traced],
    }


def _report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['rounds'])} rounds, {record['attempted']} ops attempted, "
          f"{record['failed']} failed, correct={record['correct']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, numba {env['have_numba']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for r in record["rounds"]:
        for msg in r["check_failures"] + r["errors"]:
            print(f"{record['workload']}: {msg}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run raises SystemExit, so _child ends the interpreter it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if not os.path.isfile(os.path.join(ROOT, "src", "ire_sim", "__init__.py")):
        print(f"no ire_sim package under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1)
            _report(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
