"""One set-up or one round of a workload, in a fresh interpreter.

run.py starts this script once per sample, so that every round pays its own
import and cold caches, as a user's run of the job would:

    python3 bench/child.py --workload NAME --seed N --mode setup|round \
        --trace 0|1 --result PATH

It writes one JSON record to PATH: setup_s always; for a round also wall_s,
the operations attempted and failed, the failed checks, the peak resident
set, the library versions and, when traced, the per-layer metrics and the
spans themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mib() -> float:
    """Largest peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    if args.mode == "round":  # no file of an earlier round may pass this round's checks
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.perf_counter()
    import ire_sim

    if not os.path.abspath(ire_sim.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"ire_sim was imported from {ire_sim.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = tracing.Tracer(tracing.TARGETS if args.trace else ())
    tracer.install()
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    record = {"setup_s": time.perf_counter() - t0}

    if args.mode == "round":
        ops = workloads.Ops()
        t1 = time.perf_counter()
        work.body(ops)
        record["wall_s"] = time.perf_counter() - t1
        record["peak_rss_mb"] = _peak_rss_mib()
        if args.trace:  # layer metrics cover set-up, body and probes, not the checks
            tracer.uninstall()
            workloads.layer_probes(tracer, args.seed)
        record["check_failures"] = work.check(ops)
        record["attempted"] = ops.attempted
        record["failed"] = ops.failed
        record["errors"] = ops.errors
        import numpy
        import scipy

        kernels = getattr(ire_sim, "_kernels", None)
        record["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "have_numba": getattr(kernels, "HAVE_NUMBA", None),
        }
        if args.trace:
            record["layers"] = tracing.layer_metrics(tracer)
            record["trace"] = tracer.dump()

    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
