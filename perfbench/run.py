"""Benchmark of ``hessketch solve``; run from the repository root.

    python3 perfbench/run.py --workload deblur256-k30 --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (medians of untraced runs
plus one tracemalloc run); ``--trace 1`` prints the per-layer metrics of
one traced run and writes its spans.  Either way the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
full report, with the environment and any failed checks, goes to
``.perfbench/<workload>-seed<seed>-trace<t>/report.json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: on two vCPUs, threaded BLAS doubles the time of the
# small projected QRs, and a single thread is the steadier clock.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def format_report(report):
    """Human-readable lines, then the one-line JSON result."""
    env = report["environment"]
    lines = ["environment: " + " ".join(f"{k}={v}" for k, v in env.items())]
    for name, (value, unit, samples) in report["metrics"].items():
        lines.append(f"{name:32s} {value!r:>24} {unit:6s} samples={len(samples)}")
    lines += [f"FAILED {p}" for p in report["problems"]]
    lines.append(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["metrics"].items()},
    }))
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hessketch", "__init__.py")):
        print(f"perfbench: no hessketch sources under {src}; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # the workload seed is the only seed the program may see
    os.environ.pop("HESSKETCH_SEED", None)
    sys.path.insert(0, src)

    import harness  # imports numpy, after the thread count is fixed
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(
        root, ".perfbench", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    report = harness.benchmark(
        workload, args.seed, args.seconds, args.trace, work_dir, root)
    with open(os.path.join(work_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(format_report(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
