"""The one command: run the end-to-end benchmark and print every metric.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                                  [--trace 0|1] [--quick] [--out DIR]

Each (workload, mode) runs in its own fresh subprocess with a scrubbed
environment.  Without ``--trace`` both modes run: the untraced one for the
end-to-end metrics, the traced one for the per-layer metrics.  With
``--trace 0`` or ``--trace 1`` only that mode runs -- this is the form the
benchmark driver uses, one workload at a time.

The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  For a single
(workload, mode) the metric names are bare; when several ran they are
prefixed ``<workload>/``.  The exit code is non-zero when any op raised or
any result failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gen  # noqa: E402
import metrics  # noqa: E402
from workloads import KINDS  # noqa: E402

DEFAULT_SECONDS = 12  # BENCHMARK.json's run_seconds
#: a worker that runs longer than this is killed and counted as failed
WORKER_TIMEOUT_S = 170


def scrubbed_environment() -> Dict[str, str]:
    """The environment every worker runs in.

    ``PYTHONHASHSEED=0`` makes set and dict-of-str iteration order, and with
    it circuit variable orders and diagram sizes, repeat exactly.
    ``REPRO_STORAGE`` / ``REPRO_PARALLEL`` / ``REPRO_TRACE`` would silently
    select another execution path.  No bytecode is written: the program is
    imported from source in every run, so ``setup_s`` does not depend on
    what an earlier run left behind, and nothing is written outside ``--out``.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_STORAGE", "REPRO_PARALLEL", "REPRO_TRACE") and key != "PYTHONPATH"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(workload: str, trace: int, args: Any) -> Dict[str, Any]:
    """Run one (workload, mode) in a fresh process; never raises for a
    failed worker -- the failure is the result."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", args.out,
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    try:
        done = subprocess.run(
            command,
            env=scrubbed_environment(),
            stdout=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S,
            check=False,
        )
        lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = f"worker exited with code {done.returncode}"
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        problem = f"worker exceeded {WORKER_TIMEOUT_S} s"
    return {"workload": workload, "trace": trace, "crashed": problem}


def print_result(result: Dict[str, Any], units: Dict[str, str]) -> None:
    mode = "traced (per-layer)" if result["trace"] else "untraced (end-to-end)"
    print(f"== {result['workload']} :: {mode} :: seed {result['seed']}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    info = result["info"]
    if result["trace"]:
        print(
            f"  ({info['traced_passes']} traced + {info['untraced_passes']} untraced passes; "
            f"layers + unattributed = {info['sum_check']:.4f} of bench.pass_ms; "
            f"{info['dominant']} holds {info['dominant_share']:.0%} of a pass)"
        )
        if info["missing_boundaries"]:
            print(f"  missing_boundaries: {', '.join(info['missing_boundaries'])}")
    else:
        print(f"  {'fail_frac':34s} {info['fail_frac']:14.4f} ratio")
        print(
            f"  ({info['timed_ops']} timed ops in {info['passes']} passes; "
            f"{info['samples_beyond_p90']} samples beyond p90)"
        )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all", help="one of: all, " + ", ".join(KINDS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="run only this mode")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke run: one set-up and 2 passes per workload (traced mode unless --trace 0)",
    )
    parser.add_argument("--out", default=os.path.join(HERE, "out"), help="where traces and result.json go")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in KINDS:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2

    names = list(KINDS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        modes = [args.trace]
    else:
        # the smoke run takes the traced mode: it has untraced passes too
        modes = [1] if args.quick else [0, 1]
    os.makedirs(args.out, exist_ok=True)
    units = metrics.units()

    results: List[Dict[str, Any]] = []
    for name in names:
        for mode in modes:
            result = run_worker(name, mode, args)
            results.append(result)
            if "crashed" in result:
                print(f"== {name} :: trace {mode} :: {result['crashed']}")
            else:
                print_result(result, units)
            sys.stdout.flush()

    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results}, handle, indent=1)
        handle.write("\n")

    if any("crashed" in result for result in results):
        return 1  # no result line: there is no measurement to report
    single = len(results) == 1
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            (name if single else f"{result['workload']}/{name}"): {"value": value, "unit": units[name]}
            for result in results
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
