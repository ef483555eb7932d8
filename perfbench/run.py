"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload omq-oneshot --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with telemetry off; ``--trace 1`` adds a traced pass over the same
work and reports the per-layer split instead.  The last line of standard
output is the result object; the line before it records the environment
and the sample count behind every figure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

#: ``PYTHONHASHSEED`` every run executes under (set iteration order moves
#: the forest engine's cost, so it is pinned, not left random).
PINNED_HASH_SEED = "0"

WORKLOADS = {
    "omq-oneshot": "oneshot",
    "frontend-mixed": "serving",
}

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(args, outcome) -> tuple[dict, dict]:
    """The environment line and the result line of one run."""
    from common import END_TO_END, PER_LAYER

    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(catalogue) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    environment = {
        "environment": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "worker_processes": 0,
        },
        "samples": outcome.samples,
        "units": catalogue,
        "errors": outcome.errors,
    }
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in catalogue.items()
        },
    }
    return environment, result


def main(argv=None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: the library is not at {SRC}; run the benchmark from "
            "the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        # Hash order is fixed at interpreter start: re-execute pinned.
        env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    for line in report(args, outcome):
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
