"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names the benchmark's workloads (the
metrics and their units are read from it); that every workload reports
every end-to-end metric with its unit and checks its answers; that a
traced run reports every per-layer metric; and that corrupting each workload's reference answers
makes its correctness check fail, so the oracles are not vacuous.
"""

from __future__ import annotations

import json
import os
import sys
from argparse import Namespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oneshot  # noqa: E402
import serving  # noqa: E402
from common import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS, report  # noqa: E402

TINY = {
    "omq-oneshot": (
        oneshot,
        oneshot.Sizes(graph_vertices=4, family_generations=2, example_2_1=False),
    ),
    "frontend-mixed": (
        serving,
        serving.Sizes(tenants=30, rate=200.0, warmup_s=0.2, setups=1),
    ),
}
SECONDS = 1.0
BOGUS = ("not-an-answer",)


def check_workloads() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def run_tiny(name: str, trace: bool):
    module, sizes = TINY[name]
    outcome = module.run(7, SECONDS, trace, sizes)
    args = Namespace(workload=name, seed=7, seconds=SECONDS, trace=int(trace))
    return outcome, report(args, outcome)[1]


def check_reports() -> None:
    for name in WORKLOADS:
        _, result = run_tiny(name, trace=False)
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1, name
        for metric, unit in END_TO_END.items():
            entry = result["metrics"][metric]
            assert entry["unit"] == unit, (name, metric)
            assert entry["value"] > 0, f"{name}: {metric} reads {entry['value']}"
    _, traced = run_tiny("frontend-mixed", trace=True)
    assert traced["correct"], traced
    assert {m: e["unit"] for m, e in traced["metrics"].items()} == PER_LAYER


def corrupted(reference):
    def wrapper(*args, **kwargs):
        answers = reference(*args, **kwargs)
        if isinstance(answers, tuple):  # (answers, source)
            return answers[0] | {BOGUS}, answers[1]
        if isinstance(answers, dict):  # version -> query -> answers
            return {
                version: {query: rows | {BOGUS} for query, rows in by_query.items()}
                for version, by_query in answers.items()
            }
        return answers | {BOGUS}

    return wrapper


def check_oracles_bite() -> None:
    for name, module, attribute in (
        ("omq-oneshot", oneshot, "reference_answers"),
        ("frontend-mixed", serving, "replay_commit_log"),
    ):
        original = getattr(module, attribute)
        setattr(module, attribute, corrupted(original))
        try:
            outcome, result = run_tiny(name, trace=False)
        finally:
            setattr(module, attribute, original)
        assert not result["correct"] and outcome.wrong > 0, (
            f"{name}: a corrupted reference went unnoticed"
        )


def main() -> int:
    check_workloads()
    check_reports()
    check_oracles_bite()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
