"""E-ADPT — Adaptive re-planning: live sessions track the workload mix.

PR 8's planner picked one tier at compile time and kept it for the life of
the session, so a serving pattern that *changes* — bulk reads, then a
burst of retractions, then reads again — was stuck with whichever tier the
first pattern favoured.  This benchmark certifies the adaptive controller
(:mod:`repro.planner.adaptive`) closes that gap end to end on the
Theorem 3.3-compiled Example 4.5 OMQ (datalog- but not FO-rewritable,
natural tier 1):

* a three-segment stream — read-heavy, delete-heavy churn, read-heavy
  again — is served by one adaptive session and by every sound pinned
  tier on identical events;
* on the *measured* portion of every segment (each segment opens with a
  short untimed adaptation window: the controller needs one mix window
  plus its evaluation stride to notice a flip) the adaptive session stays
  within ``REQUIRED_RATIO`` of the best pinned tier for that segment,
  while no single pinned tier is competitive on all segments.  Measured
  segments run at least about 50 ms on the adaptive session, so one
  scheduler stall on a loaded machine cannot swing a ratio; a pinned
  twin stops a measured segment at a unit boundary once it has spent
  ``PINNED_CAP_S`` on it (only its wrong-tier segments, 100x slower, ever
  get there) and its time is extrapolated from its per-op mean;
* the session re-plans at least once and at most three times
  (``max_replans`` caps the controller), every swap is visible in
  ``explain()["adaptive"]["replans"]``, and answers are identical to both
  pinned twins on every event the twin ran.

The verdict is written to ``results/ADAPTIVE_ROUTING.json`` (a CI
artifact next to ``SEMANTIC_ROUTING.json``); ``run_all.py --check-only``
re-validates the committed document on every PR.
"""

import gc
import json
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core import Fact, RelationSymbol
from repro.core.cq import atomic_query
from repro.core.schema import Schema
from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
from repro.omq.certain import compile_to_mddlog
from repro.omq.query import OntologyMediatedQuery
from repro.planner import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    AdaptivePolicy,
    PlanPolicy,
)
from repro.service import ObdaSession, validate_explain

#: Adaptive must stay within this fraction of the best pinned tier's
#: time on every measured segment.  Segments are timed in CPU seconds
#: (``time.process_time``; sessions here are serial), so another tenant
#: preempting the process on a shared machine is not charged to a tier.
REQUIRED_RATIO = 0.8
REPORT_SCHEMA = "adaptive-routing/v1"
REPORT_PATH = Path(__file__).resolve().parent / "results" / "ADAPTIVE_ROUTING.json"

HAS_PARENT = RelationSymbol("HasParent", 2)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)

#: Deliberately twitchy hysteresis so the three-segment stream exercises
#: both swap directions; ``max_replans=3`` is the hard flap ceiling.
ADAPTIVE = AdaptivePolicy(
    mix_window=10, min_dwell=8, warmup=6, cost_gap=1.5, max_replans=3
)

GENERATIONS = 24


def datalog_rewritable_compiled():
    """Theorem 3.3 compilation of the Example 4.5 query (q2 of Example 2.2):
    datalog- but not FO-rewritable (unbounded HasParent recursion)."""
    omq = OntologyMediatedQuery(
        ontology=Ontology(
            [
                ConceptInclusion(
                    Exists(
                        Role("HasParent"), ConceptName("HereditaryPredisposition")
                    ),
                    ConceptName("HereditaryPredisposition"),
                )
            ]
        ),
        query=atomic_query("HereditaryPredisposition"),
        data_schema=Schema.binary(
            concept_names=["HereditaryPredisposition"], role_names=["HasParent"]
        ),
    )
    return compile_to_mddlog(omq)


def ancestry_universe(generations: int = GENERATIONS) -> list[Fact]:
    facts = [
        Fact(HAS_PARENT, (f"g{i}", f"g{i + 1}")) for i in range(generations)
    ]
    facts.append(Fact(PREDISPOSITION, (f"g{generations}",)))
    facts.append(Fact(PREDISPOSITION, ("g3",)))
    return facts


CHURN_EDGES = [Fact(HAS_PARENT, (f"g{i}", f"g{i + 1}")) for i in (5, 11, 17, 21)]


def churn_ops(pairs: int, query_every: int | None = None) -> list[tuple]:
    """Delete/re-insert churn over mid-chain edges (worst case for DRed:
    every deletion severs the mark derivation chain), optionally with a
    trickle of queries.  The *measured* churn is query-free so the
    segment compares mutation throughput — on tier 2 a query costs ~100x
    a guard retraction, so even occasional reads would drown the
    update-path comparison the segment exists to make."""
    ops: list[tuple] = []
    for index in range(pairs):
        edge = CHURN_EDGES[index % len(CHURN_EDGES)]
        ops.append(("delete", [edge]))
        ops.append(("insert", [edge]))
        if query_every is not None and index % query_every == query_every - 1:
            ops.append(("query", None))
    return ops


#: segment -> (untimed adaptation window, measured ops).  The untimed
#: window covers one mix window plus the evaluation backoff (at most two
#: windows of events) plus the dwell, so a correctly-tracking session has
#: settled on its tier before the clock starts.  The measured ops take
#: about 50-100 ms on the adaptive session (a query or a delete/re-insert
#: pair costs tens of microseconds on the right tier).
SEGMENTS = {
    "read_heavy": ([("query", None)] * 32, [("query", None)] * 1600),
    "delete_heavy": (churn_ops(24, query_every=8), churn_ops(960)),
    "read_heavy_return": ([("query", None)] * 44, [("query", None)] * 1600),
}
SEGMENT_ORDER = ["read_heavy", "delete_heavy", "read_heavy_return"]
ROUNDS = 5
#: A pinned twin's measured segment stops after this many seconds.
PINNED_CAP_S = 1.0


def _run_ops(session, ops, answers, key, deadline=None) -> int:
    """Apply ``ops`` in order, recording each query's answers under
    ``(key, position)``.  With a ``deadline``, stop at the first unit
    boundary past it — after a query or a re-insert, so the instance is
    the one the full run would leave.  Returns the number of ops run."""
    for position, (op, payload) in enumerate(ops):
        if op == "query":
            answers[(key, position)] = session.certain_answers()
        elif op == "insert":
            session.insert_facts(payload)
        else:
            session.delete_facts(payload)
        if (
            deadline is not None
            and op != "delete"
            and time.process_time() > deadline
        ):
            return position + 1
    return len(ops)


def _drive(session, cap_s: float | None = None) -> tuple[dict, dict]:
    """Replay the three-segment stream; returns (every query's answers by
    event — the adaptation windows included, so correctness covers
    mid-swap epochs — and per-segment measured seconds).  With ``cap_s``
    a measured segment stops after that long and its time is extrapolated
    from the ops it ran."""
    answers: dict = {}
    times: dict = {}
    for name in SEGMENT_ORDER:
        transition, measured = SEGMENTS[name]
        _run_ops(session, transition, answers, (name, "transition"))
        # every measured segment starts from a collected heap, whatever
        # garbage earlier rounds and sessions left behind
        gc.collect()
        started = time.process_time()
        deadline = None if cap_s is None else started + cap_s
        ran = _run_ops(session, measured, answers, (name, "measured"), deadline)
        times[name] = (time.process_time() - started) * len(measured) / ran
    return answers, times


def _round(runs: dict, label: str, program, policy, cap_s=None):
    """One fresh session on the stream; folds its per-segment times into
    ``runs[label]`` as the minimum over rounds so far (the noise floor)
    and keeps its answers and session.  Returns the answers."""
    session = ObdaSession(
        program, initial_facts=ancestry_universe(), policy=policy
    )
    answers, times = _drive(session, cap_s)
    previous = runs.get(label)
    if previous is not None:
        times = {name: min(previous[1][name], times[name]) for name in times}
    runs[label] = (answers, times, session)
    runs[label + "_rounds"] = runs.get(label + "_rounds", 0) + 1
    return answers


def test_adaptive_tracks_mix_flips(benchmark):
    """The tentpole end-to-end: one adaptive session beats the
    best-pinned-tier frontier on every measured segment (within
    ``REQUIRED_RATIO``), swaps 1-3 times, and never changes an answer."""
    program = datalog_rewritable_compiled()
    runs: dict = {}
    adaptive = PlanPolicy(adaptive=ADAPTIVE)
    twins = {
        "pinned_tier1": PlanPolicy(),
        "forced_tier2": PlanPolicy(tier=TIER_GROUND_SAT),
    }

    benchmark.pedantic(
        lambda: _round(runs, "adaptive", program, adaptive),
        rounds=ROUNDS,
        iterations=1,
    )
    # Every session gets ROUNDS rounds, interleaved so that a burst of load
    # on a shared machine lands on all of them alike.  (With
    # --benchmark-disable, as in the CI smoke run, pedantic ran only one.)
    for _ in range(ROUNDS):
        if runs["adaptive_rounds"] < ROUNDS:
            _round(runs, "adaptive", program, adaptive)
        for label, policy in twins.items():
            _round(runs, label, program, policy, PINNED_CAP_S)
    assert runs["pinned_tier1"][2].plan().tier == TIER_FIXPOINT

    adaptive_answers, adaptive_times, session = runs["adaptive"]
    for label in ("pinned_tier1", "forced_tier2"):
        twin_answers = runs[label][0]
        assert twin_answers.keys() <= adaptive_answers.keys()
        assert all(
            adaptive_answers[event] == answers
            for event, answers in twin_answers.items()
        ), f"adaptive answers diverge from {label} on the identical stream"
    assert any(adaptive_answers.values()), "the stream never produced an answer"

    report = session.explain()
    assert validate_explain(report) == []
    adaptive_block = report["adaptive"]
    assert adaptive_block["enabled"]
    replans = adaptive_block["replans"]
    assert 1 <= len(replans) <= 3, (
        f"expected 1-3 re-plans, saw {len(replans)}: {replans}"
    )

    segments = {}
    for name in SEGMENT_ORDER:
        pinned = {
            label: runs[label][1][name]
            for label in ("pinned_tier1", "forced_tier2")
        }
        best_label = min(pinned, key=pinned.get)
        ratio = pinned[best_label] / adaptive_times[name]
        segments[name] = {
            "measured_ops": len(SEGMENTS[name][1]),
            "adaptive_s": round(adaptive_times[name], 4),
            "pinned_tier1_s": round(pinned["pinned_tier1"], 4),
            "forced_tier2_s": round(pinned["forced_tier2"], 4),
            "best_forced": best_label,
            "ratio_vs_best_forced": round(ratio, 3),
        }
        print(
            f"\n[E-ADPT] {name}: adaptive {adaptive_times[name]:.4f}s vs "
            f"best pinned ({best_label}) {pinned[best_label]:.4f}s "
            f"-> ratio {ratio:.2f}"
        )
    # The read segments must favour tier 1 and the churn segment tier 2 —
    # otherwise the stream is not actually exercising a trade-off.
    assert segments["delete_heavy"]["best_forced"] == "forced_tier2"
    assert segments["read_heavy"]["best_forced"] == "pinned_tier1"
    assert segments["read_heavy_return"]["best_forced"] == "pinned_tier1"

    document = {
        "schema": REPORT_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "required_ratio": REQUIRED_RATIO,
        "policy": dict(
            next(iter(adaptive_block["queries"].values()))["policy"]
        ),
        "universe": {"generations": GENERATIONS},
        "rounds": ROUNDS,
        "segments": segments,
        "replan_count": len(replans),
        "replans": replans,
        "answers": len(adaptive_answers),
        "answers_identical": True,
    }
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(REPORT_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, entry in segments.items():
        assert entry["ratio_vs_best_forced"] >= REQUIRED_RATIO, (
            f"{name}: adaptive only {entry['ratio_vs_best_forced']:.2f}x of "
            f"the best pinned tier (required {REQUIRED_RATIO})"
        )


def test_adaptive_report_is_committed_and_sound():
    """The committed CI artifact matches what ``run_all.py --check-only``
    re-validates: schema tag, 1-3 replans, every segment at the bar."""
    with open(REPORT_PATH) as handle:
        document = json.load(handle)
    assert document["schema"] == REPORT_SCHEMA
    assert document["answers_identical"] is True
    assert 1 <= document["replan_count"] <= 3
    assert document["replan_count"] == len(document["replans"])
    for name in SEGMENT_ORDER:
        entry = document["segments"][name]
        assert entry["ratio_vs_best_forced"] >= document["required_ratio"]
