"""Workload ``omq-oneshot``: a closed loop of cold "OMQ in, answers out"
requests, one client.

Every request builds its OMQ (or coCSP program) from scratch, so nothing is
shared between requests and each pays the whole cold path: the DL type
system, the Theorem 3.3 compile, planning (with the semantic stage and the
CSP machinery behind it), and evaluation.  A *round* is the fixed menu of
``menu()``; a run is the number of whole rounds that fits its seconds.

The menu holds the Table 1 OMQs (Example 2.1's UCQ, Example 2.2's q1 and
q2, Example 4.5) under ``engine="auto"`` and under the planned route
(compile, plan, execute), on the paper's instances and on seeded small
medical / family instances, including one Example 2.1 instance one element
past the paper's (the forest engine's cliff), plus coCSP programs of
``workloads.csp_zoo`` through ``plan_program`` + ``execute_plan``.

Answers are checked, outside the timed region, against references that do
not share the code under test: the answers the paper states, the bounded
counter-model engine, a reachability closure for the recursive query, and
a brute-force homomorphism search for the CSPs.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import repro
import repro.planner as planner
from common import (
    Outcome,
    at_reference,
    clock,
    cpu_clock,
    latency_metrics,
    median,
    median_setup,
    peak_rss_mb,
    probe,
)
from repro.core.instance import Fact, Instance
from repro.omq import certain as omq_certain
from repro.omq.bounded import BoundedModelEngine
from repro.translations import csp_templates
from repro.workloads import csp_zoo, medical

#: Example 2.1 on the paper's instance D: both patients (paper, Ex. 2.1).
PAPER_EX21 = frozenset({("patient1",), ("patient2",)})
#: Example 2.2's q1 on D: the Listeriosis diagnosis (paper, Ex. 2.2).
PAPER_EX22_Q1 = frozenset({("may7diag2",)})


#: A round's length on the 2-CPU box the benchmark was built on.  A run is
#: ``round(seconds / NOMINAL_ROUND_S)`` whole rounds, a fixed amount of
#: work, so every run's percentiles come from the same number of samples.
NOMINAL_ROUND_S = 17.0


@dataclass
class Request:
    """One cold request of the menu."""

    label: str
    route: str  # "auto" | "planned" | "csp"
    build: Callable  # () -> OMQ, or () -> CSP template
    instance: Instance
    reference: frozenset | None = None
    reference_source: str = ""


@dataclass(frozen=True)
class Sizes:
    graph_vertices: int = 6
    family_generations: int = 4
    #: include the Example 2.1 requests (the selftest drops them for speed)
    example_2_1: bool = True


# -- seeded inputs ------------------------------------------------------------


def _past_the_paper() -> Instance:
    """The paper's instance plus ``HasParent(patient2, patient3)``: five
    facts over five elements, one element past Example 2.1's."""
    has_parent = medical.medical_schema()["HasParent"]
    return medical.patient_instance().with_facts(
        [Fact(has_parent, ("patient2", "patient3"))]
    )


def _renamed(instance: Instance, rng: random.Random) -> Instance:
    """The instance with seeded constant names that keep their sort order
    (set order, and so search order, still follows the names)."""
    names = {
        constant: f"{constant}.{rng.randrange(10**6):06d}"
        for constant in sorted(instance.active_domain, key=str)
    }
    return Instance(
        [Fact(fact.relation, tuple(names[a] for a in fact.arguments))
         for fact in instance.facts],
        schema=instance.schema,
    )


def _family(rng: random.Random, generations: int, schema) -> Instance:
    """A ``HasParent`` chain, its oldest ancestor predisposed (seeded names)."""
    chain = [(f"person{i}", f"person{i + 1}") for i in range(generations)]
    instance = Instance.from_tuples(
        schema,
        {"HasParent": chain, "HereditaryPredisposition": [(f"person{generations}",)]},
    )
    return _renamed(instance, rng)


def _graph(rng: random.Random, vertices: int, shape_seed: int) -> Instance:
    """A fixed random digraph (``shape_seed``) with seeded vertex names."""
    return _renamed(csp_zoo.random_graph(vertices, 0.35, seed=shape_seed), rng)


def menu(seed: int, sizes: Sizes = Sizes()) -> list[Request]:
    """The round of requests (inputs only; nothing is precomputed).

    Instance shapes are fixed, since a shape change moves the forest
    engine's cost by whole seconds; the seed renames the seeded
    instances' constants.
    """
    rng = random.Random(seed)
    requests: list[Request] = []

    def both(label: str, build, instance: Instance) -> None:
        for route in ("auto", "planned"):
            requests.append(Request(f"{label}/{route}", route, build, instance))

    paper = medical.patient_instance()
    if sizes.example_2_1:
        both("ex2.1/paper", medical.example_2_1_omq, paper)
        both("ex2.1/past-paper", medical.example_2_1_omq, _past_the_paper())
    both("ex2.2q1/paper", medical.example_2_2_q1_omq, paper)
    both(
        "ex2.2q2/family",
        medical.example_2_2_q2_omq,
        _family(rng, sizes.family_generations, medical.medical_schema()),
    )
    both(
        "ex4.5/family",
        medical.example_4_5_omq,
        _family(rng, sizes.family_generations, medical.example_4_5_schema()),
    )
    for shape_seed, (name, template) in enumerate(
        (
            ("k3", csp_zoo.three_colourability_template),
            ("directed-path", csp_zoo.directed_path_template),
            ("2-colouring", csp_zoo.two_colourability_template),
        )
    ):
        graph = _graph(rng, sizes.graph_vertices, shape_seed)
        requests.append(Request(f"cocsp/{name}", "csp", template, graph))
    return requests


# -- references ---------------------------------------------------------------


def _reachability_answers(instance: Instance) -> frozenset:
    """Elements with a ``HasParent`` path to a predisposed element."""
    parents: dict = {}
    for child, parent in instance.tuples("HasParent"):
        parents.setdefault(child, []).append(parent)
    marked = {row[0] for row in instance.tuples("HereditaryPredisposition")}
    answers = set()
    for element in instance.active_domain:
        seen, frontier = {element}, [element]
        while frontier:
            current = frontier.pop()
            if current in marked:
                answers.add((element,))
                break
            for parent in parents.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
    return frozenset(answers)


def _brute_force_cocsp(template: Instance, graph: Instance) -> frozenset:
    """coCSP(B) holds iff no map of the graph's elements into B's is a
    homomorphism: ``{()}`` then, else no answers."""
    edge = csp_zoo.EDGE
    targets = template.tuples(edge)
    vertices = sorted(graph.active_domain, key=repr)
    colours = sorted(template.active_domain, key=repr)
    edges = list(graph.tuples(edge))
    for image in itertools.product(colours, repeat=len(vertices)):
        mapping = dict(zip(vertices, image))
        if all((mapping[a], mapping[b]) in targets for a, b in edges):
            return frozenset()
    return frozenset({()})


def reference_answers(request: Request) -> tuple[frozenset, str]:
    """The independent reference for one request: (answers, source)."""
    label = request.label
    if label.startswith("ex2.1/paper"):
        return PAPER_EX21, "paper (Example 2.1)"
    if label.startswith("ex2.2q1/paper"):
        return PAPER_EX22_Q1, "paper (Example 2.2)"
    if label.startswith(("ex2.2q2/", "ex4.5/")):
        return _reachability_answers(request.instance), "HasParent reachability"
    if request.route == "csp":
        return _brute_force_cocsp(request.build(), request.instance), "brute force"
    engine = BoundedModelEngine(request.build())
    return engine.certain_answers(request.instance), "bounded engine"


# -- set-up ---------------------------------------------------------------------

#: Every module a request of the menu reaches.
LIBRARY_IMPORT = (
    "import repro.omq.certain, repro.omq.bounded, repro.planner, "
    "repro.translations.csp_templates, repro.workloads.medical, "
    "repro.workloads.csp_zoo"
)


def set_up(seed: int, sizes: Sizes) -> list[Request]:
    """What a cold request pays before it starts: a fresh interpreter
    importing the library (in a child process, as this one has imported
    it already), then the round's inputs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-c", LIBRARY_IMPORT],
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return menu(seed, sizes)


# -- one request ----------------------------------------------------------------


def serve(request: Request) -> tuple[frozenset, float | None]:
    """Run one cold request; returns (answers, compile-and-plan seconds)."""
    if request.route == "auto":
        return omq_certain.certain_answers(request.build(), request.instance), None
    started = clock()
    if request.route == "planned":
        omq = request.build()
        omq.check_instance_schema(request.instance)
        engine = planner.PlannedMddlogEngine(omq_certain.compile_to_mddlog(omq))
        prepared = clock() - started
        return engine.certain_answers(request.instance), prepared
    plan = planner.plan_program(csp_templates.csp_to_mddlog(request.build()))
    prepared = clock() - started
    return planner.execute_plan(plan, request.instance), prepared


def _round(requests, outcome: Outcome, reads: list, writes: list,
           scales: list) -> float:
    """One pass over the menu.

    The machine's speed is probed before and after every request, and the
    request's figures are taken at the reference speed (see
    ``common.REFERENCE_S``); latencies go to ``reads`` / ``writes``, the
    scales to ``scales``.  Returns the CPU seconds the requests took, at
    the reference speed too.
    """
    by_label: dict[str, frozenset] = {}
    cpu_s = 0.0
    before = probe()
    for request in requests:
        outcome.attempted += 1
        started, cpu_started = clock(), cpu_clock()
        try:
            answers, prepared = serve(request)
        except Exception as error:  # a failed request is counted, not fatal
            outcome.fail(f"{request.label}: {type(error).__name__}: {error}")
            continue
        finally:
            latency, cpu = clock() - started, cpu_clock() - cpu_started
            after = probe()
            scale = at_reference(1.0, before, after)
            before = after
        scales.append(scale)
        cpu_s += cpu * scale
        reads.append(latency * scale)
        if prepared is not None:
            writes.append(prepared * scale)
        by_label[request.label] = answers
        if answers != request.reference:
            outcome.mismatch(
                f"{request.label}: {sorted(answers)} != "
                f"{request.reference_source} {sorted(request.reference)}"
            )
    for label, answers in by_label.items():
        if label.endswith("/auto"):
            twin = by_label.get(label[: -len("auto")] + "planned")
            if twin is not None and twin != answers:
                outcome.mismatch(f"{label}: auto and planned disagree")
    return cpu_s


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    outcome = Outcome()
    requests, setup_s = median_setup(lambda: set_up(seed, sizes), repeats=5)
    for request in requests:
        request.reference, request.reference_source = reference_answers(request)

    rounds = 1 if trace else max(1, round(seconds / NOMINAL_ROUND_S))
    segments = []
    rates = []
    scales: list[float] = []
    for _ in range(rounds):
        reads: list[float] = []
        writes: list[float] = []
        untraced_cpu = _round(requests, outcome, reads, writes, scales)
        segments.append((reads, writes))
        rates.append(len(reads) / untraced_cpu)
    outcome.samples["rounds"] = rounds

    if trace:
        from tracing import LayerTracer

        with LayerTracer() as tracer:
            traced_cpu = _round(requests, outcome, [], [], [])
        outcome.metrics.update(tracer.metrics())
        outcome.metrics["bench.trace_overhead"] = traced_cpu / untraced_cpu
        outcome.metrics["bench.generator_lag_p99_ms"] = 0.0
        outcome.metrics["frontend.queue_wait_ms"] = 0.0
        return outcome

    outcome.metrics.update(
        setup_s=setup_s, omq_per_s=median(rates), events_per_s=median(rates)
    )
    latency_metrics(outcome, segments)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.samples.update(
        probes=len(scales) + rounds, median_scale=round(median(scales), 4)
    )
    return outcome
