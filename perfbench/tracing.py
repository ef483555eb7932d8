"""The traced run: one span tree over the program's own spans and the
benchmark's spans around the layers that emit nothing.

The program already records spans and counters under
``repro.obs.telemetry`` (engine, planner and service layers).  The layers
``dl``, ``translations``, ``omq`` and ``engine.sat`` emit nothing, and the
delta grounder and the tier-2 decision loop emit no span of their own, so
:class:`LayerTracer` wraps a few of their entry points for the duration of
the traced pass and records a span around each call into the same
recorder; the spans nest with the program's own, so a layer's self
time is its spans' time minus the time of the spans opened inside them.

``TypeSystem.compatible`` is called hundreds of thousands of times per
forest-engine request, too often for one span object per call: it is
wrapped as a *leaf* that adds its time and a call count to its layer and
credits the time to the span open around it, which is what a child span
would have done.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

from common import clock, cpu_clock
from repro.dl.reasoner import TypeSystem
from repro.engine.grounder import GroundProgram
from repro.engine.sat import ClauseSolver
from repro.obs import telemetry
from repro.omq import certain as omq_certain
from repro.omq.atomic import AtomicEngine
from repro.omq.forest import ForestEngine
from repro.planner import plan as planner_plan
from repro.service.delta import DeltaGrounder, IncrementalFixpoint
from repro.translations import csp_templates

#: Span-name prefix -> layer, longest prefix first.
_LAYER_PREFIXES = (
    ("planner.semantic", "planner.semantic"),
    ("omq.forest", "omq.forest"),
    ("omq.atomic", "omq.atomic"),
    ("dl.", "dl"),
    ("translations.", "translations"),
    ("planner.", "planner"),
    ("grounder.", "grounder"),
    ("sat.", "sat"),
    ("fixpoint.", "fixpoint"),
    ("dred.", "delta"),
    ("delta.", "delta"),
    ("session.", "session"),
    ("shards.", "session"),
    ("frontend.", "frontend"),
)


def layer_of(span_name: str) -> str | None:
    for prefix, layer in _LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return None


class _Recorder(telemetry.Telemetry):
    """The program's recorder plus the one query the leaf wrapper needs."""

    def open_span_index(self) -> int | None:
        return self._stack[-1].index if self._stack else None


class LayerTracer:
    """Context manager: install a recorder and wrap the dark layers.

    Inside the ``with`` block every call into a wrapped entry point opens a
    span on the installed recorder; on exit the wrappers are removed and
    telemetry is disabled again, so oracles and untraced passes run the
    unmodified program.
    """

    def __init__(self) -> None:
        self.recorder = _Recorder()
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self._leaf_credit: dict[int, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    # -- wrapping ----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _span_wrapper(self, original, span_name: str, count_rules: bool = False):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(span_name):
                result = original(*args, **kwargs)
            if count_rules:
                recorder.count("translations.rules_emitted", len(result.rules))
            return result

        return wrapper

    def _leaf_wrapper(self, original, layer: str):
        recorder = self.recorder
        calls, spent, credit = self.leaf_calls, self.leaf_time, self._leaf_credit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                calls[layer] += 1
                spent[layer] += elapsed
                parent = recorder.open_span_index()
                if parent is not None:
                    credit[parent] += elapsed

        return wrapper

    def wrap_method(self, cls, name: str, span_name: str) -> None:
        self._set(cls, name, self._span_wrapper(cls.__dict__[name], span_name))

    def wrap_function(self, module, name: str, span_name: str, **options) -> None:
        """Wrap a module function everywhere a ``repro`` module bound it."""
        original = module.__dict__[name]
        wrapper = self._span_wrapper(original, span_name, **options)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro":
                continue
            if getattr(loaded, "__dict__", {}).get(name) is original:
                self._set(loaded, name, wrapper)

    def __enter__(self) -> "LayerTracer":
        leaf = self._leaf_wrapper(TypeSystem.__dict__["compatible"], "dl")
        self._set(TypeSystem, "compatible", leaf)
        self.wrap_method(TypeSystem, "__init__", "dl.type_system")
        self.wrap_method(TypeSystem, "all_types", "dl.all_types")
        self.wrap_method(TypeSystem, "good_types", "dl.good_types")
        self.wrap_function(
            omq_certain, "compile_to_mddlog", "translations.compile_to_mddlog",
            count_rules=True,
        )
        self.wrap_function(
            csp_templates, "csp_to_mddlog", "translations.csp_to_mddlog",
            count_rules=True,
        )
        for cls, tag in ((ForestEngine, "omq.forest"), (AtomicEngine, "omq.atomic")):
            self.wrap_method(cls, "__init__", f"{tag}.init")
            self.wrap_method(cls, "certain_answers", f"{tag}.certain_answers")
            self.wrap_method(cls, "is_certain", f"{tag}.is_certain")
        self.wrap_function(planner_plan, "plan_program", "planner.plan_program")
        self.wrap_method(ClauseSolver, "solve", "sat.solve")
        self.wrap_method(GroundProgram, "certain_answers", "grounder.certain_answers")
        self.wrap_method(DeltaGrounder, "insert", "delta.ground_insert")
        self.wrap_method(IncrementalFixpoint, "insert", "delta.fixpoint_insert")
        self.wrap_method(IncrementalFixpoint, "delete", "delta.fixpoint_delete")
        telemetry.install(self.recorder)
        self._wall_started = clock()
        self._cpu_started = cpu_clock()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += clock() - self._wall_started
        self.cpu_s += cpu_clock() - self._cpu_started
        telemetry.uninstall()
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- the split ---------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus child spans and leaf calls."""
        spans = self.recorder.spans
        covered = defaultdict(float)
        for span in spans:
            if span.parent is not None and span.duration_s:
                covered[span.parent] += span.duration_s
        per_layer: dict[str, float] = defaultdict(float)
        for span in spans:
            layer = layer_of(span.name)
            if layer is None or not span.duration_s:
                continue
            per_layer[layer] += (
                span.duration_s - covered[span.index] - self._leaf_credit[span.index]
            )
        for layer, spent in self.leaf_time.items():
            per_layer[layer] += spent
        return dict(per_layer)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics the trace gives; the workload adds the trace
        overhead, the generator lag and the queue wait it measured itself."""
        rec = self.recorder
        counter = rec.counter
        selfs = self.layer_self_times()

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def histogram_total(name: str) -> float:
            histogram = rec.histograms.get(name)
            return histogram.total if histogram is not None else 0.0

        batch = rec.histograms.get("frontend.batch_size")
        plan_hits = counter("planner.plan_cache_hits")
        program_hits = counter("planner.program_cache_hits")
        return {
            "dl.compatible_calls": self.leaf_calls.get("dl", 0),
            "dl.self_s": selfs.get("dl", 0.0),
            "translations.compile_s": selfs.get("translations", 0.0),
            "translations.rules_emitted": counter("translations.rules_emitted"),
            "omq.forest_s": selfs.get("omq.forest", 0.0),
            "omq.atomic_s": selfs.get("omq.atomic", 0.0),
            "planner.plan_s": selfs.get("planner", 0.0)
            + selfs.get("planner.semantic", 0.0),
            "planner.semantic_s": selfs.get("planner.semantic", 0.0),
            "planner.plan_cache_hit_ratio": ratio(
                plan_hits, plan_hits + counter("planner.plan_cache_misses")
            ),
            "planner.program_cache_hit_ratio": ratio(
                program_hits, program_hits + counter("planner.program_cache_misses")
            ),
            "grounder.ground_s": selfs.get("grounder", 0.0),
            "grounder.clauses_emitted": counter("grounder.clauses_emitted"),
            "grounder.kept_ratio": ratio(
                counter("grounder.clauses_kept"), counter("grounder.clauses_in")
            ),
            "join.plans_executed": counter("join.plans_executed"),
            "join.rows_out_per_in": ratio(
                counter("join.rows_out"), counter("join.rows_in")
            ),
            "sat.solve_s": selfs.get("sat", 0.0),
            "sat.solve_calls": counter("sat.solve_calls"),
            "sat.conflicts": counter("sat.conflicts"),
            "sat.propagations": counter("sat.propagations"),
            "fixpoint.self_s": selfs.get("fixpoint", 0.0),
            "fixpoint.rows_derived": counter("fixpoint.rows_derived"),
            "delta.self_s": selfs.get("delta", 0.0),
            "delta.clauses_emitted": counter("delta.clauses_emitted"),
            "dred.overdeleted": counter("dred.overdeleted"),
            "dred.rederived": counter("dred.rederived"),
            "session.self_s": selfs.get("session", 0.0),
            "session.insert_s": histogram_total("session.insert_s"),
            "session.delete_s": histogram_total("session.delete_s"),
            "session.query_s": histogram_total("session.query_s"),
            "session.snapshot_recomputes": counter("session.snapshot_recomputes"),
            "frontend.self_s": selfs.get("frontend", 0.0),
            "frontend.flushes": counter("frontend.flushes"),
            "frontend.mean_batch": batch.mean if batch is not None else 0.0,
            "frontend.flush_s": histogram_total("frontend.flush_s"),
            "frontend.rejected": counter("frontend.rejected"),
            "frontend.degraded": counter("frontend.degraded"),
            "bench.traced_s": self.wall_s,
            "bench.unclaimed_s": self.wall_s - sum(selfs.values()),
        }

