"""Executors for the planner's three tiers.

Every executor computes exactly the certain answers the ground+CDCL engine
(:mod:`repro.engine.grounder`) would — including the no-model rule
(:func:`~repro.engine.grounder.no_model_answers`: with no model, every
tuple of the query's arity over the active domain is certain) and the
restriction of answers to the active domain — so routing never changes
answers, only cost:

* tier 0 evaluates the UCQ unfolding disjunct-by-disjunct with the
  engine's join planner directly over the instance indexes;
* tier 1 materializes the semi-naive least fixpoint
  (:class:`~repro.datalog.plain.IncrementalFixpoint`, DRed-maintained when
  live) and checks constraints against that minimal model (rule bodies
  are positive, hence monotone: a constraint body satisfied in the minimal
  model is satisfied in every model, so firing means *no* model exists);
* tier 2 decides candidates against a CDCL solver: one grounding's
  (:class:`GroundExecutor`) or a session's guarded delta-grounded one
  (:class:`SatExecutor`).

Every certain-answer route for a compiled program builds one
:class:`TierExecutor` and asks it.  All executors share one
``(plan, instance, warm=None)`` constructor; one-shot routes pick the
class from :data:`ONE_SHOT_EXECUTORS`, sessions from
:data:`LIVE_EXECUTORS`, which differ on tier 2 only.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from ..core.cq import Variable
from ..core.instance import Fact, Instance
from ..datalog.plain import DatalogProgram, IncrementalFixpoint
from ..engine.grounder import ground_program, no_model_answers, screen_candidates
from ..engine.joins import compile_join, execute_join, join_exists
from ..engine.parallel import parallel_certain_answers, resolve_workers
from ..engine.sat import ClauseSolver
from .analysis import UnfoldedDisjunct
from .plan import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    TIER_REWRITE,
    QueryPlan,
    auto_workers,
    estimate_cost,
    plan_program,
)

# ``repro.service`` imports the planner, so the live tier-2 executor imports
# its delta grounding where it uses it.


class TierExecutor:
    """One plan's tier behind the shared certain-answer protocol.

    The base class implements :meth:`surfaces`, :meth:`certain_answers`,
    :meth:`decide` and :meth:`is_certain` once: inconsistent data goes
    through the no-model rule, and only arity-tuples over the active domain
    ever reach a tier.  Each tier supplies

    * :meth:`consistent` — does some model extend the data?
    * :meth:`answers` / :meth:`certain_among` — the consistent case, always
      called right after :meth:`consistent` returned ``True``;
    * :meth:`insert` / :meth:`delete` — maintenance under updates; the base
      class refuses them, so an executor bound to one instance can never
      serve a session stale answers;
    * :meth:`warm_caches` — compiled join plans worth transplanting into a
      rebuilt executor of the same plan (``warm=`` of the constructors).
    """

    tier: int

    def __init__(self, plan: QueryPlan, instance: Instance, warm=None) -> None:
        self.plan = plan
        self.program = plan.program

    # -- per-tier hooks --------------------------------------------------------

    def consistent(self, instance: Instance) -> bool:
        raise NotImplementedError

    def answers(self, instance: Instance) -> frozenset[tuple]:
        raise NotImplementedError

    def certain_among(
        self, instance: Instance, candidates: Iterable[tuple]
    ) -> Iterable[tuple]:
        raise NotImplementedError

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        """Absorb an inserted delta; returns the clauses pushed."""
        raise NotImplementedError(f"{type(self).__name__} is bound to one instance")

    def delete(self, removed: Iterable[Fact]) -> None:
        raise NotImplementedError(f"{type(self).__name__} is bound to one instance")

    def warm_caches(self):
        return None

    # -- the shared protocol ---------------------------------------------------

    def surfaces(self, instance: Instance) -> tuple[bool, frozenset[tuple]]:
        """Both observable surfaces from one evaluation: whether some model
        extends the data, and the certain answers."""
        if not self.consistent(instance):
            return False, no_model_answers(
                instance.active_domain, self.program.arity
            )
        return True, self.answers(instance)

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        return self.surfaces(instance)[1]

    def decide(
        self, instance: Instance, candidates: Sequence[tuple]
    ) -> dict[tuple, bool]:
        """Per-candidate verdicts, in one pass over the tier's state."""
        well_formed = no_model_answers(
            instance.active_domain, self.program.arity, candidates
        )
        if self.consistent(instance):
            certain = frozenset(
                self.certain_among(
                    instance, [c for c in candidates if c in well_formed]
                )
            )
        else:
            certain = well_formed
        return {candidate: candidate in certain for candidate in candidates}

    def is_certain(self, instance: Instance, answer: Sequence = ()) -> bool:
        answer = tuple(answer)
        return self.decide(instance, [answer])[answer]


# ---------------------------------------------------------------------------
# Tier 0: UCQ evaluation through the join planner
# ---------------------------------------------------------------------------


def _disjunct_guards_hold(disjunct: UnfoldedDisjunct, adom: frozenset) -> bool:
    """Constant guards: constants under adom atoms / answer positions."""
    for term in disjunct.adom_terms:
        if not isinstance(term, Variable) and term not in adom:
            return False
    return all(
        isinstance(term, Variable) or term in adom
        for term in disjunct.answer_terms
    )


def _free_adom_variables(
    disjunct: UnfoldedDisjunct, bound: set[Variable]
) -> set[Variable]:
    """Variables constrained only by adom membership, given ``bound``."""
    atom_vars = {v for atom in disjunct.atoms for v in atom.variables}
    return {
        term
        for term in disjunct.adom_terms + disjunct.answer_terms
        if isinstance(term, Variable)
        and term not in atom_vars
        and term not in bound
    }


# Tier-0 join plans, cached on the disjunct object itself (frozen
# dataclass, hence ``object.__setattr__`` — the repo's attribute-cache
# idiom): plans are interner-independent, so one compiled plan per
# (disjunct, bound-variable set) serves every instance the unfolding is
# ever evaluated on, and the cache dies with the unfolding.
_DISJUNCT_PLANS_ATTR = "_columnar_plans"


def _disjunct_plan(disjunct: UnfoldedDisjunct, instance: Instance, bound=()):
    plans = getattr(disjunct, _DISJUNCT_PLANS_ATTR, None)
    if plans is None:
        plans = {}
        object.__setattr__(disjunct, _DISJUNCT_PLANS_ATTR, plans)
    key = frozenset(v.name for v in bound)
    plan = plans.get(key)
    if plan is None:
        plan = compile_join(disjunct.atoms, instance, bound=bound)
        plans[key] = plan
    return plan


def _disjunct_answers(
    disjunct: UnfoldedDisjunct, instance: Instance, domain: Sequence
) -> Iterator[tuple]:
    adom = instance.active_domain
    if not _disjunct_guards_hold(disjunct, adom):
        return
    free_all = _free_adom_variables(disjunct, set())
    if free_all and not domain:
        return
    answer_vars = {t for t in disjunct.answer_terms if isinstance(t, Variable)}
    # Existential adom-only variables only need a nonempty domain (checked
    # above); enumerating them would yield each answer |domain| extra times.
    free = sorted(free_all & answer_vars, key=str)
    plan = _disjunct_plan(disjunct, instance)
    for assignment in plan.assignments(
        execute_join(plan, instance), instance.interner
    ):
        if free:
            for values in itertools.product(domain, repeat=len(free)):
                full = dict(assignment)
                full.update(zip(free, values))
                yield tuple(
                    full[t] if isinstance(t, Variable) else t
                    for t in disjunct.answer_terms
                )
        else:
            yield tuple(
                assignment[t] if isinstance(t, Variable) else t
                for t in disjunct.answer_terms
            )


def _disjunct_satisfiable(
    disjunct: UnfoldedDisjunct,
    instance: Instance,
    initial: dict | None = None,
) -> bool:
    """Is the (Boolean, possibly partially bound) disjunct satisfiable?"""
    adom = instance.active_domain
    if not _disjunct_guards_hold(disjunct, adom):
        return False
    if _free_adom_variables(disjunct, set(initial or ())) and not adom:
        return False
    if not initial:
        return join_exists(_disjunct_plan(disjunct, instance), instance)
    bound = tuple(sorted(initial, key=lambda v: v.name))
    plan = _disjunct_plan(disjunct, instance, bound)
    seed = plan.intern_seed(initial, instance.interner)
    return join_exists(plan, instance, seed)


def _disjunct_entails(
    disjunct: UnfoldedDisjunct, instance: Instance, candidate: tuple
) -> bool:
    """Does the disjunct, answer terms bound to ``candidate``, have a witness?"""
    initial: dict = {}
    for term, value in zip(disjunct.answer_terms, candidate):
        if isinstance(term, Variable):
            if initial.setdefault(term, value) != value:
                return False
        elif term != value:
            return False
    return _disjunct_satisfiable(disjunct, instance, initial)


class UcqExecutor(TierExecutor):
    """Tier 0: stateless UCQ evaluation against the instance indexes.

    Nothing is maintained under updates — the unfolded goal and constraint
    UCQs are joined against the current instance on every query, which is
    exactly the FO-rewritability promise of the paper's Table 1 examples
    made operational.
    """

    tier = TIER_REWRITE

    def __init__(self, plan: QueryPlan, instance: Instance, warm=None) -> None:
        super().__init__(plan, instance)
        assert plan.unfolding is not None
        self.unfolding = plan.unfolding

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        return 0

    def delete(self, removed: Iterable[Fact]) -> None:
        pass

    def consistent(self, instance: Instance) -> bool:
        return not any(
            _disjunct_satisfiable(disjunct, instance)
            for disjunct in self.unfolding.constraint_disjuncts
        )

    def answers(self, instance: Instance) -> frozenset[tuple]:
        domain = sorted(instance.active_domain, key=repr)
        answers: set[tuple] = set()
        for disjunct in self.unfolding.goal_disjuncts:
            answers.update(_disjunct_answers(disjunct, instance, domain))
        return frozenset(answers)

    def certain_among(
        self, instance: Instance, candidates: Iterable[tuple]
    ) -> Iterable[tuple]:
        return [
            candidate
            for candidate in candidates
            if any(
                _disjunct_entails(disjunct, instance, candidate)
                for disjunct in self.unfolding.goal_disjuncts
            )
        ]


# ---------------------------------------------------------------------------
# Tier 1: semi-naive fixpoint plus constraint checking
# ---------------------------------------------------------------------------


# Cached on the (frozen) plan object via the repo's attribute-cache idiom:
# the fixpoint tier's compiled datalog program carries per-rule join plans
# (``DatalogProgram.compiled_rules``) that must stay warm across adaptive
# tier-state swaps — rebuilding the program would discard them.
_FIXPOINT_PROGRAM_ATTR = "_planner_fixpoint_program"


def fixpoint_program(plan: QueryPlan) -> DatalogProgram:
    """The disjunction-free rules the fixpoint tier runs, as plain datalog.

    For plans carrying a semantic rewriting this is the constructed
    canonical datalog program; otherwise the plan's own rules minus
    constraints (which :class:`FixpointExecutor` checks against the
    materialized minimal model instead).  The result is cached on the plan
    so repeated state (re)builds — adaptive swaps, session compaction —
    reuse one program object and its compiled-rule caches.
    """
    cached = getattr(plan, _FIXPOINT_PROGRAM_ATTR, None)
    if cached is not None:
        return cached
    program = plan.execution_program
    if isinstance(program, DatalogProgram) and not any(
        rule.is_constraint() for rule in program.rules
    ):
        result = program
    else:
        result = DatalogProgram(
            [rule for rule in program.rules if rule.head],
            goal_relation=program.goal_relation,
        )
    object.__setattr__(plan, _FIXPOINT_PROGRAM_ATTR, result)
    return result


class FixpointExecutor(TierExecutor):
    """Tier 1: a materialized least fixpoint, DRed-maintained under updates.

    Building it is one semi-naive evaluation, which is all a one-shot
    answer costs.  Constraints (empty-headed rules) are checked against
    the minimal model at query time: rule bodies are positive, so a
    constraint body satisfied in the least fixpoint is satisfied in
    *every* model, in which case no model exists.  A semantic
    canonical-datalog rewriting has no constraints (template
    incompatibilities are already encoded in its image-set rules).
    """

    tier = TIER_FIXPOINT

    def __init__(self, plan: QueryPlan, instance: Instance, warm=None) -> None:
        super().__init__(plan, instance)
        self.fixpoint = IncrementalFixpoint(fixpoint_program(plan), instance=instance)
        if warm is not None:
            self.fixpoint.adopt_join_plans(warm)

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        self.fixpoint.insert(delta)
        return 0

    def delete(self, removed: Iterable[Fact]) -> None:
        self.fixpoint.delete(removed)

    def warm_caches(self):
        return self.fixpoint.join_plans()

    def consistent(self, instance: Instance) -> bool:
        # The fixpoint holds the derived IDB and the seeded adom facts, so
        # a constraint body is one early-exit join against it.
        fixpoint = self.fixpoint.fixpoint
        return not any(
            join_exists(compile_join(rule.body, fixpoint), fixpoint)
            for rule in self.plan.execution_program.rules
            if rule.is_constraint()
        )

    def answers(self, instance: Instance) -> frozenset[tuple]:
        return self.fixpoint.goal_answers()

    def certain_among(
        self, instance: Instance, candidates: Iterable[tuple]
    ) -> list[tuple]:
        answers = self.fixpoint.goal_answers()
        return [candidate for candidate in candidates if candidate in answers]


# ---------------------------------------------------------------------------
# Tier 2: candidate decisions against a CDCL solver
# ---------------------------------------------------------------------------


class SolverExecutor(TierExecutor):
    """Tier 2 over one persistent :class:`~repro.engine.sat.ClauseSolver`:
    the assumption-free verdict ``solve()`` also screens the candidates
    (:func:`~repro.engine.grounder.screen_candidates`)."""

    tier = TIER_GROUND_SAT
    solver: ClauseSolver

    def consistent(self, instance: Instance) -> bool:
        return self.solver.solve()

    def answers(self, instance: Instance) -> frozenset[tuple]:
        domain = sorted(instance.active_domain, key=repr)
        candidates = itertools.product(domain, repeat=self.program.arity)
        return frozenset(self.certain_among(instance, candidates))

    def certain_among(
        self, instance: Instance, candidates: Iterable[tuple]
    ) -> list[tuple]:
        # consistent() just ran the assumption-free solve that screens them
        return screen_candidates(self.solver, self.program.goal_relation, candidates)


class GroundExecutor(SolverExecutor):
    """One-shot tier 2: ground the program over one instance, once
    (deduplicated and subsumption-reduced, no guard literals), and decide
    against that grounding's solver."""

    def __init__(self, plan: QueryPlan, instance: Instance, warm=None) -> None:
        super().__init__(plan, instance)
        self.ground = ground_program(self.program, instance)

    @property
    def solver(self) -> ClauseSolver:
        return self.ground.solver


class SatExecutor(SolverExecutor):
    """Live tier 2: guarded delta grounding feeding one persistent solver.

    Insertions push only the newly justified clauses
    (:class:`repro.service.delta.DeltaGrounder`) and assume the new facts'
    guard literals; deletions retract those assumptions, so learned
    clauses survive every update.
    """

    def __init__(self, plan: QueryPlan, instance: Instance, warm=None) -> None:
        from ..service.delta import DeltaGrounder

        super().__init__(plan, instance)
        self.grounder = DeltaGrounder(self.program)
        if warm is not None:
            self.grounder.adopt_join_plans(warm)
        self.solver = ClauseSolver()
        for negative, positive in self.grounder.bootstrap_clauses():
            self.solver.add_clause(negative, positive)
        facts = sorted(instance.facts, key=str)
        if facts:
            self.insert(Instance([]), Instance(facts), instance)

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        from ..service.delta import fact_guard

        clauses = self.grounder.insert(old, delta, new)
        for negative, positive in clauses:
            self.solver.add_clause(negative, positive)
        for fact in delta:
            self.solver.assume(fact_guard(fact))
        return len(clauses)

    def delete(self, removed: Iterable[Fact]) -> None:
        from ..service.delta import fact_guard

        for fact in removed:
            self.solver.retract_assumption(fact_guard(fact))

    def warm_caches(self):
        return self.grounder.join_plans()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


#: The executor class per tier for answering one fixed instance.
ONE_SHOT_EXECUTORS: dict[int, type[TierExecutor]] = {
    TIER_REWRITE: UcqExecutor,
    TIER_FIXPOINT: FixpointExecutor,
    TIER_GROUND_SAT: GroundExecutor,
}

#: The executor class per tier for a session's evolving instance.
LIVE_EXECUTORS: dict[int, type[TierExecutor]] = {
    **ONE_SHOT_EXECUTORS,
    TIER_GROUND_SAT: SatExecutor,
}


def execute_plan(
    plan: QueryPlan,
    instance: Instance,
    parallel: "int | str | None" = None,
    chunk_size: int | None = None,
) -> frozenset[tuple]:
    """Certain answers via the plan's tier.

    ``parallel`` only affects tier 2 (the SAT-free tiers have no candidate
    decisions to fan out); ``"auto"`` sizes the pool from the cost
    estimate's work score.
    """
    executor = ONE_SHOT_EXECUTORS[plan.tier](plan, instance)
    if plan.tier == TIER_GROUND_SAT and parallel is not None:
        if parallel == "auto":
            parallel = auto_workers(estimate_cost(plan, instance).tier2_work_score)
        if parallel is not None and resolve_workers(parallel) > 1:
            return parallel_certain_answers(
                executor.ground, workers=parallel, chunk_size=chunk_size
            )
    return executor.certain_answers(instance)


class PlannedMddlogEngine:
    """A complete certain-answer engine over a compiled MDDlog program.

    Wraps a Theorem 3.3 compilation (or any DDlog program) behind the
    planner: certain answers are computed by the cheapest sound tier.
    Unlike the bounded counter-model engine this is complete — the
    compiled program *is* the query (Theorem 3.3), and every tier computes
    its certain answers exactly.
    """

    def __init__(self, program, policy=None) -> None:
        self.program = program
        self.plan = plan_program(program, policy)

    def certain_answers(
        self, instance: Instance, parallel: "int | str | None" = None
    ) -> frozenset[tuple]:
        return execute_plan(self.plan, instance, parallel=parallel)

    def is_certain(self, instance: Instance, answer: Sequence = ()) -> bool:
        executor = ONE_SHOT_EXECUTORS[self.plan.tier](self.plan, instance)
        return executor.is_certain(instance, answer)
