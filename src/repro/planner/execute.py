"""Executors for the planner's three tiers.

Every executor computes exactly the certain answers the ground+CDCL engine
(:mod:`repro.engine.grounder`) would — including the no-model rule
(:func:`~repro.engine.grounder.no_model_answers`: with no model, every
tuple of the query's arity over the active domain is certain) and the
restriction of answers to the active domain — so routing never changes
answers, only cost:

* tier 0 evaluates the UCQ unfolding disjunct-by-disjunct with the
  engine's join planner directly over the instance indexes;
* tier 1 runs the semi-naive least fixpoint of
  :mod:`repro.datalog.plain` and checks constraints against the
  materialized minimal model (rule bodies are positive, hence monotone: a
  constraint body satisfied in the minimal model is satisfied in every
  model, so firing means *no* model exists);
* tier 2 grounds once and decides candidates against the persistent
  incremental CDCL solver, optionally across a worker pool.

:class:`TierExecutor` is the decision protocol the serving layer shares:
its base class answers ``certain_answers`` / ``decide`` / ``is_certain``
once, over per-tier hooks.  The stateless tier-0 executor lives here; the
stateful tier-1/2 executors (DRed fixpoint, guarded CDCL solver) live in
:mod:`repro.service.session`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from ..core.cq import Variable
from ..core.instance import Fact, Instance
from ..datalog.plain import DatalogProgram
from ..engine.grounder import ground_program, no_model_answers
from ..engine.joins import compile_join, execute_join, join_exists
from ..engine.parallel import parallel_certain_answers, resolve_workers
from .analysis import UcqUnfolding, UnfoldedDisjunct
from .plan import (
    TIER_FIXPOINT,
    TIER_REWRITE,
    QueryPlan,
    auto_workers,
    estimate_cost,
    plan_program,
)


class TierExecutor:
    """One plan's tier behind the shared certain-answer protocol.

    The base class implements :meth:`certain_answers`, :meth:`decide` and
    :meth:`is_certain` once: inconsistent data goes through the no-model
    rule, and only arity-tuples over the active domain ever reach a tier.
    Each tier supplies

    * :meth:`consistent` — does some model extend the data?
    * :meth:`answers` / :meth:`certain_among` — the consistent case, always
      called right after :meth:`consistent` returned ``True``;
    * :meth:`insert` / :meth:`delete` — maintenance under updates (no-ops
      for a stateless tier);
    * :meth:`warm_caches` — compiled join plans worth transplanting into a
      rebuilt executor of the same plan (``warm=`` of the constructors).
    """

    tier: int

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.program = plan.program

    # -- per-tier hooks --------------------------------------------------------

    def consistent(self, instance: Instance) -> bool:
        raise NotImplementedError

    def answers(self, instance: Instance) -> frozenset[tuple]:
        raise NotImplementedError

    def certain_among(
        self, instance: Instance, candidates: list[tuple]
    ) -> Iterable[tuple]:
        raise NotImplementedError

    def insert(self, old: Instance, delta: Instance, new: Instance) -> int:
        """Absorb an inserted delta; returns the clauses pushed."""
        return 0

    def delete(self, removed: Iterable[Fact]) -> None:
        pass

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


def unfolding_consistent(unfolding: UcqUnfolding, instance: Instance) -> bool:
    """Does some model exist — i.e. no unfolded constraint fires?"""
    return not any(
        _disjunct_satisfiable(disjunct, instance)
        for disjunct in unfolding.constraint_disjuncts
    )


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

    def __init__(self, plan: QueryPlan) -> None:
        super().__init__(plan)
        assert plan.unfolding is not None
        self.unfolding = plan.unfolding

    def consistent(self, instance: Instance) -> bool:
        return unfolding_consistent(self.unfolding, instance)

    def answers(self, instance: Instance) -> frozenset[tuple]:
        domain = sorted(instance.active_domain, key=repr)
        answers: set[tuple] = set()
        for disjunct in self.unfolding.goal_disjuncts:
            answers.update(_disjunct_answers(disjunct, instance, domain))
        return frozenset(answers)

    def certain_among(
        self, instance: Instance, candidates: list[tuple]
    ) -> Iterable[tuple]:
        return [
            candidate
            for candidate in candidates
            if any(
                _disjunct_entails(disjunct, instance, candidate)
                for disjunct in self.unfolding.goal_disjuncts
            )
        ]


def ucq_certain_answers(plan: QueryPlan, instance: Instance) -> frozenset[tuple]:
    """Tier-0 certain answers: evaluate the unfolded UCQ, no grounding."""
    return UcqExecutor(plan).certain_answers(instance)


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
    constraints (which :func:`fixpoint_certain_answers` checks against the
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


def constraint_fires(rule, fixpoint: Instance) -> bool:
    """Does a constraint body match the materialized fixpoint?

    ``fixpoint`` holds the derived IDB facts *and* the ``adom`` facts the
    fixpoint evaluator seeds, so constraint bodies (EDB, IDB and adom
    atoms alike) are plain joins against it — run depth-first with early
    exit (:func:`~repro.engine.joins.join_exists`) over the interned rows.
    """
    return join_exists(compile_join(rule.body, fixpoint), fixpoint)


def fixpoint_consistent(plan: QueryPlan, fixpoint: Instance) -> bool:
    """Does some model exist — no constraint of the executed program fires
    on its materialized minimal model ``fixpoint``?

    The constraints are those of the program the tier actually runs: a
    semantic canonical-datalog rewriting has none (template
    incompatibilities are already encoded in its image-set rules).
    """
    return not any(
        constraint_fires(rule, fixpoint)
        for rule in plan.execution_program.rules
        if rule.is_constraint()
    )


def fixpoint_surfaces(
    plan: QueryPlan, instance: Instance
) -> tuple[bool, frozenset[tuple]]:
    """Tier-1 consistency verdict and certain answers from one least
    fixpoint: constraints are checked against it, goal rows read off it."""
    program = plan.execution_program
    fixpoint = fixpoint_program(plan).least_fixpoint(instance)
    if not fixpoint_consistent(plan, fixpoint):
        return False, no_model_answers(instance.active_domain, program.arity)
    adom = instance.active_domain
    return True, frozenset(
        row
        for row in fixpoint.tuples(program.goal_relation)
        if all(value in adom for value in row)
    )


def fixpoint_certain_answers(plan: QueryPlan, instance: Instance) -> frozenset[tuple]:
    """Tier-1 certain answers: least fixpoint + constraint check, no SAT."""
    return fixpoint_surfaces(plan, instance)[1]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


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
    if plan.tier == TIER_REWRITE:
        return ucq_certain_answers(plan, instance)
    if plan.tier == TIER_FIXPOINT:
        return fixpoint_certain_answers(plan, instance)
    ground = ground_program(plan.program, instance)
    if parallel == "auto":
        parallel = auto_workers(estimate_cost(plan, instance).tier2_work_score)
    if parallel is not None and resolve_workers(parallel) > 1:
        return parallel_certain_answers(
            ground, workers=parallel, chunk_size=chunk_size
        )
    return ground.certain_answers()


def plan_surfaces(
    plan: QueryPlan, instance: Instance
) -> tuple[bool, frozenset[tuple]]:
    """The plan's consistency verdict and certain answers on one instance,
    from one evaluation of its tier: one unfolding pass (tier 0), one least
    fixpoint (tier 1), or one grounding whose verdict ``solve()`` also
    screens the candidates (tier 2)."""
    if plan.tier == TIER_REWRITE:
        return UcqExecutor(plan).surfaces(instance)
    if plan.tier == TIER_FIXPOINT:
        return fixpoint_surfaces(plan, instance)
    return ground_program(plan.program, instance).surfaces()


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
        if self.plan.tier == TIER_REWRITE:
            return UcqExecutor(self.plan).is_certain(instance, answer)
        if self.plan.tier == TIER_FIXPOINT:
            return tuple(answer) in fixpoint_certain_answers(self.plan, instance)
        return ground_program(self.program, instance).holds(answer)
