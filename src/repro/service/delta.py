"""Delta grounding and incremental certain-answer maintenance.

The serving layer keeps a ground disjunctive-datalog program *warm* across a
stream of ABox updates.  Two maintenance strategies cover the two program
classes:

**Support-guarded delta grounding** (:class:`DeltaGrounder`), for arbitrary
(disjunctive) programs.  Every ground clause instantiation carries its
*support* as extra assumption literals:

* one *fact guard* ``guard(f)`` per EDB fact ``f`` used by the clause's body
  join, and
* one *domain guard* ``in_adom(c)`` per active-domain element ``c`` the
  clause's free variables were instantiated with (and per constant ``adom``
  guard of the rule).

Domain guards are derived, never assumed: for every fact ``f`` and constant
``c`` occurring in it, a support clause ``guard(f) → in_adom(c)`` is emitted,
so ``in_adom(c)`` is forced true exactly while some live fact mentions ``c``.
The session asserts ``guard(f)`` as a persistent solver assumption while
``f`` is live and simply retracts it on deletion — the clause database and
all learned clauses survive, because guards are ordinary atoms and learned
clauses are implied by the clause database alone.  On insertion, only clause
instantiations whose body join touches the delta (semi-naive, through the
engine's join planner) or whose free variables touch a new domain element
are grounded and pushed into the live solver.

**DRed maintenance** (:class:`IncrementalFixpoint`, defined next to the
least-fixpoint evaluator in :mod:`repro.datalog.plain` so the planner's
tier-1 executor reaches it without importing the serving layer), for
disjunction-free programs: the materialized least fixpoint is maintained by
semi-naive insertion and delete-and-rederive (over-delete everything whose
derivation touched a deleted fact, then re-derive what survives from the
remainder).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

from ..core.cq import Atom, Variable
from ..core.instance import Fact, Instance
from ..core.interning import Interner
from ..datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from ..datalog.plain import IncrementalFixpoint, seed_row_builder
from ..engine.grounder import _split_body, instantiate_atom
from ..engine.joins import compile_join, execute_join
from ..engine.sat import Clause
from ..obs import telemetry as _telemetry

__all__ = ["DeltaGrounder", "IncrementalFixpoint", "adom_guard", "fact_guard"]

Element = Hashable


def fact_guard(fact: Fact) -> tuple:
    """The activation literal standing for "fact is live"."""
    return ("guard", fact)


def adom_guard(element: Element) -> tuple:
    """The derived literal standing for "element is in the active domain"."""
    return ("in_adom", element)


@dataclass
class _RuleState:
    """Per-rule grounding state: the body split and the join results seen.

    ``partials`` maps the interned key of each EDB join result — its row of
    codes in sorted EDB-variable order, stable across epochs because the
    session's delta copies share one append-only interner — to the decoded
    assignment used for clause emission.  ``plans`` caches, per EDB atom
    index, the compiled rest-of-body join plan, its seed-row builder and
    the permutation onto the key order; compiled once per session and
    reused every epoch (guarded by ``plans_interner`` identity).
    """

    rule: Rule
    edb_atoms: list[Atom]
    adom_atoms: list[Atom]
    idb_atoms: list[Atom]
    free: list[Variable]
    partials: dict[tuple, dict] = field(default_factory=dict)
    plans: list[tuple] | None = None
    plans_interner: "Interner | None" = None

    def compile_plans(self, store) -> list[tuple]:
        interner = store.interner
        if self.plans is None or self.plans_interner is not interner:
            edb_variables = sorted(
                {v for atom in self.edb_atoms for v in atom.variables},
                key=lambda v: v.name,
            )
            plans = []
            for index, atom in enumerate(self.edb_atoms):
                rest = self.edb_atoms[:index] + self.edb_atoms[index + 1 :]
                plan = compile_join(rest, store, bound=atom.variables)
                slot_of = {v: s for s, v in enumerate(plan.variables)}
                perm = tuple(slot_of[v] for v in edb_variables)
                plans.append(
                    (plan, seed_row_builder(atom, plan, interner), perm)
                )
            self.plans = plans
            self.plans_interner = interner
        return self.plans


class DeltaGrounder:
    """Grounds only what an insertion can newly justify.

    The grounder mirrors the from-scratch semantics of
    :func:`repro.engine.grounder.ground_program` exactly — for the live fact
    set, a clause is *active* (all its guards hold) iff the from-scratch
    grounding over the current instance would contain its unguarded core —
    so a session's answers always agree with a fresh recomputation.
    """

    def __init__(self, program: DisjunctiveDatalogProgram) -> None:
        self.program = program
        self._idb_names = frozenset(
            {sym.name for sym in program.idb_relations} | {GOAL}
        ) - {ADOM}
        self._rules: list[_RuleState] = []
        self._emitted: set[Clause] = set()
        self.clauses_emitted = 0
        self.instantiations = 0  # clause instantiations attempted (incl. tautologies)
        bootstrap: list[Clause] = []
        for rule in program.rules:
            edb_atoms, adom_atoms, idb_atoms = _split_body(
                rule, self._idb_names, ADOM
            )
            free = sorted(
                {
                    v
                    for v in rule.variables
                    if not any(v in a.variables for a in edb_atoms)
                },
                key=str,
            )
            state = _RuleState(rule, edb_atoms, adom_atoms, idb_atoms, free)
            self._rules.append(state)
            if not edb_atoms:
                # The empty join result holds in every instance (including
                # the empty one a session starts from); store it now so later
                # epochs only top it up with new domain elements.
                state.partials[()] = {}
                if not free:
                    self._emit_clause(state, {}, (), bootstrap.append)
        self._bootstrap = bootstrap

    def join_plans(self) -> list[tuple]:
        """Every rule's compiled join plans, for :meth:`adopt_join_plans`."""
        return [(state.plans, state.plans_interner) for state in self._rules]

    def adopt_join_plans(self, warm: list[tuple]) -> None:
        """Transplant plans banked from a grounder of the same program."""
        for state, (plans, interner) in zip(self._rules, warm):
            state.plans = plans
            state.plans_interner = interner

    def bootstrap_clauses(self) -> list[Clause]:
        """Clauses valid over the empty instance (rules without EDB atoms or
        free variables); push these into the solver before the first epoch."""
        return list(self._bootstrap)

    # -- insertion -------------------------------------------------------------

    def insert(
        self,
        old_instance: Instance,
        delta: Instance,
        new_instance: Instance,
    ) -> list[Clause]:
        """The guarded clauses newly justified by inserting ``delta``.

        ``new_instance`` must equal ``old_instance`` plus ``delta``.  Clauses
        already emitted in an earlier epoch (a deleted fact being re-inserted)
        are not re-emitted: retracting and re-asserting their guards is all
        the reactivation they need.
        """
        instantiations_before = self.instantiations
        emitted: list[Clause] = []

        def emit(clause: Clause) -> None:
            if clause not in self._emitted:
                self._emitted.add(clause)
                emitted.append(clause)

        # guard(f) -> in_adom(c) for every constant of every new fact
        for fact in sorted(delta, key=str):
            for constant in set(fact.arguments):
                emit(
                    (
                        frozenset([fact_guard(fact)]),
                        frozenset([adom_guard(constant)]),
                    )
                )

        new_elements = delta.active_domain - old_instance.active_domain
        full_domain = sorted(new_instance.active_domain, key=repr)
        for state in self._rules:
            arity = len(state.free)
            # Existing join results meet the new domain elements: enumerate
            # only the free-variable tuples touching at least one of them.
            if new_elements and arity and state.partials:
                top_up = [
                    values
                    for values in itertools.product(full_domain, repeat=arity)
                    if any(value in new_elements for value in values)
                ]
                for partial in state.partials.values():
                    for values in top_up:
                        self._emit_clause(state, partial, values, emit)
            # New join results: semi-naive over the EDB atoms, each atom in
            # turn matched against the delta as a whole batch, the rest
            # joined set-at-a-time against the full instance through the
            # cached compiled plans (the delta's rows are interned into the
            # session's shared interner on the way in).
            if not state.edb_atoms:
                continue
            interner = new_instance.interner
            plans = state.compile_plans(new_instance)
            new_partials: list[dict] = []
            for index, atom in enumerate(state.edb_atoms):
                rows = delta.tuples(atom.relation)
                if not rows:
                    continue
                plan, build_seed, perm = plans[index]
                seeds = []
                for row in rows:
                    seed = build_seed(interner.intern_row(row))
                    if seed is not None:
                        seeds.append(seed)
                if not seeds:
                    continue
                for result in execute_join(plan, new_instance, seeds):
                    key = tuple(result[p] for p in perm)
                    if key in state.partials:
                        continue
                    assignment = plan.assignment(result, interner)
                    state.partials[key] = assignment
                    new_partials.append(assignment)
            if new_partials:
                all_tuples = list(itertools.product(full_domain, repeat=arity))
                for assignment in new_partials:
                    for values in all_tuples:
                        self._emit_clause(state, assignment, values, emit)
        self.clauses_emitted += len(emitted)
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("delta.ground_inserts")
            tel.count("delta.clauses_emitted", len(emitted))
            tel.count(
                "delta.instantiations",
                self.instantiations - instantiations_before,
            )
        return emitted

    # -- clause construction ---------------------------------------------------

    def _emit_clause(
        self,
        state: _RuleState,
        partial: Mapping[Variable, Element],
        values: tuple,
        emit: Callable[[Clause], None],
    ) -> None:
        self.instantiations += 1
        assignment = dict(partial)
        assignment.update(zip(state.free, values))
        negative = {instantiate_atom(a, assignment) for a in state.idb_atoms}
        positive = frozenset(
            instantiate_atom(a, assignment) for a in state.rule.head
        )
        if negative & positive:
            return  # tautology
        for atom in state.edb_atoms:
            relation, arguments = instantiate_atom(atom, assignment)
            negative.add(fact_guard(Fact(relation, arguments)))
        for value in values:
            negative.add(adom_guard(value))
        for atom in state.adom_atoms:
            term = atom.arguments[0]
            if not isinstance(term, Variable):
                negative.add(adom_guard(term))
        emit((frozenset(negative), positive))
