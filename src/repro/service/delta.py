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

**DRed maintenance** (:class:`IncrementalFixpoint`), for disjunction-free
programs: the materialized least fixpoint is maintained by semi-naive
insertion and delete-and-rederive (over-delete everything whose derivation
touched a deleted fact, then re-derive what survives from the remainder).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping

from ..core.cq import Atom, Variable
from ..core.instance import Fact, Instance, MutableIndexedInstance
from ..core.interning import Interner, IntRow
from ..core.schema import RelationSymbol
from ..datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from ..datalog.plain import DatalogProgram, seed_row_builder
from ..engine.grounder import _split_body, instantiate_atom
from ..engine.joins import JoinPlan, compile_join, execute_join, join_exists
from ..engine.sat import Clause
from ..obs import telemetry as _telemetry

Element = Hashable

_ADOM_SYMBOL = RelationSymbol(ADOM, 1)


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


# ---------------------------------------------------------------------------
# DRed maintenance of plain-datalog fixpoints
# ---------------------------------------------------------------------------


class IncrementalFixpoint:
    """A materialized least fixpoint maintained under fact-level updates.

    Insertions run semi-naive rounds seeded by the delta; deletions use
    DRed (delete-and-rederive): over-delete every fact whose derivation may
    have used a deleted fact, then re-derive the survivors from what is
    left.  ``adom`` facts are maintained directly from the EDB instance's
    active domain, exactly as :meth:`DatalogProgram.least_fixpoint` seeds
    them.
    """

    def __init__(
        self, program: DatalogProgram, instance: Instance | None = None
    ) -> None:
        self.program = program
        self._edb = instance if instance is not None else Instance([])
        self._fixpoint = program.least_fixpoint(self._edb)
        # Re-derivation plans (whole rule body bound by the head variables),
        # lazily compiled per rule and reused across epochs: the session's
        # delta copies and fixpoints all share one append-only interner, so
        # the identity guard only recompiles if a caller ever swaps in an
        # unrelated instance.  The semi-naive per-rule plans live on the
        # program itself (:meth:`DatalogProgram.compiled_rules`).
        self._rederive_plans: list[tuple[JoinPlan, Callable] | None] | None = None
        self._rederive_interner: Interner | None = None

    def _rederive(
        self, rule_index: int, store
    ) -> tuple[JoinPlan, Callable]:
        """One rule's re-derivation plan: the whole body bound by the head
        variables, plus the head-row matcher seeding it (DRed checks)."""
        interner = store.interner
        if self._rederive_plans is None or self._rederive_interner is not interner:
            self._rederive_plans = [None] * len(self.program.rules)
            self._rederive_interner = interner
        entry = self._rederive_plans[rule_index]
        if entry is None:
            rule = self.program.rules[rule_index]
            head = rule.head[0]
            plan = compile_join(rule.body, store, bound=head.variables)
            entry = (plan, seed_row_builder(head, plan, interner))
            self._rederive_plans[rule_index] = entry
        return entry

    def join_plans(self) -> tuple | None:
        """The re-derivation plans, once a deletion compiled any."""
        if self._rederive_plans is None:
            return None
        return self._rederive_plans, self._rederive_interner

    def adopt_join_plans(self, warm: tuple) -> None:
        """Transplant plans banked from a fixpoint of the same program."""
        self._rederive_plans, self._rederive_interner = warm

    @property
    def edb(self) -> Instance:
        return self._edb

    @property
    def fixpoint(self) -> Instance:
        return self._fixpoint

    def goal_answers(self) -> frozenset[tuple]:
        """Goal tuples over the active domain (the certain answers of a
        disjunction-free program)."""
        adom = self._edb.active_domain
        return frozenset(
            row
            for row in self._fixpoint.tuples(self.program.goal_relation)
            if all(value in adom for value in row)
        )

    # -- updates ---------------------------------------------------------------

    def insert(self, facts: Iterable[Fact]) -> None:
        added = [f for f in facts if f not in self._edb.facts]
        if not added:
            return
        with _telemetry.maybe_span("dred.insert", facts=len(added)):
            new_edb = self._edb.with_facts(added)
            new_elements = new_edb.active_domain - self._edb.active_domain
            self._edb = new_edb
            delta = list(added) + [
                Fact(_ADOM_SYMBOL, (element,)) for element in new_elements
            ]
            self._propagate(delta)

    def delete(self, facts: Iterable[Fact]) -> None:
        removed = [f for f in facts if f in self._edb.facts]
        if not removed:
            return
        new_edb = self._edb.without_facts(removed)
        dropped = self._edb.active_domain - new_edb.active_domain
        self._edb = new_edb
        # Over-deletion: anything derivable through a deleted fact, computed
        # against the pre-deletion fixpoint (the standard over-approximation).
        # The whole pass runs on interned rows: the old fixpoint, the new
        # EDB and the compiled plans share the session interner, so the
        # frontier is a dict of row batches and membership checks hash ints.
        old_fixpoint = self._fixpoint
        interner = old_fixpoint.interner
        compiled = self.program.compiled_rules(old_fixpoint)
        protected_adom = {
            interner.code(element) for element in new_edb.active_domain
        }
        overdeleted: dict[RelationSymbol, set[IntRow]] = {}
        frontier: dict[RelationSymbol, list[IntRow]] = {}

        def seed(relation: RelationSymbol, row: IntRow) -> None:
            overdeleted.setdefault(relation, set()).add(row)
            frontier.setdefault(relation, []).append(row)

        for fact in removed:
            seed(fact.relation, interner.intern_row(fact.arguments))
        for element in dropped:
            seed(_ADOM_SYMBOL, (interner.code(element),))
        while frontier:
            wave: dict[RelationSymbol, list[IntRow]] = {}
            for crule in compiled:
                head_relation = crule.rule.head[0].relation
                live = old_fixpoint.relation_rows(head_relation)
                gone = overdeleted.setdefault(head_relation, set())
                protected = (
                    new_edb.relation_rows(head_relation)
                    if head_relation != _ADOM_SYMBOL
                    else None
                )
                for build_head, rows in crule.delta_result_rows(
                    old_fixpoint, frontier
                ):
                    for row in rows:
                        head_row = build_head(row)
                        if head_row in gone or head_row not in live:
                            continue
                        if protected is None:
                            if head_row[0] in protected_adom:
                                continue
                        elif head_row in protected:
                            continue
                        gone.add(head_row)
                        wave.setdefault(head_relation, []).append(head_row)
            frontier = wave
        overdeleted_facts = [
            Fact(relation, interner.decode_row(row))
            for relation, rows in overdeleted.items()
            for row in rows
        ]
        remaining = self._fixpoint.without_facts(overdeleted_facts)
        self._fixpoint = remaining
        # Re-derivation: an over-deleted fact with an alternative derivation
        # from the remainder comes back (and propagates semi-naively).  The
        # removed facts themselves are candidates too — a deleted fact over
        # an IDB relation stays derived exactly when some rule still derives
        # it, matching a from-scratch recomputation.  Each candidate is one
        # early-exit existence probe of the rule body seeded by its head row.
        rederived = []
        for fact in sorted(overdeleted_facts, key=str):
            row = interner.intern_row(fact.arguments)
            for rule_index, rule in enumerate(self.program.rules):
                head = rule.head[0]
                if head.relation != fact.relation:
                    continue
                plan, match_head = self._rederive(rule_index, remaining)
                seed_row = match_head(row)
                if seed_row is None:
                    continue
                if join_exists(plan, remaining, seed_row):
                    rederived.append(fact)
                    break
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("dred.deletes")
            tel.count("dred.overdeleted", len(overdeleted_facts))
            tel.count("dred.rederived", len(rederived))
        if rederived:
            self._propagate(rederived)

    # -- semi-naive propagation ------------------------------------------------

    def _propagate(self, delta_facts: list[Fact]) -> None:
        # One mutable columnar store across all semi-naive rounds (same
        # pattern as DatalogProgram.least_fixpoint): each round seeds the
        # cached compiled plans with the previous round's delta batches, a
        # round's derivations are buffered and applied at the round
        # boundary, and the store is frozen once at saturation.
        current = MutableIndexedInstance(self._fixpoint)
        compiled = self.program.compiled_rules(current)
        interner = current.interner
        delta: dict[RelationSymbol, list[IntRow]] = {}
        for fact in delta_facts:
            row = interner.intern_row(fact.arguments)
            if current.add_row(fact.relation, row):
                delta.setdefault(fact.relation, []).append(row)
        while delta:
            pending: dict[RelationSymbol, set[IntRow]] = {}
            for crule in compiled:
                head_relation = crule.rule.head[0].relation
                derived = pending.get(head_relation)
                for build_head, rows in crule.delta_result_rows(current, delta):
                    for row in rows:
                        head_row = build_head(row)
                        if current.has_row(head_relation, head_row):
                            continue
                        if derived is None:
                            derived = pending.setdefault(head_relation, set())
                        derived.add(head_row)
            delta = {}
            for relation, rows in pending.items():
                fresh = [row for row in rows if current.add_row(relation, row)]
                if fresh:
                    delta[relation] = fresh
        self._fixpoint = current.freeze()
