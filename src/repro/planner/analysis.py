"""Structural analysis of compiled DDlog programs for the tiered planner.

The paper's classification results (Section 5, and the dichotomy discussion
of Theorems 5.15/5.16) say that many ontology-mediated queries are much
easier than the generic coNP certain-answer problem: some are equivalent to
UCQs (FO-rewritable), some to plain datalog, and only the rest genuinely
need disjunction.  This module provides the *syntactic* counterpart the
planner acts on, for an already-compiled disjunctive datalog program:

* :func:`analyse_program` — a census of the program (disjunctive rules,
  constraints, recursion through the IDB dependency graph);
* :func:`unfold_to_ucq` — for nonrecursive disjunction-free programs, the
  classical unfolding of the goal (and of every constraint) through the
  IDB definitions into a union of conjunctive queries over the EDB
  relations, which the tier-0 executor then evaluates directly against the
  instance indexes with the engine's join planner.

Unfolding can blow up exponentially in the rule nesting, so it is guarded
by caps on the number of disjuncts and the atoms per disjunct; when a cap
trips, the planner falls back to the fixpoint tier, which is always
available for disjunction-free programs.  The caps themselves are a *cost
model decision* (:func:`effective_unfold_caps`): the unfolding size is
estimated in closed form over the IDB call graph
(:func:`estimate_unfolding`) and the caps widen past the fixed historical
256 x 24 limits exactly when the estimated UCQ work stays within budget —
or within a constant factor of the fixpoint alternative's per-read cost —
so a program with many *small* disjuncts is no longer exiled to tier 1 by
an arbitrary constant.  Explicit :class:`~repro.planner.policy.UnfoldCaps`
numbers override the model entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..analysis.deps import cyclic_relations, dependency_graph
from ..core.cq import Atom, Variable
from ..core.schema import RelationSymbol
from ..datalog.ddlog import ADOM, DisjunctiveDatalogProgram, Rule

Element = Hashable

# Unfolding guards: beyond these, tier 1 (fixpoint) is the better plan
# anyway — the UCQ would be evaluated disjunct by disjunct.
MAX_UNFOLDED_DISJUNCTS = 256
MAX_DISJUNCT_ATOMS = 24


@dataclass(frozen=True)
class ProgramShape:
    """Syntactic census of a program: the input to tier selection."""

    rule_count: int
    constraint_count: int
    disjunctive_rule_count: int
    recursive_relations: tuple[str, ...]
    defines_adom: bool

    @property
    def recursive(self) -> bool:
        return bool(self.recursive_relations)

    @property
    def disjunction_free(self) -> bool:
        return self.disjunctive_rule_count == 0


def analyse_program(program: DisjunctiveDatalogProgram) -> ProgramShape:
    """Census the program and detect recursion through its IDB dependencies."""
    constraint_count = sum(1 for rule in program.rules if rule.is_constraint())
    disjunctive_rule_count = sum(1 for rule in program.rules if len(rule.head) > 1)
    defines_adom = any(
        atom.relation.name == ADOM for rule in program.rules for atom in rule.head
    )
    graph = dependency_graph(program)
    return ProgramShape(
        rule_count=len(program.rules),
        constraint_count=constraint_count,
        disjunctive_rule_count=disjunctive_rule_count,
        recursive_relations=tuple(sorted(cyclic_relations(graph))),
        defines_adom=defines_adom,
    )


# ---------------------------------------------------------------------------
# UCQ unfolding of nonrecursive disjunction-free programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnfoldedDisjunct:
    """One CQ disjunct of an unfolded goal or constraint.

    ``atoms`` are EDB atoms evaluated by the join planner; ``adom_terms``
    are terms that must additionally lie in the active domain (they came
    from ``adom`` atoms, or from rule variables bound by no EDB atom).  A
    constraint disjunct has an empty ``answer_terms``.
    """

    answer_terms: tuple
    atoms: tuple[Atom, ...]
    adom_terms: tuple

    def variables(self) -> frozenset[Variable]:
        result = {v for atom in self.atoms for v in atom.variables}
        result.update(t for t in self.adom_terms if isinstance(t, Variable))
        result.update(t for t in self.answer_terms if isinstance(t, Variable))
        return frozenset(result)


@dataclass(frozen=True)
class UcqUnfolding:
    """The goal and constraints of a program, unfolded into UCQs."""

    goal_disjuncts: tuple[UnfoldedDisjunct, ...]
    constraint_disjuncts: tuple[UnfoldedDisjunct, ...]

    @property
    def disjunct_count(self) -> int:
        return len(self.goal_disjuncts) + len(self.constraint_disjuncts)


def _resolve(term, sigma: dict):
    while isinstance(term, Variable) and term in sigma:
        term = sigma[term]
    return term


def _unify(
    head_args: Sequence, call_args: Sequence, sigma: dict
) -> dict | None:
    """Extend ``sigma`` so the (renamed-apart) head matches the call atom.

    Head variables are fresh, so unification only ever walks bindings one
    way; repeated head variables and constants on either side induce
    equalities on the caller's terms (or failure on a constant clash).
    """
    sigma = dict(sigma)
    for head_term, call_term in zip(head_args, call_args):
        head_term = _resolve(head_term, sigma)
        call_term = _resolve(call_term, sigma)
        if head_term == call_term and isinstance(head_term, Variable) == isinstance(
            call_term, Variable
        ):
            continue
        if isinstance(head_term, Variable):
            sigma[head_term] = call_term
        elif isinstance(call_term, Variable):
            sigma[call_term] = head_term
        elif head_term != call_term:
            return None
    return sigma


def _substitute_atom(atom: Atom, sigma: dict) -> Atom:
    return Atom(
        atom.relation, tuple(_resolve(term, sigma) for term in atom.arguments)
    )


@dataclass(frozen=True)
class _Branch:
    """One partially-unfolded disjunct: resolved parts plus pending atoms."""

    answer_terms: tuple
    pending: tuple[Atom, ...]
    atoms: tuple[Atom, ...]
    adom_terms: tuple

    def substituted(self, sigma: dict, extra_pending: tuple[Atom, ...]) -> "_Branch":
        return _Branch(
            tuple(_resolve(t, sigma) for t in self.answer_terms),
            tuple(_substitute_atom(a, sigma) for a in self.pending[1:])
            + tuple(_substitute_atom(a, sigma) for a in extra_pending),
            tuple(_substitute_atom(a, sigma) for a in self.atoms),
            tuple(_resolve(t, sigma) for t in self.adom_terms),
        )


def unfold_to_ucq(
    program: DisjunctiveDatalogProgram,
    max_disjuncts: int = MAX_UNFOLDED_DISJUNCTS,
    max_atoms: int = MAX_DISJUNCT_ATOMS,
) -> UcqUnfolding | None:
    """Unfold a nonrecursive disjunction-free program into UCQs.

    Every IDB body atom is replaced, one definition at a time, by the body
    of a defining rule (renamed apart and unified with the call); an IDB
    atom with no defining rule kills its branch — it is empty in the
    minimal model, and certain answers of a disjunction-free program are
    exactly its minimal-model answers.  Returns ``None`` when a cap trips.
    """
    definitions: dict[RelationSymbol, list[Rule]] = {}
    idb_names: set[str] = set()
    for rule in program.rules:
        if rule.head:
            definitions.setdefault(rule.head[0].relation, []).append(rule)
            idb_names.add(rule.head[0].relation.name)
    idb_names.add(program.goal_relation.name)
    counter = itertools.count()

    # Termination is guaranteed by nonrecursion; the step budget is a
    # belt-and-braces guard so a misuse on a recursive program (where a
    # pure-IDB cycle grows no disjunct and trips no cap) degrades to the
    # fixpoint tier instead of spinning.
    step_budget = max_disjuncts * (max_atoms + 8) * max(len(program.rules), 1)

    def expand(seed: _Branch) -> list[UnfoldedDisjunct] | None:
        nonlocal step_budget
        finished: list[UnfoldedDisjunct] = []
        stack = [seed]
        while stack:
            step_budget -= 1
            if step_budget <= 0 or len(stack) + len(finished) > max_disjuncts:
                return None
            branch = stack.pop()
            if not branch.pending:
                finished.append(
                    UnfoldedDisjunct(
                        branch.answer_terms,
                        branch.atoms,
                        tuple(dict.fromkeys(branch.adom_terms)),
                    )
                )
                continue
            atom = branch.pending[0]
            name = atom.relation.name
            if name == ADOM:
                stack.append(
                    _Branch(
                        branch.answer_terms,
                        branch.pending[1:],
                        branch.atoms,
                        branch.adom_terms + (atom.arguments[0],),
                    )
                )
            elif name in idb_names:
                for rule in definitions.get(atom.relation, ()):
                    renaming = {
                        v: Variable(f"{v.name}~u{next(counter)}")
                        for v in rule.variables
                    }
                    head = rule.head[0].substitute(renaming)
                    sigma = _unify(head.arguments, atom.arguments, {})
                    if sigma is None:
                        continue
                    body = tuple(a.substitute(renaming) for a in rule.body)
                    stack.append(branch.substituted(sigma, body))
            else:
                if len(branch.atoms) + 1 > max_atoms:
                    return None
                stack.append(
                    _Branch(
                        branch.answer_terms,
                        branch.pending[1:],
                        branch.atoms + (atom,),
                        branch.adom_terms,
                    )
                )
        return finished

    goal_disjuncts: list[UnfoldedDisjunct] = []
    constraint_disjuncts: list[UnfoldedDisjunct] = []
    for rule in program.rules:
        if rule.is_constraint():
            expanded = expand(_Branch((), tuple(rule.body), (), ()))
            if expanded is None:
                return None
            constraint_disjuncts.extend(expanded)
        elif rule.head[0].relation == program.goal_relation:
            expanded = expand(
                _Branch(tuple(rule.head[0].arguments), tuple(rule.body), (), ())
            )
            if expanded is None:
                return None
            goal_disjuncts.extend(expanded)
        if len(goal_disjuncts) + len(constraint_disjuncts) > max_disjuncts:
            return None
    return UcqUnfolding(tuple(goal_disjuncts), tuple(constraint_disjuncts))


# ---------------------------------------------------------------------------
# Cost-based unfolding caps
# ---------------------------------------------------------------------------

#: The historical fixed caps' work product — the cost model's budget floor.
DEFAULT_UNFOLD_WORK_BUDGET = float(MAX_UNFOLDED_DISJUNCTS * MAX_DISJUNCT_ATOMS)
#: Admit an unfolding whose estimated work stays within this factor of the
#: fixpoint alternative's per-read score: tier 0 is stateless under
#: streaming updates, so a moderately wider UCQ still beats maintaining a
#: materialization.
UNFOLD_FIXPOINT_ADVANTAGE = 8.0
#: Hard ceilings the cost model never widens past (blowup backstops).
UNFOLD_DISJUNCT_CEILING = 4096
UNFOLD_ATOM_CEILING = 96
_ESTIMATE_CLAMP = 1e12


def estimate_unfolding(
    program: DisjunctiveDatalogProgram,
) -> tuple[int, int] | None:
    """Closed-form size estimate of the UCQ unfolding, without unfolding.

    Returns ``(disjuncts, max_atoms_per_disjunct)`` computed by a memoized
    pass over the nonrecursive IDB call graph: a relation's disjunct count
    is the sum over its defining rules of the product of its IDB body
    atoms' counts, and its atom count is the body's EDB atoms plus its IDB
    atoms' contributions.  Unification only ever *kills* branches, so both
    figures are upper bounds on the real unfolding.  Returns ``None`` for
    programs the unfolder cannot handle anyway (recursive, disjunctive, or
    ``adom``-defining).
    """
    shape = analyse_program(program)
    if shape.defines_adom or not shape.disjunction_free or shape.recursive:
        return None
    definitions: dict[RelationSymbol, list[Rule]] = {}
    for rule in program.rules:
        if rule.head:
            definitions.setdefault(rule.head[0].relation, []).append(rule)
    memo: dict[RelationSymbol, tuple[float, float]] = {}

    def body_estimate(rule: Rule) -> tuple[float, float]:
        disjuncts, atoms = 1.0, 0.0
        for atom in rule.body:
            if atom.relation.name == ADOM:
                continue
            if atom.relation in definitions:
                sub_d, sub_a = relation_estimate(atom.relation)
                disjuncts = min(disjuncts * sub_d, _ESTIMATE_CLAMP)
                atoms += sub_a
            else:
                atoms += 1
        return disjuncts, atoms

    def relation_estimate(relation: RelationSymbol) -> tuple[float, float]:
        cached = memo.get(relation)
        if cached is not None:
            return cached
        disjuncts, atoms = 0.0, 0.0
        for rule in definitions.get(relation, ()):
            rule_d, rule_a = body_estimate(rule)
            disjuncts = min(disjuncts + rule_d, _ESTIMATE_CLAMP)
            atoms = max(atoms, rule_a)
        memo[relation] = (disjuncts, atoms)
        return memo[relation]

    total_disjuncts, max_atoms = 0.0, 0.0
    for rule in program.rules:
        if rule.is_constraint() or rule.head[0].relation == program.goal_relation:
            rule_d, rule_a = body_estimate(rule)
            total_disjuncts = min(total_disjuncts + rule_d, _ESTIMATE_CLAMP)
            max_atoms = max(max_atoms, rule_a)
    return int(total_disjuncts), int(max_atoms)


def fixpoint_read_score(program: DisjunctiveDatalogProgram) -> float:
    """A rough per-read cost of the tier-1 alternative: total body atoms
    joined per semi-naive round times the IDB relation count bounding the
    number of rounds.  Unitless, comparable to the unfolding's
    disjuncts x atoms work product."""
    idb = {rule.head[0].relation for rule in program.rules if rule.head}
    body_atoms = sum(len(rule.body) for rule in program.rules if rule.head)
    return float(max(body_atoms, 1) * max(len(idb), 1))


def effective_unfold_caps(
    program: DisjunctiveDatalogProgram,
    caps=None,
) -> tuple[int, int]:
    """The (max_disjuncts, max_atoms) the planner hands the unfolder.

    ``caps`` is an optional :class:`~repro.planner.policy.UnfoldCaps`;
    explicit numbers win outright.  Otherwise the decision is the cost
    model's: estimate the unfolding in closed form and widen the caps past
    the historical 256 x 24 fixed limits exactly when the estimated work
    (disjuncts x atoms) stays within ``DEFAULT_UNFOLD_WORK_BUDGET`` or within
    ``UNFOLD_FIXPOINT_ADVANTAGE`` x the fixpoint alternative's read score —
    capped by hard ceilings so a genuine blowup still trips early and
    degrades to tier 1.
    """
    if caps is not None and caps.max_disjuncts is not None and caps.max_atoms is not None:
        return caps.max_disjuncts, caps.max_atoms
    disjuncts, atoms = MAX_UNFOLDED_DISJUNCTS, MAX_DISJUNCT_ATOMS
    estimate = estimate_unfolding(program)
    if estimate is not None:
        est_disjuncts, est_atoms = estimate
        work = float(max(est_disjuncts, 1)) * float(max(est_atoms, 1))
        allowance = max(
            DEFAULT_UNFOLD_WORK_BUDGET,
            UNFOLD_FIXPOINT_ADVANTAGE * fixpoint_read_score(program),
        )
        if work <= allowance:
            disjuncts = max(disjuncts, min(est_disjuncts, UNFOLD_DISJUNCT_CEILING))
            atoms = max(atoms, min(est_atoms, UNFOLD_ATOM_CEILING))
    if caps is not None:
        if caps.max_disjuncts is not None:
            disjuncts = caps.max_disjuncts
        if caps.max_atoms is not None:
            atoms = caps.max_atoms
    return disjuncts, atoms
