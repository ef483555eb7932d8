"""Join-planned grounding of disjunctive datalog programs.

:func:`ground_program` grounds a program over ``adom(D)`` exactly once into
a :class:`GroundProgram`: the EDB body atoms are satisfied by a
selectivity-ordered join (:mod:`repro.engine.joins`) instead of a cartesian
enumeration, run once per distinct EDB body and shared by every rule with
that body (:class:`GroundLayout`), remaining variables range over the
active domain, and the resulting clauses are deduplicated and
subsumption-reduced before solving.
The ground clause set is then loaded once into a persistent
:class:`~repro.engine.sat.ClauseSolver`, and every certain-answer query —
one per candidate tuple — is an assumption-literal ``solve`` against that
shared state.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

from ..core.cq import Atom, Variable, canonical_atoms
from ..core.instance import Instance
from ..obs import telemetry as _telemetry
from .joins import canonical_key, compile_join, execute_join, join_assignments
from .sat import Clause, ClauseSolver, solver_for_clauses

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..datalog.ddlog import DisjunctiveDatalogProgram, Rule

Element = Hashable
GroundAtom = tuple  # (RelationSymbol, argument tuple)

# Above this many clauses the quadratic-ish subsumption pass is skipped
# (plain deduplication always runs).
_SUBSUMPTION_LIMIT = 20_000

# The grounding layout is cached as an attribute on the program object, so
# it dies with the program; ``planner.plan.PLAN_ARTIFACT_ATTRS`` lists it
# for eviction.
_GROUND_LAYOUT_ATTR = "_ground_layout"


def no_model_answers(
    active_domain: frozenset,
    arity: int,
    candidates: Iterable[tuple] | None = None,
) -> frozenset[tuple]:
    """The certain answers when no model extends the data.

    Certain answers are the ``arity``-tuples over ``adom(D)`` that hold in
    every model; when no model exists every such tuple is (vacuously)
    certain, and nothing else is.  With ``candidates`` the result is the
    certain ones among them, so a batch is decided without enumerating
    ``adom ** arity``.  This is the single implementation of the rule:
    the grounder, the planner's tier executors, the serving sessions and
    the sharded merge all call it.
    """
    if candidates is None:
        domain = sorted(active_domain, key=repr)
        return frozenset(itertools.product(domain, repeat=arity))
    return frozenset(
        candidate
        for candidate in candidates
        if len(candidate) == arity
        and all(value in active_domain for value in candidate)
    )


def screen_candidates(
    solver: ClauseSolver, goal, candidates: Iterable[tuple]
) -> list[tuple]:
    """The certain candidates, right after an assumption-free ``solve()``
    succeeded: that model screens candidates whose goal atom it already
    refutes (a counter-model), and the rest cost one assumption query each.
    With the solver's false-first phase this dismisses most non-answers
    with a single search."""
    model = solver.last_model
    return [
        candidate
        for candidate in candidates
        if model.get((goal, candidate), False)
        and not solver.solve(false_atoms=[(goal, candidate)])
    ]


def instantiate_atom(atom: Atom, assignment: dict[Variable, Element]) -> GroundAtom:
    """Ground an atom under a variable assignment into a ``GroundAtom``."""
    arguments = tuple(
        assignment[a] if isinstance(a, Variable) else a for a in atom.arguments
    )
    return (atom.relation, arguments)


def _split_body(
    rule: Rule, idb_names: frozenset[str], adom_name: str
) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """Partition a rule body into (EDB atoms, adom atoms, IDB atoms)."""
    edb_atoms: list[Atom] = []
    adom_atoms: list[Atom] = []
    idb_atoms: list[Atom] = []
    for atom in rule.body:
        name = atom.relation.name
        if name == adom_name:
            adom_atoms.append(atom)
        elif name in idb_names:
            idb_atoms.append(atom)
        else:
            edb_atoms.append(atom)
    return edb_atoms, adom_atoms, idb_atoms


class GroundAux:
    """A fresh auxiliary atom factoring an independent free-variable block.

    When a rule's free variables split into blocks that share no literal,
    the conjunction of its ground clauses factors as
    ``bound-part ∨ (∧_σ1 C1σ1) ∨ ... ∨ (∧_σm Cmσm)`` — one auxiliary atom
    per block replaces the ``|domain|^(k1+...+km)`` cartesian product by
    ``|domain|^k1 + ... + |domain|^km`` definitional clauses (one-sided
    encoding, sound for the satisfiability queries the engine issues).
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"GroundAux({self.index})"


def _instantiate_literals(
    literals: Sequence[tuple[Atom, bool]], assignment: dict[Variable, Element]
) -> tuple[frozenset, frozenset]:
    negative = frozenset(
        instantiate_atom(atom, assignment) for atom, pos in literals if not pos
    )
    positive = frozenset(
        instantiate_atom(atom, assignment) for atom, pos in literals if pos
    )
    return negative, positive


def _free_variable_blocks(
    free: Sequence[Variable], literals: Sequence[tuple[Atom, bool]]
) -> tuple[list[tuple[list[Variable], list[tuple[Atom, bool]]]], list]:
    """Partition free variables and literals into co-occurrence blocks.

    Two free variables belong to the same block when some literal mentions
    both (transitively); a literal belongs to the block of its free
    variables.  Returns ``(blocks, bound_literals)`` where bound literals
    mention no free variable at all.  Free variables mentioned by no literal
    (they occur only in variable ``adom`` atoms) span no block: enumerating
    them would only multiply duplicate clauses.
    """
    free_set = set(free)
    parent: dict[Variable, Variable] = {v: v for v in free}

    def find(v: Variable) -> Variable:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bound_literals: list[tuple[Atom, bool]] = []
    placed: list[tuple[tuple[Atom, bool], list[Variable]]] = []
    for literal in literals:
        atom_free = [v for v in literal[0].variables if v in free_set]
        if not atom_free:
            bound_literals.append(literal)
            continue
        placed.append((literal, atom_free))
        for other in atom_free[1:]:
            root_a, root_b = find(atom_free[0]), find(other)
            if root_a != root_b:
                parent[root_a] = root_b
    blocks: dict[Variable, tuple[list[Variable], list[tuple[Atom, bool]]]] = {}
    for variable in free:
        root = find(variable)
        if root not in blocks:
            blocks[root] = ([], [])
        blocks[root][0].append(variable)
    for literal, atom_free in placed:
        blocks[find(atom_free[0])][1].append(literal)
    ordered = sorted(
        (block for block in blocks.values() if block[1]),
        key=lambda block: str(block[0][0]),
    )
    return ordered, bound_literals


class _RuleLayout:
    """One rule's grounding layout, derived once per program.

    The body split, the free variables (those no EDB atom binds) with their
    co-occurrence blocks, and the rule's EDB body *key* up to variable
    renaming (:func:`~repro.core.cq.canonical_atoms`) together with the
    rule's variables in the key's first-occurrence order.  Nothing here
    depends on an instance or an interner.
    """

    __slots__ = (
        "edb_atoms",
        "adom_constants",
        "free",
        "blocks",
        "bound_literals",
        "body_key",
        "body_variables",
        "last_of_body",
    )

    def __init__(self, rule: Rule, idb_names: frozenset[str], adom_name: str) -> None:
        edb_atoms, adom_atoms, idb_atoms = _split_body(rule, idb_names, adom_name)
        self.edb_atoms = edb_atoms
        # Constant adom atoms are static guards; variable ones are subsumed
        # by the free-variable enumeration over the domain.
        self.adom_constants = tuple(
            atom.arguments[0]
            for atom in adom_atoms
            if not isinstance(atom.arguments[0], Variable)
        )
        numbering: dict[Variable, int] = {}
        self.body_key = canonical_atoms(edb_atoms, numbering)
        self.body_variables = tuple(numbering)
        # Head variables occur in the body, so the free ones are the adom
        # and IDB atoms' variables that no EDB atom binds.
        self.free = sorted(
            {
                term
                for atom in itertools.chain(adom_atoms, idb_atoms)
                for term in atom.arguments
                if isinstance(term, Variable) and term not in numbering
            },
            key=str,
        )
        literals = [(a, False) for a in idb_atoms] + [(a, True) for a in rule.head]
        if self.free:
            self.blocks, self.bound_literals = _free_variable_blocks(
                self.free, literals
            )
        else:
            self.blocks, self.bound_literals = [], literals
        self.last_of_body = True  # cleared for all but a key's last rule


class GroundLayout:
    """A program's grounding layout: one :class:`_RuleLayout` per rule, in
    rule order, and the columnar join plan of each distinct EDB body.

    Rules whose EDB bodies agree up to variable renaming — the Theorem 3.3
    compiles emit thousands of type-incompatibility constraints over a
    handful of bodies — share one plan, and one grounding executes it once
    for all of them.  Plans are interner-independent, so the layout (cached
    on the program object, see :func:`ground_layout`) serves every
    grounding of every instance.
    """

    def __init__(self, program: DisjunctiveDatalogProgram) -> None:
        from ..datalog.ddlog import ADOM, GOAL

        idb_names = frozenset(
            {sym.name for sym in program.idb_relations} | {GOAL}
        ) - {ADOM}
        self.rules = [_RuleLayout(rule, idb_names, ADOM) for rule in program.rules]
        seen: set[tuple] = set()
        for layout in reversed(self.rules):
            if layout.body_key in seen:
                layout.last_of_body = False
            seen.add(layout.body_key)
        self.body_count = len(seen)
        # body key -> (JoinPlan, per plan slot: the key's variable number)
        self._plans: dict[tuple, tuple] = {}

    def body_matches(
        self, layout: _RuleLayout, instance: Instance, shared: dict
    ) -> Iterator[dict[Variable, Element]]:
        """The rule's EDB body matches, through its body's shared join.

        The first rule of a body compiles (once per program) and executes
        (once per grounding) the join, decoding its rows to constant tuples
        in plan slot order; ``shared`` keeps them for the body's later rules
        and drops them at its last.  Each rule reads the tuples through its
        own variables, so renamed-apart bodies map every match correctly.
        The executor's batches carry each assignment exactly once (its
        semi-join steps collapse the multiple derivation paths the tuple
        engine has to dedup by canonical key).
        """
        key = layout.body_key
        compiled = self._plans.get(key)
        if compiled is None:
            plan = compile_join(layout.edb_atoms, instance)
            number = {v: n for n, v in enumerate(layout.body_variables)}
            compiled = (plan, tuple(number[v] for v in plan.variables))
            self._plans[key] = compiled
        plan, slot_numbers = compiled
        matches = shared.pop(key, None) if layout.last_of_body else shared.get(key)
        if matches is None:
            decode = instance.interner.decode_row
            matches = [decode(row) for row in execute_join(plan, instance)]
            if not layout.last_of_body:
                shared[key] = matches
        variables = tuple(layout.body_variables[n] for n in slot_numbers)
        for values in matches:
            yield dict(zip(variables, values))


def ground_layout(program: DisjunctiveDatalogProgram) -> GroundLayout:
    """The program's (cached) :class:`GroundLayout`."""
    layout = getattr(program, _GROUND_LAYOUT_ATTR, None)
    if layout is None:
        layout = GroundLayout(program)
        try:
            setattr(program, _GROUND_LAYOUT_ATTR, layout)
        except AttributeError:  # slotted program types: grounding still works
            pass
    return layout


def _tuple_partials(
    edb_atoms: list[Atom], instance: Instance
) -> Iterator[dict[Variable, Element]]:
    """The deduplicated EDB body matches of one rule, tuple-at-a-time."""
    seen_partials: set[tuple] = set()
    for partial in join_assignments(edb_atoms, instance):
        # Canonical (variable name, value) dedup key — never repr-based, so
        # distinct constants with identical reprs cannot collide.
        key = canonical_key(partial)
        if key in seen_partials:
            continue
        seen_partials.add(key)
        yield partial


def _rule_clauses(
    layout: _RuleLayout,
    partials: Iterable[dict[Variable, Element]],
    domain: Sequence[Element],
    aux_counter: Iterator[int],
) -> Iterator[Clause]:
    blocks = layout.blocks
    # Per-block assignment tuples, computed once per rule instead of per join
    # result (the former inner ``domain ** len(free)`` cartesian product).
    block_tuples = [
        list(itertools.product(domain, repeat=len(variables)))
        for variables, _ in blocks
    ]
    for partial in partials:
        bound_negative, bound_positive = _instantiate_literals(
            layout.bound_literals, partial
        )
        if bound_negative & bound_positive:
            continue  # every clause of this join result is tautological
        if not blocks:
            yield (bound_negative, bound_positive)
            continue
        if len(blocks) == 1:
            variables, block_literals = blocks[0]
            for values in block_tuples[0]:
                assignment = dict(partial)
                assignment.update(zip(variables, values))
                negative, positive = _instantiate_literals(
                    block_literals, assignment
                )
                yield (bound_negative | negative, bound_positive | positive)
            continue
        # Independent blocks: factor the cartesian product through one
        # auxiliary atom per block (see :class:`GroundAux`).
        aux_atoms = [GroundAux(next(aux_counter)) for _ in blocks]
        for (variables, block_literals), tuples, aux in zip(
            blocks, block_tuples, aux_atoms
        ):
            for values in tuples:
                assignment = dict(partial)
                assignment.update(zip(variables, values))
                negative, positive = _instantiate_literals(
                    block_literals, assignment
                )
                if negative & positive:
                    continue  # valid conjunct: drop from the block's AND
                yield (negative | {aux}, positive)
        yield (bound_negative, bound_positive | frozenset(aux_atoms))


def _dedupe_and_subsume(clauses: Iterable[Clause]) -> list[Clause]:
    """Drop duplicate, tautological and subsumed clauses.

    A clause ``C`` subsumes ``C'`` when its literals are a subset of ``C'``'s
    (in which case ``C'`` is redundant).  Every signed ground literal is
    interned to a dense int on the way in, so deduplication hashes int
    frozensets and the subset tests behind subsumption compare int sets —
    ground atoms (relation + constant tuple) are hashed once per distinct
    literal, not once per clause they appear in.  Clauses are processed
    smallest first, and candidate subsumers are located through
    per-literal occurrence lists, so the pass is near-linear on typical
    ground programs; beyond ``_SUBSUMPTION_LIMIT`` clauses only exact
    deduplication runs.
    """
    tel = _telemetry.ACTIVE
    literal_codes: dict[tuple, int] = {}

    def code_of(literal: tuple) -> int:
        code = literal_codes.get(literal)
        if code is None:
            code = len(literal_codes)
            literal_codes[literal] = code
        return code

    total = 0
    unique: list[tuple[Clause, frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for clause in clauses:
        total += 1
        negative, positive = clause
        if negative & positive:
            continue  # tautology: some atom both required true and made true
        interned = frozenset(
            itertools.chain(
                (code_of((atom, False)) for atom in negative),
                (code_of((atom, True)) for atom in positive),
            )
        )
        if interned not in seen:
            seen.add(interned)
            unique.append((clause, interned))
    if len(unique) > _SUBSUMPTION_LIMIT:
        if tel is not None:
            tel.count("grounder.clauses_in", total)
            tel.count("grounder.dedup_drops", total - len(unique))
            tel.count("grounder.subsumption_passes_skipped")
        return [clause for clause, _ in unique]
    unique.sort(key=lambda pair: len(pair[1]))
    kept: list[Clause] = []
    kept_codes: list[frozenset[int]] = []
    occurrences: dict[int, list[int]] = {}
    for clause, interned in unique:
        subsumed = False
        for literal in interned:
            for index in occurrences.get(literal, ()):
                if kept_codes[index] <= interned:
                    subsumed = True
                    break
            if subsumed:
                break
        if subsumed:
            continue
        index = len(kept)
        kept.append(clause)
        kept_codes.append(interned)
        for literal in interned:
            occurrences.setdefault(literal, []).append(index)
    if tel is not None:
        tel.count("grounder.clauses_in", total)
        tel.count("grounder.dedup_drops", total - len(unique))
        tel.count("grounder.subsumption_hits", len(unique) - len(kept))
    return kept


class GroundProgram:
    """A program grounded once over an instance, with a persistent solver."""

    def __init__(
        self,
        program: DisjunctiveDatalogProgram,
        instance: Instance,
        clauses: list[Clause],
    ) -> None:
        self.program = program
        self.instance = instance
        self.clauses = clauses
        self._solver: ClauseSolver | None = None

    @property
    def solver(self) -> ClauseSolver:
        if self._solver is None:
            self._solver = solver_for_clauses(self.clauses)
        return self._solver

    # -- queries ---------------------------------------------------------------

    def _goal_atoms(self, goal_tuples: Iterable[tuple]) -> list[GroundAtom]:
        goal = self.program.goal_relation
        return [(goal, tuple(args)) for args in goal_tuples]

    def has_model_avoiding(self, goal_tuples: Iterable[tuple]) -> bool:
        """Is there a model of the program extending the instance in which
        none of the given goal tuples holds?"""
        return self.solver.solve(false_atoms=self._goal_atoms(goal_tuples))

    def holds(self, answer: Sequence = ()) -> bool:
        """Is ``answer`` certain?  One solver call: a tuple without a
        counter-model is certain, or no model exists at all and the
        no-model rule decides — so ill-formed tuples are screened first."""
        answer = tuple(answer)
        if not no_model_answers(
            self.instance.active_domain, self.program.arity, [answer]
        ):
            return False
        return not self.has_model_avoiding([answer])

    def certain_answers(self) -> frozenset[tuple]:
        """All certain answers: the assumption-free ``solve()`` that finds
        a model also screens the candidates (:func:`screen_candidates`)."""
        arity = self.program.arity
        if not self.solver.solve():
            return no_model_answers(self.instance.active_domain, arity)
        domain = sorted(self.instance.active_domain, key=repr)
        candidates = itertools.product(domain, repeat=arity)
        return frozenset(
            screen_candidates(self.solver, self.program.goal_relation, candidates)
        )


def ground_program(
    program: DisjunctiveDatalogProgram,
    instance: Instance,
    engine: str = "columnar",
) -> GroundProgram:
    """Ground the program over ``adom(D)`` (once) into a :class:`GroundProgram`.

    ``engine`` selects the EDB join path: ``"columnar"`` (default) runs the
    set-at-a-time interned executor once per distinct EDB body
    (:class:`GroundLayout`), ``"tuple"`` the pre-columnar tuple-at-a-time
    join once per rule — kept as the cross-validation reference and
    benchmark baseline.  Either way rules emit their clauses in program
    order.
    """
    if engine not in ("columnar", "tuple"):
        raise ValueError(f"unknown grounding engine: {engine!r}")
    domain = sorted(instance.active_domain, key=repr)
    domain_set = instance.active_domain
    layout = ground_layout(program)
    with _telemetry.maybe_span(
        "grounder.ground_program",
        rules=len(layout.rules),
        edb_bodies=layout.body_count,
        domain_size=len(domain),
        engine=engine,
    ) as span:
        clauses: list[Clause] = []
        aux_counter = itertools.count()
        shared: dict[tuple, list] = {}
        for rule_layout in layout.rules:
            if (rule_layout.free and not domain) or any(
                term not in domain_set for term in rule_layout.adom_constants
            ):
                if rule_layout.last_of_body:
                    shared.pop(rule_layout.body_key, None)
                continue
            if engine == "columnar":
                partials = layout.body_matches(rule_layout, instance, shared)
            else:
                partials = _tuple_partials(rule_layout.edb_atoms, instance)
            clauses.extend(_rule_clauses(rule_layout, partials, domain, aux_counter))
        kept = _dedupe_and_subsume(clauses)
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("grounder.clauses_emitted", len(clauses))
            tel.count("grounder.clauses_kept", len(kept))
            tel.count("grounder.edb_bodies", layout.body_count)
            span.set(clauses_emitted=len(clauses), clauses_kept=len(kept))
        return GroundProgram(program, instance, kept)
