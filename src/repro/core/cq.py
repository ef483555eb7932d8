"""Conjunctive queries, UCQs, atomic queries and the ``tree(q)`` machinery.

Evaluation of a CQ over an instance is implemented via homomorphisms from the
query's canonical instance (variables as elements) into the data.  The module
also implements the query-shape analysis used in the proof of Theorem 3.3:
*fork elimination*, detection of tree-shaped components, and the set
``tree(q)`` of rooted / Boolean tree-shaped subqueries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, cast

from .homomorphism import homomorphisms
from .instance import Fact, Instance
from .schema import RelationSymbol, Schema


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Hashable  # either a Variable or a constant


@dataclass(frozen=True, order=True)
class Atom:
    """A relational atom ``R(t1, ..., tn)`` over variables and constants."""

    relation: RelationSymbol
    arguments: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.arguments) != self.relation.arity:
            raise ValueError(
                f"atom over {self.relation} expects {self.relation.arity} "
                f"arguments, got {len(self.arguments)}"
            )

    def __str__(self) -> str:
        return f"{self.relation.name}({', '.join(str(a) for a in self.arguments)})"

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(a for a in self.arguments if isinstance(a, Variable))

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        return Atom(self.relation, tuple(mapping.get(a, a) for a in self.arguments))


def var(name: str) -> Variable:
    return Variable(name)


def vars_(*names: str) -> tuple[Variable, ...]:
    return tuple(Variable(name) for name in names)


def canonical_atoms(atoms: Iterable[Atom], numbering: dict[Variable, int]) -> tuple:
    """Atoms up to variable renaming: variables numbered by first occurrence.

    ``numbering`` is extended in place (pass one dict across several calls
    to number a whole rule), so afterwards ``list(numbering)`` lists the
    variables in first-occurrence order.  Repeated variables keep their
    shared number and constants stay the constant objects themselves
    (compared by ``__eq__``), so ``R(x, x)``, ``R(x, y)``, ``R(x, c)`` and
    ``R(x, d)`` all get distinct keys while ``R(x, y)`` and ``R(y, x)``
    share one.
    """

    def canon_term(term):
        if isinstance(term, Variable):
            return ("v", numbering.setdefault(term, len(numbering)))
        return ("c", term)

    return tuple(
        (atom.relation.name, atom.relation.arity)
        + tuple(canon_term(term) for term in atom.arguments)
        for atom in atoms
    )


class ConjunctiveQuery:
    """A conjunctive query: existentially quantified conjunction of atoms.

    ``answer_variables`` is the tuple of free variables (possibly with
    repetitions, which encode equality constraints between answer positions).
    All other variables are existentially quantified.
    """

    def __init__(
        self,
        answer_variables: Sequence[Variable],
        atoms: Iterable[Atom],
    ) -> None:
        self.answer_variables: tuple[Variable, ...] = tuple(answer_variables)
        self.atoms: frozenset[Atom] = frozenset(atoms)
        all_vars: set[Variable] = set()
        for atom in self.atoms:
            all_vars.update(atom.variables)
        missing = [v for v in self.answer_variables if v not in all_vars]
        if missing and self.atoms:
            raise ValueError(
                f"answer variables {missing} do not occur in any atom"
            )
        self._variables = frozenset(all_vars) | set(self.answer_variables)

    # -- basic accessors -------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    @property
    def variables(self) -> frozenset[Variable]:
        return self._variables

    @property
    def existential_variables(self) -> frozenset[Variable]:
        return self._variables - set(self.answer_variables)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.atoms)

    def width(self) -> int:
        """Number of variables (the ``width of q`` in Theorem 3.3)."""
        return len(self._variables)

    def size(self) -> int:
        """Syntactic size: relation symbols, terms and parentheses."""
        return sum(2 + len(atom.arguments) for atom in self.atoms) + self.arity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.answer_variables == other.answer_variables
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.answer_variables, self.atoms))

    def __repr__(self) -> str:
        body = " & ".join(sorted(str(a) for a in self.atoms))
        head = ", ".join(str(v) for v in self.answer_variables)
        return f"CQ({head} :- {body})"

    # -- structure -------------------------------------------------------------

    def canonical_instance(self) -> tuple[Instance, tuple[Term, ...]]:
        """The canonical instance of the query (variables become constants).

        Returns the instance together with the tuple of (images of the) answer
        variables.  Constants occurring in the query remain themselves.
        """
        facts = [Fact(atom.relation, atom.arguments) for atom in self.atoms]
        return Instance(facts), tuple(self.answer_variables)

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        # Fork elimination only ever merges variables into variables (or drops
        # an answer variable onto a constant representative, which the
        # ConjunctiveQuery constructor then rejects), hence the cast.
        return ConjunctiveQuery(
            tuple(cast(Variable, mapping.get(v, v)) for v in self.answer_variables),
            (atom.substitute(mapping) for atom in self.atoms),
        )

    def connected_components(self) -> list["ConjunctiveQuery"]:
        """Split into connected components of the variable co-occurrence graph.

        Answer variables are kept on the component containing them; a component
        without any answer variable becomes a Boolean CQ.
        """
        if not self.atoms:
            return [self]
        parent: dict[Term, Term] = {}

        def find(x: Term) -> Term:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: Term, y: Term) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for atom in self.atoms:
            terms = list(atom.arguments)
            for other in terms[1:]:
                union(terms[0], other)
        groups: dict[Term | None, list[Atom]] = {}
        for atom in self.atoms:
            root = find(atom.arguments[0]) if atom.arguments else None
            groups.setdefault(root, []).append(atom)
        components: list[ConjunctiveQuery] = []
        for atoms in groups.values():
            terms_here = {t for atom in atoms for t in atom.arguments}
            answers = tuple(v for v in self.answer_variables if v in terms_here)
            components.append(ConjunctiveQuery(answers, atoms))
        return components

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, instance: Instance) -> frozenset[tuple[Term, ...]]:
        """The answer set ``q(D)`` (set of tuples over ``adom(D)``)."""
        canonical, answer_terms = self.canonical_instance()
        answers: set[tuple[Term, ...]] = set()
        if not self.atoms:
            # An atomless query is satisfied trivially; with answer variables it
            # would be unsafe, so only the Boolean case is meaningful here.
            return frozenset({()}) if self.arity == 0 else frozenset()
        for hom in homomorphisms(canonical, instance):
            answers.add(tuple(hom.get(t, t) for t in answer_terms))
        return frozenset(answers)

    def holds_in(self, instance: Instance, answer: Sequence[Term] = ()) -> bool:
        """Does the tuple ``answer`` belong to ``q(D)``?"""
        canonical, answer_terms = self.canonical_instance()
        if not self.atoms:
            return self.arity == 0
        fixed: dict[Term, Term] = {}
        for term, value in zip(answer_terms, answer):
            if term in fixed and fixed[term] != value:
                return False
            fixed[term] = value
        for _hom in homomorphisms(canonical, instance, fixed=fixed):
            return True
        return False


class UnionOfConjunctiveQueries:
    """A UCQ: a disjunction of CQs sharing the same answer arity."""

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery]) -> None:
        self.disjuncts: tuple[ConjunctiveQuery, ...] = tuple(disjuncts)
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")
        arities = {d.arity for d in self.disjuncts}
        if len(arities) != 1:
            raise ValueError(f"disjuncts disagree on arity: {arities}")

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def is_boolean(self) -> bool:
        return self.arity == 0

    def schema(self) -> Schema:
        result = Schema()
        for disjunct in self.disjuncts:
            result = result | disjunct.schema()
        return result

    def width(self) -> int:
        return max(d.width() for d in self.disjuncts)

    def size(self) -> int:
        return sum(d.size() for d in self.disjuncts)

    def evaluate(self, instance: Instance) -> frozenset[tuple[Term, ...]]:
        answers: set[tuple[Term, ...]] = set()
        for disjunct in self.disjuncts:
            answers.update(disjunct.evaluate(instance))
        return frozenset(answers)

    def holds_in(self, instance: Instance, answer: Sequence[Term] = ()) -> bool:
        return any(d.holds_in(instance, answer) for d in self.disjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionOfConjunctiveQueries):
            return NotImplemented
        return set(self.disjuncts) == set(other.disjuncts)

    def __hash__(self) -> int:
        return hash(frozenset(self.disjuncts))

    def __repr__(self) -> str:
        return " | ".join(repr(d) for d in self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)


def atomic_query(concept_name: str, variable: Variable | None = None) -> ConjunctiveQuery:
    """An atomic query ``A(x)`` (AQ)."""
    x = variable or Variable("x")
    return ConjunctiveQuery((x,), [Atom(RelationSymbol(concept_name, 1), (x,))])


def boolean_atomic_query(concept_name: str) -> ConjunctiveQuery:
    """A Boolean atomic query ``∃x A(x)`` (BAQ)."""
    x = Variable("x")
    return ConjunctiveQuery((), [Atom(RelationSymbol(concept_name, 1), (x,))])


def is_atomic_query(query: ConjunctiveQuery) -> bool:
    if query.arity != 1 or len(query.atoms) != 1:
        return False
    atom = next(iter(query.atoms))
    return atom.relation.arity == 1 and atom.arguments == (query.answer_variables[0],)


def is_boolean_atomic_query(query: ConjunctiveQuery) -> bool:
    if query.arity != 0 or len(query.atoms) != 1:
        return False
    atom = next(iter(query.atoms))
    return atom.relation.arity == 1


def as_ucq(query: "ConjunctiveQuery | UnionOfConjunctiveQueries") -> UnionOfConjunctiveQueries:
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    return UnionOfConjunctiveQueries([query])


# ---------------------------------------------------------------------------
# Fork elimination and tree(q): the query-shape analysis of Theorem 3.3.
# ---------------------------------------------------------------------------


def eliminate_forks(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Exhaustive fork elimination over a binary-schema CQ.

    Whenever two atoms ``R(y1, x)`` and ``R(y2, x)`` with ``y1 != y2`` share the
    same role and target, ``y1`` and ``y2`` are identified (Theorem 3.3 proof,
    Step 1).  Answer variables absorb existential variables they are merged with.
    """
    current = query
    changed = True
    while changed:
        changed = False
        binary_atoms = [a for a in current.atoms if a.relation.arity == 2]
        by_role_target: dict[tuple[RelationSymbol, Term], list[Term]] = {}
        for atom in binary_atoms:
            by_role_target.setdefault((atom.relation, atom.arguments[1]), []).append(
                atom.arguments[0]
            )
        for sources in by_role_target.values():
            distinct = sorted(set(sources), key=str)
            if len(distinct) > 1:
                keep, merge = _pick_representative(distinct, current.answer_variables)
                mapping = {m: keep for m in merge}
                current = current.substitute(mapping)
                changed = True
                break
    return current


def _pick_representative(
    terms: Sequence[Term], answer_variables: Sequence[Variable]
) -> tuple[Term, list[Term]]:
    """Prefer keeping an answer variable (or a constant) as the representative."""
    answers = set(answer_variables)
    preferred = [t for t in terms if t in answers or not isinstance(t, Variable)]
    keep = preferred[0] if preferred else terms[0]
    merge = [t for t in terms if t != keep]
    return keep, merge


def is_tree_shaped(query: ConjunctiveQuery) -> bool:
    """Tree-shapedness per the paper: the directed graph on the binary atoms is a
    tree and no two parallel edges carry different roles (or the same role twice).
    """
    binary_atoms = [a for a in query.atoms if a.relation.arity == 2]
    if not binary_atoms and len({t for a in query.atoms for t in a.arguments}) <= 1:
        return True
    edges = [(a.arguments[0], a.arguments[1]) for a in binary_atoms]
    nodes = {t for a in query.atoms for t in a.arguments}
    if len(set(edges)) != len(edges):
        return False
    # no multi-edges with different roles
    if len({(a.arguments[0], a.arguments[1]) for a in binary_atoms}) != len(binary_atoms):
        return False
    # each node has at most one incoming edge, exactly one root, acyclic, connected
    targets = [t for (_s, t) in edges]
    if len(targets) != len(set(targets)):
        return False
    roots = [n for n in nodes if n not in set(targets)]
    if len(roots) != 1:
        return False
    # connectivity and acyclicity: reachable set from root covers all nodes
    adjacency: dict[Term, list[Term]] = {}
    for source, target in edges:
        adjacency.setdefault(source, []).append(target)
    seen = set()
    stack = [roots[0]]
    while stack:
        node = stack.pop()
        if node in seen:
            return False
        seen.add(node)
        stack.extend(adjacency.get(node, []))
    return seen == nodes


def tree_root(query: ConjunctiveQuery) -> Term:
    """The root of a tree-shaped CQ."""
    binary_atoms = [a for a in query.atoms if a.relation.arity == 2]
    if not binary_atoms:
        terms = {t for a in query.atoms for t in a.arguments}
        return next(iter(terms))
    targets = {a.arguments[1] for a in binary_atoms}
    sources = {a.arguments[0] for a in binary_atoms}
    roots = sources - targets
    return next(iter(roots))


def _restriction_reachable_from(
    query: ConjunctiveQuery, start: Term
) -> ConjunctiveQuery:
    """The restriction ``q|_y`` of a CQ to terms reachable from ``start``
    (viewing binary atoms as directed edges)."""
    adjacency: dict[Term, set[Term]] = {}
    for atom in query.atoms:
        if atom.relation.arity == 2:
            adjacency.setdefault(atom.arguments[0], set()).add(atom.arguments[1])
    reachable = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for successor in adjacency.get(node, ()):
            if successor not in reachable:
                reachable.add(successor)
                frontier.append(successor)
    atoms = [
        a for a in query.atoms if all(t in reachable for t in a.arguments)
    ]
    return ConjunctiveQuery((), atoms)


def tree_queries(query: "ConjunctiveQuery | UnionOfConjunctiveQueries") -> list[ConjunctiveQuery]:
    """The set ``tree(q)`` of Theorem 3.3.

    For each disjunct ``q'`` of the UCQ: perform fork elimination, then collect
    (i) every connected component that is tree-shaped and answer-variable free
    (as a Boolean CQ), and (ii) for every atom ``R(x, y)`` whose reachable
    restriction ``q|_y`` is tree-shaped and answer-variable free, the rooted CQ
    ``{R(x, y)} ∪ q|_y`` with ``x`` as its only answer variable.
    """
    ucq = as_ucq(query)
    collected: list[ConjunctiveQuery] = []
    seen: set[tuple[tuple[Variable, ...], frozenset[Atom]]] = set()

    def add(candidate: ConjunctiveQuery) -> None:
        key = (candidate.answer_variables, candidate.atoms)
        if key not in seen:
            seen.add(key)
            collected.append(candidate)

    for disjunct in ucq.disjuncts:
        reduced = eliminate_forks(disjunct)
        answer_set = set(reduced.answer_variables)
        for component in reduced.connected_components():
            if not component.answer_variables and is_tree_shaped(component):
                add(ConjunctiveQuery((), component.atoms))
        for atom in reduced.atoms:
            if atom.relation.arity != 2:
                continue
            source, target = atom.arguments
            restriction = _restriction_reachable_from(reduced, target)
            touches_answer = any(
                isinstance(t, Variable) and t in answer_set
                for a in restriction.atoms
                for t in a.arguments
            )
            if touches_answer or not is_tree_shaped(restriction):
                continue
            reachable_terms = {t for a in restriction.atoms for t in a.arguments} | {target}
            if source in reachable_terms:
                continue  # the edge would close a cycle
            # Maximality (cf. the Theorem 3.3 example): a non-core component
            # attached below ``target`` contains *every* atom incident to the
            # reachable part, so a candidate is only valid when no other atom
            # of the query dangles into it.
            dangling = any(
                other != atom
                and other not in restriction.atoms
                and any(t in reachable_terms for t in other.arguments)
                for other in reduced.atoms
            )
            if dangling:
                continue
            rooted_atoms = set(restriction.atoms) | {atom}
            if isinstance(source, Variable):
                add(ConjunctiveQuery((source,), rooted_atoms))
    return collected


def all_cqs_up_to(
    schema: Schema,
    num_variables: int,
    max_atoms: int,
    arity: int = 0,
) -> Iterator[ConjunctiveQuery]:
    """Enumerate CQs over a schema with bounded variables and atoms (test helper)."""
    variables = vars_(*(f"x{i}" for i in range(num_variables)))
    possible_atoms: list[Atom] = []
    for symbol in schema:
        for args in itertools.product(variables, repeat=symbol.arity):
            possible_atoms.append(Atom(symbol, args))
    for size in range(1, max_atoms + 1):
        for atoms in itertools.combinations(possible_atoms, size):
            used = {v for a in atoms for v in a.variables}
            answers = tuple(sorted(used))[:arity]
            if len(answers) < arity:
                continue
            yield ConjunctiveQuery(answers, atoms)
