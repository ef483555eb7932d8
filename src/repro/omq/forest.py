"""Complete certain-answer engine for the ALC(H) family, UCQ / AQ / BAQ.

The engine is the executable form of the forest-model argument in the proof of
Theorem 3.3.  A counter-model for a candidate answer is a *forest extension*
of the data: every data element gets a type (truth assignment over the
ontology closure) and an attached tree-shaped model realising that type.  For
query matching, attached trees are abstracted by the set of *tree
requirements* (rooted / Boolean tree-shaped subqueries) they satisfy; the
family of achievable requirement sets per type is computed by a greatest
fixpoint with antichain representation.

Supported ontologies: ALC and ALCH (role hierarchies).  Inverse roles and
transitive roles must be compiled away first (:mod:`repro.dl.rewritings`);
the universal role and functional roles are not supported here — atomic
queries with the universal role are served by :mod:`repro.omq.atomic`, and
everything else by the bounded search of :mod:`repro.omq.bounded`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

from ..core.cq import ConjunctiveQuery, UnionOfConjunctiveQueries, Variable
from ..core.instance import Instance
from ..dl.concepts import ConceptName, Role
from ..dl.ontology import Ontology
from ..dl.reasoner import TypeSystem, UnsupportedOntologyError, iter_bits
from .query import OntologyMediatedQuery

Element = Hashable


# ---------------------------------------------------------------------------
# Tree requirements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedTree:
    """A canonical rooted tree-shaped query fragment.

    ``labels`` are the unary relation names holding at the root; ``children``
    is a frozenset of edges, each an edge-role-set (all roles that the single
    connecting edge must carry) together with the child subtree.
    """

    labels: frozenset[str]
    children: frozenset[tuple[frozenset[str], "RootedTree"]]

    def subtrees(self) -> Iterator["RootedTree"]:
        yield self
        for _roles, child in self.children:
            yield from child.subtrees()

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for _roles, child in self.children)


@dataclass(frozen=True)
class BelowRequirement:
    """Some tree child reachable via an edge carrying all ``roles`` satisfies ``tree``."""

    roles: frozenset[str]
    tree: RootedTree


@dataclass(frozen=True)
class AnywhereRequirement:
    """The tree ``tree`` matches at this node or anywhere strictly below it."""

    tree: RootedTree


Requirement = "BelowRequirement | AnywhereRequirement"


# ---------------------------------------------------------------------------
# Query split analysis: cores, attachments, and tree pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySplit:
    """One way a disjunct can map into a forest model.

    ``core_variables`` map to data elements; the remaining variables map
    strictly inside attached trees.  ``core_unary`` / ``core_binary`` are the
    atoms to check over the data part; ``attached`` maps each core variable to
    the below-requirements its attached pieces impose; ``floating`` lists
    Boolean pieces that must match inside some attached tree.
    """

    disjunct: ConjunctiveQuery
    core_variables: frozenset[Variable]
    core_unary: tuple[tuple[str, Variable], ...]
    core_binary: tuple[tuple[str, Variable, Variable], ...]
    attached: tuple[tuple[Variable, BelowRequirement], ...]
    floating: tuple[AnywhereRequirement, ...]


class _PieceBuilder:
    """Builds canonical tree pieces for the non-core part of a disjunct."""

    def __init__(self, disjunct: ConjunctiveQuery, core: frozenset[Variable]):
        self.disjunct = disjunct
        self.core = core

    def build(self) -> tuple[list[tuple[Variable, BelowRequirement]], list[AnywhereRequirement]] | None:
        non_core = {
            v
            for atom in self.disjunct.atoms
            for v in atom.variables
            if v not in self.core
        }
        if not non_core:
            return [], []
        # Any binary atom from a non-core variable into a core variable cannot
        # be satisfied in a forest model (trees have no edges back to the data).
        for atom in self.disjunct.atoms:
            if atom.relation.arity == 2:
                source, target = atom.arguments
                if (
                    isinstance(source, Variable)
                    and source in non_core
                    and (not isinstance(target, Variable) or target in self.core)
                ):
                    return None
                if not isinstance(source, Variable) and isinstance(target, Variable) and target in non_core:
                    return None
        components = self._components(non_core)
        attached: list[tuple[Variable, BelowRequirement]] = []
        floating: list[AnywhereRequirement] = []
        for component in components:
            result = self._build_component(component)
            if result is None:
                return None
            anchor, requirements, anywhere = result
            if anchor is None:
                floating.extend(anywhere)
            else:
                attached.extend((anchor, req) for req in requirements)
        return attached, floating

    def _components(self, non_core: set[Variable]) -> list[set[Variable]]:
        parent = {v: v for v in non_core}

        def find(x: Variable) -> Variable:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for atom in self.disjunct.atoms:
            involved = [v for v in atom.variables if v in non_core]
            for other in involved[1:]:
                root_a, root_b = find(involved[0]), find(other)
                if root_a != root_b:
                    parent[root_a] = root_b
        groups: dict[Variable, set[Variable]] = {}
        for variable in non_core:
            groups.setdefault(find(variable), set()).add(variable)
        return list(groups.values())

    def _build_component(
        self, component: set[Variable]
    ) -> tuple[Variable | None, list[BelowRequirement], list[AnywhereRequirement]] | None:
        """Build requirements for one connected non-core component.

        Returns ``(anchor core variable or None, below requirements, anywhere
        requirements)``, or None if the component cannot match inside a tree
        for this split.
        """
        root = Variable("__root__")
        unary: dict[Variable, set[str]] = {v: set() for v in component | {root}}
        edges: dict[tuple[Variable, Variable], set[str]] = {}
        anchors: set[Variable] = set()
        for atom in self.disjunct.atoms:
            involved = [v for v in atom.variables if v in component]
            if not involved:
                continue
            if atom.relation.arity == 1:
                unary[atom.arguments[0]].add(atom.relation.name)
            elif atom.relation.arity == 2:
                source, target = atom.arguments
                if source in component and target in component:
                    edges.setdefault((source, target), set()).add(atom.relation.name)
                elif target in component:  # source is a core variable: attachment
                    anchors.add(source)
                    edges.setdefault((root, target), set()).add(atom.relation.name)
                else:
                    return None
            else:
                return None  # higher-arity atoms never match binary forest models
        if len(anchors) > 1:
            # All attachment points must coincide on one data element; requiring
            # the distinct core variables to be equal is handled by a different
            # split (where they are identified), so this split yields no match.
            return None
        anchor = next(iter(anchors)) if anchors else None

        # Merge fork targets: in a tree every node has a unique parent, so all
        # sources of edges into the same target must be identified.
        mapping = {v: v for v in component | {root}}

        def find(x: Variable) -> Variable:
            while mapping[x] != x:
                mapping[x] = mapping[mapping[x]]
                x = mapping[x]
            return x

        changed = True
        while changed:
            changed = False
            parents: dict[Variable, Variable] = {}
            merged_edges: dict[tuple[Variable, Variable], set[str]] = {}
            for (source, target), roles in edges.items():
                key = (find(source), find(target))
                if key[0] == key[1]:
                    return None  # self loop: impossible in a tree
                merged_edges.setdefault(key, set()).update(roles)
            for source, target in merged_edges:
                if target in parents and parents[target] != source:
                    first, second = parents[target], source
                    if root in (first, second):
                        other = second if first == root else first
                        if other in component:
                            # a tree variable would be forced onto the anchor
                            # element; that match is covered by another split.
                            return None
                    mapping[find(first)] = find(second)
                    changed = True
                    break
                parents[target] = source
            if not changed:
                edges = merged_edges
        # Re-canonicalise unary labels after merging.
        merged_unary: dict[Variable, set[str]] = {}
        for variable, labels in unary.items():
            merged_unary.setdefault(find(variable), set()).update(labels)
        nodes = {find(v) for v in component} | {find(root)} if anchor is not None else {
            find(v) for v in component
        }
        final_edges: dict[tuple[Variable, Variable], set[str]] = {}
        for (source, target), roles in edges.items():
            final_edges.setdefault((find(source), find(target)), set()).update(roles)

        # Check acyclicity / single root and build the canonical rooted trees.
        children_of: dict[Variable, list[tuple[frozenset[str], Variable]]] = {}
        incoming: dict[Variable, int] = {node: 0 for node in nodes}
        for (source, target), roles in final_edges.items():
            children_of.setdefault(source, []).append((frozenset(roles), target))
            incoming[target] = incoming.get(target, 0) + 1
            if incoming[target] > 1:
                return None

        def build_tree(node: Variable, seen: frozenset[Variable]) -> RootedTree | None:
            if node in seen:
                return None
            child_trees = []
            for roles, child in children_of.get(node, []):
                subtree = build_tree(child, seen | {node})
                if subtree is None:
                    return None
                child_trees.append((roles, subtree))
            return RootedTree(
                frozenset(merged_unary.get(node, set())), frozenset(child_trees)
            )

        if anchor is not None:
            root_node = find(root)
            requirements = []
            for roles, child in children_of.get(root_node, []):
                subtree = build_tree(child, frozenset({root_node}))
                if subtree is None:
                    return None
                requirements.append(BelowRequirement(roles, subtree))
            # every component node must hang below the root
            reachable = {root_node}
            frontier = [root_node]
            while frontier:
                node = frontier.pop()
                for _roles, child in children_of.get(node, []):
                    if child not in reachable:
                        reachable.add(child)
                        frontier.append(child)
            if reachable != nodes | {root_node}:
                return None
            return anchor, requirements, []
        # Boolean piece: unique root required.
        roots = [node for node in nodes if incoming.get(node, 0) == 0]
        if len(roots) != 1:
            return None
        tree = build_tree(roots[0], frozenset())
        if tree is None:
            return None
        return None, [], [AnywhereRequirement(tree)]


def enumerate_splits(disjunct: ConjunctiveQuery) -> list[QuerySplit]:
    """All ways to split the disjunct's variables into core and tree parts."""
    variables = sorted(disjunct.variables, key=str)
    answer = set(disjunct.answer_variables)
    optional = [v for v in variables if v not in answer]
    splits: list[QuerySplit] = []
    for bits in itertools.product((True, False), repeat=len(optional)):
        core = frozenset(answer | {v for v, bit in zip(optional, bits) if bit})
        builder = _PieceBuilder(disjunct, core)
        built = builder.build()
        if built is None:
            continue
        attached, floating = built
        core_unary = []
        core_binary = []
        valid = True
        for atom in disjunct.atoms:
            in_core = [
                (not isinstance(t, Variable)) or t in core for t in atom.arguments
            ]
            if all(in_core):
                if atom.relation.arity == 1:
                    core_unary.append((atom.relation.name, atom.arguments[0]))
                elif atom.relation.arity == 2:
                    core_binary.append(
                        (atom.relation.name, atom.arguments[0], atom.arguments[1])
                    )
                else:
                    valid = False
                    break
        if not valid:
            continue
        splits.append(
            QuerySplit(
                disjunct=disjunct,
                core_variables=core,
                core_unary=tuple(core_unary),
                core_binary=tuple(core_binary),
                attached=tuple(attached),
                floating=tuple(floating),
            )
        )
    return splits


# ---------------------------------------------------------------------------
# Achievable requirement sets per type (greatest fixpoint with antichains)
# ---------------------------------------------------------------------------


class ForestAbstraction:
    """Per-type antichains of minimal achievable requirement sets."""

    def __init__(self, ontology: Ontology, ucq: UnionOfConjunctiveQueries):
        if ontology.uses_universal_role():
            raise UnsupportedOntologyError(
                "the forest engine does not support the universal role; "
                "use the atomic-query engine or the bounded-model engine"
            )
        self.ontology = ontology
        self.ucq = ucq
        extra = [ConceptName(name) for name in _query_concept_names(ucq)]
        self.system = TypeSystem(ontology, extra_concepts=extra)
        self.splits = {
            index: enumerate_splits(disjunct)
            for index, disjunct in enumerate(ucq.disjuncts)
        }
        self.requirements = self._requirement_universe()
        self._achievable: dict[frozenset, list[frozenset]] | None = None

    # -- requirement universe -----------------------------------------------------

    def _requirement_universe(self) -> list:
        below: set[BelowRequirement] = set()
        anywhere: set[AnywhereRequirement] = set()
        for splits in self.splits.values():
            for split in splits:
                for _anchor, requirement in split.attached:
                    below.add(requirement)
                for requirement in split.floating:
                    anywhere.add(requirement)
        # close below-requirements under subtrees (needed by the recursion)
        frontier = list(below) + [
            BelowRequirement(roles, child)
            for req in anywhere
            for roles, child in req.tree.children
        ]
        closed: set[BelowRequirement] = set()
        while frontier:
            requirement = frontier.pop()
            if requirement in closed:
                continue
            closed.add(requirement)
            for roles, child in requirement.tree.children:
                frontier.append(BelowRequirement(roles, child))
        return sorted(closed, key=repr) + sorted(anywhere, key=repr)

    # -- matching helpers ------------------------------------------------------------

    def _super_role_names(self, base_role: Role) -> frozenset[str]:
        return frozenset(
            r.name for r in self.ontology.super_roles(base_role) if not r.is_universal()
        )

    def _tree_matches_at(
        self, tree: RootedTree, node_type: frozenset, node_reqs: frozenset
    ) -> bool:
        for label in tree.labels:
            if ConceptName(label) not in node_type:
                return False
        return all(
            BelowRequirement(roles, child) in node_reqs
            for roles, child in tree.children
        )

    def _child_contribution(
        self, base_role: Role, child_type: frozenset, child_reqs: frozenset
    ) -> frozenset:
        """Requirements that attaching this child makes true at the parent."""
        supers = self._super_role_names(base_role)
        result = set()
        for requirement in self.requirements:
            if isinstance(requirement, BelowRequirement):
                if requirement.roles <= supers and self._tree_matches_at(
                    requirement.tree, child_type, child_reqs
                ):
                    result.add(requirement)
            else:  # AnywhereRequirement propagates up from the child
                if requirement in child_reqs:
                    result.add(requirement)
        return frozenset(result)

    def _node_level_anywhere(
        self, node_type: frozenset, below_reqs: frozenset
    ) -> frozenset:
        """Anywhere-requirements that already match at the node itself."""
        result = set()
        for requirement in self.requirements:
            if isinstance(
                requirement, AnywhereRequirement
            ) and self._tree_matches_at(requirement.tree, node_type, below_reqs):
                result.add(requirement)
        return frozenset(result)

    # -- the fixpoint -----------------------------------------------------------------

    def achievable_requirement_sets(self) -> dict[frozenset, list[frozenset]]:
        """For each type, the antichain of minimal achievable requirement sets.

        A requirement set ``P`` is *achievable* for type ``t`` if some
        tree-shaped model of the ontology with root type ``t`` satisfies at
        most the requirements in ``P``.  Types whose antichain is empty cannot
        root any tree model and are discarded.
        """
        if self._achievable is not None:
            return self._achievable
        types = self.system.all_types()
        # Keyed by type index (the position in ``types``) while iterating.
        current: dict[int, list[frozenset]] = {
            index: [frozenset()] for index in range(len(types))
        }
        changed = True
        while changed:
            changed = False
            updated: dict[int, list[frozenset]] = {}
            for index in range(len(types)):
                sets = self._achievable_for(index, types, current)
                if _antichain_differs(sets, current.get(index, [])):
                    changed = True
                if sets:
                    updated[index] = sets
            if set(updated) != set(current):
                changed = True
            current = updated
        self._achievable = {types[index]: sets for index, sets in current.items()}
        return self._achievable

    def _achievable_for(
        self, index: int, types: list[frozenset], current: dict[int, list[frozenset]]
    ) -> list[frozenset]:
        node_type = types[index]
        # Per existential: the distinct minimal contributions of candidate
        # witnesses, read off the type kernel's compatibility rows.
        per_existential: list[list[frozenset]] = []
        for existential, witnesses in self.system.witness_demands(index):
            contributions: set[frozenset] = set()
            for witness in iter_bits(witnesses):
                for witness_reqs in current.get(witness, ()):
                    contributions.add(
                        self._child_contribution(
                            existential.role, types[witness], witness_reqs
                        )
                    )
            if not contributions:
                return []
            per_existential.append(_minimal_sets(contributions))
        results: set[frozenset] = set()
        combos = itertools.product(*per_existential) if per_existential else [()]
        count = 0
        for combination in combos:
            count += 1
            if count > 20000:
                # Extremely wide products only arise for adversarial inputs;
                # keep every contribution in that case (sound, possibly larger P).
                union_all: set = set()
                for options in per_existential:
                    union_all.update(frozenset().union(*options))
                results.add(
                    frozenset(union_all)
                    | self._node_level_anywhere(node_type, frozenset(union_all))
                )
                break
            below_union = frozenset().union(*combination) if combination else frozenset()
            full = below_union | self._node_level_anywhere(node_type, below_union)
            results.add(full)
        return _minimal_sets(results)

    # -- public API ------------------------------------------------------------------

    def labelled_types(self) -> list[tuple[frozenset, frozenset]]:
        """All (type, minimal requirement set) pairs realisable as tree roots."""
        pairs = []
        for node_type, sets in self.achievable_requirement_sets().items():
            for requirement_set in sets:
                pairs.append((node_type, requirement_set))
        return pairs


def _minimal_sets(sets) -> list[frozenset]:
    unique = sorted(set(sets), key=lambda s: (len(s), repr(sorted(map(repr, s)))))
    minimal: list[frozenset] = []
    for candidate in unique:
        if not any(other <= candidate for other in minimal if other != candidate):
            minimal.append(candidate)
    return minimal


def _antichain_differs(first: list[frozenset], second: list[frozenset]) -> bool:
    return set(first) != set(second)


def _query_concept_names(ucq: UnionOfConjunctiveQueries) -> set[str]:
    names = set()
    for disjunct in ucq.disjuncts:
        for atom in disjunct.atoms:
            if atom.relation.arity == 1:
                names.add(atom.relation.name)
    return names


# ---------------------------------------------------------------------------
# The certain-answer engine
# ---------------------------------------------------------------------------


class ForestEngine:
    """Certain-answer computation via forest counter-model search.

    Query matching over a forest abstraction only depends, per data element,
    on its *observable*: which query concept names its type contains and which
    tree requirements its attached tree satisfies.  The engine therefore
    enumerates observable combinations (few) rather than full labellings
    (many) and falls back to a labelling search only to decide whether a
    non-matching observable combination is actually realisable.
    """

    def __init__(self, omq: OntologyMediatedQuery):
        self.omq = omq
        self.ucq = omq.ucq()
        self.abstraction = ForestAbstraction(omq.ontology, self.ucq)
        self.system = self.abstraction.system
        self._relevant_names = frozenset(
            name
            for name in _query_concept_names(self.ucq)
            if ConceptName(name) in self.system.closure
        )

    def _observable(self, label: tuple[frozenset, frozenset]) -> tuple[frozenset, frozenset]:
        node_type, requirements = label
        names = frozenset(
            name for name in self._relevant_names if ConceptName(name) in node_type
        )
        return (names, requirements)

    # -- data-level structures ------------------------------------------------------

    def _data_views(self, instance: Instance):
        concept_facts: dict[Element, set[str]] = {}
        role_facts: dict[tuple[Element, Element], set[str]] = {}
        for fact in instance:
            if fact.relation.arity == 1:
                concept_facts.setdefault(fact.arguments[0], set()).add(
                    fact.relation.name
                )
            elif fact.relation.arity == 2:
                role_facts.setdefault(
                    (fact.arguments[0], fact.arguments[1]), set()
                ).add(fact.relation.name)
        # Close role facts under the role hierarchy (models must satisfy R ⊑ S).
        closed_roles: dict[tuple[Element, Element], set[str]] = {}
        for pair, names in role_facts.items():
            closed: set[str] = set()
            for name in names:
                closed.update(
                    r.name
                    for r in self.omq.ontology.super_roles(Role(name))
                    if not r.is_universal()
                )
            closed_roles[pair] = closed
        return concept_facts, role_facts, closed_roles

    # -- labelling search --------------------------------------------------------------

    def _candidate_labels(
        self, element: Element, concept_facts: dict[Element, set[str]]
    ) -> list[tuple[frozenset, frozenset]]:
        asserted = {
            ConceptName(name)
            for name in concept_facts.get(element, set())
            if ConceptName(name) in self.system.closure
        }
        labels = []
        for node_type, requirement_set in self.abstraction.labelled_types():
            if asserted <= node_type:
                labels.append((node_type, requirement_set))
        return labels

    # -- query matching over observables ------------------------------------------------

    def _query_matches(
        self,
        observables: dict[Element, tuple[frozenset, frozenset]],
        answer: tuple,
        concept_facts,
        closed_roles,
        elements,
    ) -> bool:
        for index in range(len(self.ucq.disjuncts)):
            for split in self.abstraction.splits[index]:
                if self._split_matches(
                    split, observables, answer, concept_facts, closed_roles, elements
                ):
                    return True
        return False

    def _split_matches(
        self,
        split: QuerySplit,
        observables,
        answer: tuple,
        concept_facts,
        closed_roles,
        elements,
    ) -> bool:
        answer_vars = split.disjunct.answer_variables
        fixed: dict[Variable, Element] = {}
        for variable, value in zip(answer_vars, answer):
            if variable in fixed and fixed[variable] != value:
                return False
            fixed[variable] = value
        free = sorted(
            (v for v in split.core_variables if v not in fixed), key=str
        )
        # Floating pieces do not depend on the core mapping.
        for requirement in split.floating:
            if not any(requirement in observables[b][1] for b in elements):
                return False
        for values in itertools.product(elements, repeat=len(free)):
            mapping = dict(fixed)
            mapping.update(zip(free, values))
            if self._core_holds(split, mapping, observables, concept_facts, closed_roles):
                return True
        return False

    def _core_holds(self, split, mapping, observables, concept_facts, closed_roles) -> bool:
        for name, variable in split.core_unary:
            element = mapping[variable] if isinstance(variable, Variable) else variable
            if name in self._relevant_names:
                if name not in observables[element][0]:
                    return False
            elif name not in concept_facts.get(element, set()):
                return False
        for name, source, target in split.core_binary:
            source_el = mapping[source] if isinstance(source, Variable) else source
            target_el = mapping[target] if isinstance(target, Variable) else target
            if name not in closed_roles.get((source_el, target_el), set()):
                return False
        for anchor, requirement in split.attached:
            element = mapping[anchor] if isinstance(anchor, Variable) else anchor
            if requirement not in observables[element][1]:
                return False
        return True

    # -- achievability of observable combinations ----------------------------------------

    def _instance_views(self, instance: Instance):
        """Per-instance observables, type pools, edge tables and fact indexes.

        ``pools[k]`` maps each observable of the ``k``-th element to the
        bitset of type indices of its candidate labels; ``earlier[k]`` lists,
        per role edge between that element and an element ``m < k`` of the
        search order, the compatibility table whose row for ``m``'s type
        bounds the ``k``-th element's type.
        """
        concept_facts, role_facts, closed_roles = self._data_views(instance)
        elements = sorted(instance.active_domain, key=repr)
        position = {element: k for k, element in enumerate(elements)}
        system = self.system
        loops = [-1] * len(elements)  # self-loop filter: all types
        earlier: list[list[tuple[int, list[int]]]] = [[] for _ in elements]
        for (source, target), names in role_facts.items():
            first, second = position[source], position[target]
            for name in sorted(names):
                role = Role(name)
                rows = system.successors(role)
                if first == second:
                    loops[first] &= sum(
                        1 << t for t, row in enumerate(rows) if row >> t & 1
                    )
                elif first < second:
                    earlier[second].append((first, rows))
                else:
                    earlier[first].append((second, system.predecessors(role)))
        pools = []
        for k, element in enumerate(elements):
            groups: dict[tuple, int] = {}
            for label in self._candidate_labels(element, concept_facts):
                key = self._observable(label)
                groups[key] = groups.get(key, 0) | 1 << system.type_index(label[0])
            pools.append({key: bits & loops[k] for key, bits in groups.items()})
        return {
            "elements": elements,
            "concept_facts": concept_facts,
            "closed_roles": closed_roles,
            "space": [sorted(groups, key=repr) for groups in pools],
            "pools": pools,
            "earlier": earlier,
        }

    @staticmethod
    def _search(pools: list[int], earlier: list[list[tuple[int, list[int]]]]) -> bool:
        """Is there a type per element, from its pool, that every role edge
        accepts?  Elements are assigned in order; each candidate pool is
        narrowed by AND-ing the table rows of the assigned neighbours."""
        chosen = [0] * len(pools)

        def search(k: int) -> bool:
            if k == len(pools):
                return True
            allowed = pools[k]
            for m, table in earlier[k]:
                allowed &= table[chosen[m]]
            for type_index in iter_bits(allowed):
                chosen[k] = type_index
                if search(k + 1):
                    return True
            return False

        return search(0)

    def _achievable(self, views, combination: tuple) -> bool:
        """Is there a consistent labelling realising the given observables?"""
        pools = [
            groups.get(observable, 0)
            for groups, observable in zip(views["pools"], combination)
        ]
        return all(pools) and self._search(pools, views["earlier"])

    def _is_consistent(self, views) -> bool:
        pools = [0] * len(views["elements"])
        for k, groups in enumerate(views["pools"]):
            for bits in groups.values():
                pools[k] |= bits
        return all(views["space"]) and self._search(pools, views["earlier"])

    # -- public API -------------------------------------------------------------------------

    def _certain_in_views(self, views, answer: tuple, cache: dict) -> bool:
        elements = views["elements"]
        space = views["space"]
        if not all(space):
            return True  # no candidate label at all: data inconsistent
        concept_facts = views["concept_facts"]
        closed_roles = views["closed_roles"]
        for combination in itertools.product(*space):
            observables = dict(zip(elements, combination))
            if self._query_matches(
                observables, answer, concept_facts, closed_roles, elements
            ):
                continue
            achievable = cache.get(combination)
            if achievable is None:
                achievable = self._achievable(views, combination)
                cache[combination] = achievable
            if achievable:
                return False
        return True

    def is_certain(self, instance: Instance, answer: Sequence = ()) -> bool:
        answer = tuple(answer)
        if not instance.active_domain:
            return False
        if any(value not in instance.active_domain for value in answer):
            return False
        views = self._instance_views(instance)
        return self._certain_in_views(views, answer, cache={})

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        arity = self.ucq.arity
        domain = sorted(instance.active_domain, key=repr)
        if not domain:
            return frozenset()
        views = self._instance_views(instance)
        cache: dict = {}
        answers = set()
        for candidate in itertools.product(domain, repeat=arity):
            if self._certain_in_views(views, candidate, cache):
                answers.add(candidate)
        return frozenset(answers)

    def is_consistent(self, instance: Instance) -> bool:
        """Is the instance consistent with the ontology (some labelling exists)?"""
        if not instance.active_domain:
            return True
        return self._is_consistent(self._instance_views(instance))
