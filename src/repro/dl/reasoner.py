"""Type-elimination reasoning for the ALC family.

The reasoner implements the classical *type elimination* procedure that also
underlies the proofs of Theorems 3.3 and 3.4: a *type* is a truth assignment
to the subconcepts of the ontology (closed under negation normal form), a type
is *good* if it can be realised at the root of a tree-shaped model, and an
ABox (instance) is consistent with the ontology iff its elements can be
labelled with good types compatible with the asserted facts.

Supported natively: ``ALC``, role hierarchies (``H``) and the universal role
(``U``).  Inverse roles and transitive roles are handled by the equivalence
preserving rewritings of :mod:`repro.dl.rewritings` (Theorems 3.6 and 3.11);
functional roles (``ALCF``) are outside the scope of this engine — the paper
uses them for negative results — and are served by the bounded-model search in
:mod:`repro.omq.bounded`.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Sequence

from ..core.instance import Fact, Instance
from ..core.schema import RelationSymbol
from .concepts import (
    And,
    Bottom,
    Concept,
    ConceptName,
    Exists,
    Forall,
    Not,
    Or,
    Role,
    Top,
)
from .ontology import Ontology

Element = Hashable
Type = frozenset  # frozenset of closure concepts that are true


class UnsupportedOntologyError(ValueError):
    """Raised when the type-elimination reasoner cannot handle the ontology."""


def _check_supported(ontology: Ontology) -> None:
    if ontology.uses_inverse_roles():
        raise UnsupportedOntologyError(
            "inverse roles are not supported natively; apply "
            "repro.dl.rewritings.eliminate_inverse_roles first (Theorem 3.6)"
        )
    if ontology.uses_transitive_roles():
        raise UnsupportedOntologyError(
            "transitive roles are not supported natively; apply "
            "repro.dl.rewritings.eliminate_transitive_roles first (Theorem 3.11)"
        )
    if ontology.uses_functional_roles():
        raise UnsupportedOntologyError(
            "functional roles are not supported by type elimination; use the "
            "bounded-model engine in repro.omq.bounded"
        )


def negation_closure(concepts: Iterable[Concept]) -> frozenset[Concept]:
    """Close a set of NNF concepts under subconcepts and NNF negation."""
    result: set[Concept] = set()
    frontier = [c.nnf() for c in concepts]
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(current.children())
        negated = current.negate()
        if negated not in result:
            frontier.append(negated)
    return frozenset(result)


def iter_bits(bitset: int) -> Iterator[int]:
    """The positions of the set bits of ``bitset``, lowest first."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


class TypeSystem:
    """Types over the closure of an ontology (plus extra tracked concepts).

    A type is represented as the frozenset of closure concepts it makes true.
    Truth of composite concepts is derived from *decision concepts*: concept
    names and existential restrictions.  Universal restrictions are derived via
    their existential duals, which keeps types semantically coherent by
    construction (``∀R.C`` is true exactly when ``∃R.¬C`` is false).

    Internally the system is a bitset kernel.  The closure is indexed in
    ``str`` order (``closure_order``), so a type is also an int *mask* whose
    bit ``i`` says whether ``closure_order[i]`` is true, and the enumerated
    types are indexed in :meth:`all_types` order.  Per role ``R`` the kernel
    keeps one *compatibility row* per type: an int bitset over type indices
    of the types that may label an ``R``-successor (:meth:`successors`).
    :meth:`compatible` is a lookup in that table; the forest engine, type
    elimination and the Theorem 3.3 / 4.6 constructions read it directly.
    """

    def __init__(self, ontology: Ontology, extra_concepts: Iterable[Concept] = ()):
        _check_supported(ontology)
        self.ontology = ontology
        seeds: list[Concept] = []
        for inclusion in ontology.concept_inclusions():
            seeds.append(inclusion.lhs.nnf())
            seeds.append(inclusion.lhs.negate())
            seeds.append(inclusion.rhs.nnf())
            seeds.append(inclusion.rhs.negate())
        seeds.extend(c.nnf() for c in extra_concepts)
        seeds.extend(c.negate() for c in extra_concepts)
        self.closure = negation_closure(seeds)
        self._axioms = [
            (ci.lhs.nnf(), ci.rhs.nnf()) for ci in ontology.concept_inclusions()
        ]
        # ``repr`` breaks ``str`` ties, so the order never follows the hash seed.
        self.closure_order: tuple[Concept, ...] = tuple(
            sorted(self.closure, key=lambda c: (str(c), repr(c)))
        )
        self._bit = {c: 1 << i for i, c in enumerate(self.closure_order)}
        self.concept_name_decisions = [
            c for c in self.closure_order if isinstance(c, ConceptName)
        ]
        self.existential_decisions = [
            c for c in self.closure_order if isinstance(c, Exists)
        ]
        self.u_existentials = [
            c for c in self.existential_decisions if c.role.is_universal()
        ]
        # (role, restriction bit, filler bit) per ∀ / ∃ in the closure.
        self._foralls = [
            (c.role, self._bit[c], self._bit[c.filler.nnf()])
            for c in self.closure_order
            if isinstance(c, Forall)
        ]
        self._exists = [
            (c.role, self._bit[c], self._bit[c.filler.nnf()])
            for c in self.existential_decisions
        ]
        self._types: list[Type] | None = None
        self._type_index: dict[Type, int] = {}
        self._type_masks: list[int] = []
        self._holders: dict[int, int] = {}
        self._rows: dict[Role, list[int]] = {}
        self._columns: dict[Role, list[int]] = {}
        self._demands: list[list[tuple[Exists, int]]] | None = None

    # -- truth derivation ------------------------------------------------------------

    def _truth(self, concept: Concept, true_decisions: frozenset[Concept]) -> bool:
        if isinstance(concept, Top):
            return True
        if isinstance(concept, Bottom):
            return False
        if isinstance(concept, ConceptName):
            return concept in true_decisions
        if isinstance(concept, Not):
            return not self._truth(concept.operand, true_decisions)
        if isinstance(concept, And):
            return self._truth(concept.left, true_decisions) and self._truth(
                concept.right, true_decisions
            )
        if isinstance(concept, Or):
            return self._truth(concept.left, true_decisions) or self._truth(
                concept.right, true_decisions
            )
        if isinstance(concept, Exists):
            return concept in true_decisions
        if isinstance(concept, Forall):
            dual = Exists(concept.role, concept.filler.negate())
            return not self._truth(dual, true_decisions)
        raise TypeError(f"unknown concept constructor: {concept!r}")

    def type_from_decisions(self, true_decisions: frozenset[Concept]) -> Type | None:
        """Build a type from a decision assignment; None if it violates an axiom."""
        members = frozenset(
            c for c in self.closure if self._truth(c, true_decisions)
        )
        for lhs, rhs in self._axioms:
            if self._truth(lhs, true_decisions) and not self._truth(
                rhs, true_decisions
            ):
                return None
        return members

    def all_types(self) -> list[Type]:
        """All locally consistent types (axioms respected), in index order.

        The enumeration runs once per system; later calls return a copy.
        """
        if self._types is not None:
            return list(self._types)
        decisions = self.concept_name_decisions + self.existential_decisions
        if len(decisions) > 18:
            raise UnsupportedOntologyError(
                f"closure too large for exhaustive type enumeration "
                f"({len(decisions)} decision concepts)"
            )
        types: list[Type] = []
        for bits in itertools.product((False, True), repeat=len(decisions)):
            true_decisions = frozenset(
                d for d, bit in zip(decisions, bits) if bit
            )
            candidate = self.type_from_decisions(true_decisions)
            if candidate is not None:
                types.append(candidate)
        self._type_masks = [self.mask(t) for t in types]
        self._type_index = {t: i for i, t in enumerate(types)}
        self._types = types
        self._holders = {bit: 0 for bit in self._bit.values()}
        for index, type_mask in enumerate(self._type_masks):
            for position in iter_bits(type_mask):
                self._holders[1 << position] |= 1 << index
        return list(types)

    # -- the bitset kernel ------------------------------------------------------------

    def mask(self, type_: Type) -> int:
        """The closure bitset of a type (concepts outside the closure ignored)."""
        index = self._type_index.get(type_)
        if index is not None:
            return self._type_masks[index]
        bit = self._bit
        return sum(bit[c] for c in type_ if c in bit)

    def type_index(self, type_: Type) -> int:
        """The position of ``type_`` in :meth:`all_types` (enumerating if needed)."""
        if self._types is None:
            self.all_types()
        return self._type_index[type_]

    def _successor_constraint(self, source_mask: int, base_role: Role) -> tuple[int, int]:
        """The closure bits an ``R``-successor of the source must carry (from
        ``∀S.C`` along super-roles ``S`` of ``R`` and ``U``) and must not carry
        (fillers of false ``∃S.C``); ``R`` is ``base_role``."""
        supers = self.ontology.super_roles(base_role)
        need = ban = 0
        for role_, bit, filler in self._foralls:
            if source_mask & bit and (role_ in supers or role_.is_universal()):
                need |= filler
        for role_, bit, filler in self._exists:
            if not source_mask & bit and role_ in supers:
                ban |= filler
        return need, ban

    def successors(self, base_role: Role) -> list[int]:
        """The compatibility table of ``base_role``: row ``i`` is the bitset of
        type indices that may label an ``R``-successor of type ``i``."""
        rows = self._rows.get(base_role)
        if rows is not None:
            return rows
        if self._types is None:
            self.all_types()
        holders = self._holders
        every = (1 << len(self._type_masks)) - 1
        by_constraint: dict[tuple[int, int], int] = {}
        rows = []
        for source_mask in self._type_masks:
            constraint = self._successor_constraint(source_mask, base_role)
            row = by_constraint.get(constraint)
            if row is None:
                need, ban = constraint
                row = every
                for position in iter_bits(need):
                    row &= holders[1 << position]
                for position in iter_bits(ban):
                    row &= ~holders[1 << position]
                by_constraint[constraint] = row
            rows.append(row)
        self._rows[base_role] = rows
        return rows

    def predecessors(self, base_role: Role) -> list[int]:
        """The transposed table: row ``j`` is the bitset of type indices that
        may label an ``R``-predecessor of type ``j``."""
        columns = self._columns.get(base_role)
        if columns is None:
            rows = self.successors(base_role)
            columns = [0] * len(rows)
            for source, row in enumerate(rows):
                for target in iter_bits(row):
                    columns[target] |= 1 << source
            self._columns[base_role] = columns
        return columns

    def pairs(
        self, types: Sequence[Type], base_role: Role, compatible: bool = True
    ) -> Iterator[tuple[int, int]]:
        """Positions ``(i, j)`` into ``types``, row-major, such that
        ``types[j]`` may label an ``R``-successor of ``types[i]`` (with
        ``compatible=False``: may not); ``R`` is ``base_role``."""
        positions = [self.type_index(t) for t in types]
        rows = self.successors(base_role)
        for i, position in enumerate(positions):
            row = rows[position]
            for j, other in enumerate(positions):
                if bool(row >> other & 1) == compatible:
                    yield i, j

    def witness_demands(self, index: int) -> list[tuple[Exists, int]]:
        """The ``∃R.C`` (``R`` not universal) true in type ``index``, each with
        the bitset of types that may witness it: compatible ``R``-successors
        containing ``C``."""
        if self._demands is None:
            self.all_types()
            self._demands = []
            existentials = [
                c for c in self.existential_decisions if not c.role.is_universal()
            ]
            for position, type_mask in enumerate(self._type_masks):
                self._demands.append(
                    [
                        (
                            c,
                            self.successors(c.role)[position]
                            & self._holders[self._bit[c.filler.nnf()]],
                        )
                        for c in existentials
                        if type_mask & self._bit[c]
                    ]
                )
        return self._demands[index]

    # -- edge compatibility -------------------------------------------------------------

    def compatible(self, source: Type, target: Type, base_role: Role) -> bool:
        """May ``target`` label an R-successor of ``source`` (R = ``base_role``)?

        The successor inherits value restrictions along all super-roles of
        ``base_role`` and must not witness existential restrictions that the
        source type declares false (types are semantically exact).
        """
        source_index = self._type_index.get(source)
        target_index = self._type_index.get(target)
        if source_index is not None and target_index is not None:
            return bool(self.successors(base_role)[source_index] >> target_index & 1)
        need, ban = self._successor_constraint(self.mask(source), base_role)
        target_mask = self.mask(target)
        return target_mask & need == need and not target_mask & ban

    def u_compatible(self, first: Type, second: Type) -> bool:
        """Types co-existing in one model must agree on universal-role concepts
        and must not realise a concept whose ``∃U`` the other declares false."""
        first_mask, second_mask = self.mask(first), self.mask(second)
        for role_, bit, filler in self._exists:
            if not role_.is_universal():
                continue
            if (first_mask ^ second_mask) & bit:
                return False
            if not first_mask & bit and (first_mask | second_mask) & filler:
                return False
        for role_, bit, filler in self._foralls:
            if not role_.is_universal():
                continue
            if first_mask & bit and not second_mask & filler:
                return False
            if second_mask & bit and not first_mask & filler:
                return False
        return True

    # -- good types (tree realisability) ---------------------------------------------------

    def good_types(self, types: Sequence[Type] | None = None) -> list[Type]:
        """Types realisable at the root of a tree-shaped model (type elimination).

        A type survives if each of its existential restrictions (over ordinary
        roles) has a surviving witness type compatible with it.  Universal-role
        existentials are handled globally by :meth:`globally_coherent_families`.
        ``types`` must be types of this system (default: :meth:`all_types`).
        """
        candidates = list(types if types is not None else self.all_types())
        positions = [self.type_index(t) for t in candidates]
        alive = 0
        for position in positions:
            alive |= 1 << position
        changed = True
        while changed:
            changed = False
            for position in iter_bits(alive):
                if any(
                    not witnesses & alive
                    for _existential, witnesses in self.witness_demands(position)
                ):
                    alive &= ~(1 << position)
                    changed = True
        return [t for t, position in zip(candidates, positions) if alive >> position & 1]

    def globally_coherent_families(self) -> Iterator[list[Type]]:
        """Families of good types that agree on the universal role.

        Each yielded family is a maximal set of good types that may jointly
        populate one model: they agree on every ``∃U.C`` / ``∀U.C`` and every
        positively asserted ``∃U.C`` has a witness inside the family.  Without
        the universal role there is a single family: all good types.
        """
        if not self.uses_universal_role():
            yield self.good_types()
            return
        types = self.all_types()
        masks = [self.mask(t) for t in types]
        u_decisions = [
            (self._bit[d], self._bit[d.filler.nnf()]) for d in self.u_existentials
        ]
        for bits in itertools.product((False, True), repeat=len(u_decisions)):
            need = ban = 0
            for (bit, filler), value in zip(u_decisions, bits):
                if value:
                    need |= bit
                else:
                    ban |= bit | filler
            candidates = [
                t for t, m in zip(types, masks) if m & need == need and not m & ban
            ]
            good = self.good_types(candidates)
            # Every ∃U.C asserted true needs a witness type in the family.
            realised = 0
            for t in good:
                realised |= self.mask(t)
            if good and all(
                realised & filler
                for (_bit, filler), value in zip(u_decisions, bits)
                if value
            ):
                yield good

    def uses_universal_role(self) -> bool:
        return bool(self.u_existentials) or any(
            role_.is_universal() for role_, _bit, _filler in self._foralls
        )


# -- high-level reasoning services ------------------------------------------------------


def concept_satisfiable(concept: Concept, ontology: Ontology) -> bool:
    """Is the concept satisfiable w.r.t. the ontology (in some model of O)?"""
    system = TypeSystem(ontology, extra_concepts=[concept])
    target = concept.nnf()
    return any(
        any(target in t for t in family)
        for family in system.globally_coherent_families()
    )


def concept_subsumed(sub: Concept, sup: Concept, ontology: Ontology) -> bool:
    """Does ``O ⊨ sub ⊑ sup`` hold?"""
    return not concept_satisfiable(And(sub, Not(sup)), ontology)


def ontology_consistent(ontology: Ontology) -> bool:
    """Is the ontology satisfiable at all (has a non-empty model)?"""
    return concept_satisfiable(Top(), ontology)


class AboxTypeAssignment:
    """Search for assignments of good types to the elements of an instance.

    The search is phrased as a homomorphism problem into a *type template*
    whose elements are the good types, whose unary relations record concept
    membership and whose binary relations record role compatibility — exactly
    the template construction behind Theorem 4.6 — and is solved with the
    arc-consistency-based homomorphism solver of :mod:`repro.core`.
    """

    _ADOM = RelationSymbol("__abox_adom", 1)

    def __init__(
        self,
        ontology: Ontology,
        instance: Instance,
        extra_concepts: Iterable[Concept] = (),
    ) -> None:
        self.ontology = ontology
        self.instance = instance
        extra = list(extra_concepts)
        extra.extend(
            ConceptName(symbol.name)
            for symbol in instance.schema.concept_names
        )
        self.system = TypeSystem(ontology, extra_concepts=extra)
        self._elements = sorted(instance.active_domain, key=repr)
        self._concept_facts: dict[Element, set[ConceptName]] = {
            e: set() for e in self._elements
        }
        self._role_facts: list[tuple[Element, Element, Role]] = []
        for fact in instance:
            if fact.relation.arity == 1:
                name = ConceptName(fact.relation.name)
                if name in self.system.closure:
                    self._concept_facts[fact.arguments[0]].add(name)
            elif fact.relation.arity == 2:
                self._role_facts.append(
                    (fact.arguments[0], fact.arguments[1], Role(fact.relation.name))
                )
        self._role_names = sorted({role.name for _s, _t, role in self._role_facts})
        self._families = list(self.system.globally_coherent_families())
        self._base_template_facts = [
            list(self._template_for(family).facts) for family in self._families
        ]

    # -- template construction -----------------------------------------------------------

    def _template_for(self, family: Sequence[Type]) -> Instance:
        facts = [Fact(self._ADOM, (t,)) for t in family]
        for name in self.system.concept_name_decisions:
            symbol = RelationSymbol(name.name, 1)
            facts.extend(Fact(symbol, (t,)) for t in family if name in t)
        for role_name in self._role_names:
            symbol = RelationSymbol(role_name, 2)
            facts.extend(
                Fact(symbol, (family[i], family[j]))
                for i, j in self.system.pairs(family, Role(role_name))
            )
        return Instance(facts)

    def _data_for(
        self,
        forced: dict[Element, list[Concept]],
        forbidden: dict[Element, list[Concept]],
        family: Sequence[Type],
        template_facts: list[Fact],
    ) -> Instance:
        facts = [Fact(self._ADOM, (e,)) for e in self._elements]
        for element, names in self._concept_facts.items():
            facts.extend(Fact(RelationSymbol(n.name, 1), (element,)) for n in names)
        for source, target, role in self._role_facts:
            facts.append(Fact(RelationSymbol(role.name, 2), (source, target)))
        for index, (element, concepts_) in enumerate(sorted(forced.items(), key=repr)):
            for concept_index, concept_ in enumerate(concepts_):
                symbol = RelationSymbol(f"__forced_{index}_{concept_index}", 1)
                facts.append(Fact(symbol, (element,)))
                template_facts.extend(
                    Fact(symbol, (t,)) for t in family if concept_ in t
                )
        for index, (element, concepts_) in enumerate(sorted(forbidden.items(), key=repr)):
            for concept_index, concept_ in enumerate(concepts_):
                symbol = RelationSymbol(f"__forbidden_{index}_{concept_index}", 1)
                facts.append(Fact(symbol, (element,)))
                template_facts.extend(
                    Fact(symbol, (t,)) for t in family if concept_ not in t
                )
        return Instance(facts)

    # -- public API ------------------------------------------------------------------------

    def assignments(
        self,
        forced: dict[Element, Iterable[Concept]] | None = None,
        forbidden: dict[Element, Iterable[Concept]] | None = None,
    ) -> Iterator[dict[Element, Type]]:
        """Enumerate consistent type assignments.

        ``forced[e]`` lists closure concepts that must be *true* at ``e``;
        ``forbidden[e]`` lists closure concepts that must be *false* at ``e``.
        """
        from ..core.homomorphism import homomorphisms

        forced = {k: [c.nnf() for c in v] for k, v in (forced or {}).items()}
        forbidden = {k: [c.nnf() for c in v] for k, v in (forbidden or {}).items()}
        for family, base_facts in zip(self._families, self._base_template_facts):
            if not family:
                continue
            template_facts = list(base_facts)
            data = self._data_for(forced, forbidden, family, template_facts)
            template = Instance(template_facts)
            for hom in homomorphisms(data, template):
                yield {element: hom[element] for element in self._elements}

    def exists(self, forced=None, forbidden=None) -> bool:
        from ..core.homomorphism import has_homomorphism

        forced = {k: [c.nnf() for c in v] for k, v in (forced or {}).items()}
        forbidden = {k: [c.nnf() for c in v] for k, v in (forbidden or {}).items()}
        for family, base_facts in zip(self._families, self._base_template_facts):
            if not family:
                continue
            template_facts = list(base_facts)
            data = self._data_for(forced, forbidden, family, template_facts)
            if has_homomorphism(data, Instance(template_facts)):
                return True
        return False


def instance_consistent(instance: Instance, ontology: Ontology) -> bool:
    """Is the instance (viewed as an ABox under the standard name assumption)
    consistent with the ontology — i.e. extendable to a model of O?"""
    if not instance.active_domain:
        return True
    return AboxTypeAssignment(ontology, instance).exists()
