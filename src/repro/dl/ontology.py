"""Description-logic ontologies: axioms, signatures and dialect detection.

An ontology is a finite set of axioms.  Besides concept inclusions (``ALC``),
the paper's extensions contribute role hierarchy statements (``H``),
transitivity statements (``S``), functionality statements (``F``); inverse
roles (``I``) and the universal role (``U``) appear inside concepts.  The
``dialect`` of an ontology is the standard name of the smallest such logic
containing it, e.g. ``ALCHI`` or ``SHIU`` (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from ..core.schema import RelationSymbol, Schema
from .concepts import Concept, Role, Top, is_in_nnf


class Axiom:
    """Base class of ontology axioms."""

    def size(self) -> int:
        raise NotImplementedError

    def concept_names(self) -> set[str]:
        return set()

    def role_names(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class ConceptInclusion(Axiom):
    """A concept inclusion ``C ⊑ D``."""

    lhs: Concept
    rhs: Concept

    def __str__(self) -> str:
        return f"{self.lhs} ⊑ {self.rhs}"

    def size(self) -> int:
        return self.lhs.size() + self.rhs.size() + 1

    def concept_names(self) -> set[str]:
        return self.lhs.concept_names() | self.rhs.concept_names()

    def role_names(self) -> set[str]:
        return self.lhs.role_names() | self.rhs.role_names()

    def roles(self) -> set[Role]:
        return self.lhs.roles() | self.rhs.roles()


@dataclass(frozen=True)
class RoleInclusion(Axiom):
    """A role hierarchy statement ``R ⊑ S`` (roles may be inverse roles)."""

    sub: Role
    sup: Role

    def __str__(self) -> str:
        return f"{self.sub} ⊑ {self.sup}"

    def size(self) -> int:
        return 3

    def role_names(self) -> set[str]:
        return {self.sub.name, self.sup.name} - {"__universal__"}


@dataclass(frozen=True)
class TransitiveRole(Axiom):
    """A transitivity statement ``trans(R)``."""

    role: Role

    def __str__(self) -> str:
        return f"trans({self.role})"

    def size(self) -> int:
        return 2

    def role_names(self) -> set[str]:
        return {self.role.name}


@dataclass(frozen=True)
class FunctionalRole(Axiom):
    """A functionality statement ``func(R)``."""

    role: Role

    def __str__(self) -> str:
        return f"func({self.role})"

    def size(self) -> int:
        return 2

    def role_names(self) -> set[str]:
        return {self.role.name}


class Ontology:
    """A finite set of DL axioms."""

    def __init__(self, axioms: Iterable[Axiom] = ()) -> None:
        self.axioms: tuple[Axiom, ...] = tuple(axioms)
        for axiom in self.axioms:
            if not isinstance(axiom, Axiom):
                raise TypeError(f"not an axiom: {axiom!r}")

    # -- accessors ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def __repr__(self) -> str:
        return "Ontology([\n  " + ",\n  ".join(str(a) for a in self.axioms) + "\n])"

    def concept_inclusions(self) -> list[ConceptInclusion]:
        return [a for a in self.axioms if isinstance(a, ConceptInclusion)]

    def role_inclusions(self) -> list[RoleInclusion]:
        return [a for a in self.axioms if isinstance(a, RoleInclusion)]

    def transitive_roles(self) -> set[str]:
        return {a.role.name for a in self.axioms if isinstance(a, TransitiveRole)}

    def functional_roles(self) -> set[str]:
        return {a.role.name for a in self.axioms if isinstance(a, FunctionalRole)}

    def size(self) -> int:
        return sum(a.size() for a in self.axioms)

    def extended(self, axioms: Iterable[Axiom]) -> "Ontology":
        return Ontology(list(self.axioms) + list(axioms))

    # -- signature -------------------------------------------------------------------

    def concept_names(self) -> set[str]:
        result: set[str] = set()
        for axiom in self.axioms:
            result |= axiom.concept_names()
        return result

    def role_names(self) -> set[str]:
        result: set[str] = set()
        for axiom in self.axioms:
            result |= axiom.role_names()
        return result

    def signature(self) -> Schema:
        """The set ``sig(O)`` of relation symbols used in the ontology."""
        return Schema.binary(self.concept_names(), self.role_names())

    def roles(self) -> set[Role]:
        result: set[Role] = set()
        for axiom in self.axioms:
            if isinstance(axiom, ConceptInclusion):
                result |= axiom.roles()
            elif isinstance(axiom, RoleInclusion):
                result |= {axiom.sub, axiom.sup}
            elif isinstance(axiom, (TransitiveRole, FunctionalRole)):
                result.add(axiom.role)
        return result

    # -- dialect detection --------------------------------------------------------------

    def uses_inverse_roles(self) -> bool:
        return any(r.is_inverse() for r in self.roles())

    def uses_universal_role(self) -> bool:
        return any(r.is_universal() for r in self.roles())

    def uses_role_hierarchies(self) -> bool:
        return bool(self.role_inclusions())

    def uses_transitive_roles(self) -> bool:
        return bool(self.transitive_roles())

    def uses_functional_roles(self) -> bool:
        return bool(self.functional_roles())

    def dialect(self) -> str:
        """The standard name of the smallest dialect containing this ontology.

        ``S`` abbreviates ``ALC`` with transitive roles; the letters ``H``,
        ``I``, ``F`` and ``U`` are appended in that order, matching the paper's
        naming scheme (``SHIU``, ``ALCHIU``, ``ALCF``, ...).
        """
        base = "S" if self.uses_transitive_roles() else "ALC"
        name = base
        if self.uses_role_hierarchies():
            name += "H"
        if self.uses_inverse_roles():
            name += "I"
        if self.uses_functional_roles():
            name += "F"
        if self.uses_universal_role():
            name += "U"
        return name

    def is_in_dialect(self, dialect: str) -> bool:
        """Is the ontology expressible in the given dialect (by syntax)?"""
        allowed_trans = dialect.startswith("S")
        rest = dialect[1:] if allowed_trans else dialect.removeprefix("ALC")
        if self.uses_transitive_roles() and not allowed_trans:
            return False
        if self.uses_role_hierarchies() and "H" not in rest:
            return False
        if self.uses_inverse_roles() and "I" not in rest:
            return False
        if self.uses_functional_roles() and "F" not in rest:
            return False
        if self.uses_universal_role() and "U" not in rest:
            return False
        return True

    def is_in_nnf(self) -> bool:
        return all(
            is_in_nnf(ci.lhs) and is_in_nnf(ci.rhs) for ci in self.concept_inclusions()
        )

    # -- normalisation ---------------------------------------------------------------------

    def normalised_inclusions(self) -> list[ConceptInclusion]:
        """Concept inclusions rewritten as ``⊤ ⊑ nnf(¬C ⊔ D)``-style implications.

        The reasoner works with the original ``C ⊑ D`` form directly; this view
        is used where a single NNF concept per axiom is more convenient.
        """
        from .concepts import Or

        return [
            ConceptInclusion(Top(), Or(ci.lhs.negate(), ci.rhs.nnf()))
            for ci in self.concept_inclusions()
        ]

    # -- role hierarchy reasoning -------------------------------------------------------------

    @cached_property
    def _super_role_closure(self) -> dict[Role, frozenset[Role]]:
        """The reflexive-transitive role hierarchy, computed once per ontology
        (``axioms`` is fixed at construction) for every role it mentions."""
        above: dict[Role, set[Role]] = {}
        for axiom in self.role_inclusions():
            above.setdefault(axiom.sub, set()).add(axiom.sup)
            if not axiom.sub.is_universal() and not axiom.sup.is_universal():
                above.setdefault(axiom.sub.inverted(), set()).add(axiom.sup.inverted())
        closure: dict[Role, frozenset[Role]] = {}
        for start in above:
            reached = {start}
            frontier = [start]
            while frontier:
                for sup in above.get(frontier.pop(), ()):
                    if sup not in reached:
                        reached.add(sup)
                        frontier.append(sup)
            closure[start] = frozenset(reached)
        return closure

    def super_roles(self, role_: Role) -> frozenset[Role]:
        """The reflexive-transitive closure of the role hierarchy above ``role_``.

        Inverse closure is respected: ``R ⊑ S`` implies ``R⁻ ⊑ S⁻``.
        """
        closed = self._super_role_closure.get(role_)
        return closed if closed is not None else frozenset({role_})

    def sub_roles(self, role_: Role) -> frozenset[Role]:
        """All roles whose super-role closure contains ``role_``."""
        candidates = set(self.roles()) | {role_}
        plain = {Role(r.name) for r in candidates if not r.is_universal()}
        candidates |= plain | {r.inverted() for r in plain}
        return frozenset(r for r in candidates if role_ in self.super_roles(r))


def subconcepts_of(ontology: Ontology, extra: Iterable[Concept] = ()) -> set[Concept]:
    """The set ``sub(O)`` of subconcepts occurring in the ontology (plus extras)."""
    result: set[Concept] = set()
    for inclusion in ontology.concept_inclusions():
        result.update(inclusion.lhs.subconcepts())
        result.update(inclusion.rhs.subconcepts())
    for concept_ in extra:
        result.update(concept_.subconcepts())
    return result


def data_schema_of(ontology: Ontology, *queries) -> Schema:
    """The full binary schema ``sig(O) ∪ sig(q)`` used by an OMQ by default."""
    concept_names = set(ontology.concept_names())
    role_names = set(ontology.role_names())
    for query in queries:
        for symbol in query.schema():
            if symbol.arity == 1:
                concept_names.add(symbol.name)
            elif symbol.arity == 2:
                role_names.add(symbol.name)
    return Schema.binary(concept_names, role_names)


def goal_symbol(name: str, arity: int) -> RelationSymbol:
    return RelationSymbol(name, arity)
