"""Theorem 4.6: atomic-query OMQs, simple MDDlog, and (generalized) coCSPs.

The constructive heart of Section 4.2: from an ontology-mediated query with an
atomic (or Boolean atomic) query one builds CSP template(s) whose complement
defines the same query.  The template elements are the *good types* of the
ontology; a type carries a concept name iff the name belongs to it, and two
types are joined by a role iff they may label the endpoints of such an edge.
The four cases of Theorem 4.6 differ only in which types are kept and whether
a marked element is needed:

* (ALC, BAQ)  →  a single unmarked template (types not containing the query
  concept);
* (ALC, AQ)   →  a set of marked templates over one shared instance (one mark
  per query-free type);
* (ALCU, ...) →  generalized versions with several templates, one per globally
  coherent family of types (the universal role makes truth global).

The reverse direction (templates → OMQ / MDDlog) follows the constructions in
the same proof and in Theorem 6.1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.cq import Atom, Variable, atomic_query, boolean_atomic_query
from ..core.instance import Fact, Instance, MarkedInstance
from ..core.schema import RelationSymbol, Schema
from ..datalog.ddlog import DisjunctiveDatalogProgram, Rule, adom_atom
from ..dl.concepts import And, Bottom, ConceptName, Exists, Role, Top, big_or
from ..dl.ontology import ConceptInclusion, Ontology
from ..dl.reasoner import TypeSystem
from ..omq.query import OntologyMediatedQuery


@dataclass(frozen=True)
class CspEncoding:
    """The CSP-side encoding of an atomic OMQ: templates plus bookkeeping."""

    schema: Schema
    templates: tuple[Instance, ...]
    marked_templates: tuple[MarkedInstance, ...]
    boolean: bool

    def as_cocsp_query(self):
        from ..csp.template import GeneralizedCoCspQuery, MarkedCoCspQuery

        if self.boolean:
            return GeneralizedCoCspQuery(self.templates)
        return MarkedCoCspQuery(self.marked_templates)


def _query_concept(omq: OntologyMediatedQuery) -> ConceptName:
    atom = next(iter(omq.ucq().disjuncts[0].atoms))
    if atom.relation.arity != 1:
        raise ValueError("Theorem 4.6 applies to atomic / Boolean atomic queries")
    return ConceptName(atom.relation.name)


def _type_template(
    system: TypeSystem,
    types: list,
    schema: Schema,
) -> Instance:
    """The canonical template B_T for a set of types (proof of Theorem 4.6)."""
    facts: list[Fact] = []
    for symbol in schema.concept_names:
        name = ConceptName(symbol.name)
        for t in types:
            if name in t:
                facts.append(Fact(symbol, (t,)))
    for symbol in schema.role_names:
        facts.extend(
            Fact(symbol, (types[i], types[j]))
            for i, j in system.pairs(types, Role(symbol.name))
        )
    # Types that carry no fact are left out of the active domain: no data
    # element occurring in a fact can map to them.
    return Instance(facts, schema=schema)


def omq_to_csp(omq: OntologyMediatedQuery) -> CspEncoding:
    """Theorem 4.6: encode an (ALC(H)(U), AQ/BAQ) query as (generalized,
    possibly marked) coCSP templates."""
    query_concept = _query_concept(omq)
    boolean = omq.is_boolean_atomic()
    if not boolean and not omq.is_atomic():
        raise ValueError("Theorem 4.6 applies to atomic / Boolean atomic queries")
    schema = omq.data_schema
    extra = [query_concept] + [ConceptName(s.name) for s in schema.concept_names]
    system = TypeSystem(omq.ontology, extra_concepts=extra)

    templates: list[Instance] = []
    marked: list[MarkedInstance] = []
    for family in system.globally_coherent_families():
        query_free = [t for t in family if query_concept not in t]
        if not query_free:
            continue
        if boolean:
            # Keep only types without the query concept: a homomorphism into the
            # template is a model in which the query concept is empty.
            template = _type_template(system, query_free, schema)
            templates.append(template)
        else:
            # Marked case: the template uses every type of the family; the marks
            # are the query-free types (the candidate answer must avoid A0).
            template = _type_template(system, list(family), schema)
            for t in query_free:
                if t in template.active_domain:
                    marked.append(MarkedInstance(template, (t,)))
    return CspEncoding(
        schema=schema,
        templates=tuple(templates),
        marked_templates=tuple(marked),
        boolean=boolean,
    )


# -- reverse directions -----------------------------------------------------------------


def csp_to_mddlog(template: Instance) -> DisjunctiveDatalogProgram:
    """coCSP(B) as a Boolean connected simple MDDlog program (Theorem 4.6 (4))."""
    elements = sorted(template.active_domain, key=repr)
    predicates = {e: RelationSymbol(f"P_{i}", 1) for i, e in enumerate(elements)}
    x, y = Variable("x"), Variable("y")
    rules: list[Rule] = [
        Rule(tuple(Atom(predicates[e], (x,)) for e in elements), (adom_atom(x),))
    ]
    for first, second in itertools.combinations(elements, 2):
        rules.append(
            Rule((), (Atom(predicates[first], (x,)), Atom(predicates[second], (x,))))
        )
    for symbol in template.schema.concept_names:
        held = {t[0] for t in template.tuples(symbol)}
        for element in elements:
            if element not in held:
                rules.append(
                    Rule((), (Atom(predicates[element], (x,)), Atom(symbol, (x,))))
                )
    for symbol in template.schema.role_names:
        pairs = template.tuples(symbol)
        for source, target in itertools.product(elements, repeat=2):
            if (source, target) not in pairs:
                rules.append(
                    Rule(
                        (),
                        (
                            Atom(predicates[source], (x,)),
                            Atom(symbol, (x, y)),
                            Atom(predicates[target], (y,)),
                        ),
                    )
                )
    return DisjunctiveDatalogProgram(rules, goal_relation=RelationSymbol("goal", 0))


def _coloring_violation_axioms(
    template: Instance,
    schema: Schema,
    names: dict,
    violation,
) -> list[ConceptInclusion]:
    """The ΠB constraints of Theorem 4.6, phrased as concept inclusions.

    ``violation`` is the concept derived when a colouring is locally
    incompatible with the template: the goal concept in the Boolean encoding
    (Theorem 6.1), ``⊥`` in the marked encoding (Theorem 4.6 (2)), where a bad
    colouring must be ruled out rather than merely flagged at one element.
    """
    elements = sorted(template.active_domain, key=repr)
    axioms: list[ConceptInclusion] = [
        ConceptInclusion(Top(), big_or([names[e] for e in elements]))
    ]
    for first, second in itertools.combinations(elements, 2):
        axioms.append(ConceptInclusion(And(names[first], names[second]), violation))
    for symbol in schema.concept_names:
        held = {t[0] for t in template.tuples(symbol)}
        for element in elements:
            if element not in held:
                axioms.append(
                    ConceptInclusion(
                        And(names[element], ConceptName(symbol.name)), violation
                    )
                )
    for symbol in schema.role_names:
        pairs = template.tuples(symbol)
        role = Role(symbol.name)
        for source, target in itertools.product(elements, repeat=2):
            if (source, target) not in pairs:
                axioms.append(
                    ConceptInclusion(
                        And(names[source], Exists(role, names[target])), violation
                    )
                )
    return axioms


def csp_to_omq(template: Instance, schema: Schema | None = None) -> OntologyMediatedQuery:
    """coCSP(B) as an (ALC, BAQ) ontology-mediated query (proof of Theorem 6.1).

    One fresh concept name per template element plus a goal concept ``A``; the
    ontology forces every element into some template element's concept, and
    derives ``A`` whenever the data is locally inconsistent with the template.
    """
    schema = schema if schema is not None else template.schema
    elements = sorted(template.active_domain, key=repr)
    names = {e: ConceptName(f"Elem_{i}") for i, e in enumerate(elements)}
    goal = ConceptName("A__goal")
    axioms = _coloring_violation_axioms(template, schema, names, goal)
    return OntologyMediatedQuery(
        ontology=Ontology(axioms),
        query=boolean_atomic_query("A__goal"),
        data_schema=schema,
    )


def marked_csp_to_omq(
    templates: tuple[MarkedInstance, ...], schema: Schema | None = None
) -> OntologyMediatedQuery:
    """Generalized coCSP with one marked element (all templates sharing one
    instance) as an (ALC, AQ) query — the converse half of Theorem 4.6 (2).

    Unlike the Boolean encoding, a colouring that violates the template must be
    ruled out globally (the paper's ΠB uses ``⊥``-rules), not merely flagged at
    the violating element: otherwise an answer element could escape ``goal``
    while the violation happens elsewhere in the instance.
    """
    if not templates:
        raise ValueError("need at least one marked template")
    base = templates[0].instance
    if any(t.instance != base for t in templates):
        raise ValueError("all marked templates must share the same instance")
    marks = {t.marks[0] for t in templates}
    schema = schema if schema is not None else base.schema
    elements = sorted(base.active_domain, key=repr)
    names = {e: ConceptName(f"Elem_{i}") for i, e in enumerate(elements)}
    goal = ConceptName("A__goal")
    axioms = _coloring_violation_axioms(base, schema, names, Bottom())
    axioms.extend(ConceptInclusion(names[e], goal) for e in elements if e not in marks)
    return OntologyMediatedQuery(
        ontology=Ontology(axioms), query=atomic_query("A__goal"), data_schema=schema
    )
