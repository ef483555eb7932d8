"""Tests for DL concepts, ontologies, the FO translation and the reasoner."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Fact, Instance, RelationSymbol, Schema
from repro.dl import (
    Bottom,
    ConceptInclusion,
    ConceptName,
    Exists,
    Forall,
    FunctionalRole,
    Not,
    Ontology,
    Or,
    Role,
    RoleInclusion,
    Top,
    TransitiveRole,
    UNIVERSAL_ROLE,
    TypeSystem,
    UnsupportedOntologyError,
    concept_satisfiable,
    concept_subsumed,
    concept_to_fo,
    eliminate_inverse_roles,
    eliminate_role_hierarchies,
    eliminate_transitive_roles,
    fo_models_ontology,
    instance_consistent,
    inverse,
    is_in_nnf,
    ontology_consistent,
    shi_to_alc,
)
from repro.fo import is_gfo, is_unfo
from repro.workloads.medical import medical_ontology, patient_instance

A, B, C = ConceptName("A"), ConceptName("B"), ConceptName("C")
R = Role("R")


def test_concept_construction_and_size():
    concept = Exists(R, A & B) | Forall(R, ~C)
    assert "∃R" in str(concept)
    assert concept.size() == 8
    assert concept.concept_names() == {"A", "B", "C"}
    assert concept.role_names() == {"R"}


def test_nnf_and_negation():
    concept = Not(Exists(R, A & B))
    nnf = concept.nnf()
    assert is_in_nnf(nnf)
    assert nnf == Forall(R, Or(Not(A), Not(B)))
    assert Not(Not(A)).nnf() == A
    assert Top().negate() == Bottom()


def test_inverse_and_universal_roles():
    assert inverse("R").is_inverse()
    assert inverse(inverse("R")) == R
    assert str(inverse("R")) == "R-"


def test_ontology_dialect_detection():
    assert medical_ontology().dialect() == "ALC"
    with_inverse = Ontology([ConceptInclusion(Exists(inverse("R"), A), B)])
    assert with_inverse.dialect() == "ALCI"
    shiu = Ontology(
        [
            TransitiveRole(R),
            RoleInclusion(Role("S"), R),
            ConceptInclusion(Exists(inverse("S"), A), B),
        ]
    )
    assert shiu.dialect() == "SHI"
    assert shiu.is_in_dialect("SHIU")
    assert not shiu.is_in_dialect("ALC")
    alcf = Ontology([FunctionalRole(R)])
    assert alcf.dialect() == "ALCF"


def test_ontology_signature_and_size():
    ontology = medical_ontology()
    signature = ontology.signature()
    assert "LymeDisease" in signature
    assert "HasParent" in signature
    assert ontology.size() > 0


def test_super_roles_closure():
    ontology = Ontology(
        [RoleInclusion(Role("R"), Role("S")), RoleInclusion(Role("S"), Role("T"))]
    )
    supers = ontology.super_roles(Role("R"))
    assert {r.name for r in supers} == {"R", "S", "T"}
    assert Role("T") in ontology.super_roles(Role("S"))


def test_fo_translation_matches_table_2():
    formula = concept_to_fo(Exists(R, A))
    assert "∃" in str(formula) and "R(" in str(formula)
    assert is_unfo(formula)
    # The translation of an ALC ontology lands in UNFO and GFO.
    from repro.dl import inclusion_to_fo

    for axiom in medical_ontology().concept_inclusions():
        sentence = inclusion_to_fo(axiom)
        assert is_unfo(sentence)
        assert is_gfo(sentence)


def test_fo_semantics_of_ontology():
    data = patient_instance()
    # The raw patient data is not a model (patient1 lacks the diagnosis), but
    # adding the required facts repairs it.
    assert not fo_models_ontology(data, medical_ontology())
    repaired = data.with_facts(
        [
            Fact(RelationSymbol("HasDiagnosis", 2), ("patient1", "d")),
            Fact(RelationSymbol("LymeDisease", 1), ("d",)),
            Fact(RelationSymbol("BacterialInfection", 1), ("d",)),
            Fact(RelationSymbol("BacterialInfection", 1), ("may7diag2",)),
        ]
    )
    assert fo_models_ontology(repaired, medical_ontology())


def test_concept_satisfiability():
    ontology = Ontology([ConceptInclusion(A, B)])
    assert concept_satisfiable(A, ontology)
    assert not concept_satisfiable(A & Not(B), ontology)
    assert concept_subsumed(A, B, ontology)
    assert not concept_subsumed(B, A, ontology)
    assert ontology_consistent(ontology)


def test_unsatisfiable_existential_chain():
    ontology = Ontology([ConceptInclusion(A, Exists(R, A) & Forall(R, Bottom()))])
    assert not concept_satisfiable(A, ontology)


def test_instance_consistency():
    ontology = Ontology([ConceptInclusion(A & B, Bottom())])
    consistent = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    inconsistent = consistent.with_facts([Fact(RelationSymbol("B", 1), ("a",))])
    assert instance_consistent(consistent, ontology)
    assert not instance_consistent(inconsistent, ontology)
    assert instance_consistent(patient_instance(), medical_ontology())


def test_value_restriction_propagates_over_abox_edges():
    ontology = Ontology([ConceptInclusion(A, Forall(R, Bottom()))])
    data = Instance(
        [Fact(RelationSymbol("A", 1), ("a",)), Fact(RelationSymbol("R", 2), ("a", "b"))]
    )
    assert not instance_consistent(data, ontology)


def test_reasoner_rejects_unsupported_ontologies():
    with pytest.raises(UnsupportedOntologyError):
        concept_satisfiable(A, Ontology([FunctionalRole(R)]))


def test_inverse_role_elimination_preserves_aq_answers():
    ontology = Ontology([ConceptInclusion(Exists(inverse("R"), A), B)])
    rewritten, _ = eliminate_inverse_roles(ontology)
    assert not rewritten.uses_inverse_roles()
    # A(a), R(a, b) entails B(b): after elimination the entailment must survive.
    data = Instance(
        [Fact(RelationSymbol("A", 1), ("a",)), Fact(RelationSymbol("R", 2), ("a", "b"))]
    )
    from repro.omq import OntologyMediatedQuery
    from repro.core import atomic_query

    omq = OntologyMediatedQuery(
        ontology=rewritten,
        query=atomic_query("B"),
        data_schema=Schema.binary(["A", "B"], ["R"]),
    )
    assert omq.certain_answers(data) == {("b",)}


def test_transitive_role_elimination():
    ontology = Ontology(
        [TransitiveRole(R), ConceptInclusion(Exists(R, A), B)]
    )
    rewritten = eliminate_transitive_roles(ontology)
    assert not rewritten.uses_transitive_roles()
    assert rewritten.concept_inclusions()


def test_role_hierarchy_elimination_requires_no_inverse():
    ontology = Ontology(
        [RoleInclusion(inverse("R"), Role("S")), ConceptInclusion(Exists(R, A), B)]
    )
    with pytest.raises(ValueError):
        eliminate_role_hierarchies(ontology)


def test_shi_to_alc_pipeline():
    ontology = Ontology(
        [
            TransitiveRole(R),
            RoleInclusion(Role("S"), R),
            ConceptInclusion(Exists(Role("S"), A), B),
        ]
    )
    rewritten = shi_to_alc(ontology)
    assert rewritten.dialect() == "ALC"


# -- the bitset type kernel ----------------------------------------------------------


def _closure_scan_super_roles(ontology, role):
    """Role-hierarchy closure rebuilt from the axioms (reference definition)."""
    inclusions = set()
    for axiom in ontology.role_inclusions():
        inclusions.add((axiom.sub, axiom.sup))
        if not axiom.sub.is_universal() and not axiom.sup.is_universal():
            inclusions.add((axiom.sub.inverted(), axiom.sup.inverted()))
    closure = {role}
    changed = True
    while changed:
        changed = False
        for sub, sup in inclusions:
            if sub in closure and sup not in closure:
                closure.add(sup)
                changed = True
    return closure


def _closure_scan_compatible(system, source, target, base_role):
    """The closure-scan definition of edge compatibility (reference oracle)."""
    supers = _closure_scan_super_roles(system.ontology, base_role)
    for concept in system.closure:
        if (
            isinstance(concept, Forall)
            and concept in source
            and (concept.role in supers or concept.role.is_universal())
            and concept.filler.nnf() not in target
        ):
            return False
        if (
            isinstance(concept, Exists)
            and concept not in source
            and concept.role in supers
            and concept.filler.nnf() in target
        ):
            return False
    return True


def _closure_scan_u_compatible(system, first, second):
    """Agreement on the universal role, by closure scan (reference oracle)."""
    for concept in system.closure:
        if not isinstance(concept, (Exists, Forall)) or not concept.role.is_universal():
            continue
        filler = concept.filler.nnf()
        if isinstance(concept, Exists):
            if (concept in first) != (concept in second):
                return False
            if concept not in first and filler in second:
                return False
            if concept not in second and filler in first:
                return False
        elif (concept in first and filler not in second) or (
            concept in second and filler not in first
        ):
            return False
    return True


def _closure_scan_good_types(system, types):
    """Type elimination with the oracle's compatibility (reference)."""
    alive = list(types)
    changed = True
    while changed:
        changed = False
        survivors = [
            candidate
            for candidate in alive
            if all(
                any(
                    concept.filler.nnf() in witness
                    and _closure_scan_compatible(system, candidate, witness, concept.role)
                    for witness in alive
                )
                for concept in candidate
                if isinstance(concept, Exists) and not concept.role.is_universal()
            )
        ]
        changed = len(survivors) != len(alive)
        alive = survivors
    return alive


_KERNEL_ROLES = (Role("R"), Role("S"), Role("T"))
_RESTRICTION_ROLES = _KERNEL_ROLES + (UNIVERSAL_ROLE,)

_kernel_concepts = st.recursive(
    st.sampled_from([A, B, C, Top()]),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda pair: pair[0] & pair[1]),
        st.tuples(inner, inner).map(lambda pair: pair[0] | pair[1]),
        st.tuples(st.sampled_from(_RESTRICTION_ROLES), inner).map(lambda rc: Exists(*rc)),
        st.tuples(st.sampled_from(_RESTRICTION_ROLES), inner).map(lambda rc: Forall(*rc)),
    ),
    max_leaves=4,
)

_kernel_ontologies = st.tuples(
    st.lists(
        st.tuples(_kernel_concepts, _kernel_concepts).map(
            lambda pair: ConceptInclusion(*pair)
        ),
        min_size=1,
        max_size=2,
    ),
    st.lists(
        st.tuples(st.sampled_from(_KERNEL_ROLES), st.sampled_from(_KERNEL_ROLES)).map(
            lambda pair: RoleInclusion(*pair)
        ),
        max_size=3,
    ),
).map(lambda axioms: Ontology(axioms[0] + axioms[1]))


@settings(max_examples=60, deadline=None)
@given(_kernel_ontologies)
def test_compatibility_table_matches_closure_scan(ontology):
    """Property: on random ALCH ontologies the table-driven ``compatible``
    (and type elimination over it) equals the closure-scan definition for
    every pair of types and every role, including one outside the ontology
    and the universal role."""
    system = TypeSystem(ontology)
    assume(
        len(system.concept_name_decisions) + len(system.existential_decisions) <= 9
    )
    types = system.all_types()
    for role in _RESTRICTION_ROLES + (Role("Fresh"),):
        assert ontology.super_roles(role) == _closure_scan_super_roles(ontology, role)
        for source in types:
            for target in types:
                assert system.compatible(source, target, role) == (
                    _closure_scan_compatible(system, source, target, role)
                )
    for first in types:
        for second in types:
            assert system.u_compatible(first, second) == (
                _closure_scan_u_compatible(system, first, second)
            )
    assert system.good_types() == _closure_scan_good_types(system, types)


def test_compatibility_of_types_outside_the_enumeration():
    """Frozensets that are not enumerated types take the mask path."""
    ontology = Ontology([ConceptInclusion(A, Forall(R, B)), RoleInclusion(Role("S"), R)])
    system = TypeSystem(ontology)
    source = frozenset({A, Forall(R, B)})
    assert not system.compatible(source, frozenset(), Role("S"))
    assert system.compatible(source, frozenset({B}), Role("S"))
    assert system.compatible(source, frozenset(), Role("Fresh"))


def test_closure_index_is_sorted_by_str():
    system = TypeSystem(medical_ontology())
    order = [str(c) for c in system.closure_order]
    assert order == sorted(order)
    assert set(system.closure_order) == system.closure
