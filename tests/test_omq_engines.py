"""Tests for ontology-mediated queries and the certain-answer engines,
including cross-checks between the complete engines and the bounded reference
engine on the paper's worked examples."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Atom,
    ConjunctiveQuery,
    Fact,
    Instance,
    RelationSymbol,
    Schema,
    UnionOfConjunctiveQueries,
    Variable,
    atomic_query,
)
from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
from repro.omq import ForestEngine, OntologyMediatedQuery
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    example_4_5_omq,
    family_instance,
    medical_ontology,
    medical_schema,
    patient_instance,
)


def test_example_2_1_certain_answers():
    """The paper's Example 2.1: both patients are certain answers."""
    omq = example_2_1_omq()
    answers = omq.certain_answers(patient_instance())
    assert answers == {("patient1",), ("patient2",)}


def test_example_2_2_q1_is_a_ucq():
    """Example 2.2: q1 returns exactly the asserted Lyme/Listeriosis findings."""
    omq = example_2_2_q1_omq()
    assert omq.certain_answers(patient_instance()) == {("may7diag2",)}


def test_example_2_2_q2_recursion():
    """Example 2.2: the hereditary predisposition propagates down the chain."""
    omq = example_2_2_q2_omq()
    with_marker = family_instance(3, predisposed_root=True)
    without_marker = family_instance(3, predisposed_root=False)
    assert omq.certain_answers(with_marker) == {
        (f"person{i}",) for i in range(4)
    }
    assert omq.certain_answers(without_marker) == frozenset()


def test_example_4_5_matches_paper():
    omq = example_4_5_omq()
    data = family_instance(2, predisposed_root=True)
    assert omq.certain_answers(data) == {("person0",), ("person1",), ("person2",)}


def test_omq_language_name_and_size():
    omq = example_2_1_omq()
    assert omq.omq_language() == "(ALC, CQ)"
    assert example_2_2_q2_omq().omq_language() == "(ALC, AQ)"
    assert omq.size() > 0


def test_instance_schema_check():
    omq = example_4_5_omq()
    foreign = Instance([Fact(RelationSymbol("Unknown", 1), ("a",))])
    with pytest.raises(ValueError):
        omq.certain_answers(foreign)
    # the schema-free variant accepts it
    from repro.obda import schema_free_variant

    assert schema_free_variant(omq).certain_answers(foreign) == frozenset()


def test_engines_agree_on_medical_example():
    omq = example_2_1_omq()
    data = patient_instance()
    forest = omq.certain_answers(data, engine="forest")
    bounded = omq.certain_answers(data, engine="bounded")
    assert forest == bounded == {("patient1",), ("patient2",)}


def test_engines_agree_on_atomic_example():
    omq = example_4_5_omq()
    data = family_instance(2, predisposed_root=True)
    atomic = omq.certain_answers(data, engine="atomic")
    bounded = omq.certain_answers(data, engine="bounded")
    forest = omq.certain_answers(data, engine="forest")
    assert atomic == bounded == forest


def test_inconsistent_data_returns_all_tuples():
    bottom = ConceptInclusion(
        ConceptName("LymeDisease"), Exists(Role("HasParent"), ConceptName("X"))
    )
    ontology = Ontology(
        list(medical_ontology().axioms)
        + [
            ConceptInclusion(
                ConceptName("Listeriosis") & ConceptName("LymeDisease"),
                ConceptName("X") & ~ConceptName("X"),
            )
        ]
    )
    del bottom
    omq = OntologyMediatedQuery(
        ontology=ontology,
        query=atomic_query("BacterialInfection"),
        data_schema=medical_schema(),
    )
    data = Instance(
        [
            Fact(RelationSymbol("Listeriosis", 1), ("p",)),
            Fact(RelationSymbol("LymeDisease", 1), ("p",)),
        ]
    )
    assert omq.certain_answers(data) == {("p",)}


def test_disjunctive_ontology_certain_answers():
    """Disjunction: neither disjunct is certain, but a query covering both is."""
    ontology = Ontology(
        [ConceptInclusion(ConceptName("A"), ConceptName("B") | ConceptName("C"))]
    )
    schema = Schema.binary(["A", "B", "C"], [])
    data = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    for name, expected in [("B", frozenset()), ("C", frozenset())]:
        omq = OntologyMediatedQuery(
            ontology=ontology, query=atomic_query(name), data_schema=schema
        )
        assert omq.certain_answers(data) == expected
    x = Variable("x")
    either = OntologyMediatedQuery(
        ontology=ontology,
        query=ConjunctiveQuery((x,), [Atom(RelationSymbol("B", 1), (x,))]),
        data_schema=schema,
    )
    # As a UCQ covering both disjuncts the answer is certain.
    from repro.core import UnionOfConjunctiveQueries

    both = OntologyMediatedQuery(
        ontology=ontology,
        query=UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery((x,), [Atom(RelationSymbol("B", 1), (x,))]),
                ConjunctiveQuery((x,), [Atom(RelationSymbol("C", 1), (x,))]),
            ]
        ),
        data_schema=schema,
    )
    assert either.certain_answers(data) == frozenset()
    assert both.certain_answers(data) == {("a",)}


def test_ucq_with_existential_tree_part():
    """A query that can only be satisfied inside the anonymous (tree) part is
    certain even though no data element witnesses it."""
    ontology = Ontology(
        [ConceptInclusion(ConceptName("A"), Exists(Role("R"), ConceptName("B")))]
    )
    schema = Schema.binary(["A", "B"], ["R"])
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery(
        (), [Atom(RelationSymbol("R", 2), (x, y)), Atom(RelationSymbol("B", 1), (y,))]
    )
    omq = OntologyMediatedQuery(ontology=ontology, query=query, data_schema=schema)
    data = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    assert omq.certain_answers(data) == {()}
    # ... but asking for a *named* witness of B is not certain.
    named = OntologyMediatedQuery(
        ontology=ontology, query=atomic_query("B"), data_schema=schema
    )
    assert named.certain_answers(data) == frozenset()


def test_forest_engine_consistency_check():
    omq = example_2_1_omq()
    engine = ForestEngine(omq)
    assert engine.is_consistent(patient_instance())


def test_bounded_engine_supports_functional_roles():
    from repro.workloads.separations import (
        functional_ok_instance,
        functional_role_omq,
        functional_violation_instance,
    )

    omq = functional_role_omq()
    # D = {R(a,b1), R(a,b2)} is inconsistent with func(R): everything is certain.
    answers = omq.certain_answers(functional_violation_instance(), engine="bounded")
    assert ("a",) in answers
    # D' = {R(a,b)} is consistent and A is not entailed anywhere.
    assert omq.certain_answers(functional_ok_instance(), engine="bounded") == frozenset()


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
        max_size=4,
    ),
    st.sets(st.integers(min_value=0, max_value=2), max_size=2),
)
def test_forest_engine_agrees_with_bounded_engine(edges, marked):
    """Property: on random small HasParent-chains the complete AQ engine and the
    bounded reference engine agree (Example 4.5's ontology)."""
    from repro.workloads.medical import example_4_5_omq

    omq = example_4_5_omq()
    facts = [
        Fact(RelationSymbol("HasParent", 2), (f"p{a}", f"p{b}")) for a, b in edges
    ]
    facts += [
        Fact(RelationSymbol("HereditaryPredisposition", 1), (f"p{m}",)) for m in marked
    ]
    if not facts:
        return
    data = Instance(facts)
    atomic = omq.certain_answers(data, engine="atomic")
    bounded = omq.certain_answers(data, engine="bounded")
    assert atomic == bounded


def _role_hierarchy_omq() -> OntologyMediatedQuery:
    """An (ALCH, UCQ) query whose ontology has ``P ⊑ Q``, a ∃ and a ∀ over
    the sub-role, a ∃ and a ∀ over the super-role, and whose UCQ has a tree
    part reached by the super-role."""
    from repro.dl import Forall, Not, Or, RoleInclusion

    A, B, C, D, E, F, G = (ConceptName(n) for n in "ABCDEFG")
    P, Q = Role("P"), Role("Q")
    ontology = Ontology(
        [
            RoleInclusion(P, Q),
            ConceptInclusion(A, Exists(P, B)),
            ConceptInclusion(B, Or(D, E)),
            ConceptInclusion(Exists(Q, E), C),
            ConceptInclusion(F, Forall(Q, D)),
            ConceptInclusion(G, Forall(P, Not(D))),
        ]
    )
    x, y = Variable("x"), Variable("y")
    schema = Schema.binary(set("ABCDEFG"), {"P", "Q"})
    query = UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery((x,), [Atom(RelationSymbol("C", 1), (x,))]),
            ConjunctiveQuery(
                (x,),
                [
                    Atom(RelationSymbol("Q", 2), (x, y)),
                    Atom(RelationSymbol("D", 1), (y,)),
                ],
            ),
        ]
    )
    return OntologyMediatedQuery(ontology=ontology, query=query, data_schema=schema)


@functools.lru_cache(maxsize=None)
def _role_hierarchy_engines():
    from repro.omq.bounded import BoundedModelEngine

    omq = _role_hierarchy_omq()
    return ForestEngine(omq), BoundedModelEngine(omq)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("PQ"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.sampled_from("ABDEFG"), st.integers(min_value=0, max_value=2)),
        max_size=4,
    ),
)
def test_forest_engine_agrees_with_bounded_engine_under_role_hierarchy(edges, marks):
    """Property: with a role inclusion in the ontology, the forest engine and
    the bounded reference engine agree on random small instances, on the
    certain answers and on consistency."""
    facts = [Fact(RelationSymbol(r, 2), (f"e{a}", f"e{b}")) for r, a, b in edges]
    facts += [Fact(RelationSymbol(name, 1), (f"e{m}",)) for name, m in marks]
    if not facts:
        return
    data = Instance(facts)
    forest, bounded = _role_hierarchy_engines()
    assert forest.certain_answers(data) == bounded.certain_answers(data)
    assert forest.is_consistent(data) == (bounded.some_model(data) is not None)


def test_role_hierarchy_sub_role_edges_carry_super_role_atoms():
    """``P ⊑ Q``: a data P-edge into a B-element forces the query either way."""
    data = Instance(
        [
            Fact(RelationSymbol("P", 2), ("a", "b")),
            Fact(RelationSymbol("B", 1), ("b",)),
            Fact(RelationSymbol("A", 1), ("c",)),
        ]
    )
    forest, _bounded = _role_hierarchy_engines()
    assert forest.certain_answers(data) == {("a",), ("c",)}
    # F demands D along Q ⊒ P, G forbids it along P: no model, all certain.
    clash = data.with_facts(
        [Fact(RelationSymbol("F", 1), ("a",)), Fact(RelationSymbol("G", 1), ("a",))]
    )
    assert not forest.is_consistent(clash)
    assert forest.certain_answers(clash) == {("a",), ("b",), ("c",)}


@pytest.mark.parametrize(
    "build, rules",
    [
        (example_2_1_omq, 7698),
        (example_2_2_q1_omq, 7637),
        (example_2_2_q2_omq, 7625),
        (example_4_5_omq, 9),
    ],
)
def test_theorem_3_3_rule_counts(build, rules):
    """The Theorem 3.3 compile emits the same programs as before the type
    kernel: pinned rule counts for the Table 1 OMQs."""
    from repro.translations import alc_ucq_to_mddlog

    assert len(alc_ucq_to_mddlog(build()).rules) == rules


_HASH_SEED_PROBE = """
from repro.dl.reasoner import TypeSystem
from repro.omq.certain import certain_answers
from repro.workloads.medical import example_2_1_omq, patient_instance
omq = example_2_1_omq()
print([str(c) for c in TypeSystem(omq.ontology).closure_order])
for engine in ("auto", "planned"):
    print(engine, sorted(certain_answers(omq, patient_instance(), engine=engine)))
"""


def test_example_2_1_is_hash_seed_independent():
    """Example 2.1's answers (auto and planned routes) and the closure index
    order are the same under different ``PYTHONHASHSEED`` values."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )
    assert len(outputs) == 1
    (output,) = outputs
    assert "auto [('patient1',), ('patient2',)]" in output
    assert "planned [('patient1',), ('patient2',)]" in output
