"""The tiered query planner: route every OMQ to its cheapest engine.

The paper classifies ontology-mediated queries by rewritability —
FO-rewritable, datalog-rewritable, or genuinely disjunctive (coNP via
MDDlog/CSP; Section 5, and Feier–Kuusisto–Lutz for the MDDlog side).  This
package exploits that classification at runtime: every compiled
disjunctive datalog program is inspected once and dispatched to the
cheapest sound evaluation engine —

==== ==================== ====================================================
tier name                 engine
==== ==================== ====================================================
0    ``ucq-rewrite``      goal unfolded to a UCQ, evaluated by the join
                          planner over the instance indexes (no grounding,
                          no SAT, stateless under streaming updates)
1    ``datalog-fixpoint`` semi-naive least fixpoint, DRed-maintained in
                          sessions; constraints checked on the minimal model
2    ``ground+cdcl``      ground once + incremental CDCL (serial, parallel
                          worker pools, or sharded sessions)
==== ==================== ====================================================

Syntactic tier-2 programs additionally pass through the **semantic stage**
(:mod:`repro.planner.semantic`): the Section 5.3 decision procedures run
constructively — finite duality yields an obstruction-set UCQ served by
tier 0, bounded width yields a canonical datalog program served by tier 1 —
under a :class:`SemanticBudget` so blowups degrade gracefully to tier 2.

:func:`plan_program` caches one explainable :class:`QueryPlan` per compiled
program object; :func:`estimate_cost` prices a plan against an instance's
index statistics; :func:`execute_plan` runs it.  ``datalog.evaluation``,
the serving sessions and the OMQ layer all route through here — see the
planner section of ``ARCHITECTURE.md`` and ``docs/planner.md``.
"""

from .adaptive import (
    AdaptiveController,
    TierCostModel,
    TierRates,
    candidate_plans,
    static_rates,
)
from .analysis import (
    MAX_DISJUNCT_ATOMS,
    MAX_UNFOLDED_DISJUNCTS,
    ProgramShape,
    UcqUnfolding,
    UnfoldedDisjunct,
    analyse_program,
    effective_unfold_caps,
    estimate_unfolding,
    unfold_to_ucq,
)
from .execute import (
    PlannedMddlogEngine,
    TierExecutor,
    UcqExecutor,
    execute_plan,
)
from .plan import (
    TIER_FIXPOINT,
    TIER_GROUND_SAT,
    TIER_NAMES,
    TIER_REWRITE,
    CostEstimate,
    PlanCache,
    QueryPlan,
    auto_workers,
    clear_plan_artifacts,
    estimate_cost,
    plan_for_tier,
    plan_program,
    plan_workload,
    program_identity_key,
)
from .policy import (
    DEFAULT_ADAPTIVE,
    AdaptivePolicy,
    PlanPolicy,
    UnfoldCaps,
)
from .semantic import (
    SemanticBudget,
    SemanticReport,
    analyse_rewritability,
    cross_validate,
)

__all__ = [
    "DEFAULT_ADAPTIVE",
    "MAX_DISJUNCT_ATOMS",
    "MAX_UNFOLDED_DISJUNCTS",
    "AdaptiveController",
    "AdaptivePolicy",
    "CostEstimate",
    "PlanCache",
    "PlanPolicy",
    "PlannedMddlogEngine",
    "ProgramShape",
    "QueryPlan",
    "SemanticBudget",
    "SemanticReport",
    "TIER_FIXPOINT",
    "TIER_GROUND_SAT",
    "TIER_NAMES",
    "TIER_REWRITE",
    "TierCostModel",
    "TierExecutor",
    "TierRates",
    "UcqExecutor",
    "UcqUnfolding",
    "UnfoldCaps",
    "UnfoldedDisjunct",
    "analyse_program",
    "analyse_rewritability",
    "auto_workers",
    "candidate_plans",
    "clear_plan_artifacts",
    "cross_validate",
    "effective_unfold_caps",
    "estimate_cost",
    "estimate_unfolding",
    "execute_plan",
    "plan_for_tier",
    "plan_program",
    "plan_workload",
    "program_identity_key",
    "static_rates",
    "unfold_to_ucq",
]
