"""One frozen policy object for every planner-facing knob.

:class:`PlanPolicy` carries every planning and serving knob — pinned tier,
semantic stage and its budget, static-analyzer mode, tier-2 worker pool,
adaptive re-planning (:class:`AdaptivePolicy`, see
:mod:`repro.planner.adaptive`) and tier-0 unfolding caps
(:class:`UnfoldCaps`, see :func:`repro.planner.analysis.effective_unfold_caps`)
— and is the *only* way to pass them: every public entry point
(:class:`~repro.service.session.ObdaSession`,
:class:`~repro.service.shards.ShardedObdaSession`,
:func:`~repro.datalog.evaluation.evaluate`,
:func:`~repro.planner.plan.plan_program`,
:func:`~repro.planner.plan.plan_workload`,
:func:`~repro.obda.applications.serve_omq_workload` and
:func:`~repro.obda.applications.plan_omq_workload`) takes it as
``policy=``.  The per-call keywords these entry points once accepted
(``force_tier=``, ``semantic=``, ``semantic_budget=``, ``budget=``,
``check=``, ``parallel=``, ``chunk_size=``) are gone; passing one is a
``TypeError``, and ``tools/lint_invariants.py`` (RL005) keeps them from
coming back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .semantic import SemanticBudget


@dataclass(frozen=True)
class UnfoldCaps:
    """Limits on the tier-0 UCQ unfolding.

    ``max_disjuncts`` / ``max_atoms`` pin the caps exactly (the historical
    fixed behavior is ``UnfoldCaps(256, 24)``).  Leaving either ``None``
    delegates to the cost model
    (:func:`repro.planner.analysis.effective_unfold_caps`): the unfolding
    size is estimated from the IDB call graph and admitted when its
    work — disjuncts x atoms — stays within
    :data:`~repro.planner.analysis.DEFAULT_UNFOLD_WORK_BUDGET` or within a
    constant factor of the fixpoint alternative's per-read cost.
    """

    max_disjuncts: int | None = None
    max_atoms: int | None = None


@dataclass(frozen=True)
class AdaptivePolicy:
    """Hysteresis knobs for live re-planning of serving sessions.

    A session with an adaptive policy watches its rolling read/insert/
    delete mix (``SessionStats``) and re-plans a query onto a cheaper tier
    when the observed mix crosses a breakeven — see
    :mod:`repro.planner.adaptive`.  The knobs exist so the controller
    *never flaps*:

    * ``mix_window`` — how many of the most recent events form the trigger
      mix (bounded by the stats ring buffer, 256);
    * ``min_dwell`` — events that must pass on the current tier (since
      session start or the last swap) before another swap is considered;
    * ``cost_gap`` — the predicted cost of the current tier must exceed
      the best candidate's by this factor, so near-ties never trigger;
    * ``warmup`` — events before the first decision (the model has no
      observations yet);
    * ``max_replans`` — optional hard cap on swaps per query (``None`` =
      unlimited).
    """

    mix_window: int = 24
    min_dwell: int = 16
    cost_gap: float = 1.8
    warmup: int = 8
    max_replans: int | None = None

    def __post_init__(self) -> None:
        if self.mix_window < 1:
            raise ValueError("mix_window must be at least 1")
        if self.min_dwell < 0:
            raise ValueError("min_dwell must be non-negative")
        if self.cost_gap < 1.0:
            raise ValueError("cost_gap below 1.0 would invite flapping")


#: The policy ``adaptive=True`` resolves to.
DEFAULT_ADAPTIVE = AdaptivePolicy()


@dataclass(frozen=True)
class PlanPolicy:
    """Every planner/serving knob in one frozen, reusable object.

    All fields default to ``None`` — "use the entry point's default" — so
    ``PlanPolicy()`` is exactly the historical default behavior
    everywhere.  Fields:

    * ``tier`` — pin one planner tier; forcing
      bypasses the semantic stage and **pins** the session: adaptive
      re-planning is disabled with a rationale in ``explain()``.
    * ``semantic`` / ``semantic_budget`` — the semantic rewritability
      stage (:mod:`repro.planner.semantic`) and its budget.
    * ``check`` — static-analyzer mode (``"off"`` / ``"warn"`` /
      ``"strict"``); ``None`` means the entry point's default (sessions
      ``"warn"``, bare planning ``"off"``).
    * ``parallel`` / ``chunk_size`` — tier-2 worker-pool controls
      (``evaluate`` and the parallel executors).
    * ``adaptive`` — ``True`` / an :class:`AdaptivePolicy` to enable live
      re-planning in serving sessions; ``None`` / ``False`` disables it.
    * ``unfold_caps`` — tier-0 unfolding limits (:class:`UnfoldCaps`);
      ``None`` uses the cost-based default.
    """

    tier: int | None = None
    semantic: bool | None = None
    semantic_budget: "SemanticBudget | None" = None
    check: str | None = None
    parallel: int | str | None = None
    chunk_size: int | None = None
    adaptive: "AdaptivePolicy | bool | None" = None
    unfold_caps: UnfoldCaps | None = None

    def resolved_adaptive(self) -> AdaptivePolicy | None:
        """The effective adaptive policy, or ``None`` when disabled."""
        if self.adaptive is None or self.adaptive is False:
            return None
        if self.adaptive is True:
            return DEFAULT_ADAPTIVE
        return self.adaptive

    def resolved_check(self, default: str) -> str:
        return self.check if self.check is not None else default

    def planning_view(self) -> "PlanPolicy":
        """The policy as :func:`plan_program` should see it from a session.

        Sessions vet programs themselves (with their own ``"warn"``
        default), so the check is stripped before planning to avoid
        vetting the same program twice.
        """
        if self.check is None:
            return self
        return replace(self, check=None)
