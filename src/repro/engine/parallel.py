"""Parallel certain-answer evaluation over a persistent worker pool.

Theorem 3.3 reduces OMQ answering to certain-answer evaluation of one
disjunctive datalog program, and the resulting candidate-tuple decisions are
*independent*: each candidate ``a`` is decided by one satisfiability query
``solve(false_atoms=[goal(a)])`` against the same ground program.  This
module exploits that embarrassingly parallel structure:

* :class:`ReplicaPool` is a persistent ``multiprocessing`` pool whose
  workers each hold a *replica* of an arbitrary payload (here: the ground
  clause set / a bounded-model engine).  The payload is shipped once, at
  pool start; tasks then reference it through a per-process global.  With
  the ``fork`` start method the replica is inherited copy-on-write, so even
  large ground programs cost no per-task serialization.  When only one
  worker is requested — or process pools are unavailable in the sandbox —
  the pool degrades to an in-process serial executor running the *same*
  task code, so every parallel path has a deterministic serial twin.
* :class:`ParallelEvaluator` partitions the candidate tuples of a
  :class:`~repro.engine.grounder.GroundProgram` into chunks and dispatches
  them across the pool; each worker builds its CDCL solver replica once and
  decides every chunk against that warm state.  Workers return compact
  *learned-clause summaries* (short learned clauses over plain ground
  atoms) along with their verdicts, and later chunks carry the accumulated
  summaries back out, so conflict knowledge discovered by one worker prunes
  the search of the others.

Identity-hashed auxiliary atoms (:class:`~repro.engine.grounder.GroundAux`,
:class:`~repro.engine.sat.TseitinAux`) survive the one-shot replica pickle
— pickling preserves object identity *within* one object graph — but would
come back as fresh atoms if shipped between workers, so learned-clause
summaries are restricted to clauses over value-hashed atoms.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Iterable, Sequence

from .grounder import GroundAux, GroundProgram, no_model_answers, screen_candidates
from .sat import Clause, ClauseSolver, TseitinAux

__all__ = [
    "ParallelEvaluator",
    "ReplicaPool",
    "parallel_certain_answers",
    "resolve_workers",
]


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (``None`` means one per CPU)."""
    if workers is None:
        return os.cpu_count() or 1
    return max(1, int(workers))


# ---------------------------------------------------------------------------
# The replica pool
# ---------------------------------------------------------------------------

# Per-worker-process state: the replica payload plus a cache for state the
# task derives from it once (e.g. the solver built from the clause set).
_CONTEXT: "_WorkerContext | None" = None


class _WorkerContext:
    __slots__ = ("payload", "cache")

    def __init__(self, payload) -> None:
        self.payload = payload
        self.cache: dict = {}


def _init_replica(payload) -> None:
    global _CONTEXT
    _CONTEXT = _WorkerContext(payload)


def _run_task(task: Callable, chunk, shared):
    return task(_CONTEXT, chunk, shared)


class ReplicaPool:
    """A persistent worker pool whose workers each replicate one payload.

    ``task(context, chunk, shared) -> (result, feedback)`` functions must be
    module-level (they are shipped by reference).  ``run`` dispatches chunks
    across the pool; when ``feedback=True`` the feedback values returned by
    completed chunks are accumulated and passed as ``shared`` to chunks
    dispatched afterwards — the channel the evaluator uses for
    learned-clause summaries.
    """

    def __init__(self, payload, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        self._payload = payload
        self._pool = None
        self._serial_context: _WorkerContext | None = None
        if self.workers > 1:
            try:
                import multiprocessing

                # Fork-only: the one-shot payload replication relies on
                # inheritance (no re-pickling, no module re-import), and
                # spawn would crash on unpicklable payloads or unguarded
                # scripts instead of degrading.  Non-fork hosts get the
                # serial twin below.
                if "fork" in multiprocessing.get_all_start_methods():
                    self._pool = multiprocessing.get_context("fork").Pool(
                        processes=self.workers,
                        initializer=_init_replica,
                        initargs=(payload,),
                    )
            except (ImportError, OSError):  # pragma: no cover - sandboxed hosts
                self._pool = None
        if self._pool is None:
            self.workers = 1

    @property
    def is_parallel(self) -> bool:
        return self._pool is not None

    def _context(self) -> _WorkerContext:
        if self._serial_context is None:
            self._serial_context = _WorkerContext(self._payload)
        return self._serial_context

    def run(
        self,
        task: Callable,
        chunks: Sequence,
        feedback: bool = False,
        max_shared: int = 512,
    ) -> list:
        """Run ``task`` over every chunk; results come back in chunk order."""
        results: list = [None] * len(chunks)
        shared: list = []
        shared_keys: set = set()

        def absorb(values) -> None:
            if not feedback or values is None:
                return
            for value in values:
                if value not in shared_keys and len(shared) < max_shared:
                    shared_keys.add(value)
                    shared.append(value)

        if self._pool is None:
            context = self._context()
            for index, chunk in enumerate(chunks):
                result, fed = task(context, chunk, tuple(shared))
                results[index] = result
                absorb(fed)
            return results

        pending = list(enumerate(chunks))
        pending.reverse()  # pop() dispatches in chunk order
        inflight: dict[int, object] = {}
        while pending or inflight:
            while pending and len(inflight) < self.workers:
                index, chunk = pending.pop()
                inflight[index] = self._pool.apply_async(
                    _run_task, (task, chunk, tuple(shared))
                )
            done = [index for index, job in inflight.items() if job.ready()]
            if not done:
                next(iter(inflight.values())).wait(0.005)
                continue
            for index in done:
                result, fed = inflight.pop(index).get()
                results[index] = result
                absorb(fed)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Parallel candidate-tuple decision for ground programs
# ---------------------------------------------------------------------------


def _shippable(clause: Clause) -> bool:
    """May this clause cross a process boundary on its own?

    Identity-hashed auxiliary atoms deserialize into *fresh* atoms outside
    their home replica, so only clauses over value-hashed ground atoms are
    shared between workers.
    """
    negative, positive = clause
    return not any(
        isinstance(atom, (GroundAux, TseitinAux))
        for atom in itertools.chain(negative, positive)
    )

# Learned clauses wider than this are kept private to their worker: long
# clauses prune little and cost proportionally more to ship and re-add.
_SHARED_CLAUSE_WIDTH = 3


def _replica_solver(context: _WorkerContext) -> ClauseSolver:
    solver = context.cache.get("solver")
    if solver is None:
        clauses = context.payload[0]
        solver = ClauseSolver()
        for negative, positive in clauses:
            solver.add_clause(negative, positive)
        context.cache["solver"] = solver
        context.cache["seen_shared"] = set()
    return solver


def _decide_chunk(
    context: _WorkerContext, chunk: Sequence[tuple], shared: Sequence[Clause]
):
    """Decide one chunk of candidate tuples against the replica solver.

    Mirrors :meth:`GroundProgram.certain_answers`
    (:func:`~repro.engine.grounder.screen_candidates`).  Returns the
    per-candidate verdicts plus the short learned clauses this chunk's
    searches produced.
    """
    solver = _replica_solver(context)
    _clauses, goal, adom, arity = context.payload
    seen_shared: set = context.cache["seen_shared"]
    for clause in shared:
        if clause not in seen_shared:
            seen_shared.add(clause)
            solver.add_clause(*clause)
    export_base = solver.clause_count()
    if solver.solve():
        certain = set(screen_candidates(solver, goal, chunk))
    else:
        certain = no_model_answers(adom, arity, chunk)
    verdicts = [candidate in certain for candidate in chunk]
    learned = [
        clause
        for clause in solver.export_clauses(
            export_base, max_width=_SHARED_CLAUSE_WIDTH
        )
        if _shippable(clause)
    ]
    seen_shared.update(learned)
    return verdicts, learned


class ParallelEvaluator:
    """Chunked parallel candidate decision against a ground program.

    Workers replicate the ground clause set once (building their CDCL state
    lazily, on their first chunk) and stay warm across :meth:`decide`
    calls; learned-clause summaries flow back through the dispatch loop
    when ``share_learned`` is set.  Answers are identical to
    :meth:`GroundProgram.certain_answers` for every worker count and chunk
    size — the randomized cross-validation suite pins this down.
    """

    def __init__(
        self,
        ground: GroundProgram,
        workers: int | None = None,
        chunk_size: int | None = None,
        share_learned: bool = True,
    ) -> None:
        self.ground = ground
        self.chunk_size = chunk_size
        self.share_learned = share_learned
        self.pool = ReplicaPool(
            (
                ground.clauses,
                ground.program.goal_relation,
                ground.instance.active_domain,
                ground.program.arity,
            ),
            workers,
        )

    def _chunks(self, candidates: Sequence[tuple]) -> list[Sequence[tuple]]:
        size = self.chunk_size
        if size is None:
            # ~4 chunks per worker balances load against dispatch overhead
            size = max(1, -(-len(candidates) // (4 * self.pool.workers)))
        return [
            candidates[start : start + size]
            for start in range(0, len(candidates), size)
        ]

    def decide(self, candidates: Iterable[Sequence]) -> dict[tuple, bool]:
        """Per-candidate certainty verdicts, computed chunk-parallel."""
        batch = [tuple(candidate) for candidate in candidates]
        if not batch:
            return {}
        verdict_chunks = self.pool.run(
            _decide_chunk, self._chunks(batch), feedback=self.share_learned
        )
        decided: dict[tuple, bool] = {}
        position = 0
        for chunk in verdict_chunks:
            for verdict in chunk:
                decided[batch[position]] = verdict
                position += 1
        return decided

    def certain_answers(self) -> frozenset[tuple]:
        """All certain answers of the ground program (= the serial result)."""
        domain = sorted(self.ground.instance.active_domain, key=repr)
        candidates = list(
            itertools.product(domain, repeat=self.ground.program.arity)
        )
        decided = self.decide(candidates)
        return frozenset(c for c, certain in decided.items() if certain)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_certain_answers(
    ground: GroundProgram,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> frozenset[tuple]:
    """One-shot convenience wrapper: evaluate, then release the pool."""
    with ParallelEvaluator(ground, workers=workers, chunk_size=chunk_size) as ev:
        return ev.certain_answers()
