"""Workload ``frontend-mixed``: independent tenants through the
multi-tenant ``Frontend``, read-heavy, in an open loop for latency and a
closed loop for capacity.

Thousands of tenants register over three program shapes that the plan
cache interns into three shared sessions, one per planner tier: a
nonrecursive conjunction (tier 0), a recursive reachability program
(tier 1) and coCSP(K3), non-3-colourability, as MDDlog (tier 2).  Every
tenant brings its own alpha-renamed copy, so interning does real work.
Registration and seeding are the set-up.

The frontend runs with its default configuration, admission budget
included.  One seeded request stream, about 95% reads and 5% writes (a
write toggles one fact of its shape's pool), feeds a run cut into
segments, each of two parts:

* an open loop: arrivals as a seeded Poisson process at a fixed offered
  rate, a small share of what the frontend can serve.  Each request is
  timed from the moment it was due, not from when the frontend saw it,
  so a stall on the event loop shows up in the latency of every request
  queued behind it.  The latency metrics come from here; the generator's
  own lateness is reported with them.
* a capacity burst: a fixed batch of requests sent by ``CLIENTS``
  closed-loop clients, so the loop never waits for an arrival.  The
  rates (``omq_per_s``, ``events_per_s``) come from here: requests
  answered per CPU second of a busy frontend, not the offered load.

A read shed to a cached answer, a rejection and a timeout each count as a
failed request.

Every read is checked, outside the timed region, against
``replay_commit_log``: a serial twin replaying its group's commit log to
the read's version.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from common import (
    Outcome,
    at_reference,
    clock,
    cpu_clock,
    latency_metrics,
    median,
    median_setup,
    peak_rss_mb,
    percentile,
    probe,
)
from repro.core import Atom, Fact, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, goal_atom
from repro.service import Frontend, FrontendError, replay_commit_log
from repro.translations import csp_templates
from repro.workloads import csp_zoo

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = csp_zoo.EDGE
START = RelationSymbol("start", 1)
REACH = RelationSymbol("reach", 1)

QUERY = "q"


#: Writes toggle facts of these pools: marks of the conjunction, edges of
#: the reachability chain, edges of a random graph for the colouring.
MARKS = 40
CHAIN = 64
GRAPH_VERTICES = 12
WRITE_SHARE = 0.05

#: A run is cut into segments of about this many seconds.  Each segment
#: is an open-loop stretch (``OPEN_SHARE`` of it) and then a capacity
#: burst; every figure is the median over the segments of the figure
#: within each, so a pause of the machine during one segment does not
#: move it.
SEGMENT_S = 2.5
OPEN_SHARE = 0.8
#: Clients of a capacity burst: enough to keep the loop busy, far below
#: the default admission budget, so nothing is shed.
CLIENTS = 32
#: Requests per second a capacity burst completes on the 2-CPU box the
#: benchmark was built on.  The bursts send a fixed number of requests,
#: ``NOMINAL_CAPACITY * (1 - OPEN_SHARE) * seconds`` in all, so the work
#: is the same in every run and in the traced run's two passes.
NOMINAL_CAPACITY = 40000.0
#: The check replays every open-loop read and this sample of the bursts'
#: reads: holding all of them would make the results, not the program,
#: most of the process's memory.
CHECK_EVERY = 16


@dataclass(frozen=True)
class Sizes:
    tenants: int = 3000
    #: offered requests per second of the open loop
    rate: float = 250.0
    warmup_s: float = 1.0
    setups: int = 3


# -- tenant programs ------------------------------------------------------------


def conjunction(tag: str) -> DisjunctiveDatalogProgram:
    """Tier 0: ``q(x) <- A(x), B(x)``."""
    x = Variable(f"{tag}x")
    return DisjunctiveDatalogProgram(
        (Rule((goal_atom(x),), (Atom(A, (x,)), Atom(B, (x,)))),)
    )


def reachability(tag: str) -> DisjunctiveDatalogProgram:
    """Tier 1: nodes reachable from a ``start`` node along ``edge``."""
    x, y = Variable(f"{tag}x"), Variable(f"{tag}y")
    return DisjunctiveDatalogProgram(
        (
            Rule((Atom(REACH, (x,)),), (Atom(START, (x,)),)),
            Rule((Atom(REACH, (y,)),), (Atom(REACH, (x,)), Atom(EDGE, (x, y)))),
            Rule((goal_atom(x),), (Atom(REACH, (x,)),)),
        )
    )


_K3 = csp_templates.csp_to_mddlog(csp_zoo.three_colourability_template())


def colouring(tag: str) -> DisjunctiveDatalogProgram:
    """Tier 2: coCSP(K3), non-3-colourability (Theorem 4.6), as MDDlog."""
    renamed = {}
    for rule in _K3.rules:
        for atom in rule.head + rule.body:
            for variable in atom.variables:
                renamed.setdefault(variable, Variable(f"{tag}{variable.name}"))
    return DisjunctiveDatalogProgram(
        [
            Rule(
                tuple(atom.substitute(renamed) for atom in rule.head),
                tuple(atom.substitute(renamed) for atom in rule.body),
            )
            for rule in _K3.rules
        ],
        goal_relation=_K3.goal_relation,
    )


SHAPES = {"conjunction": conjunction, "reachability": reachability, "colouring": colouring}
#: service class per shape (tier-2 tenants are shed first under load)
TIERS = {"conjunction": 0, "reachability": 1, "colouring": 2}


def shape_of(tenant_index: int) -> str:
    return list(SHAPES)[tenant_index % len(SHAPES)]


def pools() -> dict[str, list[Fact]]:
    """Per shape, the facts writes toggle (all present after seeding)."""
    graph = csp_zoo.random_graph(GRAPH_VERTICES, 0.3, seed=0)
    return {
        "conjunction": [
            Fact(relation, (f"m{i}",)) for i in range(MARKS) for relation in (A, B)
        ],
        "reachability": [Fact(EDGE, (f"g{i}", f"g{i + 1}")) for i in range(CHAIN)],
        "colouring": sorted(graph.facts, key=str),
    }


def build_frontend(sizes: Sizes) -> Frontend:
    """Set-up: register (compile, intern, plan) every tenant, seed every group.

    The frontend runs with the default ``FrontendConfig``, admission
    budget included.
    """
    frontend = Frontend()
    first: dict[str, str] = {}
    for index in range(sizes.tenants):
        shape = shape_of(index)
        tenant = f"t{index}"
        frontend.register_tenant(
            tenant, workload={QUERY: SHAPES[shape](f"v{index}_")}, tier=TIERS[shape]
        )
        first.setdefault(shape, tenant)
    seeds = pools()
    seeds["reachability"].append(Fact(START, ("g0",)))

    async def seed() -> None:
        for shape, tenant in first.items():
            await frontend.insert(tenant, seeds[shape])
        await frontend.drain()

    asyncio.run(seed())
    return frontend


# -- the traffic --------------------------------------------------------------------


@dataclass
class Arrival:
    offset_s: float
    tenant: str
    kind: str  # "read" | "insert" | "delete"
    fact: Fact | None = None


class Traffic:
    """The seeded request stream of a run, in order.

    Tenants are drawn uniformly; a write toggles a random fact of its
    tenant's pool, deleting it when the stream so far left it present.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.pool = pools()
        self.live = {shape: set(facts) for shape, facts in self.pool.items()}

    def _next(self, offset_s: float) -> Arrival:
        index = self.rng.randrange(self.sizes.tenants)
        tenant = f"t{index}"
        if self.rng.random() >= WRITE_SHARE:
            return Arrival(offset_s, tenant, "read")
        shape = shape_of(index)
        fact = self.rng.choice(self.pool[shape])
        kind = "delete" if fact in self.live[shape] else "insert"
        self.live[shape].symmetric_difference_update({fact})
        return Arrival(offset_s, tenant, kind, fact)

    def schedule(self, duration_s: float) -> list[Arrival]:
        """Poisson arrivals at the offered rate over ``duration_s``."""
        arrivals = []
        offset = self.rng.expovariate(self.sizes.rate)
        while offset < duration_s:
            arrivals.append(self._next(offset))
            offset += self.rng.expovariate(self.sizes.rate)
        return arrivals

    def batch(self, count: int) -> list[Arrival]:
        """``count`` requests with no schedule, for a capacity burst."""
        return [self._next(0.0) for _ in range(count)]

    def work(self, seconds: float) -> list[tuple[list[Arrival], list[Arrival]]]:
        """The measured work of ``seconds``: per segment, the open-loop
        arrivals and the capacity burst's fixed batch."""
        segments = max(1, round(seconds / SEGMENT_S))
        span = seconds / segments
        burst = round(NOMINAL_CAPACITY * (1 - OPEN_SHARE) * span)
        return [
            (self.schedule(OPEN_SHARE * span), self.batch(burst))
            for _ in range(segments)
        ]


# -- the two loops ------------------------------------------------------------------


async def perform(frontend: Frontend, arrival: Arrival, outcome: Outcome):
    """Send one request.  Returns the read's result, ``True`` for a
    committed write, ``None`` for a failed request: an error, a rejection,
    a timeout, or a read shed to a cached answer."""
    try:
        if arrival.kind == "read":
            result = await frontend.query(arrival.tenant, QUERY)
            if result.degraded:
                outcome.fail(f"read by {arrival.tenant} shed to a cached answer")
                return None
            return result
        write = frontend.insert if arrival.kind == "insert" else frontend.delete
        await write(arrival.tenant, [arrival.fact])
        return True
    except (FrontendError, TimeoutError) as error:
        outcome.fail(f"{arrival.kind} by {arrival.tenant}: {error}")
        return None


#: The event loop's timers fire up to a millisecond late; the generator
#: sleeps until this long before a request is due and yields from there.
TIMER_SLACK_S = 0.002


async def send_at(due: float) -> None:
    """Return at ``due`` (at once when late), letting other tasks run."""
    delay = due - clock() - TIMER_SLACK_S
    if delay > 0:
        await asyncio.sleep(delay)
    while clock() < due:
        await asyncio.sleep(0)


@dataclass
class Offered:
    """What one open loop measured."""

    reads: list
    writes: list
    lags: list
    queue_waits: list
    #: reference seconds per measured second (see ``measure``)
    scale: float = 1.0


async def offer(frontend: Frontend, arrivals: list[Arrival], outcome: Outcome,
                served: list) -> Offered:
    """Send ``arrivals`` on schedule; each request is timed from its due time."""
    measured = Offered([], [], [], [])

    async def request(arrival: Arrival, due: float) -> None:
        result = await perform(frontend, arrival, outcome)
        if result is None:
            return
        latency = clock() - due
        if arrival.kind == "read":
            served.append(result)
            measured.reads.append(latency)
            measured.queue_waits.append(latency - result.elapsed_s)
        else:
            measured.writes.append(latency)

    started = clock()
    tasks = []
    for arrival in arrivals:
        outcome.attempted += 1
        due = started + arrival.offset_s
        await send_at(due)
        measured.lags.append(clock() - due)
        tasks.append(asyncio.create_task(request(arrival, due)))
    await asyncio.gather(*tasks)
    return measured


@dataclass
class Capacity:
    """What one capacity burst measured: requests answered, and the
    process CPU time they took (the loop is never idle in a burst, so
    this is its wall time less what the machine took away)."""

    cpu_s: float = 0.0
    reads: int = 0
    writes: int = 0
    #: reference seconds per measured second (see ``measure``)
    scale: float = 1.0

    def rate(self, answered: int) -> float:
        """Requests per CPU second at the reference speed."""
        return answered / (self.cpu_s * self.scale)


async def saturate(frontend: Frontend, arrivals: list[Arrival], outcome: Outcome,
                   served: list) -> Capacity:
    """Send ``arrivals`` through ``CLIENTS`` closed-loop clients, each
    sending its next request when its last one is answered.  Every
    ``CHECK_EVERY``-th read joins ``served`` for the check."""
    queue = iter(arrivals)
    measured = Capacity()

    async def client() -> None:
        for arrival in queue:
            outcome.attempted += 1
            result = await perform(frontend, arrival, outcome)
            if result is None:
                continue
            if arrival.kind == "read":
                measured.reads += 1
                if measured.reads % CHECK_EVERY == 0:
                    served.append(result)
            else:
                measured.writes += 1

    started = cpu_clock()
    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    measured.cpu_s = cpu_clock() - started
    return measured


def measure(frontend: Frontend, work, outcome: Outcome,
            served: list) -> list[tuple[Offered, Capacity]]:
    """Every segment of ``work``: its open loop, then its capacity burst.

    The machine's speed is probed before, between and after them, and
    each keeps the scale of the two probes around it (see
    ``common.REFERENCE_S``).
    """

    async def segments():
        measured = []
        before = probe()
        for offered, batch in work:
            segment = await offer(frontend, offered, outcome, served)
            middle = probe()
            segment.scale = at_reference(1.0, before, middle)
            burst = await saturate(frontend, batch, outcome, served)
            before = probe()
            burst.scale = at_reference(1.0, middle, before)
            measured.append((segment, burst))
        return measured

    return asyncio.run(segments())


def check_reads(frontend: Frontend, served: list, outcome: Outcome) -> None:
    """Every read against the serial twin replaying its group's log."""
    by_group: dict[int, tuple[str, list]] = {}
    for result in served:
        group = id(frontend.session(result.tenant))
        by_group.setdefault(group, (result.tenant, []))[1].append(result)
    for tenant, results in by_group.values():
        replayed = replay_commit_log(
            frontend.programs(tenant),
            frontend.commit_log(tenant),
            versions={result.version for result in results},
        )
        for result in results:
            expected = replayed[result.version][QUERY]
            if result.answers != expected:
                outcome.mismatch(
                    f"{result.tenant} at version {result.version}: served "
                    f"{sorted(result.answers)}, replay has {sorted(expected)}"
                )


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    outcome = Outcome()
    traffic = Traffic(seed, sizes)
    if trace:
        from tracing import LayerTracer

        work = traffic.work(seconds / 2)
        served: list = []
        frontend = build_frontend(sizes)
        untraced = measure(frontend, work, outcome, served)
        check_reads(frontend, served, outcome)
        served = []
        with LayerTracer() as tracer:
            frontend = build_frontend(sizes)
            traced = measure(frontend, work, outcome, served)
        check_reads(frontend, served, outcome)
        outcome.metrics.update(tracer.metrics())
        outcome.metrics["bench.trace_overhead"] = sum(
            burst.cpu_s * burst.scale for _, burst in traced
        ) / sum(burst.cpu_s * burst.scale for _, burst in untraced)
        lags = [lag for offered, _ in untraced for lag in offered.lags]
        waits = [wait for offered, _ in untraced for wait in offered.queue_waits]
        outcome.metrics["bench.generator_lag_p99_ms"] = percentile(lags, 0.99) * 1e3
        outcome.metrics["frontend.queue_wait_ms"] = sum(waits) / len(waits) * 1e3
        outcome.samples["reads"] = len(waits)
        return outcome

    warmup = traffic.schedule(sizes.warmup_s)
    work = traffic.work(seconds)
    frontend, setup_s = median_setup(lambda: build_frontend(sizes), sizes.setups)
    served = []
    asyncio.run(offer(frontend, warmup, outcome, served))
    measured = measure(frontend, work, outcome, served)
    check_reads(frontend, served, outcome)
    bursts = [burst for _, burst in measured]
    outcome.metrics.update(
        setup_s=setup_s,
        omq_per_s=median([burst.rate(burst.reads) for burst in bursts]),
        events_per_s=median([burst.rate(burst.reads + burst.writes) for burst in bursts]),
    )
    # A read is CPU work on the loop, taken at the reference speed; a write
    # waits mostly for the group-commit deadline, a timer the machine's
    # speed does not move.
    latency_metrics(
        outcome,
        [
            ([latency * offered.scale for latency in offered.reads], offered.writes)
            for offered, _ in measured
        ],
    )
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    answered = sum(burst.reads + burst.writes for burst in bursts)
    lags = [lag for offered, _ in measured for lag in offered.lags]
    outcome.samples.update(
        probes=2 * len(measured) + 1,
        median_scale=round(median([burst.scale for burst in bursts]), 4),
        capacity_requests=answered,
        offered_rate_per_capacity=round(
            sizes.rate * sum(burst.cpu_s for burst in bursts) / answered, 4
        ),
        generator_lag_p99_us=round(percentile(lags, 0.99) * 1e6),
    )
    return outcome
