"""Shared pieces of the benchmark: the metric catalogue, percentiles, and
the per-run result every workload returns.

Every workload reports every end-to-end metric (untraced runs) and every
per-layer metric (traced runs); ``README.md`` says what each one means on
each workload.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

#: The one monotone clock of the benchmark, and the process CPU clock.
clock = time.perf_counter
cpu_clock = time.process_time

#: ``BENCHMARK.json``, at the root of the checkout, declares every metric.
_DECLARED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def _catalogue(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(_DECLARED) as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in declared[section]}


#: End-to-end metrics: name -> unit.  Reported by untraced runs.
END_TO_END = _catalogue("end_to_end")
#: Per-layer metrics: name -> unit.  Reported by traced runs.
PER_LAYER = _catalogue("per_layer")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    #: ops that failed: errors, rejections, timeouts and wrong answers
    failed: int = 0
    #: ops whose answers differ from the independent reference
    wrong: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: sample count behind each percentile / rate, reported with the result
    samples: dict[str, int] = field(default_factory=dict)
    #: human-readable notes on failed checks (first few only)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def mismatch(self, message: str, count: int = 1) -> None:
        self.wrong += count
        self.fail(message, count)


def latency_metrics(outcome: Outcome, segments) -> None:
    """Fill the latency metrics (ms) from ``(reads_s, writes_s)`` samples in
    seconds, one pair per segment of the run.

    Each percentile is taken within every segment and the median over the
    segments is reported, so a pause of the machine that slows one segment
    does not move the figure.  The pooled percentiles go with the sample
    counts, and so does the read p90, which is not a gated metric: on the
    frontend it sits where reads start queueing behind flushes, and moved
    by three quarters of its median between runs of one commit.
    """
    reads_s = [sample for reads, _ in segments for sample in reads]
    writes_s = [sample for _, writes in segments for sample in writes]
    if not reads_s or not writes_s:
        raise RuntimeError("no read or no write samples: the run measured nothing")

    def per_segment(q: float, side: int) -> float:
        return median(
            [percentile(pair[side], q) for pair in segments if pair[side]]
        ) * 1e3

    outcome.metrics["read_p50_ms"] = per_segment(0.5, 0)
    outcome.metrics["write_p50_ms"] = per_segment(0.5, 1)
    outcome.metrics["write_p90_ms"] = per_segment(0.9, 1)
    outcome.samples.update(
        segments=len(segments),
        read=len(reads_s),
        write=len(writes_s),
        pooled_read_p50_us=round(percentile(reads_s, 0.5) * 1e6),
        pooled_read_p90_us=round(percentile(reads_s, 0.9) * 1e6),
        pooled_write_p50_us=round(percentile(writes_s, 0.5) * 1e6),
        pooled_write_p90_us=round(percentile(writes_s, 0.9) * 1e6),
    )


# -- the machine's speed --------------------------------------------------------

#: The box the benchmark was built on is shared: each of its CPUs switches,
#: every second or so, between a fast state and one about 1.9x slower, for
#: every kind of Python code alike, and how much of the time it spends
#: slow changes over minutes.  Runs minutes apart then differ by more than
#: any bound allows, whatever their length.  So the benchmark probes the
#: machine's speed before and after each measured piece of work with a
#: fixed reference computation that does not call the library, and
#: reports the CPU-bound times at the reference speed: raw time scaled by
#: ``REFERENCE_S`` over the two probes' mean.  A change to the library
#: moves the scaled figures as it moves the raw ones; a change of the
#: machine's state moves the probes with them and cancels out.

#: CPU seconds the reference work takes on that box in its fast state.
REFERENCE_S = 0.0055


def reference_work() -> int:
    """A fixed computation of the kind the library spends its time on:
    hashing tuples into dicts and sets."""
    counts: dict = {}
    seen = set()
    for i in range(20_000):
        key = (i % 97, i % 13, "r")
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
    return len(counts) + len(seen)


def probe() -> float:
    """CPU seconds the reference work takes right now."""
    started = cpu_clock()
    reference_work()
    return cpu_clock() - started


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)


def median_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times; return (last result, median
    seconds at the reference speed).

    The set-up's objects are then moved out of the collector's reach
    (``gc.freeze``), so the timed loop does not pay for scanning them in
    every full collection.
    """
    times = []
    for _ in range(repeats):
        result = None  # let the previous build go before the next one
        before = probe()
        started = clock()
        result = build()
        elapsed = clock() - started
        times.append(at_reference(elapsed, before, probe()))
    gc.collect()
    gc.freeze()
    return result, median(times)
