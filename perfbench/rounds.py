"""One round of a workload, and the loop that repeats rounds for a run.

A run repeats whole rounds — set-up, warm-up, timed window, checks,
teardown — until its time budget is spent, and reports the median of
each metric over the rounds, so one round disturbed by a neighbour on a
shared machine does not move the result.  With tracing on, one
round is traced; the untraced rounds give the end-to-end figures and the
baseline for ``trace.overhead_ratio``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ledger import Tracer


@dataclass
class RoundResult:
    """The measurements and checks of one round."""

    #: end-to-end metrics of the round, by name
    metrics: Dict[str, float]
    #: latency samples behind ``p50_ms``/``p99_ms``
    samples: int
    #: the percentile actually reported as ``p99_ms`` (lower when too few
    #: samples lie beyond the 99th)
    tail_pct: float
    attempted: int
    failed: int
    #: failed output checks, as messages
    problems: List[str] = field(default_factory=list)
    #: ledger rows read from the workload's own counters
    layer_rows: Dict[str, float] = field(default_factory=dict)


RoundFn = Callable[[Optional[Tracer]], RoundResult]


def run_rounds(round_fn: RoundFn, seconds: float, tracer: Optional[Tracer]):
    """Repeat rounds while the next one still fits in ``seconds``.

    Returns ``(untraced, traced)`` round lists.  At least one untraced
    round always runs; with a ``tracer``, the second round is the one
    traced round.
    """
    untraced: List[RoundResult] = []
    traced: List[RoundResult] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None and untraced and not traced:
            traced.append(round_fn(tracer))
        else:
            untraced.append(round_fn(None))
        took = time.perf_counter() - began
        done = tracer is None or traced
        if done and time.perf_counter() - start + took > seconds:
            return untraced, traced


def median_metrics(rounds: List[RoundResult]) -> Dict[str, float]:
    """The median of every metric over ``rounds``."""
    return {
        name: statistics.median(r.metrics[name] for r in rounds)
        for name in rounds[0].metrics
    }
