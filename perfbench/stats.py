"""Pure helpers behind the benchmark's numbers.

* :func:`tail_quantile` — exact quantiles from raw samples, with the rule
  that a percentile is reported only when at least ``min_beyond`` samples
  lie beyond it (otherwise the highest percentile that meets the rule).
* :func:`self_times` — a span's self time: its duration minus the part of
  its interval that its children cover (children may nest or overlap).
* :class:`FifoMatcher` — pairs each request decoded on a session with the
  service call that serves it, in per-session FIFO order, giving the
  daemon's queue wait.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` run without it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10


def tail_quantile(
    values: Sequence[float], pct: float, min_beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """``(reported_pct, value, n)`` for the ``pct``-th percentile of ``values``.

    The value is an observed sample (nearest rank: the ``ceil(p/100 * n)``-th
    smallest), so it never exceeds the maximum.  When fewer than
    ``min_beyond`` samples would lie beyond rank ``pct``, the highest
    percentile that leaves ``min_beyond`` beyond is reported instead; with
    ``n <= min_beyond`` no percentile qualifies and the result is None.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < min_beyond:
        rank = n - min_beyond
        pct = 100.0 * rank / n
    return pct, ordered[rank - 1], n


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of every span in ``spans`` (``(start, end, parent)`` triples).

    ``parent`` is the index of the enclosing span, or a negative number for
    a root.  A child interval is clipped to its parent's interval, and
    overlapping children count once: self time is the parent's duration
    minus the measure of the union of its children.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        kids = children.get(index)
        if kids:
            kids.sort()
            run_start = run_end = None
            for c_start, c_end in kids:
                c_start = max(c_start, start)
                c_end = min(c_end, end)
                if c_end <= c_start:
                    continue
                if run_end is None or c_start > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = c_start, c_end
                elif c_end > run_end:
                    run_end = c_end
            if run_end is not None:
                covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class FifoMatcher:
    """Match per-session arrivals to departures in FIFO order.

    ``arrive(key, t)`` records a request decoded on session ``key`` at
    time ``t``; ``depart(key, t)`` pairs the oldest unmatched arrival of
    that session with a service call starting at ``t`` and returns the
    wait (None when the session has no pending arrival — counted in
    :attr:`unmatched`).
    """

    def __init__(self) -> None:
        self._pending: Dict[Hashable, Deque[float]] = {}
        self.waits: List[float] = []
        self.unmatched = 0

    def arrive(self, key: Hashable, t: float) -> None:
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append(t)

    def depart(self, key: Hashable, t: float) -> Optional[float]:
        queue = self._pending.get(key)
        if not queue:
            self.unmatched += 1
            return None
        wait = t - queue.popleft()
        self.waits.append(wait)
        return wait

    @property
    def pending(self) -> int:
        """Arrivals still waiting for their departure."""
        return sum(len(q) for q in self._pending.values())
