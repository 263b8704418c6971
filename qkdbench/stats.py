"""Order statistics and span bookkeeping for the benchmark.

Nothing here imports quditqkd, so the self-tests can check these helpers
without the package on the path.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics.

    Matches numpy's default ("linear") method: the value at rank
    q/100 * (n - 1) of the sorted sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles come from ``statistics.quantiles(values, n=4)``, the
    default ("exclusive") method.
    """
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


def covered(interval: tuple[float, float], inner) -> float:
    """Length of ``interval`` covered by the union of the ``inner`` intervals."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in inner if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class Call:
    """One timed call into a quditqkd layer: a span of the trace."""

    layer: str
    case: str
    start: float
    end: float
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Op:
    """One operation of a workload; ``kind`` is "op" or a probe name."""

    index: int
    kind: str
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    problems: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Times calls into the program and groups them by operation.

    Every timed run needs the per-call durations for its end-to-end
    metrics; the traced pass reads the same records as spans (each call
    is a child span of its operation) to derive self times and the share
    of each operation that no layer span covers.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: list[Call] = []
        self.ops: list[Op] = []
        self._op: Op | None = None

    def begin(self, kind: str) -> Op:
        op = Op(len(self.ops), kind, start=self.clock())
        self.ops.append(op)
        self._op = op
        return op

    def end(self) -> Op:
        """Close the current op; its deferred checks may still record to it."""
        op = self._op
        op.end = self.clock()
        return op

    def call(self, layer: str, case: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span named ``layer``/``case``."""
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            index = -1 if self._op is None else self._op.index
            self.calls.append(Call(layer, case, start, end, index))

    def note(self, **attrs) -> None:
        """Attach counts to the most recent call."""
        self.calls[-1].attrs.update(attrs)

    def check(self, ok: bool, what: str) -> None:
        """Record an output check of the current operation."""
        if not ok:
            self._op.ok = False
            self._op.problems.append(what)

    def select(self, layer: str, case: str | None = None) -> list[Call]:
        return [c for c in self.calls if c.layer == layer and (case is None or c.case == case)]

    def per_op(self, layer: str, case: str | None = None) -> list[float]:
        """Seconds spent in ``layer`` (and ``case``) by each op that called it."""
        sums: dict[int, float] = {}
        for c in self.select(layer, case):
            sums[c.op] = sums.get(c.op, 0.0) + c.seconds
        return list(sums.values())

    def per_op_rates(self, layers, key: str) -> list[float]:
        """Work (the ``key`` count) per second in ``layers``, one rate per op."""
        seconds: dict[int, float] = {}
        work: dict[int, float] = {}
        for c in self.calls:
            if c.layer in layers:
                seconds[c.op] = seconds.get(c.op, 0.0) + c.seconds
                work[c.op] = work.get(c.op, 0) + c.attrs.get(key, 0)
        return [work[op] / seconds[op] for op in seconds if work[op]]

    def uncovered_share(self, op: Op) -> float:
        """Share of the op's wall time outside every layer span."""
        spans = [(c.start, c.end) for c in self.calls if c.op == op.index]
        return 1.0 - covered((op.start, op.end), spans) / op.seconds
