"""Aggregates over heterogeneous request sets.

A run is a list of whole passes; a pass sends every distinct request of
the workload exactly once, and a run only stops between passes.  So the
sample mix (which outputs, which request classes) is the same whatever
the run length, and one slow output cannot set a result by appearing
more often in one run than in another.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

# A percentile is reported only when at least this many samples lie
# beyond it; fewer would make it the maximum of a handful of samples.
MIN_BEYOND = 10


@dataclass
class Sample:
    """One answered request."""

    key: str          # the distinct request it belongs to
    cls: str          # request class: cold, warm or hit
    ms: float         # latency (closed loop: call time; open loop: from due time)
    ok: bool          # accepted cover, requested rung, within the latency limit
    literals: int = 0


@dataclass
class Pass:
    """One sweep over the workload's distinct requests."""

    samples: list[Sample]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supports(count: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``count`` samples keep ``min_beyond`` of them above the
    ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= min_beyond


def highest_supported(count: int, candidates=(99.0, 95.0, 90.0, 75.0, 50.0)) -> float | None:
    """The highest candidate percentile ``count`` samples support."""
    for q in candidates:
        if supports(count, q):
            return q
    return None


def per_key(passes: Iterable[Pass]) -> dict[str, list[float]]:
    """Latencies of each distinct request across passes."""
    out: dict[str, list[float]] = {}
    for p in passes:
        for s in p.samples:
            out.setdefault(s.key, []).append(s.ms)
    return out


def key_latencies(passes: Iterable[Pass]) -> dict[str, float]:
    """Each distinct request's fastest latency across passes.

    On a shared 2-CPU host the same pass runs up to ~1.6x slower in
    spells that last seconds to minutes and can cover most of a run.
    Those spells only ever add time, so a request's fastest pass moves
    far less between runs than its median or lower quartile: over 36 s
    windows of one noisy wide-spp0 process the geometric mean of the
    minima ranged 13%, of the lower quartiles 35%.  The price: a pause
    that lands on different requests in different passes, such as a
    full garbage collection, drops out of the minimum.  The report lines
    still print each request's median.
    """
    return {k: min(v) for k, v in per_key(passes).items()}


def geomean_per_key(passes: Iterable[Pass]) -> float:
    """Geometric mean over distinct requests of each one's fastest latency.

    Every request weighs the same, so a gain on a 20 ms output shows even
    when seconds-long outputs dominate the pass time.
    """
    values = list(key_latencies(passes).values())
    if not values:
        raise ValueError("no samples")
    return math.exp(sum(math.log(max(v, 1e-6)) for v in values) / len(values))


def pass_busy_s(p: Pass) -> float:
    """Summed request latency of one pass, in seconds."""
    return sum(s.ms for s in p.samples) / 1000.0


def throughput(passes: Iterable[Pass]) -> float:
    """Distinct requests ÷ the summed fastest latencies of all of them.

    With one closed-loop caller that sum is the time of a whole pass,
    assembled request by request from each one's fastest pass, so that
    a slow spell in one pass does not set the result.
    """
    values = key_latencies(passes)
    if not values:
        raise ValueError("no pass")
    return len(values) / (sum(values.values()) / 1000.0)


def latencies(passes: Iterable[Pass], cls: str | None = None) -> list[float]:
    """All latencies, optionally of one request class."""
    return [s.ms for p in passes for s in p.samples if cls is None or s.cls == cls]


def pass_literals(passes: Iterable[Pass]) -> int:
    """Total literals of one pass; raises when passes disagree."""
    totals = {sum(s.literals for s in p.samples) for p in passes}
    if len(totals) != 1:
        raise ValueError(f"passes disagree on total literals: {sorted(totals)}")
    return totals.pop()


def ok_share(passes: Iterable[Pass]) -> float:
    samples = [s for p in passes for s in p.samples]
    return sum(s.ok for s in samples) / len(samples)
