"""Summary statistics and operation accounting shared by every workload."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it (``q`` in (0, 1]).  Raises on no samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def lifetime_summary(lifetimes) -> dict:
    """p50/p90 of simulated lifetimes with their sample count.

    ``tail_samples`` is how many samples lie strictly beyond the p90
    value: a percentile needs at least ten samples beyond it to be worth
    reporting, so the count is stated rather than silently trusted.
    """
    xs = sorted(lifetimes)
    if not xs:
        return {"p50_s": None, "p90_s": None, "samples": 0, "tail_samples": 0}
    p90 = percentile(xs, 0.90)
    return {
        "p50_s": percentile(xs, 0.50),
        "p90_s": p90,
        "samples": len(xs),
        "tail_samples": sum(1 for x in xs if x > p90),
    }


class OpLedger:
    """Counts operations (sessions or apps offered) and their outcomes.

    An operation fails when it errored, was reaped, was lost or
    double-placed, or was unfinished when the run had to finish.
    Admission refusals are not failures; they are counted separately
    (``refused_frac`` = refusals / arrivals).
    """

    def __init__(self) -> None:
        self.offered = 0
        self.refused = 0
        self.errored = 0
        self.reaped = 0
        self.lost = 0
        self.double_placed = 0
        self.unfinished = 0

    @property
    def failed(self) -> int:
        return (
            self.errored + self.reaped + self.lost
            + self.double_placed + self.unfinished
        )

    @property
    def fail_frac(self) -> float:
        return self.failed / self.offered if self.offered else 0.0

    @property
    def refused_frac(self) -> float:
        return self.refused / self.offered if self.offered else 0.0

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "refused": self.refused,
            "errored": self.errored,
            "reaped": self.reaped,
            "lost": self.lost,
            "double_placed": self.double_placed,
            "unfinished": self.unfinished,
            "failed": self.failed,
        }
