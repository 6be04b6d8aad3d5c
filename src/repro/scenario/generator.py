"""Seeded trace generation: (spec, seed) → a list of session plans.

The generator is a pure function — all randomness comes from one
``numpy`` ``default_rng`` seeded from (spec hash, seed), so the same spec
and seed produce the same trace on every machine, engine, and worker
process.  Arrival processes:

* **poisson** — homogeneous Poisson via exponential inter-arrival gaps.
* **mmpp** — two-state Markov-modulated Poisson: exponential dwell times
  alternate a calm state (``rate_per_s``) and a burst state
  (``burst_rate_per_s``), producing the bursty arrival structure fleet
  traces show.

Either process is then *thinned* by the diurnal profile: an arrival at
time t survives with probability ``λ(t)/λ_max`` where
``λ(t) ∝ 1 + A·sin(2πt/T)`` — standard thinning for inhomogeneous
Poisson processes.

Session sizes are heavy-tailed (lognormal or Pareto multipliers on the
base model's ``total_work``), and interactive sessions get a precomputed
cycle of exponential (burst, think) phase durations.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.scenario.spec import ScenarioSpec

#: Number of precomputed (burst, think) phase pairs per interactive
#: session; the driver cycles through them, so the pattern repeats for
#: very long-lived sessions.
_PHASE_CYCLE = 32


@dataclass
class SessionPlan:
    """One planned session: when it arrives and how it behaves."""

    arrival_s: float
    app: str
    nthreads: int
    work_scale: float
    #: Alternating (burst_s, think_s) pairs; empty for batch sessions
    #: that run uninterrupted to completion.
    phases: list[tuple[float, float]] = field(default_factory=list)


def _trace_seed(spec: ScenarioSpec, seed: int) -> int:
    """Stable 64-bit stream seed from the spec content and the run seed."""
    digest = hashlib.sha256(
        (spec.to_json() + f"\n#{seed}").encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _arrival_times(spec: ScenarioSpec, rng: np.random.Generator) -> list[float]:
    times: list[float] = []
    if spec.arrival == "poisson":
        t = 0.0
        rate = spec.rate_per_s
        if rate <= 0:
            return times
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= spec.duration_s:
                break
            times.append(t)
        return times
    # MMPP: alternate calm/burst dwells, each dwell a homogeneous Poisson
    # segment at that state's rate.
    t = 0.0
    burst = False
    while t < spec.duration_s:
        dwell_mean = spec.burst_dwell_s if burst else spec.calm_dwell_s
        dwell_end = t + rng.exponential(max(dwell_mean, 1e-9))
        rate = spec.burst_rate_per_s if burst else spec.rate_per_s
        if rate > 0:
            tt = t
            while True:
                tt += rng.exponential(1.0 / rate)
                if tt >= dwell_end or tt >= spec.duration_s:
                    break
                times.append(tt)
        t = dwell_end
        burst = not burst
    return times


def _diurnal_thin(
    spec: ScenarioSpec, times: list[float], rng: np.random.Generator
) -> list[float]:
    if spec.diurnal_amplitude <= 0 or not times:
        return times
    amp = spec.diurnal_amplitude
    period = spec.diurnal_period_s
    peak = 1.0 + amp
    kept = []
    for t in times:
        level = 1.0 + amp * math.sin(2.0 * math.pi * t / period)
        if rng.random() < level / peak:
            kept.append(t)
    return kept


def _work_scale(spec: ScenarioSpec, rng: np.random.Generator) -> float:
    mean = spec.work_scale_mean
    if spec.work_tail == "fixed":
        return mean
    if spec.work_tail == "lognormal":
        sigma = spec.work_sigma
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); pick mu so
        # the multiplier's mean equals work_scale_mean.
        mu = math.log(mean) - 0.5 * sigma * sigma
        return float(rng.lognormal(mu, sigma))
    # Pareto with shape alpha > 1, scaled to the requested mean.
    alpha = max(spec.work_sigma, 1.05)
    xm = mean * (alpha - 1.0) / alpha
    return float(xm * (1.0 + rng.pareto(alpha)))


def _phases(spec: ScenarioSpec, rng: np.random.Generator) -> list[tuple[float, float]]:
    if spec.think_fraction <= 0:
        return []
    # One draw per session: the stream a (burst, think) scalar draw per
    # pair would consume, in the same order, scaled per column.
    scales = [max(spec.burst_mean_s, 1e-3), max(spec.think_mean_s, 1e-3)]
    draws = rng.standard_exponential(2 * _PHASE_CYCLE).reshape(-1, 2) * scales
    return [tuple(pair) for pair in np.maximum(draws, 1e-3).tolist()]


def generate_trace(spec: ScenarioSpec, seed: int = 0) -> list[SessionPlan]:
    """Generate the full, deterministic session trace for one run."""
    rng = np.random.default_rng(_trace_seed(spec, seed))
    times = _diurnal_thin(spec, _arrival_times(spec, rng), rng)
    apps = sorted(spec.app_mix)
    weights = np.array([spec.app_mix[a] for a in apps], dtype=float)
    weights = weights / weights.sum()
    nthreads = list(spec.nthreads_choices)
    plans = []
    for t in times:
        app = apps[int(rng.choice(len(apps), p=weights))]
        plans.append(
            SessionPlan(
                arrival_s=float(t),
                app=app,
                nthreads=int(nthreads[int(rng.integers(len(nthreads)))]),
                work_scale=_work_scale(spec, rng),
                phases=_phases(spec, rng),
            )
        )
    return plans
