"""``generate_trace`` draws each session's phases in one call.

The reference below is the per-pair scalar draw the generator used to
make; the vectorised draw must consume the same stream and give the same
values bit for bit.
"""

from __future__ import annotations

import pytest

from repro.scenario import generator
from repro.scenario.spec import PROFILES


def _scalar_phases(spec, rng) -> list[tuple[float, float]]:
    if spec.think_fraction <= 0:
        return []
    pairs = []
    for _ in range(generator._PHASE_CYCLE):
        burst = float(rng.exponential(max(spec.burst_mean_s, 1e-3)))
        think = float(rng.exponential(max(spec.think_mean_s, 1e-3)))
        pairs.append((max(burst, 1e-3), max(think, 1e-3)))
    return pairs


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("profile", ["bursty-1k", "steady-10k"])
def test_trace_equals_scalar_phase_draws(monkeypatch, profile, seed):
    spec = PROFILES[profile]
    got = generator.generate_trace(spec, seed)
    monkeypatch.setattr(generator, "_phases", _scalar_phases)
    want = generator.generate_trace(spec, seed)
    assert got == want
    assert any(plan.phases for plan in got) == (spec.think_fraction > 0)
