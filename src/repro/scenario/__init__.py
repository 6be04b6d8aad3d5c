"""Fleet-scale scenario engine.

Turns the single-shot evaluation scenarios of ``repro.analysis`` into
*fleets*: seeded trace-driven workloads with bursty Poisson/MMPP
arrivals, diurnal cycles, heavy-tailed session lengths, and app-mix
profiles over the existing NPB/TBB/TFLite/KPN application models.  The
:class:`~repro.scenario.driver.TraceDriver` replays a generated trace
against either engine (fixed-tick or event-heap — see
:mod:`repro.sim.event`), and :mod:`repro.scenario.sweep` fans
seeds×scenarios across cores with a ``ProcessPoolExecutor``, merging
per-run JSONL results (``repro.cli sweep``).

See ``docs/fleet_scenarios.md`` for the scenario JSON schema.
"""

from repro.scenario.spec import PROFILES, ScenarioSpec
from repro.scenario.generator import SessionPlan, generate_trace
from repro.scenario.session import make_session_model
from repro.scenario.driver import TraceDriver, run_trace
from repro.scenario.sweep import run_sweep, summarize, sweep_job

__all__ = [
    "PROFILES",
    "ScenarioSpec",
    "SessionPlan",
    "generate_trace",
    "make_session_model",
    "TraceDriver",
    "run_trace",
    "run_sweep",
    "summarize",
    "sweep_job",
]
