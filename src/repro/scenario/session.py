"""Session wrappers over the evaluation application models.

A fleet session runs one of the existing NPB/TBB/TFLite/KPN models with
its ``total_work`` scaled to the sampled session size.  Interactive
sessions additionally alternate compute *bursts* and *think* phases: a
thinking session stays alive (its process occupies a pid, its PELT
decays) but has zero CPU demand, so the scheduler treats it exactly like
a thread blocked in the kernel — this is what lets thousands of sessions
be concurrently live while only the bursting few are runnable.

A session model is a plain copy of the base model, so type-dispatched
behaviour — e.g. the KPN adaptivity path's ``isinstance(model,
KpnApplicationModel)`` — keeps working.  Phases are owned by the
:class:`~repro.scenario.driver.TraceDriver` (the model has no clock),
which publishes each flip's demand through ``World.set_demand``; that
makes the behaviour identical on the fixed-tick and event engines.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.scenarios import resolve_model
from repro.apps.base import ApplicationModel


def make_session_model(app: str, work_scale: float) -> ApplicationModel:
    """A fresh, session-scaled instance of the named benchmark model."""
    model = replace(resolve_model(app))
    model.total_work = max(model.total_work * work_scale, 1e-6)
    return model
