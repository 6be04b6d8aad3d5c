"""Affinity-respecting scheduler used underneath HARP.

HARP does not replace the OS scheduler (§4.3): it assigns core sets to
applications and the kernel's scheduler time-shares threads within each
set.  This scheduler reproduces that split — the same balancing rules as
the CFS baseline, but each process is confined to the affinity mask the
HARP RM installed.  Processes without a mask (unmanaged background work)
balance over the whole machine, exactly as in the paper's evaluation
variant.
"""

from __future__ import annotations

from repro.sim.schedulers.cfs import CfsScheduler


class PinnedScheduler(CfsScheduler):
    """CFS balancing within per-process affinity masks.

    Inherits CFS's placement signature (and its quantum-free
    ``next_preemption_tick``), so the engine only recomputes the
    placement — and the event engine only ends a busy stretch — when the
    runnable thread set or an installed affinity mask (a HARP allocation)
    changes.
    """

    name = "pinned"
