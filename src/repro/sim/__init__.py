"""Discrete-time OS and execution substrate.

Simulates what the paper gets from Linux: thread-to-core placement under a
pluggable scheduler (CFS-, EAS-, ITD-like baselines and an
affinity-respecting scheduler used under HARP), per-thread perf counters,
DVFS, and package energy sensors.  The HARP resource manager runs on top
of this substrate exactly as it runs on top of the kernel in the paper —
it observes only noisy IPS/power samples and issues affinity and
adaptation decisions.
"""

from repro.sim.engine import ThreadId, ThreadSlot, AppPerf, World
from repro.sim.event import EventWorld, make_world
from repro.sim.process import SimProcess, SimThread
from repro.sim.perf import PerfCounters
from repro.sim.schedulers.base import Scheduler
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.eas import EasScheduler
from repro.sim.schedulers.itd import ItdScheduler
from repro.sim.schedulers.pinned import PinnedScheduler

__all__ = [
    "ThreadId",
    "ThreadSlot",
    "AppPerf",
    "World",
    "EventWorld",
    "make_world",
    "SimProcess",
    "SimThread",
    "PerfCounters",
    "Scheduler",
    "CfsScheduler",
    "EasScheduler",
    "ItdScheduler",
    "PinnedScheduler",
]
