"""The traced run: spans around each layer's entry points, kept in memory.

The traced run wraps the public entry points of every layer (listed by
:func:`entry_points`) from outside the program: each wrapper calls the
original function unchanged and records one span -- name, start, end and
the span that was open when it began -- in flat arrays.  Nothing under
``src/`` knows about it.  :meth:`Tracer.installed` restores every
original attribute on exit, so a timed run after a traced run executes
none of this code.

A call that re-enters a span name already open (a ``perf`` calling its
base-class ``perf``, an allocation epoch re-run from inside an epoch,
``fit_models`` inside ``next_point``) is not recorded again: a span
name's time is counted once, at its outermost call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

#: Root spans the harness opens around the two phases of an iteration.
SETUP_SPAN = "bench.setup"
RUN_SPAN = "bench.run"

#: Layers whose self time splits the run's wall time, in report order.
#: A span's layer is the part of its name before the first dot.
LAYERS = ("sim", "apps", "platform", "scenario", "core", "libharp", "fleet", "ipc")


def _defining(base: type, attr: str) -> list[type]:
    """``base`` and its loaded subclasses that define ``attr`` themselves."""
    seen: set[type] = set()
    todo = [base]
    found = []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        fn = vars(cls).get(attr)
        if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def entry_points() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) of every wrapped layer entry point.

    Owners are the classes or modules whose own namespace holds the
    function, so wrapping and restoring is a plain attribute swap.
    """
    import repro.apps  # noqa: F401 -- loads every suite's model classes
    import repro.ext.phases  # noqa: F401 -- PhasedApplicationModel.perf
    from repro.apps.base import ApplicationModel
    from repro.core.allocator import LagrangianAllocator
    from repro.core.exploration import ExplorationPlanner
    from repro.core.manager import HarpManager
    from repro.core.monitor import SystemMonitor
    from repro.fleet import link
    from repro.fleet.coordinator import Coordinator
    from repro.fleet.node import NodeManager
    from repro.ipc.client import InProcessTransport
    from repro.platform.dvfs import Governor
    from repro.scenario import generator
    from repro.scenario.driver import TraceDriver
    from repro.sim.engine import World
    from repro.sim.event import EventWorld
    from repro.sim.schedulers.base import Scheduler

    points = [
        ("sim.step", World, "step"),
        ("sim.run", World, "run_for"),
        ("sim.run", World, "run_until_all_finished"),
        ("sim.run", EventWorld, "run_for"),
        ("sim.run", EventWorld, "run_until_all_finished"),
        ("scenario.generate", generator, "generate_trace"),
        ("scenario.driver", TraceDriver, "_on_event"),
        ("core.hook", HarpManager, "_on_event"),
        ("core.reallocate", HarpManager, "reallocate"),
        ("core.allocate", LagrangianAllocator, "allocate"),
        ("core.monitor", SystemMonitor, "sample"),
        ("core.explore", ExplorationPlanner, "next_point"),
        ("core.explore", ExplorationPlanner, "fit_models"),
        ("libharp.push", InProcessTransport, "push"),
        ("fleet.epoch", Coordinator, "run_epoch"),
        ("fleet.advance", NodeManager, "advance_to"),
        ("fleet.report", NodeManager, "send_report"),
        ("ipc.codec", link, "encode_message"),
        ("ipc.codec", link, "decode_message"),
    ]
    points += [("sim.place", c, "place") for c in _defining(Scheduler, "place")]
    points += [
        ("apps.perf", c, "perf") for c in _defining(ApplicationModel, "perf")
    ]
    points += [
        ("platform.governor", c, "select_all")
        for c in _defining(Governor, "select_all")
    ]
    return points


def is_clean() -> bool:
    """True when no entry point is currently wrapped by any tracer."""
    return not any(
        getattr(vars(owner)[attr], "perfbench_traced", False)
        for _, owner, attr in entry_points()
    )


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._open: list[int] = []  # open-span depth per name code
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: JSON size of every frame the fleet link encoded.
        self.codec_bytes = 0

    def __len__(self) -> int:
        return len(self._start)

    # -- recording ----------------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return code

    def _begin(self, code: int) -> int:
        stack = self._stack
        idx = len(self._start)
        self._name.append(code)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(idx)
        self._open[code] += 1
        self._start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int, code: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[code] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        code = self._code(name)
        idx = self._begin(code)
        try:
            yield
        finally:
            self._finish(idx, code)

    def _wrap(self, name: str, fn, count_bytes: bool = False):
        code = self._code(name)
        open_depth = self._open
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_depth[code]:
                return fn(*args, **kwargs)
            idx = begin(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx, code)
            if count_bytes:
                self.codec_bytes += len(json.dumps(result))
            return result

        traced.perfbench_traced = True
        return traced

    # -- installing -----------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        from repro.fleet import link

        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, owner, attr in entry_points():
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                count = owner is link and attr == "encode_message"
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------------

    def _arrays(self):
        code = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        duration = np.array(self._end) - np.array(self._start)
        return code, parent, duration

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root span name, per span name: calls, time and self time.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of every span under one root add up
        to that root's duration.
        """
        n = len(self)
        if n == 0:
            return {}
        code, parent, duration = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child
        root = np.where(has_parent, parent, np.arange(n))
        while True:  # pointer jumping: every span ends at its root span
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        root_code = code[root]
        k = len(self.names)
        out: dict[str, dict[str, dict[str, float]]] = {}
        for rc in np.unique(root_code):
            mask = root_code == rc
            calls = np.bincount(code[mask], minlength=k)
            total = np.bincount(code[mask], weights=duration[mask], minlength=k)
            own = np.bincount(code[mask], weights=self_time[mask], minlength=k)
            out[self.names[rc]] = {
                self.names[c]: {
                    "calls": int(calls[c]),
                    "s": float(total[c]),
                    "self_s": float(own[c]),
                }
                for c in np.nonzero(calls)[0]
            }
        return out

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as a compressed npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self._name, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            start=np.array(self._start),
            end=np.array(self._end),
        )


def layer_shares(run_totals: dict[str, dict[str, float]], wall_s: float) -> dict:
    """Each layer's self time under the run root as a share of its wall."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, t in run_totals.items():
        layer = name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += t["self_s"]
    return {layer: s / wall_s for layer, s in shares.items()}
