"""Tests for the whole-program lint layer.

Covers the symbol table (module naming, import aliasing, MRO), the call
graph (method dispatch, annotated receivers, nested functions,
constructors), the dataflow fixpoint engine, and the interprocedural
rules: HL010 determinism-taint, HL011 lock-discipline, HL012 time-unit
discipline, and HL007 stale-suppression.  The real-tree tests parse
``src/`` once per module (the ``src_files`` fixture).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import Project, SourceFile, run, select_rules
from repro.lint.callgraph import CallGraph
from repro.lint.cli import main
from repro.lint.dataflow import Fact, propagate
from repro.lint.source import ROLE_FIXTURE
from repro.lint.symbols import SymbolTable, module_name_for

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "lint"


@pytest.fixture(scope="module")
def src_files() -> dict[Path, SourceFile]:
    """Every file under ``src/``, parsed once for this module's tests."""
    return {p: SourceFile.load(p) for p in sorted((REPO / "src").rglob("*.py"))}


def project_of(files: dict[str, str]) -> Project:
    return Project(
        [SourceFile.from_text(path, text) for path, text in files.items()]
    )


def fixture_project(names: list[str]) -> Project:
    return Project(
        [SourceFile.load(FIXTURES / n, role=ROLE_FIXTURE) for n in names]
    )


def edges_of(project: Project) -> set[tuple[str, str]]:
    graph = project.index().callgraph
    return {
        (s.caller, s.callee)
        for sites in graph.edges.values()
        for s in sites
    }


# -- symbol table ---------------------------------------------------------------


class TestModuleNames:
    def test_src_strips_prefix(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"

    def test_other_anchors_keep_prefix(self):
        assert (
            module_name_for("tests/fixtures/lint/hl010_util.py")
            == "tests.fixtures.lint.hl010_util"
        )
        assert module_name_for("benchmarks/bench_mmkp.py") == (
            "benchmarks.bench_mmkp"
        )

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/ipc/__init__.py") == "repro.ipc"

    def test_unanchored_path_uses_stem(self):
        assert module_name_for("/tmp/scratch/probe.py") == "probe"


class TestSymbolTable:
    def test_classes_methods_and_lock_attrs(self):
        project = project_of(
            {
                "src/repro/zoo/impl.py": (
                    "import threading\n"
                    "from typing import Callable\n"
                    "class Engine:\n"
                    "    def __init__(self, clock: Callable[[], float]):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._state_lock = threading.RLock()\n"
                    "        self._clock = clock\n"
                    "    def tick(self):\n"
                    "        return 1\n"
                )
            }
        )
        symbols = project.index().symbols
        cls = symbols.classes["repro.zoo.impl.Engine"]
        assert set(cls.methods) == {"__init__", "tick"}
        assert cls.lock_attrs == {"_lock": "lock", "_state_lock": "rlock"}
        assert cls.callable_attrs == {"_clock"}

    def test_aliased_import_resolution(self):
        project = project_of(
            {
                "src/repro/zoo/impl.py": "def helper():\n    return 1\n",
                "src/repro/zoo/use.py": (
                    "from repro.zoo import impl as engine_mod\n"
                    "def go():\n"
                    "    return engine_mod.helper()\n"
                ),
            }
        )
        symbols = project.index().symbols
        fn = symbols.resolve_dotted("engine_mod.helper", "repro.zoo.use")
        assert fn is not None and fn.qname == "repro.zoo.impl.helper"

    def test_suffix_import_matches_fixture_modules(self):
        project = fixture_project(["hl010_util.py", "hl010_sim_positive.py"])
        symbols = project.index().symbols
        fn = symbols.resolve_dotted(
            "chained", "tests.fixtures.lint.hl010_sim_positive"
        )
        assert fn is not None
        assert fn.qname == "tests.fixtures.lint.hl010_util.chained"

    def test_method_resolution_walks_mro(self):
        project = project_of(
            {
                "src/repro/zoo/base.py": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
                "src/repro/zoo/sub.py": (
                    "from repro.zoo.base import Engine\n"
                    "class Turbo(Engine):\n"
                    "    def boost(self):\n"
                    "        return 2\n"
                ),
            }
        )
        symbols = project.index().symbols
        resolved = symbols.resolve_method("repro.zoo.sub.Turbo", "step")
        assert resolved is not None
        assert resolved.qname == "repro.zoo.base.Engine.step"


# -- call graph -----------------------------------------------------------------


class TestCallGraph:
    def test_self_dispatch_and_annotated_receiver(self):
        edges = edges_of(
            project_of(
                {
                    "src/repro/zoo/impl.py": (
                        "class Engine:\n"
                        "    def tick(self):\n"
                        "        return self.step()\n"
                        "    def step(self):\n"
                        "        return 1\n"
                    ),
                    "src/repro/zoo/use.py": (
                        "from repro.zoo.impl import Engine as Motor\n"
                        "def drive(m: Motor):\n"
                        "    return m.tick()\n"
                        "def build():\n"
                        "    e = Motor()\n"
                        "    return e.tick()\n"
                    ),
                }
            )
        )
        assert (
            "repro.zoo.impl.Engine.tick",
            "repro.zoo.impl.Engine.step",
        ) in edges
        assert ("repro.zoo.use.drive", "repro.zoo.impl.Engine.tick") in edges
        assert ("repro.zoo.use.build", "repro.zoo.impl.Engine.tick") in edges

    def test_constructor_edges_into_init(self):
        edges = edges_of(
            project_of(
                {
                    "src/repro/zoo/impl.py": (
                        "class Engine:\n"
                        "    def __init__(self):\n"
                        "        self.n = 0\n"
                    ),
                    "src/repro/zoo/use.py": (
                        "from repro.zoo.impl import Engine\n"
                        "def build():\n"
                        "    return Engine()\n"
                    ),
                }
            )
        )
        assert (
            "repro.zoo.use.build",
            "repro.zoo.impl.Engine.__init__",
        ) in edges

    def test_nested_functions_are_separate_nodes(self):
        edges = edges_of(
            project_of(
                {
                    "src/repro/zoo/impl.py": (
                        "import time\n"
                        "def outer():\n"
                        "    def inner():\n"
                        "        return time.time()\n"
                        "    return inner()\n"
                    ),
                }
            )
        )
        assert ("repro.zoo.impl.outer", "repro.zoo.impl.outer.inner") in edges

    def test_mro_dispatch_from_subclass_method(self):
        edges = edges_of(
            project_of(
                {
                    "src/repro/zoo/base.py": (
                        "class Engine:\n"
                        "    def step(self):\n"
                        "        return 1\n"
                    ),
                    "src/repro/zoo/sub.py": (
                        "from repro.zoo.base import Engine\n"
                        "class Turbo(Engine):\n"
                        "    def boost(self):\n"
                        "        return self.step()\n"
                    ),
                }
            )
        )
        assert (
            "repro.zoo.sub.Turbo.boost",
            "repro.zoo.base.Engine.step",
        ) in edges

    def test_fixture_chain_edges(self):
        edges = edges_of(
            fixture_project(["hl010_util.py", "hl010_sim_positive.py"])
        )
        assert len(edges) >= 3
        assert (
            "tests.fixtures.lint.hl010_util.chained",
            "tests.fixtures.lint.hl010_util.jittery_delay",
        ) in edges
        assert any(
            caller.endswith("hl010_sim_positive.step_world")
            for caller, _ in edges
        )


# -- dataflow -------------------------------------------------------------------


def _graph(files: dict[str, str]) -> CallGraph:
    project = project_of(files)
    return project.index().callgraph


class TestDataflow:
    CHAIN = {
        "src/repro/zoo/chain.py": (
            "def c():\n"
            "    return 1\n"
            "def b():\n"
            "    return c()\n"
            "def a():\n"
            "    return b()\n"
        )
    }

    def test_facts_flow_callee_to_caller_with_chain(self):
        graph = _graph(self.CHAIN)
        seed = Fact(kind="wall", detail="x", origin="repro.zoo.chain.c", line=2)
        facts = propagate(graph, {"repro.zoo.chain.c": [seed]})
        assert ("wall", "repro.zoo.chain.c") in facts["repro.zoo.chain.a"]
        lifted = facts["repro.zoo.chain.a"][("wall", "repro.zoo.chain.c")]
        assert lifted.chain == ("repro.zoo.chain.b", "repro.zoo.chain.c")
        assert "zoo.b -> zoo.c" in lifted.describe_chain().replace("chain.", "zoo.")

    def test_stop_predicate_absorbs(self):
        graph = _graph(self.CHAIN)
        seed = Fact(kind="wall", detail="x", origin="repro.zoo.chain.c", line=2)
        facts = propagate(
            graph,
            {"repro.zoo.chain.c": [seed]},
            stop=lambda q, f: q == "repro.zoo.chain.b",
        )
        assert "repro.zoo.chain.a" not in facts
        assert ("wall", "repro.zoo.chain.c") in facts["repro.zoo.chain.c"]

    def test_cycles_terminate(self):
        graph = _graph(
            {
                "src/repro/zoo/loop.py": (
                    "def f():\n"
                    "    return g()\n"
                    "def g():\n"
                    "    return f()\n"
                )
            }
        )
        seed = Fact(kind="k", detail="d", origin="repro.zoo.loop.f", line=1)
        facts = propagate(graph, {"repro.zoo.loop.f": [seed]})
        assert ("k", "repro.zoo.loop.f") in facts["repro.zoo.loop.g"]


# -- HL010 determinism-taint ----------------------------------------------------


class TestDeterminismTaint:
    def test_positives(self):
        diags = run(
            fixture_project(["hl010_util.py", "hl010_sim_positive.py"]),
            rules=select_rules(["HL010"]),
        )
        assert len(diags) == 3
        assert all(d.path.endswith("hl010_sim_positive.py") for d in diags)
        messages = " ".join(d.message for d in diags)
        assert "hl010_util.chained -> hl010_util.jittery_delay" in messages
        assert "unseeded np.random.default_rng()" in messages
        assert "time.perf_counter()" in messages

    def test_unprotected_helpers_not_flagged(self):
        diags = run(
            fixture_project(["hl010_util.py"]), rules=select_rules(["HL010"])
        )
        assert diags == []

    def test_negatives_and_pure_wall_time_absorption(self):
        diags = run(
            fixture_project(["hl010_util.py", "hl010_sim_negative.py"]),
            rules=select_rules(["HL010"]),
        )
        assert diags == []

    def test_shared_sources_split_exactly_with_hl001(self):
        """A shared-table source is HL001's at the line and HL010's only
        through a call; HL010's own kinds are reported at the line."""
        project = project_of(
            {
                "src/repro/sim/clocky.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                    "def elapsed():\n"
                    "    return time.perf_counter()\n"
                    "def step():\n"
                    "    return stamp()\n"
                )
            }
        )
        diags = run(project, rules=select_rules(["HL001", "HL010"]))
        assert [(d.code, d.line) for d in diags] == [
            ("HL001", 3), ("HL010", 5), ("HL010", 7),
        ]

    def test_real_scenario_layer_is_clean(self, src_files):
        """Regression for the run_trace pure-wall-time annotation."""
        diags = run(
            Project(list(src_files.values())), rules=select_rules(["HL010"])
        )
        assert diags == []


# -- HL011 lock-discipline ------------------------------------------------------


class TestLockDiscipline:
    def test_positives(self):
        diags = run(
            fixture_project(["hl011_positive.py"]),
            rules=select_rules(["HL011"]),
        )
        assert len(diags) == 7
        messages = " ".join(d.message for d in diags)
        assert "socket .sendall(...)" in messages
        assert "via hl011_positive._send_all" in messages
        assert "injected callable self._notify(...)" in messages
        assert ".join() without a timeout" in messages
        assert "re-acquiring non-reentrant lock" in messages
        assert "inconsistent lock order" in messages

    def test_negatives(self):
        diags = run(
            fixture_project(["hl011_negative.py"]),
            rules=select_rules(["HL011"]),
        )
        assert diags == []

    def test_real_ipc_and_obs_are_disciplined(self, src_files):
        """Regression for the narrowed IPC/registry critical sections."""
        files = [
            file
            for path, file in src_files.items()
            if path.parent.name in ("ipc", "obs")
        ]
        assert run(Project(files), rules=select_rules(["HL011"])) == []


# -- HL012 time-units -----------------------------------------------------------


class TestTimeUnits:
    def test_positives(self):
        diags = run(
            fixture_project(["hl012_positive.py"]),
            rules=select_rules(["HL012"]),
        )
        assert len(diags) == 4
        messages = " ".join(d.message for d in diags)
        assert "[sim_s] + epoch_ticks [ticks]" in messages
        assert "[sim_s] vs time.perf_counter(...) [wall_s]" in messages
        assert "total_s [s] += lat_ms [ms]" in messages
        assert "t_wall_s [wall_s] vs t_sim_s [sim_s]" in messages

    def test_negatives(self):
        diags = run(
            fixture_project(["hl012_negative.py"]),
            rules=select_rules(["HL012"]),
        )
        assert diags == []

    def test_tick_clock_against_seconds_deadline_flagged(self):
        project = project_of(
            {
                "src/repro/clocky.py": (
                    "def due(world, deadline_s):\n"
                    "    return world.tick_index >= deadline_s\n"
                )
            }
        )
        diags = run(project, rules=select_rules(["HL012"]))
        assert [d.code for d in diags] == ["HL012"]
        assert "world.tick_index [ticks] vs deadline_s [s]" in diags[0].message

    def test_deadline_converted_to_ticks_is_clean(self):
        project = project_of(
            {
                "src/repro/clocky.py": (
                    "def due(world, last_seen_tick, lease_s):\n"
                    "    expiry_tick = last_seen_tick + world.ticks_in(lease_s)\n"
                    "    return world.tick_index >= expiry_tick\n"
                )
            }
        )
        assert run(project, rules=select_rules(["HL012"])) == []


# -- HL007 stale-suppression ----------------------------------------------------


class TestStaleSuppressions:
    def test_stale_and_unknown_codes_flagged(self):
        diags = run(fixture_project(["hl007_stale.py"]))
        hl007 = [d for d in diags if d.code == "HL007"]
        assert [d.line for d in hl007] == [3, 4, 5]
        messages = " ".join(d.message for d in hl007)
        assert "matches no diagnostic on this line" in messages
        assert "unknown rule 'HL099'" in messages
        # ``disable=all`` is not a suppression form: it names no rule.
        assert "unknown rule 'ALL'" in messages

    def test_live_suppression_not_flagged(self):
        diags = run(fixture_project(["hl007_live.py"]))
        assert [d for d in diags if d.code == "HL007"] == []

    def test_staleness_only_judged_for_rules_that_ran(self):
        # HL003 did not run, so the HL003 suppression cannot be judged;
        # the unknown-code findings are independent of rule selection.
        diags = run(
            fixture_project(["hl007_stale.py"]),
            rules=select_rules(["HL001", "HL007"]),
        )
        messages = [d.message for d in diags if d.code == "HL007"]
        assert len(messages) == 2
        assert all("unknown rule" in m for m in messages)


# -- CLI ------------------------------------------------------------------------


class TestWholeProgramCli:
    def test_stats_output(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        rc = main(["--stats", "tests/fixtures/lint/hl012_negative.py"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "index (" in err
        assert "HL012" in err
        assert "total" in err

    def test_golden_json_output(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        rc = main(
            [
                "--format", "json",
                "tests/fixtures/lint/hl012_positive.py",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        golden = [
            ("tests/fixtures/lint/hl012_positive.py", 7, 11, "HL012"),
            ("tests/fixtures/lint/hl012_positive.py", 11, 11, "HL012"),
            ("tests/fixtures/lint/hl012_positive.py", 16, 4, "HL012"),
            ("tests/fixtures/lint/hl012_positive.py", 21, 11, "HL012"),
        ]
        assert payload["count"] == 4
        assert [
            (d["path"], d["line"], d["col"], d["code"])
            for d in payload["diagnostics"]
        ] == golden
