"""Tests for the harplint static-analysis suite (per-file rules
HL001–HL006 plus framework and CLI; the whole-program layer — HL007,
HL010, HL011, HL012, symbols, call graph, dataflow — is covered in
``test_harplint_wholeprogram.py``).

Each rule is exercised against fixture files under ``tests/fixtures/lint``
in three configurations: positives fire, negatives stay silent, and
inline ``# harplint: disable=<code>`` comments suppress.  The real-tree
tests load files of ``src/`` once per module (the ``tree`` fixture): each
rule must stay silent on the files it guards and must flag a one-line
mutation of one of them.  The end-to-end tests run the whole tree, cold,
and require it clean and inside the 5 s budget — the same contract the
CI lint job enforces.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    Project,
    RunStats,
    SourceFile,
    all_rules,
    classify_role,
    lint_paths,
    run,
    select_rules,
)
from repro.lint.cli import main
from repro.lint.source import ROLE_FIXTURE, ROLE_SRC, ROLE_TEST, parse_suppressions

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "lint"
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def tree():
    """Load a real file once per module; rules never mutate a SourceFile."""
    cache: dict[tuple[Path, str | None], SourceFile] = {}

    def load(path: Path, role: str | None = None) -> SourceFile:
        if (path, role) not in cache:
            cache[path, role] = SourceFile.load(path, role=role)
        return cache[path, role]

    return load


def reference_corpus(tree) -> list[SourceFile]:
    return [
        tree(p, ROLE_TEST) for p in sorted((REPO / "tests").glob("test_*.py"))
    ]


def lint_fixture(
    filenames: list[str],
    code: str,
    roles: dict[str, str] | None = None,
    apply_suppressions: bool = True,
) -> list[Diagnostic]:
    roles = roles or {}
    files = [
        SourceFile.load(FIXTURES / name, role=roles.get(name, ROLE_FIXTURE))
        for name in filenames
    ]
    return run(
        Project(files),
        rules=select_rules([code]),
        apply_suppressions=apply_suppressions,
    )


# -- framework ------------------------------------------------------------------


class TestFramework:
    def test_registry_has_the_ten_rules(self):
        codes = [r.code for r in all_rules()]
        assert codes == [
            "HL001", "HL002", "HL003", "HL004", "HL005", "HL006",
            "HL007", "HL010", "HL011", "HL012",
        ]

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(KeyError):
            select_rules(["HL999"])

    def test_classify_role(self):
        assert classify_role("src/repro/core/allocator.py") == ROLE_SRC
        assert classify_role("tests/test_allocator.py") == ROLE_TEST
        assert classify_role("tests/conftest.py") == ROLE_TEST
        assert classify_role("tests/fixtures/lint/hl001_positive.py") == ROLE_FIXTURE

    def test_parse_suppressions(self):
        text = (
            "x = 1  # harplint: disable=HL001 -- reason\n"
            "y = 2  # harplint: disable=HL002,HL003\n"
            "z = 3  # harplint: disable=all\n"
        )
        assert parse_suppressions(text) == {
            1: {"HL001"},
            2: {"HL002", "HL003"},
            3: {"ALL"},
        }

    def test_disable_file_comment_suppresses_nothing(self):
        """Only the line form suppresses; a file-level comment is inert."""
        file = SourceFile.from_text(
            "gen.py",
            "# harplint: disable-file=HL003 -- generated table\n"
            "def f(x):\n"
            "    return x == 0.5\n",
            role=ROLE_SRC,
        )
        diags = run(Project([file]), rules=select_rules(["HL003", "HL007"]))
        assert [(d.code, d.line) for d in diags] == [("HL003", 3)]

    def test_parse_error_becomes_hl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        diags = lint_paths([bad])
        assert [d.code for d in diags] == ["HL000"]


# -- HL001 determinism ----------------------------------------------------------


class TestDeterminism:
    def test_positives(self):
        diags = lint_fixture(["hl001_positive.py"], "HL001")
        assert len(diags) == 7
        messages = " ".join(d.message for d in diags)
        assert "without a seed" in messages
        assert "legacy global numpy RNG" in messages
        assert "stdlib 'random" in messages
        assert "time.time()" in messages
        assert "datetime.now" in messages
        assert "hash()" in messages

    def test_negatives(self):
        assert lint_fixture(["hl001_negative.py"], "HL001") == []

    def test_suppressed(self):
        assert lint_fixture(["hl001_suppressed.py"], "HL001") == []
        unsuppressed = lint_fixture(
            ["hl001_suppressed.py"], "HL001", apply_suppressions=False
        )
        assert len(unsuppressed) == 2

    def test_test_modules_are_exempt(self):
        diags = lint_fixture(
            ["hl001_positive.py"],
            "HL001",
            roles={"hl001_positive.py": ROLE_TEST},
        )
        assert diags == []


# -- HL002 mutation-safety ------------------------------------------------------


class TestMutationSafety:
    def test_positives(self):
        diags = lint_fixture(["hl002_positive.py"], "HL002")
        assert len(diags) == 6
        attrs = " ".join(d.message for d in diags)
        assert "OperatingPoint" in attrs
        assert "ExtendedResourceVector" in attrs
        assert "_core_vector" in attrs

    def test_negatives(self):
        assert lint_fixture(["hl002_negative.py"], "HL002") == []

    def test_suppressed(self):
        assert lint_fixture(["hl002_suppressed.py"], "HL002") == []
        assert (
            len(
                lint_fixture(
                    ["hl002_suppressed.py"], "HL002", apply_suppressions=False
                )
            )
            == 1
        )

    def test_defining_module_is_exempt(self, tree):
        file = tree(SRC / "core" / "operating_point.py")
        assert run(Project([file]), rules=select_rules(["HL002"])) == []


# -- HL003 float-equality -------------------------------------------------------


class TestFloatEquality:
    def test_positives(self):
        diags = lint_fixture(["hl003_positive.py"], "HL003")
        assert len(diags) == 4
        assert all("float literal" in d.message for d in diags)

    def test_negatives(self):
        assert lint_fixture(["hl003_negative.py"], "HL003") == []

    def test_suppressed(self):
        assert lint_fixture(["hl003_suppressed.py"], "HL003") == []
        assert (
            len(
                lint_fixture(
                    ["hl003_suppressed.py"], "HL003", apply_suppressions=False
                )
            )
            == 1
        )


# -- HL004 parity-coverage ------------------------------------------------------


class TestParityCoverage:
    def test_uncovered_switch_flagged(self):
        diags = lint_fixture(
            ["hl004_module.py", "hl004_testcorpus.py"],
            "HL004",
            roles={"hl004_testcorpus.py": ROLE_TEST},
        )
        assert len(diags) == 1
        assert "UncoveredSolver" in diags[0].message

    def test_all_switches_flagged_without_corpus(self):
        diags = lint_fixture(["hl004_module.py"], "HL004")
        subjects = {d.message.split("'")[1] for d in diags}
        assert subjects == {"CoveredSolver", "UncoveredSolver", "integrate"}

    def test_suppressed(self):
        assert lint_fixture(["hl004_suppressed.py"], "HL004") == []

    def test_real_switches_are_covered(self, tree):
        """The repo's own parity switches must keep their tests."""
        files = [
            tree(SRC / "core" / "allocator.py"),
            tree(SRC / "sim" / "event.py"),
        ] + reference_corpus(tree)
        assert run(Project(files), rules=select_rules(["HL004"])) == []

    def test_engine_is_recognized_and_allocator_is_not(self, tree):
        """Guard against the rule silently matching nothing; the
        allocator has a single solver and is no longer a switch."""
        files = [
            tree(SRC / "core" / "allocator.py"),
            tree(SRC / "sim" / "event.py"),
        ]
        diags = run(Project(files), rules=select_rules(["HL004"]))
        subjects = {d.message.split("'")[1] for d in diags}
        assert subjects == {"make_world"}


# -- HL005 ipc-conformance ------------------------------------------------------


class TestIpcConformance:
    def test_positives(self):
        diags = lint_fixture(["hl005_positive.py"], "HL005")
        assert len(diags) == 2
        messages = " ".join(d.message for d in diags)
        assert "ForgottenNotice" in messages
        assert "DuplicateReply" in messages

    def test_negatives(self):
        assert lint_fixture(["hl005_negative.py"], "HL005") == []

    def test_suppressed(self):
        assert lint_fixture(["hl005_suppressed.py"], "HL005") == []

    def test_missing_codec_functions_flagged(self):
        file = SourceFile.from_text(
            "msgs.py",
            "class Message:\n"
            "    TYPE = 'message'\n"
            "class Ping(Message):\n"
            "    TYPE = 'ping'\n"
            "_MESSAGE_TYPES = {Ping.TYPE: Ping}\n",
            role=ROLE_SRC,
        )
        diags = run(Project([file]), rules=select_rules(["HL005"]))
        assert len(diags) == 1
        assert "codec path" in diags[0].message

    def test_real_ipc_package_is_conformant(self, tree):
        files = [tree(p) for p in sorted((SRC / "ipc").glob("*.py"))]
        assert run(Project(files), rules=select_rules(["HL005"])) == []


# -- HL006 bounded-blocking -----------------------------------------------------


class TestBoundedBlocking:
    def test_positives(self):
        diags = lint_fixture(["hl006_positive.py"], "HL006")
        assert len(diags) == 3
        messages = " ".join(d.message for d in diags)
        assert "request(...)" in messages
        assert "rpc(...)" in messages
        assert "timeout=" in messages
        assert "settimeout" in messages

    def test_negatives(self):
        assert lint_fixture(["hl006_negative.py"], "HL006") == []

    def test_suppressed(self):
        assert lint_fixture(["hl006_suppressed.py"], "HL006") == []
        assert (
            lint_fixture(
                ["hl006_suppressed.py"], "HL006", apply_suppressions=False
            )
            != []
        )

    def test_test_modules_are_exempt(self):
        diags = lint_fixture(
            ["hl006_positive.py"],
            "HL006",
            roles={"hl006_positive.py": ROLE_TEST},
        )
        assert diags == []

    def test_real_ipc_layer_is_bounded(self, tree):
        """The hardened transports must satisfy their own lint rule."""
        files = [tree(p) for p in sorted((SRC / "ipc").glob("*.py"))] + [
            tree(SRC / "libharp" / "client.py"),
            tree(SRC / "fleet" / "link.py"),
            tree(SRC / "fleet" / "coordinator.py"),
        ]
        assert run(Project(files), rules=select_rules(["HL006"])) == []


# -- every rule bites on the real tree -------------------------------------------

#: One case per rule: a real file the rule guards, a one-line edit that
#: reintroduces its hazard (``old`` must occur exactly once), the text of
#: the line the rule must then flag, the context the rule needs
#: (``"ipc"``: the rest of the IPC package; ``"tests"``: the test
#: corpus), and any rule that must run alongside it.
REAL_TREE_MUTATIONS = [
    pytest.param(
        "HL001", "analysis/experiments.py",
        "_stable_seed(app, model_name, size, seed)",
        "hash((app, model_name, size, seed))",
        "hash((app, model_name, size, seed))", None, (),
        id="HL001-salted-hash-seed",
    ),
    pytest.param(
        "HL002", "core/epoch.py",
        "    return OperatingPoint(erv=erv, utility=1.0, power=1.0)",
        "    erv.counts = (0,)",
        "erv.counts = (0,)", None, (),
        id="HL002-erv-written-outside-its-module",
    ),
    pytest.param(
        "HL003", "sim/engine.py",
        "if total <= 1.0:", "if total == 1.0:",
        "if total == 1.0:", None, (),
        id="HL003-suppression-stripped",
    ),
    pytest.param(
        "HL004", "sim/event.py",
        "def make_world(", "def make_world_untested(",
        "def make_world_untested(", "tests", (),
        id="HL004-engine-switch-without-a-test",
    ),
    pytest.param(
        "HL005", "ipc/messages.py",
        "        Ack,\n", "",
        "class Ack(Message):", "ipc", (),
        id="HL005-message-dropped-from-codec-registry",
    ),
    pytest.param(
        "HL006", "libharp/client.py",
        "request(message, timeout=REQUEST_TIMEOUT_S)", "request(message)",
        "reply = self.transport.request(", None, (),
        id="HL006-request-timeout-dropped",
    ),
    pytest.param(
        "HL007", "sim/engine.py",
        "if total <= 1.0:",
        "if total <= 1.0:  # harplint: disable=HL003 -- exact bound",
        "if total <= 1.0:", None, ("HL003",),
        id="HL007-suppression-outlives-its-finding",
    ),
    pytest.param(
        "HL010", "scenario/driver.py",
        "# harplint: pure-wall-time -- wall_s is measurement-only; sim state "
        "advances on world.tick_index + explicit seed\n",
        "",
        "t0 = time.perf_counter()", None, (),
        id="HL010-pure-wall-time-pragma-removed",
    ),
    pytest.param(
        "HL011", "ipc/client.py",
        "                self._request_sock.settimeout(effective)\n", "",
        "send_message(self._request_sock, message)", "ipc", (),
        id="HL011-request-socket-unbounded-under-lock",
    ),
    pytest.param(
        "HL012", "fleet/node.py",
        "self.world.ticks_in(t_s) - self.world.tick_index",
        "t_s - self.world.tick_index",
        "ticks = t_s - self.world.tick_index", None, (),
        id="HL012-seconds-minus-ticks",
    ),
]


class TestRealTreeMutations:
    def test_every_rule_has_a_case(self):
        cases = {p.values[0] for p in REAL_TREE_MUTATIONS}
        assert cases == {r.code for r in all_rules()}

    @pytest.mark.parametrize(
        "code, rel, old, new, flagged, context, alongside",
        REAL_TREE_MUTATIONS,
    )
    def test_rule_flags_one_line_mutation(
        self, tree, code, rel, old, new, flagged, context, alongside
    ):
        original = tree(SRC / rel)
        assert original.text.count(old) == 1
        mutated = SourceFile.from_text(
            original.path, original.text.replace(old, new)
        )
        others: list[SourceFile] = []
        if context == "ipc":
            others = [
                tree(p)
                for p in sorted((SRC / "ipc").glob("*.py"))
                if p != SRC / rel
            ]
        elif context == "tests":
            others = reference_corpus(tree)
        rules = select_rules([code, *alongside])

        def flagged_lines(file: SourceFile) -> list[int]:
            diags = run(Project([file, *others]), rules=rules)
            return [
                d.line for d in diags if d.code == code and d.path == file.path
            ]

        assert flagged_lines(original) == []
        lines = mutated.text.splitlines()
        target = [i for i, text in enumerate(lines, 1) if flagged in text]
        assert len(target) == 1
        assert target[0] in flagged_lines(mutated)


# -- end-to-end CLI -------------------------------------------------------------


class TestCli:
    def test_tree_is_clean(self):
        """The acceptance contract, through the command line: the whole
        tree lints clean."""
        assert main(
            [
                str(REPO / "src"),
                str(REPO / "tests"),
                str(REPO / "benchmarks"),
                str(REPO / "examples"),
            ]
        ) == 0

    def test_full_run_stays_fast(self):
        """The acceptance contract: one cold, full ten-rule run over the
        entire tree (parsing and the whole-program index included) is
        clean and stays under the 5 s budget the pre-commit workflow
        assumes."""
        stats = RunStats()
        t0 = time.perf_counter()
        diags = lint_paths(
            [REPO / "src", REPO / "tests", REPO / "benchmarks",
             REPO / "examples"],
            stats=stats,
        )
        wall_s = time.perf_counter() - t0
        assert diags == []
        assert wall_s < 5.0, (
            f"lint run took {wall_s:.2f}s "
            f"(parse {stats.parse_seconds:.2f}s, "
            f"index {stats.index_seconds:.2f}s)"
        )
        assert stats.index_functions > 1000
        assert {rs.code for rs in stats.rules} >= {"HL010", "HL011", "HL012"}

    def test_explicit_fixture_file_fails(self, capsys):
        rc = main([str(FIXTURES / "hl003_positive.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "HL003" in out

    def test_json_output(self, capsys):
        rc = main(
            ["--format", "json", str(FIXTURES / "hl001_positive.py")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["count"] == len(payload["diagnostics"]) > 0
        first = payload["diagnostics"][0]
        assert set(first) == {"path", "line", "col", "code", "message"}

    def test_select_filters_rules(self):
        """Rules are isolated through the library (``run(rules=...)``);
        the command line always runs all ten."""
        file = SourceFile.load(FIXTURES / "hl001_positive.py", role=ROLE_FIXTURE)
        assert run(Project([file]), rules=select_rules(["HL003"])) == []
        assert run(Project([file]), rules=select_rules(["HL001"])) != []

    def test_bad_select_is_usage_error(self, capsys):
        # There is no --select flag, so any use of it is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["--select", "HL999", str(FIXTURES)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "HL001", "HL002", "HL003", "HL004", "HL005", "HL006",
            "HL007", "HL010", "HL011", "HL012",
        ):
            assert code in out

    def test_directory_scan_skips_fixtures(self):
        assert main([str(REPO / "tests")]) == 0
