"""Tests for the harplint static-analysis suite (per-file rules
HL001–HL006 plus framework and CLI; the whole-program layer — HL007,
HL010, HL011, HL012, symbols, call graph, dataflow — is covered in
``test_harplint_wholeprogram.py``).

Each rule is exercised against fixture files under ``tests/fixtures/lint``
in three configurations: positives fire, negatives stay silent, and
inline ``# harplint: disable=<code>`` comments suppress.  The end-to-end
tests run the real CLI over the repository tree and require exit 0 —
the same contract the CI lint job enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    Project,
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
            "# harplint: disable-file=HL004\n"
        )
        per_line, file_level = parse_suppressions(text)
        assert per_line[1] == {"HL001"}
        assert per_line[2] == {"HL002", "HL003"}
        assert file_level == {"HL004"}

    def test_disable_file_suppresses_everywhere(self):
        file = SourceFile.from_text(
            "gen.py",
            "# harplint: disable-file=HL003 -- generated table\n"
            "def f(x):\n"
            "    return x == 0.5\n",
            role=ROLE_SRC,
        )
        assert run(Project([file]), rules=select_rules(["HL003"])) == []

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

    def test_defining_module_is_exempt(self):
        file = SourceFile.load(
            REPO / "src" / "repro" / "core" / "operating_point.py",
            role=ROLE_SRC,
        )
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

    def test_real_switches_are_covered(self):
        """The repo's own parity switches must keep their tests."""
        files = [
            SourceFile.load(REPO / "src" / "repro" / "core" / "allocator.py"),
            SourceFile.load(REPO / "src" / "repro" / "sim" / "event.py"),
        ] + [
            SourceFile.load(p, role=ROLE_TEST)
            for p in sorted((REPO / "tests").glob("test_*.py"))
        ]
        assert run(Project(files), rules=select_rules(["HL004"])) == []

    def test_engine_is_recognized_and_allocator_is_not(self):
        """Guard against the rule silently matching nothing; the
        allocator has a single solver and is no longer a switch."""
        files = [
            SourceFile.load(REPO / "src" / "repro" / "core" / "allocator.py"),
            SourceFile.load(REPO / "src" / "repro" / "sim" / "event.py"),
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

    def test_real_ipc_package_is_conformant(self):
        files = [
            SourceFile.load(p)
            for p in sorted((REPO / "src" / "repro" / "ipc").glob("*.py"))
        ]
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

    def test_real_ipc_layer_is_bounded(self):
        """The hardened transports must satisfy their own lint rule."""
        files = [
            SourceFile.load(p)
            for p in sorted((REPO / "src" / "repro" / "ipc").glob("*.py"))
        ] + [
            SourceFile.load(
                REPO / "src" / "repro" / "libharp" / "client.py"
            ),
            SourceFile.load(
                REPO / "src" / "repro" / "fleet" / "link.py"
            ),
            SourceFile.load(
                REPO / "src" / "repro" / "fleet" / "coordinator.py"
            ),
        ]
        assert run(Project(files), rules=select_rules(["HL006"])) == []


# -- end-to-end CLI -------------------------------------------------------------


class TestCli:
    def test_tree_is_clean(self):
        """The acceptance contract: the whole tree lints clean."""
        assert main(
            [
                str(REPO / "src"),
                str(REPO / "tests"),
                str(REPO / "benchmarks"),
                str(REPO / "examples"),
            ]
        ) == 0

    def test_full_run_stays_fast(self):
        """Lint-perf smoke: a full ten-rule run over the entire tree,
        including the whole-program index build, stays under the 5 s
        budget the pre-commit workflow assumes."""
        from repro.lint import RunStats, lint_paths

        stats = RunStats()
        diags = lint_paths(
            [REPO / "src", REPO / "tests", REPO / "benchmarks",
             REPO / "examples"],
            stats=stats,
        )
        assert diags == []
        assert stats.total_seconds < 5.0, (
            f"lint run took {stats.total_seconds:.2f}s "
            f"(index {stats.index_seconds:.2f}s)"
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

    def test_select_filters_rules(self, capsys):
        rc = main(
            ["--select", "HL003", str(FIXTURES / "hl001_positive.py")]
        )
        capsys.readouterr()
        assert rc == 0

    def test_bad_select_is_usage_error(self, capsys):
        assert main(["--select", "HL999", str(FIXTURES)]) == 2

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
