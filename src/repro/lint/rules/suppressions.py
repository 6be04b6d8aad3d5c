"""HL007 — stale suppressions: every ``# harplint: disable`` must still
be earning its keep.

A suppression is a standing exception to a rule, reviewed once and then
invisible.  When the offending code is later fixed or deleted the
comment stays behind, silently pre-authorizing the next regression on
that line.  This rule runs *after* every other rule in the invocation,
against the raw (pre-suppression) diagnostic stream, and flags:

* a ``disable=<code>`` whose code produced no diagnostic on that line;
* a suppression naming a code no registered rule owns (typo'd codes
  otherwise suppress nothing forever, without complaint).

Staleness is only judged for codes whose rule actually ran — a run that
isolates HL001 says nothing about an HL003 suppression.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, all_rules, register
from repro.lint.source import Project


@register
class StaleSuppressionRule(Rule):
    code = "HL007"
    name = "stale-suppression"
    rationale = (
        "A '# harplint: disable' whose diagnostic no longer fires "
        "silently pre-authorizes the next regression on that line; "
        "suppressions must be removed with the hazard they excused."
    )
    #: The runner feeds this rule the raw diagnostic stream after every
    #: other rule has run; ``check`` is intentionally inert.
    needs_raw = True

    def check(self, project: Project) -> Iterator[Diagnostic]:
        return iter(())

    def check_raw(
        self,
        project: Project,
        raw: list[Diagnostic],
        checked_codes: set[str],
    ) -> Iterator[Diagnostic]:
        known = {r.code for r in all_rules()}
        fired = {(d.path, d.line, d.code) for d in raw}
        for file in project.files:
            for line, codes in sorted(file.suppressions.items()):
                for code in sorted(codes):
                    if code not in known:
                        message = (
                            f"suppression names unknown rule '{code}'; it "
                            "suppresses nothing — fix the code or remove it"
                        )
                    elif (
                        code in checked_codes
                        and (file.path, line, code) not in fired
                    ):
                        message = (
                            f"suppression of {code} matches no diagnostic "
                            "on this line; remove it"
                        )
                    else:
                        continue
                    yield self.diag(file, line, 0, message)
