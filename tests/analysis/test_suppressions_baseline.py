"""Suppression comments: round-trips and edge cases."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source
from repro.analysis.suppressions import parse_suppressions

LIB = "src/repro/somewhere/module.py"


def lint(source: str, path: str = LIB):
    return lint_source(textwrap.dedent(source), path)


class TestNoqa:
    def test_bracketed_noqa_suppresses_named_rule(self):
        findings, suppressed = lint(
            "x = y == 0.5  # repro: noqa[float-equality] -- exact sentinel\n"
        )
        assert findings == []
        assert suppressed == 1

    def test_bare_noqa_suppresses_all_rules_on_line(self):
        findings, suppressed = lint(
            "import random  # repro: noqa\n"
        )
        assert findings == []
        assert suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self):
        findings, suppressed = lint(
            "x = y == 0.5  # repro: noqa[wallclock]\n"
        )
        assert [f.rule for f in findings] == ["float-equality"]
        assert suppressed == 0

    def test_noqa_only_covers_its_own_line(self):
        findings, _ = lint(
            """
            x = y == 0.5  # repro: noqa[float-equality]
            z = y == 1.5
            """
        )
        assert [f.rule for f in findings] == ["float-equality"]
        assert findings[0].line == 3

    def test_multiple_rules_in_one_bracket(self):
        findings, suppressed = lint(
            "import random; t = y == 0.5  # repro: noqa[seed-discipline, float-equality]\n"
        )
        assert findings == []
        assert suppressed == 2

    def test_parse_errors_not_suppressible(self):
        findings, _ = lint("def broken(:  # repro: noqa\n")
        assert [f.rule for f in findings] == ["parse-error"]

    def test_bare_noqa_on_line_with_findings_from_two_rules(self):
        # One line, two different rules (wallclock + float-equality): a
        # bare marker silences both at once.
        findings, suppressed = lint(
            """
            import time
            flag = time.time() == 0.5  # repro: noqa
            """
        )
        assert findings == []
        assert suppressed == 2

    def test_bracketed_noqa_suppresses_only_its_rule_on_shared_line(self):
        # Same two-rule line, but the marker names only one rule — the
        # other finding must survive.
        findings, suppressed = lint(
            """
            import time
            flag = time.time() == 0.5  # repro: noqa[float-equality]
            """
        )
        assert [f.rule for f in findings] == ["wallclock"]
        assert suppressed == 1

    def test_parser_is_case_insensitive_and_tolerant(self):
        marks = parse_suppressions("x = 1  # REPRO: NOQA[float-equality]\n")
        assert marks == {1: frozenset({"float-equality"})}

    def test_plain_comment_is_not_a_marker(self):
        assert parse_suppressions("x = 1  # no suppression here\n") == {}
