"""Suppression-span regressions (satellite 1).

``# repro-lint: ignore[RLxxx]`` must be honored anywhere in the
logical span of the construct it annotates:

* on a decorator line of a ``def``/``class`` (the span runs from the
  first decorator through the line before the first body statement);
* on any physical line of a multi-line simple statement.

The legacy tools/repro_lint.py only matched the comment on the exact
line of the finding, which silently dropped suppressions written on
decorators or on continuation lines.
"""

from repro.staticcheck import check_sources


def lint(source: str, path: str = "src/repro/solve/helper.py"):
    return check_sources([(path, source)])


def findings_by_state(result):
    return (
        [f for f in result.findings if f.active],
        [f for f in result.findings if f.suppressed],
    )


class TestDecoratorLineSuppression:
    # The finding sits on the ``def`` line (a default-argument Tracer),
    # the suppression on the decorator line above it: the header span
    # (decorators through signature) is one suppression unit.
    SOURCE = (
        "import functools\n"
        "from repro.obs import Tracer\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=1)  "
        "# repro-lint: ignore[RL003]\n"
        "def traced(tracer=Tracer()):\n"
        "    return tracer\n"
    )

    def test_comment_on_decorator_suppresses_header_finding(self):
        active, suppressed = findings_by_state(lint(self.SOURCE))
        assert active == []
        assert [f.rule for f in suppressed] == ["RL003"]

    def test_without_comment_the_finding_is_active(self):
        bare = self.SOURCE.replace("  # repro-lint: ignore[RL003]", "")
        active, _ = findings_by_state(lint(bare))
        assert [f.rule for f in active] == ["RL003"]

    def test_decorator_comment_does_not_silence_the_body(self):
        # The header span stops before the first body statement — a
        # decorator comment must not blanket the function body.
        source = (
            "import functools\n"
            "from repro.obs import Tracer\n"
            "\n"
            "\n"
            "@functools.lru_cache(maxsize=1)  "
            "# repro-lint: ignore[RL003]\n"
            "def shared_tracer():\n"
            "    return Tracer()\n"
        )
        active, _ = findings_by_state(lint(source))
        assert [f.rule for f in active] == ["RL003"]


class TestMultiLineStatementSuppression:
    def test_comment_on_any_continuation_line_suppresses(self):
        source = (
            "def patch(compiled, rows, values):\n"
            "    compiled.b_ub[\n"
            "        rows  # repro-lint: ignore[RL001]\n"
            "    ] = values\n"
        )
        active, suppressed = findings_by_state(lint(source))
        assert active == []
        assert [f.rule for f in suppressed] == ["RL001"]

    def test_comment_on_closing_line_suppresses(self):
        source = (
            "def patch(compiled, rows, values):\n"
            "    compiled.b_ub[\n"
            "        rows\n"
            "    ] = values  # repro-lint: ignore[RL001]\n"
        )
        active, suppressed = findings_by_state(lint(source))
        assert active == []
        assert [f.rule for f in suppressed] == ["RL001"]


class TestSuppressionSemantics:
    def test_bare_ignore_suppresses_every_rule(self):
        source = (
            "def patch(compiled, row):\n"
            "    compiled.b_ub[row] = 0.0  # repro-lint: ignore\n"
        )
        active, suppressed = findings_by_state(lint(source))
        assert active == []
        assert suppressed

    def test_wrong_code_does_not_suppress(self):
        source = (
            "def patch(compiled, row):\n"
            "    compiled.b_ub[row] = 0.0  # repro-lint: ignore[RL999]\n"
        )
        active, _ = findings_by_state(lint(source))
        assert [f.rule for f in active] == ["RL001"]

    def test_multiple_codes_in_one_comment(self):
        source = (
            "def patch(compiled, row):\n"
            "    compiled.b_ub[row] = 0.0  "
            "# repro-lint: ignore[RL001, RL003]\n"
        )
        active, suppressed = findings_by_state(lint(source))
        assert active == []
        assert [f.rule for f in suppressed] == ["RL001"]

    def test_comment_on_unrelated_line_does_not_leak(self):
        source = (
            "def patch(compiled, row):\n"
            "    x = 1  # repro-lint: ignore[RL001]\n"
            "    compiled.b_ub[row] = x\n"
        )
        active, _ = findings_by_state(lint(source))
        assert [f.rule for f in active] == ["RL001"]
