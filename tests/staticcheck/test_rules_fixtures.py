"""Fixture-driven rule coverage: one offending + one clean snippet per
rule (RL001–RL009), asserting exact rule id and line, and that inline
suppression and the baseline each silence the finding.

Fixtures live in ``tests/staticcheck/fixtures/`` and are linted under
*virtual* display paths (via :func:`repro.staticcheck.check_sources`)
so path-scoped rules see them as the library modules they imitate.
The fixtures directory itself is excluded from repo-wide runs —
the offending halves are test vectors, not code.
"""

from pathlib import Path

import pytest

from repro.staticcheck import Baseline, check_sources

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture stem, virtual display path, expected line of the
#: first finding in the offending half).
CASES = {
    "RL001": ("rl001", "src/repro/solve/patch.py", 2),
    "RL002": ("rl002", "src/repro/solve/attempts.py", 3),
    "RL003": ("rl003", "src/repro/solve/helper.py", 5),
    "RL004": ("rl004", "src/repro/core/helper.py", 5),
    "RL005": ("rl005", "src/repro/analysis/helper.py", 1),
    "RL006": ("rl006", "src/repro/service/shards.py", 7),
    "RL007": ("rl007", "src/repro/service/facade_helper.py", 6),
    "RL008": ("rl008", "src/repro/solve/fingerprint.py", 5),
    "RL009": ("rl009", "src/repro/core/slotted.py", 5),
}


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def lint(display_path: str, source: str, baseline=None):
    return check_sources([(display_path, source)], baseline=baseline)


@pytest.mark.parametrize("rule_id", sorted(CASES))
class TestFixturePairs:
    def test_offending_fires_with_exact_id_and_line(self, rule_id):
        stem, display, line = CASES[rule_id]
        result = lint(display, read_fixture(f"{stem}_offending.py"))
        active = result.active
        assert active, f"{rule_id} offending fixture produced no finding"
        assert {f.rule for f in active} == {rule_id}
        assert min(f.line for f in active) == line
        assert all(f.path == display for f in active)

    def test_clean_twin_is_silent(self, rule_id):
        stem, display, _ = CASES[rule_id]
        result = lint(display, read_fixture(f"{stem}_clean.py"))
        assert result.active == [], [f.render() for f in result.active]

    def test_inline_suppression_silences(self, rule_id):
        stem, display, line = CASES[rule_id]
        source = read_fixture(f"{stem}_offending.py")
        lines = source.splitlines()
        lines[line - 1] += f"  # repro-lint: ignore[{rule_id}]"
        result = lint(display, "\n".join(lines) + "\n")
        assert all(
            f.suppressed for f in result.findings if f.line == line
        ), [f.render() for f in result.findings]
        assert not any(
            f.active and f.line == line for f in result.findings
        )

    def test_baseline_silences(self, rule_id):
        stem, display, _ = CASES[rule_id]
        source = read_fixture(f"{stem}_offending.py")
        first = lint(display, source)
        baseline = Baseline.from_findings(first.active)
        second = lint(display, source, baseline=baseline)
        assert second.active == []
        assert len(second.baselined) == len(first.active)

    def test_offending_symbol_recorded(self, rule_id):
        if rule_id == "RL005":
            pytest.skip("RL005 fires on a module-level import")
        stem, display, _ = CASES[rule_id]
        result = lint(display, read_fixture(f"{stem}_offending.py"))
        # Every other fixture violation happens inside a named definition.
        assert all(f.symbol for f in result.active)


class TestTightenedWorkerDetection:
    """RL002 marks a worker by its ``cancel`` parameter."""

    def test_legacy_cancel_marker_still_works(self):
        result = lint(
            "src/repro/solve/attempts.py",
            read_fixture("rl002_offending.py"),
        )
        assert [f.rule for f in result.active] == ["RL002"]
        assert "parameter 'cancel'" in result.active[0].message
