"""Tests for the top-level repro.report module."""


class TestImportCycle:
    def test_import_core_analysis_does_not_pull_experiments(self):
        # Regression for the circular import: importing core.analysis in
        # a fresh interpreter must not require repro.experiments.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.core import analysis\n"
            "assert 'repro.experiments' not in sys.modules, 'cycle back'\n"
            "print('clean')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
