"""The window-record checker CLI (tools/check_window_records.py).

``tools`` is not a package, so the module is loaded straight from its
file path.  The pair under test comes from a real traced search: the
``window_verdict`` events of its JSONL trace and the ``solves`` rows of
its telemetry JSON.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import RefinementConfig, SolverSettings, refine_partitions_bound
from repro.obs import JsonlSink, Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL_PATH = REPO_ROOT / "tools" / "check_window_records.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_window_records", TOOL_PATH
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


check_window_records = _load_tool()


@pytest.fixture
def run_pair(tmp_path, ar_graph, ar_device):
    """(trace JSONL, telemetry JSON) of one traced AR-filter search."""
    sink = JsonlSink(tmp_path / "run.jsonl")
    result = refine_partitions_bound(
        ar_graph,
        ar_device,
        config=RefinementConfig(delta=25.0),
        settings=SolverSettings(time_limit=15.0, tracer=Tracer(sink)),
    )
    sink.close()
    telemetry = tmp_path / "telemetry.json"
    telemetry.write_text(
        json.dumps(result.telemetry.to_dict(include_solves=True))
    )
    return sink.path, telemetry


class TestCheckWindowRecords:
    def test_views_of_one_run_agree(self, run_pair, capsys):
        jsonl, telemetry = run_pair
        rows = json.loads(telemetry.read_text())["solves"]
        assert rows
        assert check_window_records.main([str(jsonl), str(telemetry)]) == 0
        assert f"ok ({len(rows)} windows)" in capsys.readouterr().out

    def test_mismatched_row_is_reported(self, run_pair, capsys):
        jsonl, telemetry = run_pair
        payload = json.loads(telemetry.read_text())
        payload["solves"][0]["status"] = "time_limit"
        payload["solves"].pop()
        telemetry.write_text(json.dumps(payload))
        assert check_window_records.main([str(jsonl), str(telemetry)]) == 1
        err = capsys.readouterr().err
        assert "window 0: status" in err
        assert "window_verdict events but" in err
