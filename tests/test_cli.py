"""Tests for the repro-tp command-line interface."""

import json
import os
import sys

import pytest

from repro.cli import main
from repro.taskgraph import ar_filter, save_json


@pytest.fixture
def ar_json(tmp_path):
    path = tmp_path / "ar.json"
    save_json(ar_filter(), path)
    return str(path)


class TestGenerate:
    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main([
            "generate", "layered", "--levels", "2", "--per-level", "2",
            "--seed", "3", "-o", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["tasks"]) == 4

    def test_generate_to_stdout(self, capsys):
        code = main(["generate", "random", "--tasks", "5", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tasks"]) == 5

    @pytest.mark.parametrize("kind", ["fork-join", "series-parallel"])
    def test_other_kinds(self, kind, capsys):
        assert main(["generate", kind]) == 0


class TestBounds:
    def test_bounds_output(self, ar_json, capsys):
        code = main(["bounds", ar_json, "--r-max", "400", "--ct", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N_min^l (min-area partitions): 3" in out
        assert "N=3:" in out


class TestBrokenPipe:
    """``repro-tp ... | head``: the reader closes stdout early."""

    def run_into_closed_pipe(self, monkeypatch, argv) -> int:
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed_stdout:
            monkeypatch.setattr(sys, "stdout", closed_stdout)
            code = main(argv)
            monkeypatch.undo()
        return code

    def test_bounds_exits_quietly(self, monkeypatch, capsys, ar_json):
        code = self.run_into_closed_pipe(
            monkeypatch, ["bounds", ar_json, "--r-max", "400", "--ct", "20"]
        )
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_trace_report_exits_quietly(
        self, monkeypatch, capsys, ar_json, tmp_path
    ):
        run = tmp_path / "run.jsonl"
        assert main([
            "partition", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "--trace-jsonl", str(run),
        ]) == 0
        capsys.readouterr()
        code = self.run_into_closed_pipe(
            monkeypatch, ["trace", "report", str(run)]
        )
        assert code == 141
        assert capsys.readouterr().err == ""


class TestPartition:
    def test_partition_ar(self, ar_json, tmp_path, capsys):
        out_json = tmp_path / "assignment.json"
        out_dot = tmp_path / "design.dot"
        code = main([
            "partition", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--gamma", "1", "--delta", "10",
            "--trace",
            "--out-json", str(out_json),
            "--out-dot", str(out_dot),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total latency: 510" in out
        assert "Inf." in out               # trace printed
        assignment = json.loads(out_json.read_text())
        assert set(assignment) == {"T1", "T2", "T3", "T4", "T5", "T6"}
        assert "cluster_p1" in out_dot.read_text()

    def test_trace_prints_t_o_for_unknown_windows(
        self, monkeypatch, ar_json, capsys
    ):
        from repro.ilp import model as ilp_model
        from repro.ilp.status import Solution, SolveStatus

        def timed_out(model, **options):
            return Solution(status=SolveStatus.TIME_LIMIT)

        monkeypatch.setitem(ilp_model._BACKENDS, "highs", timed_out)
        main([
            "partition", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--delta", "10", "--trace",
        ])
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()
        ]
        assert rows
        # A timed-out window without a greedy design is unknown.
        assert "T/O" in {row[-1] for row in rows}

    def test_partition_report_flag(self, ar_json, capsys):
        code = main([
            "partition", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--gamma", "1", "--delta", "10", "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Partition utilization" in out
        assert "design points chosen:" in out

    def test_partition_infeasible_exit_code(self, tmp_path, capsys):
        from repro.taskgraph import DesignPoint, TaskGraph

        graph = TaskGraph("stuck")
        graph.add_task("a", (DesignPoint(300, 10, name="dp1"),))
        graph.add_task("b", (DesignPoint(300, 10, name="dp1"),))
        graph.add_edge("a", "b", 9999)
        path = tmp_path / "stuck.json"
        save_json(graph, path)
        code = main([
            "partition", str(path),
            "--r-max", "400", "--m-max", "16", "--ct", "10",
            "--time-budget", "20",
        ])
        assert code == 1
        assert "no feasible" in capsys.readouterr().err


class TestEstimate:
    def test_estimate_vector_product(self, capsys):
        code = main([
            "estimate", "vector-product", "--length", "3",
            "--data-width", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "operations" in out
        assert "area=" in out

    def test_estimate_fir(self, capsys):
        assert main(["estimate", "fir", "--length", "3"]) == 0


class TestTable:
    def test_table1(self, capsys):
        code = main(["table", "1", "--solve-limit", "15"])
        assert code == 0
        assert "match" in capsys.readouterr().out

    def test_table2(self, capsys):
        code = main(["table", "2"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_feasible(self, ar_json, capsys):
        code = main([
            "diagnose", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "-n", "3",
        ])
        assert code == 0
        assert "feasible at N=3" in capsys.readouterr().out

    def test_diagnose_resource_culprit(self, ar_json, capsys):
        code = main([
            "diagnose", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "-n", "1",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "infeasible at N=1" in out
        assert "CULPRIT" in out

    def test_diagnose_latency_window(self, ar_json, capsys):
        code = main([
            "diagnose", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "-n", "3", "--d-max", "100",
        ])
        assert code == 1
        assert "latency_window" in capsys.readouterr().out

    def test_diagnose_reports_a_timeout_as_unknown(
        self, monkeypatch, ar_json, capsys
    ):
        from repro.ilp import model as ilp_model
        from repro.ilp.status import Solution, SolveStatus

        def timed_out(model, **options):
            return Solution(status=SolveStatus.TIME_LIMIT)

        monkeypatch.setitem(ilp_model._BACKENDS, "highs", timed_out)
        # N=3 with d_max 350 clears the packing bound (340), so the
        # window reaches the backend; no design lies under 350, so the
        # greedy fallback has none either: no verdict at all.
        code = main([
            "diagnose", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "-n", "3", "--d-max", "350",
            "--solve-limit", "5",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "no verdict within --solve-limit 5 s" in out
        assert "infeasible" not in out
        assert "diagnosis" not in out
        assert "CULPRIT" not in out


class TestCurve:
    def test_curve_on_ar(self, ar_json, capsys):
        code = main([
            "curve", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "--min-n", "3", "--max-n", "4",
            "--delta", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trade-off" in out
        assert "best:" in out

    def test_curve_infeasible_range_exit_code(self, ar_json, capsys):
        code = main([
            "curve", ar_json, "--r-max", "400", "--m-max", "128",
            "--ct", "20", "--min-n", "1", "--max-n", "2",
        ])
        assert code == 1


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestAnalyze:
    def test_clean_model_exits_0(self, ar_json, capsys):
        code = main([
            "analyze", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20", "-n", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_defective_model_exits_3(self, ar_json, capsys):
        # d_max below C_T makes the latency_ub row trivially infeasible.
        code = main([
            "analyze", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20", "-n", "3",
            "--d-max", "1",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "row-infeasible" in out
        assert "(9)" in out

    def test_json_output(self, ar_json, capsys):
        code = main([
            "analyze", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20", "-n", "3",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["num_partitions"] == 3
        assert payload["diagnostics"] == []

    def test_missing_graph_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "analyze", str(tmp_path / "nope.json"),
                "--r-max", "400", "-n", "3",
            ])
        assert excinfo.value.code == 2
        assert "cannot load graph" in capsys.readouterr().err

    def test_invalid_graph_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks": "not-a-list"}')
        with pytest.raises(SystemExit) as excinfo:
            main([
                "analyze", str(bad),
                "--r-max", "400", "-n", "3",
            ])
        assert excinfo.value.code == 2

    def test_usage_error_exits_2(self, ar_json):
        # argparse exits 2 on missing required arguments (-n).
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", ar_json, "--r-max", "400"])
        assert excinfo.value.code == 2

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "exit codes" in capsys.readouterr().out


class TestScenarioFlag:
    def test_analyze_slot_scenario_is_clean(self, ar_json, capsys):
        code = main([
            "analyze", ar_json,
            "--r-max", "800", "--m-max", "256", "--ct", "20", "-n", "4",
            "--scenario", "slot_coresident", "--strict",
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_json_reports_the_scenario(self, ar_json, capsys):
        code = main([
            "analyze", ar_json,
            "--r-max", "800", "--m-max", "256", "--ct", "20", "-n", "4",
            "--scenario", "slot_coresident", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "slot_coresident"
        assert payload["ok"] is True

    def test_unknown_scenario_exits_2(self, ar_json, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "analyze", ar_json,
                "--r-max", "400", "-n", "3", "--scenario", "nope",
            ])
        assert excinfo.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_malformed_scenario_param_exits_2(self, ar_json, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "analyze", ar_json,
                "--r-max", "400", "-n", "3",
                "--scenario", "slot_coresident",
                "--scenario-param", "num_slots",
            ])
        assert excinfo.value.code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_partition_output_charges_one_slot(self, ar_json, capsys):
        # Two slots on a C_T=20 device: each partition costs 10 ns, so
        # the 470 ns design at N=4 executes in 470 - 4 x 10 = 430 ns.
        code = main([
            "partition", ar_json,
            "--r-max", "800", "--m-max", "256", "--ct", "20",
            "--delta", "5", "--gamma", "2",
            "--scenario", "slot_coresident", "--trace", "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = [
            line.split() for line in out.splitlines() if line[:1].isdigit()
        ]
        assert ["4", "1", "400.0", "480.0", "430.0"] in rows
        assert "total latency: 470 (execution 430 + 4 x C_T 10)" in out
        assert "total 470 ns = execution 430 + reconfiguration 40" in out

    def test_partition_slot_scenario_end_to_end(self, ar_json, capsys):
        code = main([
            "partition", ar_json,
            "--r-max", "800", "--m-max", "256", "--ct", "20",
            "--delta", "100", "--no-cache",
            "--scenario", "slot_coresident",
            "--scenario-param", "num_slots=2",
        ])
        assert code == 0
        assert "total latency" in capsys.readouterr().out


class TestBatch:
    def _write_batch(self, tmp_path, ar_json, n=2):
        entries = [{"graph": "ar.json"} for _ in range(n)]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_batch_inline_workers(self, tmp_path, ar_json, capsys):
        batch = self._write_batch(tmp_path, ar_json)
        code = main([
            "batch", batch,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
        ])
        assert code == 0
        captured = capsys.readouterr()
        results = json.loads(captured.out)
        assert len(results) == 2
        assert all(r["feasible"] for r in results)
        assert all("schema_version" in r for r in results)
        assert "2/2 feasible" in captured.err

    def test_batch_to_file_with_cache(self, tmp_path, ar_json, capsys):
        batch = self._write_batch(tmp_path, ar_json, n=1)
        out = tmp_path / "results.json"
        cache = tmp_path / "solves.sqlite"
        code = main([
            "batch", batch,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
            "--cache", str(cache), "-o", str(out),
        ])
        assert code == 0
        assert cache.exists()
        assert json.loads(out.read_text())[0]["feasible"]

    def test_batch_inline_graph_payload(self, tmp_path, capsys):
        from repro.taskgraph import ar_filter
        from repro.taskgraph import io as graph_io

        entries = [{"graph": graph_io.to_dict(ar_filter())}]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(entries))
        code = main([
            "batch", str(path),
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
        ])
        assert code == 0

    def test_batch_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        code = main([
            "batch", str(bad),
            "--r-max", "400", "--workers", "0",
        ])
        assert code == 2
        assert "cannot read batch file" in capsys.readouterr().err

    def test_batch_non_list_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": "x.json"}')
        code = main([
            "batch", str(bad),
            "--r-max", "400", "--workers", "0",
        ])
        assert code == 2
        assert "JSON list" in capsys.readouterr().err

    def test_batch_entry_without_graph_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"processor": null}]')
        with pytest.raises(SystemExit) as excinfo:
            main([
                "batch", str(bad),
                "--r-max", "400", "--workers", "0",
            ])
        assert excinfo.value.code == 2


class TestServe:
    def test_serve_round_trip(self, monkeypatch, capsys):
        import io

        from repro.taskgraph import ar_filter
        from repro.taskgraph import io as graph_io

        line = json.dumps({"graph": graph_io.to_dict(ar_filter())})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n\n"))
        code = main([
            "serve",
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
        ])
        assert code == 0
        captured = capsys.readouterr()
        outcome = json.loads(captured.out.strip().splitlines()[0])
        assert outcome["feasible"] is True
        assert "served 1 requests" in captured.err

    def test_serve_invalid_line_reports_error_and_continues(
        self, monkeypatch, capsys
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("not json\n\n"))
        code = main([
            "serve",
            "--r-max", "400", "--workers", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[0]) == {
            "error": "invalid request"
        }
        assert "served 0 requests" in captured.err

    def test_solver_output_on_fd1_cannot_corrupt_answers(
        self, monkeypatch, capfd
    ):
        """Native HiGHS prints to file descriptor 1, the answer channel."""
        import io

        from repro.ilp import model as ilp_model
        from repro.ilp.scipy_backend import solve_with_highs
        from repro.taskgraph import io as graph_io

        def noisy_highs(model, **options):
            os.write(1, b"HighsMipSolverData::noise\n")
            return solve_with_highs(model, **options)

        monkeypatch.setitem(ilp_model._BACKENDS, "highs", noisy_highs)
        line = json.dumps({"graph": graph_io.to_dict(ar_filter())})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n\n"))
        code = main([
            "serve",
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
        ])
        assert code == 0
        out, err = capfd.readouterr()
        answers = [json.loads(text) for text in out.splitlines()]
        assert [a["feasible"] for a in answers] == [True]
        assert "HighsMipSolverData::noise" in err
        # fd 1 is the answer channel again once the session is over.
        os.write(1, b"after\n")
        assert capfd.readouterr().out == "after\n"


class TestMetricsFlags:
    def test_partition_metrics_json(self, ar_json, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main([
            "partition", ar_json,
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--solve-limit", "10", "--metrics-json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        names = [m["name"] for m in payload["metrics"]]
        assert "repro_window_solves_total" in names
        assert f"metrics written to {out}" in capsys.readouterr().out

    def test_serve_metrics_port_scrapes_and_dumps(
        self, monkeypatch, tmp_path, capsys
    ):
        import io
        import re
        import urllib.request

        from repro.taskgraph import io as graph_io

        dump = tmp_path / "metrics.json"
        line = json.dumps({"graph": graph_io.to_dict(ar_filter())})

        scraped = {}
        real_stdin = io.StringIO(line + "\n\n")

        class ScrapingStdin:
            """Scrape the live endpoint between request lines."""

            def __iter__(self):
                for text in real_stdin:
                    yield text
                    err = capsys.readouterr().err
                    match = re.search(r"metrics at (\S+)", err)
                    if match and "body" not in scraped:
                        scraped["body"] = urllib.request.urlopen(
                            match.group(1), timeout=5
                        ).read().decode()

        monkeypatch.setattr("sys.stdin", ScrapingStdin())
        code = main([
            "serve",
            "--r-max", "400", "--m-max", "128", "--ct", "20",
            "--workers", "0", "--solve-limit", "10",
            "--metrics-port", "0", "--metrics-json", str(dump),
        ])
        assert code == 0
        payload = json.loads(dump.read_text())
        names = [m["name"] for m in payload["metrics"]]
        assert "repro_service_requests_total" in names
        assert "repro_window_solves_total" in names

    def test_metrics_report_merges_and_prints(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "repro_window_solves_total", "solves", ("backend", "status")
        ).labels("highs", "feasible").inc(3)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(registry.snapshot().to_dict()))
        b.write_text(json.dumps(registry.snapshot().to_dict()))
        code = main(["metrics", "report", str(a), str(b)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_window_solves_total" in out
        assert "6" in out  # 3 + 3 merged

    def test_metrics_report_prom_output_validates(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, validate_promtext

        registry = MetricsRegistry()
        registry.histogram(
            "repro_window_solve_seconds", "wall", buckets=(0.1, 1.0)
        ).observe(0.5)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(registry.snapshot().to_dict()))
        code = main(["metrics", "report", str(path), "--prom"])
        assert code == 0
        assert validate_promtext(capsys.readouterr().out) == []

    def test_metrics_report_empty_exits_one(self, tmp_path, capsys):
        from repro.obs import MetricsSnapshot

        path = tmp_path / "empty.json"
        path.write_text(json.dumps(MetricsSnapshot.empty().to_dict()))
        assert main(["metrics", "report", str(path)]) == 1
        assert "no metrics recorded" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["[1]", '"x"', '{"metrics": [1]}'])
    def test_metrics_report_non_object_snapshot_exits_two(
        self, tmp_path, capsys, payload
    ):
        path = tmp_path / "junk.json"
        path.write_text(payload)
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "report", str(path)])
        assert excinfo.value.code == 2
        assert "not a metrics snapshot" in capsys.readouterr().err

    def test_metrics_report_bad_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "report", str(path)])
        assert excinfo.value.code == 2
