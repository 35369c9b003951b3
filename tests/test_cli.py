"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "12a"])
        assert args.which == "12a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])


class TestInfo:
    def test_info_prints_version_and_costs(self, capsys):
        import repro

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert f"repro {repro.__version__}" in out
        assert "cpu_flops" in out
        assert "interp_instr_s" in out


class TestRun:
    def test_run_script_file(self, tmp_path, capsys):
        script = tmp_path / "hello.mcl"
        script.write_text(
            'f(n) { for (k = 0; k < n; k++) M_log("tick", k); }'
        )
        assert main(["run", str(script), "3", "--hosts", "2"]) == 0
        out = capsys.readouterr().out
        assert "injected messenger" in out
        assert out.count("log:") == 3
        assert "host0" in out

    def test_run_missing_file(self, capsys):
        assert main(["run", "/does/not/exist.mcl"]) == 2
        assert "no such script" in capsys.readouterr().err


class TestFigure:
    def test_figure_12a_prints_table(self, capsys):
        assert main(["figure", "12a"]) == 0
        out = capsys.readouterr().out
        assert "block size" in out
        assert "messengers" in out and "pvm" in out

    def test_figure_7_prints_ratios(self, capsys):
        assert main(["figure", "7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "ratio" in out


class TestChaos:
    def test_chaos_json_report_with_detector(self, capsys):
        import json

        assert main([
            "chaos", "--image", "32", "--grid", "2", "--procs", "2",
            "--detect", "heartbeat", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == 0
        assert report["detect"] == "heartbeat"
        for system in ("messengers", "pvm"):
            row = report["systems"][system]
            assert row["identical"] is True
            assert row["resilience"]["detections"] == 1

    def test_chaos_parser_rejects_unknown_detector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--detect", "psychic"])


class TestSearch:
    def test_search_finds_manager_crash_violation(self, capsys):
        import json

        status = main([
            "search", "--system", "pvm", "--image", "32", "--grid", "2",
            "--procs", "2", "--schedules", "4", "--depth", "1",
            "--loss", "0", "--include-manager", "--json",
        ])
        assert status == 1  # a violation was found
        report = json.loads(capsys.readouterr().out)
        assert not report["clean"]
        assert report["minimal"]["atoms"][0]["host"] == "host0"

    def test_search_out_writes_replayable_reproducer(self, tmp_path,
                                                     capsys):
        import json

        from repro import FaultPlan

        out = tmp_path / "reproducer.json"
        status = main([
            "search", "--system", "pvm", "--image", "32", "--grid", "2",
            "--procs", "2", "--schedules", "4", "--depth", "1",
            "--loss", "0", "--include-manager", "--out", str(out),
        ])
        assert status == 1
        assert str(out) in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert not report["clean"]
        minimal = report["minimal"]
        assert minimal["atoms"][0]["host"] == "host0"
        assert "seed" in minimal
        # The serialized plan replays verbatim through from_dict.
        plan = FaultPlan.from_dict(minimal["plan"])
        assert plan.to_dict() == minimal["plan"]
        assert any(
            event["kind"] == "crash" and event["host"] == "host0"
            for event in minimal["plan"]["events"]
        )

    def test_search_clean_run_writes_report_too(self, tmp_path):
        import json

        out = tmp_path / "clean.json"
        status = main([
            "search", "--system", "pvm", "--image", "32", "--grid", "2",
            "--procs", "2", "--schedules", "2", "--depth", "1",
            "--loss", "0", "--out", str(out),
        ])
        assert status == 0
        report = json.loads(out.read_text())
        assert report["clean"]
        assert report["minimal"] is None


class TestStats:
    def test_stats_breakdown_and_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main([
            "stats", "--image", "64", "--grid", "4", "--procs", "2",
            "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        for category in ("compute", "wire", "idle", "total"):
            assert category in out
        assert "100.00%" in out
        assert "des.events_executed" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_stats_pvm_system(self, tmp_path, capsys):
        assert main([
            "stats", "--system", "pvm", "--image", "64", "--grid", "4",
            "--procs", "2", "--trace", str(tmp_path / "t.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "copies" in out and "protocol" in out

    def test_stats_opcodes(self, tmp_path, capsys):
        assert main([
            "stats", "--image", "32", "--grid", "2", "--procs", "2",
            "--opcodes", "--trace", str(tmp_path / "t.json"),
        ]) == 0
        assert "opcode=" in capsys.readouterr().out


class TestBenchOut:
    def test_bench_scale_out_creates_parent_dirs(self, tmp_path, capsys):
        import json

        # A fresh artifacts dir that does not exist yet: CI writes
        # BENCH blobs into per-run directories, so the CLI must mkdir.
        out = tmp_path / "artifacts" / "scale" / "BENCH_scale.json"
        assert main([
            "bench", "scale", "--factors", "1", "--out", str(out),
        ]) == 0
        assert str(out) in capsys.readouterr().out
        blob = json.loads(out.read_text())
        points = blob["current"]["points"]
        assert [p["factor"] for p in points] == [1]
        assert points[0]["events"] == blob["baseline"]["points"]["1"][
            "events"
        ]
        # One measured series: a single events/sec and wall time.
        assert points[0]["events_per_sec"] > 0
        assert points[0]["wall_s"] > 0

    def test_search_out_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "report.json"
        status = main([
            "search", "--system", "pvm", "--image", "32", "--grid", "2",
            "--procs", "2", "--schedules", "1", "--depth", "1",
            "--loss", "0", "--out", str(out),
        ])
        assert status == 0
        assert out.exists()
