"""The experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["quickstart", "--gpus", "2"],
            ["fig3", "--points", "4"],
            ["fig4", "--gpus", "1", "--maxlens", "2", "4"],
            ["table2"],
            ["autotune", "--gpus", "2"],
            ["spectrum", "--components", "rrc", "lines"],
            ["fig5", "--gpus", "1"],
            ["table1", "--ks", "7", "9"],
            ["nei-solve", "--element", "6"],
            ["fit", "--bins", "40"],
            ["spectrum", "--bins", "20", "--json"],
            ["serve", "--pattern", "zipf", "--requests", "50", "--seed", "7"],
            ["serve", "--pattern", "uniform", "--workers", "3", "--json"],
            ["serve", "--trace", "out.json", "--metrics", "out.prom"],
            ["spectrum", "--trace", "out.json", "--metrics", "out.prom"],
            ["submit", "--trace", "out.json", "--metrics", "out.prom"],
            ["submit", "--temperature", "2e7", "--repeat", "3"],
            ["submit", "--lane", "survey", "--rule", "romberg"],
            ["serve", "--profile", "--flamegraph", "out.collapsed"],
            ["serve", "--slo", "--slo-p95", "1.5"],
            ["spectrum", "--profile"],
            ["spectrum", "--backend", "process", "--jobs", "2",
             "--shards", "4"],
            ["serve", "--backend", "thread", "--jobs", "2"],
            ["bench", "--quick", "--seed", "3"],
            ["bench", "--compare", "old.json", "new.json"],
            ["bench", "--cases", "nei", "--flamegraph", "fg.txt"],
            ["serve", "--dash", "dash.html", "--tsdb-out", "tsdb.json"],
            ["serve", "--dash", "d.html", "--scrape-cadence", "0.25"],
            ["spectrum", "--dash", "dash.html"],
            ["submit", "--tsdb-out", "tsdb.json"],
            ["bench", "--quick", "--dash", "dash.html"],
            ["query", "rate(repro_requests_total[2s])", "--tsdb", "t.json"],
            ["query", "depth", "--tsdb", "t.json", "--at", "3.5", "--json"],
            ["serve", "--scheduler", "predictive", "--tail", "0.3"],
            ["serve", "--scheduler", "predictive", "--cost-model", "cm.json"],
            ["submit", "--scheduler", "predictive", "--cost-model", "cm.json"],
        ],
    )
    def test_all_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_spectrum_rejects_bad_component(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spectrum", "--components", "magic"])

    def test_serve_rejects_bad_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pattern", "flat"])

    def test_spectrum_rejects_bad_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spectrum", "--backend", "mpi"])

    def test_submit_rejects_bad_lane(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--lane", "batch"])


@pytest.mark.slow
class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--gpus", "1", "--maxlen", "4"]) == 0
        out = capsys.readouterr().out
        assert "serial APEC" in out
        assert "speedup" in out

    def test_autotune_runs(self, capsys):
        assert main(["autotune", "--gpus", "2", "--tasks-per-point", "20"]) == 0
        out = capsys.readouterr().out
        assert "chosen" in out

    def test_nei_solve_runs(self, capsys):
        assert main(["nei-solve", "--element", "6"]) == 0
        out = capsys.readouterr().out
        assert "ion fractions" in out

    def test_fit_runs(self, capsys):
        assert main(["fit", "--bins", "40"]) == 0
        out = capsys.readouterr().out
        assert "fitted temperature" in out

    def test_spectrum_runs(self, capsys):
        assert main(["spectrum", "--bins", "20"]) == 0
        out = capsys.readouterr().out
        assert "wavelength" in out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "NEI" in out

    def test_spectrum_json_runs(self, capsys):
        import json

        assert main(["spectrum", "--bins", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["flux"]) == 12
        assert payload["components"] == ["rrc"]

    def test_spectrum_backend_matches_serial(self, capsys):
        import json

        argv = ["spectrum", "--bins", "12", "--tail-tol", "1e-9", "--json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        threaded = argv + ["--backend", "thread", "--jobs", "2"]
        assert main(threaded) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["flux"] == serial["flux"]

    def test_spectrum_metrics_include_plan_cache(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert main([
            "spectrum", "--bins", "12", "--tail-tol", "1e-9",
            "--metrics", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert "repro_plan_cache_lookups_total" in text
        assert "repro_plan_compilations_total" in text

    def test_serve_runs(self, capsys):
        assert main(["serve", "--requests", "40", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "requests lost" in out
        assert "cache hit ratio" in out

    def test_serve_json_reports_zero_lost(self, capsys):
        import json

        assert main(["serve", "--requests", "40", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lost"] == 0
        assert payload["completions"] == 40

    def test_serve_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import parse_exposition, validate_chrome_trace

        trace = tmp_path / "out.json"
        prom = tmp_path / "out.prom"
        assert main([
            "serve", "--requests", "30", "--seed", "7",
            "--trace", str(trace), "--metrics", str(prom),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert validate_chrome_trace(doc) == []
        families = parse_exposition(prom.read_text())
        assert "repro_requests_total" in families
        assert "repro_cache_hit_ratio" in families

    def test_submit_second_call_cached(self, capsys):
        import json

        assert main(["submit", "--temperature", "1.3e7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cached = [s["cached"] for s in payload["submissions"]]
        assert cached == [False, True]

    def test_serve_profile_and_flamegraph(self, tmp_path, capsys):
        fg = tmp_path / "serve.collapsed"
        assert main([
            "serve", "--requests", "30", "--seed", "7",
            "--profile", "--flamegraph", str(fg),
        ]) == 0
        out = capsys.readouterr().out
        assert "category path" in out
        assert "critical path" in out
        lines = fg.read_text().splitlines()
        assert lines and all(int(l.rsplit(" ", 1)[1]) > 0 for l in lines)

    def test_serve_slo_report(self, capsys):
        assert main([
            "serve", "--requests", "40", "--seed", "7",
            "--slo", "--slo-depth", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "queue-depth" in out
        assert "interactive-p95" in out

    def test_serve_dash_and_tsdb_out(self, tmp_path, capsys):
        import json

        from repro.obs import TimeSeriesStore

        dash = tmp_path / "dash.html"
        tsdb = tmp_path / "tsdb.json"
        assert main([
            "serve", "--requests", "40", "--seed", "7", "--burst", "4",
            "--slo", "--dash", str(dash), "--tsdb-out", str(tsdb),
        ]) == 0
        html = dash.read_text()
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html
        store = TimeSeriesStore.from_dict(json.loads(tsdb.read_text()))
        assert store.n_scrapes > 1
        assert any(s.key[0] == "repro_requests_total" for s in store.series())

    def test_serve_dash_is_deterministic(self, tmp_path):
        argv = ["serve", "--requests", "30", "--seed", "7"]
        a, b = tmp_path / "a.html", tmp_path / "b.html"
        assert main(argv + ["--dash", str(a)]) == 0
        assert main(argv + ["--dash", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_serve_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(SystemExit, match="scrape-cadence"):
            main([
                "serve", "--requests", "10",
                "--dash", str(tmp_path / "d.html"), "--scrape-cadence", "0",
            ])

    def test_query_roundtrip(self, tmp_path, capsys):
        import json

        tsdb = tmp_path / "tsdb.json"
        assert main([
            "serve", "--requests", "40", "--seed", "7",
            "--tsdb-out", str(tsdb),
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "rate(repro_requests_total[2s])", "--tsdb", str(tsdb),
        ]) == 0
        out = capsys.readouterr().out
        assert "lane=" in out
        assert main([
            "query", "histogram_quantile(0.95, repro_request_latency_seconds_bucket)",
            "--tsdb", str(tsdb), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"]
        assert all(s["value"] >= 0.0 for s in payload["samples"])

    def test_query_bad_expression_fails(self, tmp_path, capsys):
        import json

        tsdb = tmp_path / "tsdb.json"
        assert main([
            "serve", "--requests", "10", "--seed", "7",
            "--tsdb-out", str(tsdb),
        ]) == 0
        capsys.readouterr()
        assert main(["query", "rate(nope", "--tsdb", str(tsdb)]) == 2
        assert "query error" in capsys.readouterr().err

    def test_spectrum_dash_smoke(self, tmp_path, capsys):
        dash = tmp_path / "spec.html"
        assert main(["spectrum", "--bins", "20", "--dash", str(dash)]) == 0
        assert "<svg" in dash.read_text()

    def test_submit_dash_smoke(self, tmp_path, capsys):
        dash = tmp_path / "submit.html"
        assert main([
            "submit", "--temperature", "1.3e7", "--dash", str(dash),
        ]) == 0
        assert "<svg" in dash.read_text()

    def test_bench_quick_writes_valid_doc(self, tmp_path, capsys):
        import json

        from repro.bench.harness import validate_bench

        out_path = tmp_path / "BENCH_PERF.json"
        assert main([
            "bench", "--quick", "--cases", "nei", "pruned_kernels",
            "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert validate_bench(doc) == []
        assert set(doc["cases"]) == {"nei", "pruned_kernels"}
        assert "repro bench" in capsys.readouterr().out

    def test_bench_compare_gates_regression(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "a.json"
        assert main([
            "bench", "--quick", "--cases", "nei", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        doc["cases"]["nei"]["sim"]["makespan_s"] *= 1.10
        worse = tmp_path / "b.json"
        worse.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "--compare", str(out_path), str(worse)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["bench", "--compare", str(out_path), str(out_path)]) == 0

    def test_bench_baseline_pass_and_fail(self, tmp_path, capsys):
        import json

        base = tmp_path / "base.json"
        assert main([
            "bench", "--quick", "--cases", "nei", "--out", str(base),
        ]) == 0
        out_path = tmp_path / "new.json"
        # Identical rerun vs itself: deterministic sim fields -> passes.
        assert main([
            "bench", "--quick", "--cases", "nei",
            "--out", str(out_path), "--baseline", str(base),
        ]) == 0
        doc = json.loads(base.read_text())
        doc["cases"]["nei"]["sim"]["speedup_vs_mpi"] *= 2.0  # unreachable bar
        harder = tmp_path / "harder.json"
        harder.write_text(json.dumps(doc))
        assert main([
            "bench", "--quick", "--cases", "nei",
            "--out", str(out_path), "--baseline", str(harder),
        ]) == 1
