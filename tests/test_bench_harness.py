"""Benchmark harness: schema, determinism, regression gating."""

import json

import pytest

from repro.bench.harness import (
    CASES,
    DEFAULT_TOLERANCES,
    SCHEMA_ID,
    Tolerance,
    compare_bench,
    load_bench,
    run_suite,
    validate_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def quick_doc():
    """One quick suite run shared by the module (a few seconds)."""
    return run_suite(quick=True, seed=7)


class TestSuite:
    def test_all_cases_present_and_valid(self, quick_doc):
        assert validate_bench(quick_doc) == []
        assert set(quick_doc["cases"]) == set(CASES)
        for case in quick_doc["cases"].values():
            assert case["wall_s"] >= 0.0
            assert case["sim"]

    def test_sim_fields_bit_identical_across_runs(self, quick_doc):
        """The determinism contract: virtual-clock metrics never drift."""
        again = run_suite(quick=True, seed=7)
        sims_a = {k: v["sim"] for k, v in quick_doc["cases"].items()}
        sims_b = {k: v["sim"] for k, v in again["cases"].items()}
        assert sims_a == sims_b  # exact float equality, not approx

    def test_case_subset(self):
        doc = run_suite(quick=True, seed=7, cases=["nei"])
        assert list(doc["cases"]) == ["nei"]
        assert validate_bench(doc) == []

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown case"):
            run_suite(quick=True, cases=["no_such_case"])

    def test_flamegraph_side_channel(self, tmp_path):
        path = tmp_path / "bench.collapsed"
        run_suite(quick=True, seed=7, cases=["service_throughput"],
                  flamegraph=str(path))
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert len(stack.split(";")) >= 3

    def test_round_trips_through_disk(self, quick_doc, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        write_bench(str(path), quick_doc)
        assert load_bench(str(path)) == json.loads(path.read_text())


class TestSchema:
    def test_rejects_non_object(self):
        assert validate_bench([]) == ["document is not a JSON object"]

    def test_rejects_wrong_schema_id(self, quick_doc):
        doc = dict(quick_doc, schema="other/v9")
        assert any("schema" in e for e in validate_bench(doc))

    def test_rejects_missing_keys(self):
        errors = validate_bench({"schema": SCHEMA_ID})
        assert any("cases" in e for e in errors)
        assert any("seed" in e for e in errors)

    def test_rejects_bad_metric_types(self, quick_doc):
        doc = json.loads(json.dumps(quick_doc))
        doc["cases"]["nei"]["sim"]["makespan_s"] = "fast"
        assert any("makespan_s" in e for e in validate_bench(doc))

    def test_rejects_negative_wall(self, quick_doc):
        doc = json.loads(json.dumps(quick_doc))
        doc["cases"]["nei"]["wall_s"] = -1.0
        assert any("wall_s" in e for e in validate_bench(doc))

    def test_rejects_empty_cases(self, quick_doc):
        doc = dict(quick_doc, cases={})
        assert any("at least one case" in e for e in validate_bench(doc))

    def test_load_bench_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError, match="schema validation"):
            load_bench(str(path))


class TestTolerance:
    def test_lower_is_better(self):
        t = Tolerance(0.02, "lower")
        assert not t.regressed(100.0, 101.0)  # within 2%
        assert t.regressed(100.0, 103.0)
        assert not t.regressed(100.0, 90.0)  # improvement

    def test_higher_is_better(self):
        t = Tolerance(0.02, "higher")
        assert not t.regressed(100.0, 99.0)
        assert t.regressed(100.0, 97.0)
        assert not t.regressed(100.0, 110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(-0.1, "lower")
        with pytest.raises(ValueError):
            Tolerance(0.1, "sideways")

    def test_every_default_direction_is_sensible(self):
        times = {
            "makespan_s",
            "device_time_s",
            "virtual_time_s",
            "p95_latency_s",
            # A latency ratio: batched p95 over the unbatched baseline.
            "p95_vs_unbatched",
            # A makespan ratio: predictive over the depth scheduler.
            "makespan_vs_depth",
            # A prediction-error figure: mean |rel err| of the cost model.
            "cost_model_rel_err",
            # False alarms on a seeded steady trace: any increase regresses.
            "anomaly_false_positives",
        }
        for metric, tol in DEFAULT_TOLERANCES.items():
            expected = "lower" if metric in times else "higher"
            assert tol.direction == expected, metric


class TestCompare:
    def test_identical_docs_have_no_regressions(self, quick_doc):
        regressions, lines = compare_bench(quick_doc, quick_doc)
        assert regressions == []
        assert any("ok" in l for l in lines)

    def test_injected_regression_detected(self, quick_doc):
        worse = json.loads(json.dumps(quick_doc))
        worse["cases"]["nei"]["sim"]["makespan_s"] *= 1.10
        regressions, lines = compare_bench(quick_doc, worse)
        assert len(regressions) == 1
        reg = regressions[0]
        assert (reg.case, reg.metric) == ("nei", "makespan_s")
        assert any("REGRESSION" in l for l in lines)

    def test_throughput_drop_detected(self, quick_doc):
        worse = json.loads(json.dumps(quick_doc))
        worse["cases"]["service_throughput"]["sim"]["tasks_per_s"] *= 0.90
        regressions, _ = compare_bench(quick_doc, worse)
        assert any(r.metric == "tasks_per_s" for r in regressions)

    def test_improvement_never_gates(self, quick_doc):
        better = json.loads(json.dumps(quick_doc))
        better["cases"]["nei"]["sim"]["makespan_s"] *= 0.5
        better["cases"]["nei"]["sim"]["speedup_vs_mpi"] *= 2.0
        regressions, _ = compare_bench(quick_doc, better)
        assert regressions == []

    def test_wall_time_is_never_gated(self, quick_doc):
        worse = json.loads(json.dumps(quick_doc))
        for case in worse["cases"].values():
            case["wall_s"] *= 100.0  # a noisy CI machine
        regressions, _ = compare_bench(quick_doc, worse)
        assert regressions == []

    def test_new_case_notes_but_never_gates(self, quick_doc):
        grown = json.loads(json.dumps(quick_doc))
        grown["cases"]["brand_new"] = {"wall_s": 1.0, "sim": {"makespan_s": 9.9}}
        regressions, lines = compare_bench(quick_doc, grown)
        assert regressions == []
        assert any("new" in l and "brand_new" in l for l in lines)

    def test_quick_vs_full_mismatch_noted(self, quick_doc):
        full_ish = dict(quick_doc, quick=False)
        _, lines = compare_bench(quick_doc, full_ish)
        assert any("quick and full" in l for l in lines)
