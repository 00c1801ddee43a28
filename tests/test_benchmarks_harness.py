"""Smoke tests for the tracked benchmark harness (``benchmarks/run_bench.py``).

The full instance set is far too slow for CI; the ``--quick`` subset runs
both engines on the smallest instances in a couple of seconds and still
checks the load-bearing invariants: verdicts match between the frozen
legacy engine and the current one, and the report schema is stable.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", ROOT / "benchmarks" / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules["run_bench"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_report(run_bench):
    return run_bench.run_benchmarks(quick=True)


class TestQuickMode:
    def test_verdicts_match_between_engines(self, quick_report):
        assert quick_report["all_verdicts_match"] is True
        for row in quick_report["instances"]:
            assert row["verdict_match"] is True

    def test_report_schema(self, quick_report):
        assert quick_report["mode"] == "quick"
        assert quick_report["geometric_mean_speedup"] > 0
        names = {row["name"] for row in quick_report["instances"]}
        assert "fig2_p4" in names
        assert "php_7_6" in names
        for row in quick_report["instances"]:
            for engine in ("legacy", "current"):
                assert row[engine]["seconds"] >= 0
                assert row[engine]["verdict"]

    def test_report_is_json_serializable(self, quick_report):
        json.dumps(quick_report)

    def test_quick_is_a_strict_subset(self, run_bench):
        instances = run_bench.instance_set()
        quick = [instance for instance in instances if instance.quick]
        assert 0 < len(quick) < len(instances)


class TestBenchNumbering:
    def test_first_index_is_one(self, run_bench, tmp_path):
        assert run_bench.next_bench_path(tmp_path).name == "BENCH_1.json"

    def test_next_free_index_is_used(self, run_bench, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_2.json").write_text("{}")
        assert run_bench.next_bench_path(tmp_path).name == "BENCH_3.json"

    def test_gaps_are_filled(self, run_bench, tmp_path):
        (tmp_path / "BENCH_2.json").write_text("{}")
        assert run_bench.next_bench_path(tmp_path).name == "BENCH_1.json"


class TestPortfolioScenario:
    def test_quick_report_contains_portfolio_section(self, quick_report):
        portfolio = quick_report["portfolio"]
        assert portfolio["suite"] == "smoke"
        assert portfolio["results_match"] is True
        assert set(portfolio["jobs"]) == {"1", "2"}
        for run in portfolio["jobs"].values():
            assert run["seconds"] >= 0
            assert run["solved"] >= 1
        assert {task["name"] for task in portfolio["tasks"]} == {"fig2_p4", "c17_p4"}

    def test_portfolio_bench_verdict_mismatch_detection(self, run_bench):
        # Same tasks at both widths: results must match and the speedup is
        # the ratio of the two wall-clock times.
        report = run_bench.run_portfolio_bench(quick=True, jobs_list=(1, 1))
        assert report["results_match"] is True
        assert report["speedup"] > 0

    def test_portfolio_bench_fails_on_error_records(self, run_bench, monkeypatch):
        # Identically crashing workers at every width must not read as a
        # vacuous "results match".
        from repro.pebbling.portfolio import PortfolioTask

        monkeypatch.setattr(
            run_bench, "tasks_from_suite",
            lambda suite, **kwargs: [PortfolioTask("no-such-workload", 4,
                                                   time_limit=5)],
        )
        report = run_bench.run_portfolio_bench(quick=True, jobs_list=(1, 1))
        assert report["results_match"] is False


class TestCompileScenario:
    def test_quick_report_contains_compile_section(self, quick_report):
        compile_scenario = quick_report["compile"]
        assert compile_scenario["all_verified"] is True
        names = {case["name"] for case in compile_scenario["cases"]}
        assert names == {"fig2_p4", "fig2_p4_mct", "c17_p4_mct"}
        for case in compile_scenario["cases"]:
            assert case["outcome"] == "solution"
            assert case["verified"] is True
            assert case["gates"] > 0 and case["t_count"] >= 0

    def test_schema_version_is_eleven(self, quick_report):
        assert quick_report["schema_version"] == 11

    def test_quick_report_contains_profile_section(self, quick_report):
        profile = quick_report["profile"]
        assert profile["phases_present"] is True
        names = {row["name"] for row in profile["instances"]}
        assert "fig2_p4" in names
        assert "php_7_6" in names
        for row in profile["instances"]:
            assert set(row["phases"]) == {
                "propagate", "analyze", "reduce", "inprocess", "bve", "vivify"
            }
            shares = [phase["share"] for phase in row["phases"].values()]
            assert all(0.0 <= share <= 1.0 for share in shares)
            assert row["conflicts_per_sec"] >= 0
            assert "conflicts" not in row["counters"]
            assert row["counters"]["learned_clauses"] >= 0

    def test_scenario_selector(self, run_bench):
        assert run_bench.parse_scenarios(None) == list(run_bench.SCENARIOS)
        assert run_bench.parse_scenarios("profile,engine") == [
            "engine", "profile"
        ]
        with pytest.raises(SystemExit):
            run_bench.parse_scenarios("bogus")
        with pytest.raises(SystemExit):
            run_bench.parse_scenarios(" , ")

    def test_scenario_subset_report_only_contains_selection(self, run_bench):
        report = run_bench.run_benchmarks(
            quick=True, scenarios=["backends"]
        )
        assert report["scenarios"] == ["backends"]
        assert "instances" not in report
        assert "portfolio" not in report
        assert report["all_verdicts_match"] is True

    def test_trajectory_gate(self, run_bench, tmp_path):
        # No previous report: vacuous pass.
        record = run_bench.check_trajectory(2.0, tmp_path)
        assert record["ok"] is True and record["previous"] is None
        (tmp_path / "BENCH_1.json").write_text(
            json.dumps({"geometric_mean_speedup": 2.0})
        )
        assert run_bench.check_trajectory(1.9, tmp_path)["ok"] is True
        bad = run_bench.check_trajectory(1.5, tmp_path)
        assert bad["ok"] is False
        assert bad["previous"] == "BENCH_1.json"
        assert bad["ratio"] == 0.75
        # The newest index wins, and corrupt files pass vacuously.
        (tmp_path / "BENCH_2.json").write_text("not json")
        assert run_bench.check_trajectory(0.1, tmp_path)["ok"] is True

    def test_quick_compile_cases_are_a_strict_subset(self, run_bench):
        quick = [case for case in run_bench.COMPILE_CASES if case[4]]
        assert 0 < len(quick) < len(run_bench.COMPILE_CASES)


class TestBackendScenario:
    def test_quick_report_compares_backends(self, quick_report):
        scenario = quick_report["backends"]
        assert scenario["verdicts_match"] is True
        names = {case["name"] for case in scenario["cases"]}
        assert names == {"fig2_p4", "fig2_p3", "c17_p4"}
        for case in scenario["cases"]:
            assert case["ok"] is True
            assert "cdcl" in case["runs"]
            assert "external-stub" in case["runs"]
            verdicts = {
                (run["verdict"], run["steps"]) for run in case["runs"].values()
            }
            assert len(verdicts) == 1

    def test_dpll_runs_only_small_cases(self, quick_report):
        by_name = {
            case["name"]: case for case in quick_report["backends"]["cases"]
        }
        assert "dpll" in by_name["fig2_p4"]["runs"]
        assert "dpll" not in by_name["c17_p4"]["runs"]


class TestSimplifyScenario:
    def test_quick_report_contains_simplify_section(self, quick_report, run_bench):
        scenario = quick_report["simplify"]
        assert scenario["simplify_ok"] is True
        names = {case["name"] for case in scenario["cases"]}
        assert names == {"fig2_p4", "c17_p4"}
        configs = {label for label, _ in run_bench.SIMPLIFY_CONFIGS}
        for case in scenario["cases"]:
            assert case["ok"] is True
            assert set(case["runs"]) == configs
            verdicts = {
                (run["verdict"], run["steps"]) for run in case["runs"].values()
            }
            assert len(verdicts) == 1
            for run in case["runs"].values():
                assert run["seconds"] >= 0
                assert set(run["counters"]) == {
                    "eliminated_variables", "restored_variables",
                    "bve_resolvents", "vivified_clauses",
                    "chrono_backtracks",
                }
        # Ablations are attributed relative to the full engine.
        assert set(scenario["attribution"]) == configs - {"full"}
        for record in scenario["attribution"].values():
            assert record["seconds"] >= 0
            assert record["vs_full"] is None or record["vs_full"] > 0

    def test_quick_simplify_cases_are_a_strict_subset(self, run_bench):
        quick = [case for case in run_bench.SIMPLIFY_CASES if case[5]]
        assert 0 < len(quick) < len(run_bench.SIMPLIFY_CASES)

    def test_direct_cnf_cases_are_full_runs_only(self, run_bench):
        # The CNF cases exist to engage the techniques for real, which
        # takes second-scale solves — too slow for the smoke lane.
        assert run_bench.SIMPLIFY_CNF_CASES
        assert all(not case[2] for case in run_bench.SIMPLIFY_CNF_CASES)


class TestCoreGuidedScenario:
    def test_quick_report_compares_core_guided_refine(self, quick_report):
        scenario = quick_report["core_guided"]
        assert scenario["core_ok"] is True
        for case in scenario["cases"]:
            assert case["ok"] is True
            assert (
                case["core_guided"]["sat_calls"] <= case["plain"]["sat_calls"]
            )
        # The acceptance bar: the ladder cores must save calls strictly on
        # at least one case, not just break even everywhere.
        assert scenario["strictly_fewer_cases"] >= 1


class TestCacheScenario:
    def test_quick_report_contains_cache_section(self, quick_report):
        cache_scenario = quick_report["cache"]
        assert cache_scenario["cache_ok"] is True
        assert {case["workload"] for case in cache_scenario["cases"]} == {
            "fig2", "c17"
        }
        for case in cache_scenario["cases"]:
            assert case["ok"] is True
            # The acceptance bar: warm-started geometric-refine searches
            # must issue strictly fewer SAT calls than cold ones.
            assert case["warm"]["sat_calls"] < case["cold"]["sat_calls"]
            assert case["hit"]["byte_identical"] is True
            assert case["steps"] is not None

    def test_quick_cache_cases_are_a_strict_subset(self, run_bench):
        quick = [case for case in run_bench.CACHE_CASES if case[4]]
        assert 0 < len(quick) < len(run_bench.CACHE_CASES)


class TestChaosScenario:
    def test_quick_report_certifies_minima_under_faults(self, quick_report):
        scenario = quick_report["chaos"]
        assert scenario["chaos_ok"] is True
        assert scenario["suite"] == "smoke"
        for task in scenario["tasks"]:
            assert task["ok"] is True
            assert task["chaos_verdict"] == task["verdict"]
            assert task["chaos_steps"] == task["steps"]
            # flaky=1 guarantees every task's first attempt failed
            assert task["retries"] >= 1
        assert scenario["retry_attempts"] >= len(scenario["tasks"])
        assert scenario["spurious_timeouts_certified"] is True

    def test_deadline_probe_degrades_to_a_partial(self, quick_report):
        probe = quick_report["chaos"]["deadline_probe"]
        assert probe["ok"] is True
        assert probe["status"] == "ok"
        assert probe["outcome"] == "timeout"
        checkpoint = probe["partial"]["checkpoint"]
        assert set(checkpoint) == {"next_bound", "refuted_through", "known_sat"}
