"""Tests for the ``repro-pebble`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dag.io import dag_to_json
from repro.logic.bench import write_bench
from repro.logic.iscas import c17_network
from repro.sat.dimacs import parse_dimacs
from repro.sat.solver import CdclSolver
from repro.workloads import example_dag


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["info", "fig2"],
            ["bennett", "fig2"],
            ["pebble", "fig2", "--pebbles", "4"],
            ["compare", "fig2"],
            ["pebble-batch", "--jobs", "2"],
            ["dimacs", "fig2", "--pebbles", "4", "--steps", "6"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pebble_schedule_choices(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["pebble", "fig2", "--pebbles", "4", "--schedule", "geometric-refine",
             "--cardinality", "totalizer"]
        )
        assert arguments.schedule == "geometric-refine"
        assert arguments.cardinality == "totalizer"
        with pytest.raises(SystemExit):
            parser.parse_args(["pebble", "fig2", "--pebbles", "4",
                               "--schedule", "sideways"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "c17" in out

    def test_info(self, capsys):
        assert main(["info", "fig2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_nodes"] == 6

    def test_bennett(self, capsys):
        assert main(["bennett", "fig2", "--grid"]) == 0
        out = capsys.readouterr().out
        assert "bennett" in out
        assert "pebbles=6" in out
        assert "operations executed" in out

    def test_pebble_success(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30", "--grid"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[: out.index("}") + 1] + "")
        assert summary["outcome"] == "solution"
        assert "peak pebbles" in out

    def test_pebble_stats_line(self, capsys):
        # The Python engine's own counters (the C core reports the base set).
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30",
                     "--backend", "cdcl:native=0", "--stats"]) == 0
        out = capsys.readouterr().out
        stats_lines = [line for line in out.splitlines() if line.startswith("stats: ")]
        assert len(stats_lines) == 1
        for counter in ("decisions=", "propagations=", "blocker_hits=",
                        "heap_decisions=", "deadline_checks_skipped="):
            assert counter in stats_lines[0]

    def test_pebble_single_move(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "6", "--single-move",
                     "--timeout", "60"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 10

    def test_pebble_infeasible_budget_returns_nonzero(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "1", "--timeout", "5"]) == 2

    def test_compare(self, capsys):
        assert main(["compare", "fig2", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert "pebble reduction" in out
        assert "bennett pebbles/moves : 6 / 10" in out

    def test_pebble_cardinality_and_schedule(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30",
                     "--cardinality", "totalizer",
                     "--schedule", "geometric-refine"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["outcome"] == "solution"
        assert summary["steps"] == 6  # refine certifies the linear minimum

    def test_pebble_meaningless_combination_reports_error(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4",
                     "--schedule", "geometric", "--step-increment", "2"]) == 1
        assert "step_increment" in capsys.readouterr().err

    def test_dimacs_to_stdout_roundtrips(self, capsys):
        assert main(["dimacs", "fig2", "--pebbles", "4", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        cnf = parse_dimacs(out)
        assert CdclSolver(cnf).solve().is_sat

    def test_dimacs_to_file(self, tmp_path, capsys):
        destination = tmp_path / "fig2.cnf"
        assert main(["dimacs", "fig2", "--pebbles", "3", "--steps", "6",
                     "--cardinality", "pairwise", "-o", str(destination)]) == 0
        assert "wrote" in capsys.readouterr().out
        cnf = parse_dimacs(destination)
        assert CdclSolver(cnf).solve().is_unsat  # 3 pebbles are infeasible

    def test_pebble_batch_smoke_suite(self, capsys):
        assert main(["pebble-batch", "--suite", "smoke", "--jobs", "1",
                     "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "fig2_p4" in out and "c17_p4" in out
        assert "2 tasks, 2 solved" in out

    def test_pebble_batch_json_report(self, capsys):
        assert main(["pebble-batch", "--suite", "smoke", "--jobs", "2",
                     "--timeout", "30", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"] == 2
        assert [row["outcome"] for row in report["results"]] == ["solution"] * 2

    def test_pebble_batch_list_suites(self, capsys):
        assert main(["pebble-batch", "--list-suites"]) == 0
        out = capsys.readouterr().out.split()
        assert "smoke" in out and "default" in out

    def test_pebble_batch_unknown_suite_reports_error(self, capsys):
        assert main(["pebble-batch", "--suite", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload_reports_error(self, capsys):
        assert main(["info", "does-not-exist"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_file_input(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        write_bench(c17_network(), path)
        assert main(["info", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_nodes"] == 6

    def test_json_dag_input(self, tmp_path, capsys):
        path = tmp_path / "fig2.json"
        dag_to_json(example_dag(), path)
        assert main(["bennett", str(path)]) == 0
        assert "pebbles=6" in capsys.readouterr().out


class TestCompileCommand:
    def test_compile_json_report_is_verified(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--decompose",
                     "--json", "--timeout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "solution"
        assert report["verified"] is True
        assert report["decomposed"] is True
        assert report["qubits"] == 10
        assert report["t_count"] > 0

    def test_compile_human_readable_with_grid(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--grid",
                     "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "verified   : True" in out
        assert "peak pebbles" in out

    def test_compile_weighted_budget(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--weighted",
                     "--json", "--timeout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["weighted"] is True
        assert report["weight_used"] == 4.0

    def test_compile_infeasible_budget_returns_nonzero(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "2",
                     "--timeout", "10"]) == 2

    def test_compile_structural_workload_skips_verification(self, capsys):
        assert main(["compile", "hadamard", "--pebbles", "8", "--json",
                     "--timeout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is None

    def test_compile_json_with_grid_stays_parseable(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--json", "--grid",
                     "--timeout", "30"]) == 0
        json.loads(capsys.readouterr().out)  # grid must not corrupt JSON

    def test_compile_no_verify_flag(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--no-verify",
                     "--json", "--timeout", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is None
        assert report["verify_patterns"] == 0


class TestSweepCommand:
    def test_sweep_table_marks_pareto_front(self, capsys):
        assert main(["sweep", "fig2", "--min-budget", "4", "--max-budget", "6",
                     "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        assert "on the Pareto front" in out

    def test_sweep_json_report(self, capsys):
        assert main(["sweep", "fig2", "--min-budget", "4", "--max-budget", "5",
                     "--jobs", "2", "--timeout", "30", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [point["budget"] for point in report["points"]] == [4, 5]
        assert all(point["outcome"] == "solution" for point in report["points"])
        assert any(point["pareto"] for point in report["points"])

    def test_sweep_json_exit_code_matches_table_mode(self, capsys):
        # All budgets infeasible: both output modes must signal failure.
        assert main(["sweep", "fig2", "--min-budget", "2", "--max-budget", "2",
                     "--timeout", "5", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert all(not point["pareto"] for point in report["points"])

    def test_sweep_partial_budget_range_rejected(self, capsys):
        assert main(["sweep", "fig2", "--min-budget", "4"]) == 1
        assert "max-budget" in capsys.readouterr().err


class TestCompareFlags:
    def test_compare_accepts_schedule_and_cardinality(self, capsys):
        assert main(["compare", "fig2", "--timeout", "20",
                     "--schedule", "geometric-refine",
                     "--cardinality", "totalizer", "--grid"]) == 0
        out = capsys.readouterr().out
        assert "pebble reduction" in out
        assert "peak pebbles" in out  # --grid printed the strategy

    def test_compare_meaningless_combination_reports_error(self, capsys):
        assert main(["compare", "fig2", "--schedule", "geometric",
                     "--step-increment", "2"]) == 1
        assert "step_increment" in capsys.readouterr().err


class TestBatchFlags:
    def test_batch_accepts_cardinality_and_step_increment(self, capsys):
        assert main(["pebble-batch", "--suite", "smoke", "--timeout", "30",
                     "--cardinality", "totalizer", "--step-increment", "1"]) == 0
        assert "2 tasks, 2 solved" in capsys.readouterr().out

    def test_batch_meaningless_combination_yields_error_records(self, capsys):
        assert main(["pebble-batch", "--suite", "smoke", "--timeout", "10",
                     "--schedule", "geometric", "--step-increment", "3"]) == 1
        out = capsys.readouterr().out
        assert "error" in out


class TestPebbleWeighted:
    def test_pebble_weighted_summary(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--weighted",
                     "--timeout", "30"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["weighted"] is True
        assert summary["weight_used"] == 4.0


class TestCacheCommand:
    def test_warm_then_stats_then_clear(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        assert main(["cache", "warm", "--db", db, "--suite", "smoke",
                     "--timeout", "30"]) == 0
        assert "2 tasks, 2 solved" in capsys.readouterr().out
        assert main(["cache", "stats", "--db", db, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["pebble_entries"] == 2
        assert main(["cache", "clear", "--db", db]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--db", db, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_pebble_db_round_trip_hits(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30",
                     "--db", db]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "30",
                     "--db", db]) == 0
        hit = json.loads(capsys.readouterr().out)
        assert hit.pop("cached") is True  # hits are marked observably
        assert hit == cold  # otherwise stored verbatim, runtime included
        assert main(["cache", "stats", "--db", db, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_hits"] == 1

    def test_batch_db_populates_store(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        assert main(["pebble-batch", "--suite", "smoke", "--timeout", "30",
                     "--db", db, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)["results"]
        assert main(["pebble-batch", "--suite", "smoke", "--timeout", "30",
                     "--db", db, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)["results"]
        for one, two in zip(first, second):
            assert one["outcome"] == two["outcome"]
            assert one["steps"] == two["steps"]
        assert main(["cache", "stats", "--db", db, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_hits"] >= 2

    def test_compile_db_round_trip(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        argv = ["compile", "fig2", "--pebbles", "4", "--decompose",
                "--timeout", "30", "--json", "--db", db]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        hit = json.loads(capsys.readouterr().out)
        assert hit == cold
        assert hit["verified"] is True

    def test_cache_warm_unknown_suite_fails(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        assert main(["cache", "warm", "--db", db, "--suite", "nope"]) == 1
        assert "valid names" in capsys.readouterr().err


class TestServeCommand:
    def test_request_file_mode(self, capsys, tmp_path):
        db = str(tmp_path / "cache.db")
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps({"requests": [
            {"kind": "pebble", "workload": "fig2", "budget": 4,
             "time_limit": 30},
            {"kind": "pebble", "workload": "fig2", "budget": 4,
             "time_limit": 30},
        ]}))
        assert main(["serve", "--json", str(requests), "--db", db]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in report["results"]] == ["ok", "ok"]
        assert report["stats"]["deduplicated"] == 1
        assert report["store"]["entries"] >= 1

    def test_missing_request_file_is_a_clean_cli_error(self, capsys, tmp_path):
        assert main(["serve", "--json", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_request_file_is_a_clean_cli_error(self, capsys, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text("{not json")
        assert main(["serve", "--json", str(requests)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_error_requests_fail_the_exit_code(self, capsys, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([
            {"kind": "pebble", "workload": "no-such-workload", "budget": 4},
        ]))
        assert main(["serve", "--json", str(requests)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["status"] == "error"
        assert "no-such-workload" in report["results"][0]["error"]


class TestBackendCli:
    @staticmethod
    def _stub_spec():
        from tests.external_stub_solver import stub_backend_spec

        return stub_backend_spec()

    def test_backends_subcommand_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("cdcl", "dpll", "external"):
            assert name in out

    def test_backends_subcommand_json(self, capsys):
        assert main(["backends", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in data["backends"]}
        assert {"cdcl", "dpll", "external"} <= names
        by_name = {row["name"]: row for row in data["backends"]}
        assert by_name["cdcl"]["available"] is True

    def test_pebble_with_dpll_backend(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "60",
                     "--backend", "dpll"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 6
        assert summary["backend"] == "dpll"

    def test_pebble_with_external_stub_backend(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "60",
                     "--backend", self._stub_spec()]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 6

    def test_pebble_unknown_backend_lists_names(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4",
                     "--backend", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "registered backends" in err
        assert "cdcl" in err and "dpll" in err

    def test_stats_line_prints_only_reported_counters(self, capsys):
        assert main(["pebble", "fig2", "--pebbles", "4", "--timeout", "60",
                     "--backend", "dpll", "--stats"]) == 0
        out = capsys.readouterr().out
        stats_lines = [line for line in out.splitlines() if line.startswith("stats: ")]
        assert len(stats_lines) == 1
        assert "decisions=" in stats_lines[0]
        assert "solve_time=" in stats_lines[0]
        # CDCL-only counters must be absent, not reported as zero.
        for counter in ("blocker_hits=", "heap_decisions=", "conflicts="):
            assert counter not in stats_lines[0]

    def test_pebble_core_schedule(self, capsys):
        assert main(["pebble", "c17", "--pebbles", "4", "--timeout", "60",
                     "--schedule", "core-refine"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 8

    def test_batch_race_backends(self, capsys):
        assert main(["pebble-batch", "--suite", "smoke", "--timeout", "20",
                     "--race-backends", "cdcl,dpll", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["results"]) == 2
        for row in data["results"]:
            assert row["outcome"] == "solution"
            assert set(row["race"]) == {"cdcl", "dpll"}
            assert row["backend"] in ("cdcl", "dpll")

    def test_compile_with_backend(self, capsys):
        assert main(["compile", "fig2", "--pebbles", "4", "--timeout", "60",
                     "--backend", "dpll", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "dpll"
        assert report["verified"] is True

    def test_serve_with_default_backend(self, capsys, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps({
            "requests": [{"kind": "pebble", "workload": "fig2", "budget": 4,
                          "time_limit": 30}]
        }))
        assert main(["serve", "--json", str(requests), "--backend", "dpll"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["payload"]["backend"] == "dpll"
