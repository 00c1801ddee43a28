"""Tests for the parallel portfolio orchestration layer."""

import concurrent.futures

import pytest

from repro.errors import PebblingError, WorkloadError
from repro.pebbling import (
    PebblingStrategy,
    PortfolioTask,
    minimize_pebbles,
    minimize_pebbles_portfolio,
    run_portfolio,
    tasks_from_suite,
)
from repro.pebbling.portfolio import budget_sweep_tasks
from repro.sat.backend import resolve_backend
from repro.workloads import load_workload, suite_entries


def _verify_strategy(record):
    """Rebuild and validate the strategy carried by a solved record."""
    dag = load_workload(record.task.workload, scale=record.task.scale)
    configurations = [set(configuration) for configuration in record.configurations]
    strategy = PebblingStrategy(
        dag,
        configurations,
        max_moves_per_step=1 if record.task.single_move else None,
    )
    assert strategy.max_pebbles <= record.task.pebbles
    assert strategy.num_steps == record.steps


class TestTasks:
    def test_tasks_from_suite(self):
        tasks = tasks_from_suite("smoke", time_limit=30)
        assert [task.name for task in tasks] == ["fig2_p4", "c17_p4"]
        assert all(task.time_limit == 30 for task in tasks)

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError):
            tasks_from_suite("no-such-suite")

    def test_budget_sweep_tasks(self):
        tasks = budget_sweep_tasks("fig2", range(3, 6), time_limit=10)
        assert [task.pebbles for task in tasks] == [3, 4, 5]
        assert all(task.workload == "fig2" for task in tasks)

    def test_task_names_encode_parameters(self):
        assert PortfolioTask("and9", 4, single_move=True).name == "and9_p4_sm"
        assert PortfolioTask("c432", 8, scale=0.25).name == "c432_p8_s0.25"


class TestRunPortfolio:
    def test_jobs_must_be_positive(self):
        with pytest.raises(PebblingError):
            run_portfolio([], jobs=0)

    def test_inline_execution_and_strategy_validity(self):
        records = run_portfolio(tasks_from_suite("smoke", time_limit=30), jobs=1)
        assert [record.outcome for record in records] == ["solution", "solution"]
        for record in records:
            _verify_strategy(record)

    def test_parallel_matches_inline(self):
        tasks = tasks_from_suite("smoke", time_limit=30) + [
            PortfolioTask("fig2", 3, time_limit=30)  # an UNSAT sweep
        ]
        inline = run_portfolio(tasks, jobs=1)
        # force_pool: on a single-core host jobs=2 would silently fall back
        # to inline and this parity test would compare inline to itself.
        pooled = run_portfolio(tasks, jobs=2, force_pool=True)
        assert [record.name for record in pooled] == [record.name for record in inline]
        for one, many in zip(inline, pooled):
            assert one.outcome == many.outcome
            assert one.steps == many.steps
            assert one.pebbles_used == many.pebbles_used

    def test_single_core_host_falls_back_to_inline(self, monkeypatch):
        import repro.pebbling.portfolio as portfolio_module

        monkeypatch.setattr(portfolio_module, "_usable_cores", lambda: 1)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("ProcessPoolExecutor must not be used")

        monkeypatch.setattr(portfolio_module, "ProcessPoolExecutor", _no_pool)
        records = run_portfolio(
            tasks_from_suite("smoke", time_limit=30), jobs=4
        )
        assert [record.outcome for record in records] == ["solution", "solution"]

    def test_multi_core_host_uses_the_pool(self, monkeypatch):
        import repro.pebbling.portfolio as portfolio_module

        monkeypatch.setattr(portfolio_module, "_usable_cores", lambda: 8)
        used = {}

        class _SpyPool:
            def __init__(self, max_workers):
                used["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, function, *args):
                # A real Future: run_portfolio absorbs results through
                # as_completed, which needs the genuine wait machinery.
                future = concurrent.futures.Future()
                future.set_result(function(*args))
                return future

        monkeypatch.setattr(portfolio_module, "ProcessPoolExecutor", _SpyPool)
        records = run_portfolio(
            tasks_from_suite("smoke", time_limit=30), jobs=2
        )
        assert used["max_workers"] == 2
        assert all(record.found for record in records)

    def test_store_path_threads_the_cache_through_tasks(self, tmp_path):
        db = str(tmp_path / "cache.db")
        tasks = tasks_from_suite("smoke", time_limit=30)
        cold = run_portfolio(tasks, jobs=1, store_path=db)
        warm = run_portfolio(tasks, jobs=1, store_path=db)
        for one, two in zip(cold, warm):
            assert one.outcome == two.outcome
            assert one.steps == two.steps
        from repro.store import ResultStore

        with ResultStore(db) as store:
            assert store.stats().total_hits == len(tasks)

    def test_meaningless_schedule_parameters_become_error_records(self):
        # The validation of the search layer reaches portfolio tasks too:
        # a non-linear schedule with a step increment is an error record,
        # not a silently ignored parameter.
        records = run_portfolio(
            [PortfolioTask("fig2", 4, schedule="geometric", step_increment=5,
                           time_limit=5)],
            jobs=1,
        )
        assert records[0].outcome == "error"
        assert "step_increment" in records[0].error

    def test_worker_errors_are_captured(self):
        records = run_portfolio(
            [PortfolioTask("does-not-exist", 4, time_limit=5)], jobs=1
        )
        assert records[0].outcome == "error"
        assert "does-not-exist" in records[0].error

    def test_error_capture_in_pool(self):
        records = run_portfolio(
            [
                PortfolioTask("fig2", 4, time_limit=30),
                PortfolioTask("does-not-exist", 4, time_limit=5),
            ],
            jobs=2,
        )
        assert records[0].outcome == "solution"
        assert records[1].outcome == "error"


class TestBudgetSweep:
    def test_parallel_sweep_matches_sequential_minimum(self, fig2_dag):
        sequential, _ = minimize_pebbles(fig2_dag, timeout_per_budget=30)
        sweep = minimize_pebbles_portfolio(
            "fig2", jobs=2, timeout_per_budget=30, schedule="geometric-refine"
        )
        assert sweep.best is not None
        assert sweep.minimum_pebbles == sequential.strategy.max_pebbles == 4
        # Budgets below the minimum must all have failed.
        for record in sweep.records:
            if record.task.pebbles < sweep.minimum_pebbles:
                assert not record.found

    def test_default_suite_entries_are_well_formed(self):
        for entry in suite_entries("default"):
            load_workload(entry.workload, scale=entry.scale).validate()


class TestWeightedTasks:
    def test_weighted_task_runs_the_weighted_game(self):
        # fig2 has unit weights, so a weighted budget of 4 equals the
        # unweighted 4-pebble search; the record reports the peak weight.
        record = run_portfolio(
            [PortfolioTask("fig2", 4, weighted=True, time_limit=30)]
        )[0]
        assert record.outcome == "solution"
        assert record.weight_used == 4.0
        assert record.name == "fig2_p4_w"
        assert record.as_dict()["weight_used"] == 4.0

    def test_weighted_and_unweighted_tasks_have_distinct_names(self):
        weighted = PortfolioTask("fig2", 4, weighted=True)
        plain = PortfolioTask("fig2", 4)
        assert weighted.name != plain.name

    def test_tasks_from_suite_plumbs_step_increment_and_cardinality(self):
        tasks = tasks_from_suite(
            "smoke", cardinality="totalizer", step_increment=2
        )
        assert all(task.cardinality == "totalizer" for task in tasks)
        assert all(task.step_increment == 2 for task in tasks)

    def test_non_linear_schedule_with_increment_becomes_error_record(self):
        record = run_portfolio(
            [PortfolioTask("fig2", 4, schedule="geometric", step_increment=3,
                           time_limit=10)]
        )[0]
        assert record.outcome == "error"
        assert "step_increment" in record.error


class TestBackendTasks:
    def test_task_carries_backend_spec(self):
        task = PortfolioTask(workload="fig2", pebbles=4, backend="dpll")
        record = run_portfolio([task])[0]
        assert record.found and record.steps == 6
        assert record.backend == "dpll"
        assert record.complete

    def test_backend_spec_survives_pickling(self):
        import pickle

        task = PortfolioTask(workload="fig2", pebbles=4, backend="dpll")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.backend == "dpll"
        assert clone == task

    def test_non_string_backend_rejected_loudly(self):
        from repro.sat.solver import CdclSolver

        with pytest.raises(PebblingError, match="spec"):
            PortfolioTask(workload="fig2", pebbles=4, backend=CdclSolver)

    def test_unknown_backend_becomes_error_record(self):
        task = PortfolioTask(workload="fig2", pebbles=4, backend="bogus")
        record = run_portfolio([task])[0]
        assert record.outcome == "error"
        assert "registered backends" in record.error

    def test_unavailable_backend_becomes_error_record(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAT_EXTERNAL", raising=False)
        task = PortfolioTask(workload="fig2", pebbles=4, backend="external")
        record = run_portfolio([task])[0]
        assert record.outcome == "error"
        assert "not usable on this host" in record.error

    def test_tasks_from_suite_threads_backend(self):
        tasks = tasks_from_suite("smoke", backend="dpll")
        assert all(task.backend == "dpll" for task in tasks)


class TestRaceBackends:
    def test_race_merges_first_complete_result(self):
        tasks = [PortfolioTask(workload="fig2", pebbles=4, time_limit=60.0)]
        records = run_portfolio(tasks, race_backends=["cdcl", "dpll"])
        assert len(records) == 1
        record = records[0]
        assert record.found and record.steps == 6 and record.complete
        assert record.backend in ("cdcl", "dpll")
        assert set(record.race) == {"cdcl", "dpll"}
        # First-winner cancellation: the winning lane completes with the
        # known answer; losing lanes either also finished (inline races
        # run lanes one at a time, so the loser may observe the token
        # before its first SAT call) or were cancelled mid-flight.
        winner_lane = record.race[record.backend]
        assert winner_lane["outcome"] == "solution"
        assert winner_lane["steps"] == 6
        for spec, lane in record.race.items():
            assert lane["outcome"] in ("solution", "cancelled")
            if lane["outcome"] == "cancelled":
                assert spec in record.cancelled
        assert record.as_dict()["cancelled"] == record.cancelled

    def test_race_cancels_losing_lanes_after_first_complete_win(self):
        # Inline execution runs lanes in submission order; the first lane
        # completes, cancels the shared token, and every later lane must
        # stop before paying for a single SAT call.
        tasks = [PortfolioTask(workload="fig2", pebbles=4, time_limit=60.0)]
        records = run_portfolio(tasks, race_backends=["cdcl", "dpll"])
        record = records[0]
        assert record.complete and record.steps == 6
        cancelled = [
            lane for lane in record.race.values() if lane["outcome"] == "cancelled"
        ]
        assert len(cancelled) == 1
        assert all(lane["sat_calls"] == 0 for lane in cancelled)
        assert record.cancelled == ["dpll"]

    def test_race_merge_is_pure_function_of_lanes(self):
        from repro.pebbling.portfolio import PortfolioRecord, _merge_race

        task = PortfolioTask(workload="fig2", pebbles=4)
        timeout_lane = PortfolioRecord(
            task=task, outcome="timeout", runtime=0.1, complete=False
        )
        slow_complete = PortfolioRecord(
            task=task, outcome="solution", steps=6, runtime=5.0, complete=True
        )
        merged = _merge_race(task, ["a", "b"], [timeout_lane, slow_complete])
        assert merged.backend == "b"  # complete beats a faster timeout
        assert merged.steps == 6
        error_lane = PortfolioRecord(task=task, outcome="error", error="boom")
        merged = _merge_race(task, ["a", "b"], [error_lane, timeout_lane])
        assert merged.backend == "b"  # anything beats an error lane
        tie_a = PortfolioRecord(
            task=task, outcome="solution", steps=6, runtime=1.0, complete=True
        )
        tie_b = PortfolioRecord(
            task=task, outcome="solution", steps=6, runtime=1.0, complete=True
        )
        merged = _merge_race(task, ["a", "b"], [tie_a, tie_b])
        assert merged.backend == "a"  # exact ties break by list order

    def test_race_losing_backend_error_does_not_poison(self):
        tasks = [PortfolioTask(workload="fig2", pebbles=4)]
        records = run_portfolio(tasks, race_backends=["bogus", "cdcl"])
        record = records[0]
        assert record.found and record.backend == "cdcl"
        assert record.race["bogus"]["outcome"] == "error"

    def test_race_preserves_task_order(self):
        tasks = [
            PortfolioTask(workload="fig2", pebbles=4),
            PortfolioTask(workload="fig2", pebbles=2),
        ]
        records = run_portfolio(tasks, race_backends=["cdcl", "dpll"])
        assert [record.task.pebbles for record in records] == [4, 2]
        assert records[1].outcome == "infeasible"

    def test_race_empty_backend_list_rejected(self):
        with pytest.raises(PebblingError, match="at least one backend"):
            run_portfolio(
                [PortfolioTask(workload="fig2", pebbles=4)], race_backends=[]
            )

    def test_race_rows_report_backend(self):
        tasks = [PortfolioTask(workload="fig2", pebbles=4)]
        row = run_portfolio(tasks, race_backends=["cdcl"])[0].as_dict()
        assert row["backend"] == "cdcl"
        assert "race" in row

    def test_race_lanes_bypass_the_store(self, tmp_path):
        # The store's content addresses are backend-invariant, so raced
        # lanes must not share it: a pre-warmed cache would answer every
        # lane without solving and the "race" would compare SQLite reads.
        from repro.store import ResultStore
        from repro.workloads import load_workload
        from repro.pebbling.solver import ReversiblePebblingSolver

        db = str(tmp_path / "race.db")
        with ResultStore(db) as store:
            ReversiblePebblingSolver(load_workload("fig2")).solve(
                4, time_limit=60, store=store
            )
        tasks = [PortfolioTask(workload="fig2", pebbles=4, time_limit=60.0)]
        records = run_portfolio(
            tasks, store_path=db, race_backends=["cdcl", "dpll"]
        )
        record = records[0]
        ran = 0
        for spec, lane in record.race.items():
            if lane["outcome"] == "cancelled":
                continue  # stopped by the winner before touching a solver
            assert lane["produced_by"] == resolve_backend(spec), (
                "lane answered from cache"
            )
            assert lane["sat_calls"] > 0, "lane never ran a solver"
            ran += 1
        assert ran >= 1

    def test_race_prefers_partial_solution_over_empty_timeout(self):
        from repro.pebbling.portfolio import PortfolioRecord, _merge_race

        task = PortfolioTask(workload="fig2", pebbles=4)
        empty_fast = PortfolioRecord(
            task=task, outcome="timeout", runtime=1.0, complete=False
        )
        witness_slow = PortfolioRecord(
            task=task, outcome="solution", steps=10, runtime=2.0, complete=False
        )
        merged = _merge_race(task, ["a", "b"], [empty_fast, witness_slow])
        assert merged.backend == "b"
        assert merged.outcome == "solution" and merged.steps == 10
