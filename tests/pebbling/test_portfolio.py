"""Tests for the parallel portfolio orchestration layer."""

import concurrent.futures
from dataclasses import fields

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

    #: One wrong value for each field but ``backend`` (refused as not a
    #: spec string, below) and ``trace`` (runtime plumbing).
    MISTYPED = {
        "workload-int": ("workload", {"workload": 7}),
        "pebbles-bool": ("pebbles", {"pebbles": True}),
        "pebbles-zero": ("pebbles", {"pebbles": 0}),
        "scale-string": ("scale", {"scale": "big"}),
        "scale-infinite": ("scale", {"scale": float("inf")}),
        "single-move-string": ("single_move", {"single_move": "yes"}),
        "cardinality-none": ("cardinality", {"cardinality": None}),
        "schedule-list": ("schedule", {"schedule": ["linear"]}),
        "step-increment-zero": ("step_increment", {"step_increment": 0}),
        "incremental-int": ("incremental", {"incremental": 1}),
        "time-limit-negative": ("time_limit", {"time_limit": -1}),
        "max-steps-string": ("max_steps", {"max_steps": "40"}),
        "initial-steps-float": ("initial_steps", {"initial_steps": 2.5}),
        "weighted-none": ("weighted", {"weighted": None}),
    }

    @pytest.mark.parametrize(("field", "bad"), MISTYPED.values(), ids=list(MISTYPED))
    def test_mistyped_fields_are_refused_at_construction(self, field, bad):
        # A scale of "big" used to pass here and then raise ValueError while
        # run_portfolio formatted the task's name, failing every task.
        with pytest.raises(PebblingError, match=f"task's {field} must"):
            PortfolioTask(**{"workload": "fig2", "pebbles": 4, **bad})

    def test_the_table_covers_every_task_field(self):
        covered = {field for field, _ in self.MISTYPED.values()}
        assert covered == {entry.name for entry in fields(PortfolioTask)} - {
            "backend", "trace",
        }


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
                # A real, already finished Future: run_portfolio reads
                # each result with Future.result().
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

    def test_pool_workers_write_their_hits(self, tmp_path):
        # A worker's store is never closed; each task writes its hits.
        db = str(tmp_path / "cache.db")
        tasks = tasks_from_suite("default", time_limit=60)
        for _ in range(2):
            records = run_portfolio(tasks, jobs=2, store_path=db, force_pool=True)
            assert all(record.complete for record in records)
        from repro.store import ResultStore

        with ResultStore(db) as store:
            stats = store.stats()
        assert (stats.entries, stats.total_hits) == (len(tasks), len(tasks))

    def test_an_open_store_serves_inline_tasks(self, tmp_path):
        from repro.store import ResultStore

        tasks = tasks_from_suite("smoke", time_limit=30)
        with ResultStore(":memory:") as store:
            cold = run_portfolio(tasks, jobs=1, store=store)
            warm = run_portfolio(tasks, jobs=1, store=store)
            assert store.session["hits"] == len(tasks)
        assert [(r.outcome, r.steps) for r in warm] == [
            (r.outcome, r.steps) for r in cold
        ]
        with pytest.raises(PebblingError, match="not both"):
            run_portfolio(tasks, store=store, store_path=str(tmp_path / "cache.db"))

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


@pytest.fixture(scope="module")
def default_suite_inline_and_pooled():
    """The default suite run inline, then through a two-worker pool."""
    tasks = tasks_from_suite("default", time_limit=60)
    # force_pool: on a single-core host jobs=2 would silently fall back to
    # inline and the comparison would be inline against itself.
    return run_portfolio(tasks, jobs=1), run_portfolio(tasks, jobs=2, force_pool=True)


class TestDefaultSuiteThroughThePool:
    """Every default-suite row answers the same inline and in the pool.

    A pool worker runs the same search as the owner process, so the
    verdict, the step count and the number of SAT calls must agree row
    by row, and every row must finish inside its time limit.
    """

    @pytest.mark.parametrize(
        ("position", "name"),
        list(enumerate(task.name for task in tasks_from_suite("default"))),
        ids=[task.name for task in tasks_from_suite("default")],
    )
    def test_row_matches(self, default_suite_inline_and_pooled, position, name):
        inline, pooled = default_suite_inline_and_pooled
        one, many = inline[position], pooled[position]
        assert one.name == many.name == name
        assert one.complete and many.complete
        assert (many.outcome, many.steps, many.sat_calls) == (
            one.outcome, one.steps, one.sat_calls
        )
        assert one.outcome in ("solution", "step-limit")
        if one.found:
            _verify_strategy(many)


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

    def test_mixed_backends_in_one_batch_keep_task_order(self):
        tasks = [
            PortfolioTask(workload="fig2", pebbles=4, backend=backend)
            for backend in ("cdcl", "dpll", "cdcl:native=0")
        ] + [PortfolioTask(workload="fig2", pebbles=2, backend="dpll")]
        records = run_portfolio(tasks, jobs=1)
        assert [record.backend for record in records] == [
            resolve_backend(task.backend) for task in tasks
        ]
        assert [(record.outcome, record.steps) for record in records] == [
            ("solution", 6), ("solution", 6), ("solution", 6), ("infeasible", None),
        ]

    def test_a_bad_spec_fails_only_its_own_task(self):
        records = run_portfolio(
            [PortfolioTask(workload="fig2", pebbles=4, backend="bogus"),
             PortfolioTask(workload="fig2", pebbles=4)],
            jobs=1,
        )
        assert records[0].outcome == "error"
        assert "registered backends" in records[0].error
        assert records[1].found and records[1].steps == 6
        assert records[1].backend == resolve_backend("cdcl")
