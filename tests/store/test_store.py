"""Tests for the SQLite result store: round trips, warm starts, eviction."""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dag import Dag
from repro.pebbling.encoding import EncodingOptions
from repro.pebbling.portfolio import task_solve_parameters, tasks_from_suite
from repro.pebbling.search import LinearSearch
from repro.pebbling.solver import PebblingOutcome, ReversiblePebblingSolver
from repro.store import ResultStore, StoreError
from repro.workloads import example_dag, load_workload
from repro.workloads.registry import load_workload_or_path


def _solve(dag, budget, *, store=None, schedule="linear", **kwargs):
    solver = ReversiblePebblingSolver(dag)
    return solver.solve(
        budget, strategy=schedule, time_limit=60, store=store, **kwargs
    )


class TestExactReuse:
    def test_hit_is_byte_identical_and_solver_free(self, fig2_dag):
        with ResultStore(":memory:") as store:
            cold = _solve(fig2_dag, 4, store=store)
            assert store.stats().entries == 1
            hit = _solve(fig2_dag, 4, store=store)
            assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
                hit.to_json(), sort_keys=True
            )
            # Exactly one put, one miss, one hit — the second solve never
            # built an encoder or ran a SAT call of its own.
            assert store.session["hits"] == 1
            assert store.session["puts"] == 1

    def test_infeasible_budgets_are_cached_too(self, fig2_dag):
        with ResultStore(":memory:") as store:
            cold = _solve(fig2_dag, 1, store=store)
            assert cold.outcome is PebblingOutcome.INFEASIBLE
            hit = _solve(fig2_dag, 1, store=store)
            assert hit.outcome is PebblingOutcome.INFEASIBLE
            assert store.session["hits"] == 1

    def test_different_parameters_miss(self, fig2_dag):
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store)
            assert store.session["hits"] == 0
            _solve(fig2_dag, 5, store=store)  # other budget
            _solve(fig2_dag, 4, store=store, schedule="geometric-refine")
            assert store.session["hits"] == 0
            assert store.stats().entries == 3

    def test_relabelled_dag_does_not_share_exact_results(self, fig2_dag):
        mapping = {"A": "a", "B": "b", "C": "c", "D": "d", "E": "e", "F": "f"}
        relabelled = fig2_dag.relabel(mapping)
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store)
            result = _solve(relabelled, 4, store=store)
            # No exact hit (labels differ) — but a fresh, valid result.
            assert store.session["hits"] == 0
            assert result.found
            assert all(
                str(node).islower()
                for configuration in result.strategy.configurations
                for node in configuration
            )

    def test_incomplete_results_are_not_stored(self, and9_dag):
        with ResultStore(":memory:") as store:
            result = ReversiblePebblingSolver(and9_dag).solve(
                5, time_limit=0.0, store=store
            )
            assert result.outcome is PebblingOutcome.TIMEOUT
            assert store.stats().entries == 0


#: A fig2 p4 entry as the store held it before cube-and-conquer was
#: retired: a two-cube search wrote it, so it carries the ``cubes`` and
#: ``shared_bound_hits`` keys that results no longer have.
_CUBE_ERA_PAYLOAD = {
    "attempts": [
        {"conflicts": 1, "max_pebbles": 4, "num_steps": 4, "runtime": 8.11990030342713e-05,
         "solver_stats": {"conflicts": 1.0, "decisions": 0.0, "deleted_clauses": 0.0,
                          "learned_clauses": 1.0, "max_decision_level": 2.0,
                          "propagations": 31.0, "restarts": 0.0,
                          "solve_time": 8.743001671973616e-06},
         "status": "unsat"},
        {"conflicts": 0, "max_pebbles": 4, "num_steps": 6, "runtime": 0.0001333090040134266,
         "solver_stats": {"conflicts": 0.0, "decisions": 19.0, "deleted_clauses": 0.0,
                          "learned_clauses": 0.0, "max_decision_level": 21.0,
                          "propagations": 132.0, "restarts": 0.0,
                          "solve_time": 2.4054003006312996e-05},
         "status": "sat"},
        {"conflicts": 1, "max_pebbles": 4, "num_steps": 5, "runtime": 0.0002469460014253855,
         "solver_stats": {"conflicts": 1.0, "decisions": 0.0, "deleted_clauses": 0.0,
                          "learned_clauses": 1.0, "max_decision_level": 2.0,
                          "propagations": 69.0, "restarts": 0.0,
                          "solve_time": 1.5469995560124516e-05},
         "status": "unsat"},
    ],
    "backend": "cdcl:native=1",
    "complete": True,
    "cubes": {
        "board": {"polled": 7, "published": 6},
        "cancelled": [1],
        "certified": True,
        "count": 2,
        "jobs": 1,
        "lanes": [
            {"complete": True, "cube": 0, "outcome": "solution", "runtime": 0.004,
             "sat_calls": 3, "shared_bound_hits": 0, "split": "p[A,1]", "steps": 6},
            {"complete": False, "cube": 1, "outcome": "cancelled", "runtime": 0.001,
             "sat_calls": 0, "shared_bound_hits": 0, "split": "!p[A,1]", "steps": None},
        ],
        "mode": "variables",
        "shared_bound_hits": 0,
        "winner": 0,
    },
    "dag": "fig2_example",
    "max_pebbles": 4,
    "minimal": True,
    "outcome": "solution",
    "partial": None,
    "runtime": 0.012878868998086546,
    "schema": 3,
    "shared_bound_hits": 0,
    "strategy": {
        "configurations": [
            [], ["A", "B"], ["A", "B", "C", "D"], ["A", "C", "D", "E"],
            ["A", "B", "D", "E"], ["A", "B", "E", "F"], ["E", "F"],
        ],
        "max_moves_per_step": None,
    },
    "weighted": False,
}


class TestOlderPayloads:
    def test_a_cube_era_entry_still_serves_an_exact_hit(self, fig2_dag, tmp_path):
        path = tmp_path / "store.db"
        with ResultStore(path) as store:
            _solve(fig2_dag, 4, store=store)
        # Put the older payload in the row the same request addresses.
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE results SET payload = ?",
                (json.dumps(_CUBE_ERA_PAYLOAD, sort_keys=True),),
            )
        connection.close()
        with ResultStore(path) as store:
            hit = _solve(fig2_dag, 4, store=store)
            assert store.session["hits"] == 1
            assert store.session["corrupt"] == 0
        assert hit.from_cache
        assert (hit.outcome, hit.num_steps, hit.minimal) == (
            PebblingOutcome.SOLUTION, 6, True
        )
        assert len(hit.attempts) == 3
        assert [sorted(configuration) for configuration in hit.strategy.configurations] == (
            _CUBE_ERA_PAYLOAD["strategy"]["configurations"]
        )
        assert not {"cubes", "shared_bound_hits"} & set(hit.to_json())

    def test_a_schema_4_store_is_rebuilt(self, tmp_path, monkeypatch):
        # Schema 4 may hold INFEASIBLE answers of the old budget floor,
        # which counted nodes no output needs: with b reading a and only a
        # an output, it refused budget 1.
        dag = Dag("spare_reader")
        dag.add_node("a", [])
        dag.add_node("b", ["a"])
        dag.set_outputs(["a"])
        path = tmp_path / "store.db"
        with monkeypatch.context() as patch:
            patch.setattr(
                ReversiblePebblingSolver, "minimum_pebbles_lower_bound", lambda self: 2
            )
            with ResultStore(path) as store:
                stale = _solve(dag, 1, store=store)
        assert (stale.outcome, stale.complete) == (PebblingOutcome.INFEASIBLE, True)
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE meta SET value = '4' WHERE key = 'schema'")
        connection.close()
        with ResultStore(path) as store:
            assert store.stats().entries == 0
            fresh = _solve(dag, 1, store=store)
            assert store.session["hits"] == 0
        assert fresh.found and not fresh.from_cache
        assert (fresh.num_steps, fresh.strategy.max_pebbles) == (1, 1)


class TestWarmStart:
    def test_bracketed_budget_needs_one_sat_call(self, fig2_dag):
        cold = _solve(fig2_dag, 5, schedule="geometric-refine")
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store, schedule="geometric-refine")
            _solve(fig2_dag, 6, store=store, schedule="geometric-refine")
            warm = _solve(fig2_dag, 5, store=store, schedule="geometric-refine")
        assert warm.num_steps == cold.num_steps == 5
        assert len(warm.attempts) < len(cold.attempts)
        assert len(warm.attempts) == 1
        assert warm.minimal

    def test_warm_bounds_transfer_to_relabelled_dags(self, fig2_dag):
        relabelled = fig2_dag.relabel(lambda node: f"renamed_{node}")
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store, schedule="geometric-refine")
            _solve(fig2_dag, 6, store=store, schedule="geometric-refine")
            warm = _solve(relabelled, 5, store=store, schedule="geometric-refine")
        assert warm.found and warm.num_steps == 5
        assert len(warm.attempts) == 1

    def test_warm_start_extraction_directions(self, fig2_dag):
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store)  # minimal solution, 6 steps
            options = EncodingOptions()
            # Tighter-or-equal cached budget bounds looser requests above.
            above = store.warm_start(fig2_dag, budget=6, options=options)
            assert above.step_ceiling == 6 and above.step_floor is None
            # Looser-or-equal cached budget floors tighter requests.
            below = store.warm_start(fig2_dag, budget=3, options=options)
            assert below.step_floor == 6 and below.step_ceiling is None
            # Different game semantics: nothing transfers.
            assert (
                store.warm_start(
                    fig2_dag, budget=5,
                    options=EncodingOptions(max_moves_per_step=1),
                )
                is None
            )

    def test_overshooting_schedules_ignore_warm_bounds(self, fig2_dag):
        # A warm floor shifts the probe grid of geometric / coarse-linear
        # schedules and would change (worsen) the answer for the *same*
        # request — so those schedules must not consume warm bounds.
        from repro.pebbling.search import GeometricSearch

        for schedule in (GeometricSearch(), LinearSearch(step_increment=2)):
            cold = _solve(fig2_dag, 4, schedule=schedule)
            with ResultStore(":memory:") as store:
                _solve(fig2_dag, 5, store=store, schedule="geometric-refine")
                _solve(fig2_dag, 6, store=store, schedule="geometric-refine")
                warmed = _solve(fig2_dag, 4, store=store, schedule=schedule)
            assert warmed.num_steps == cold.num_steps
            assert [a.num_steps for a in warmed.attempts] == [
                a.num_steps for a in cold.attempts
            ]

    def test_uncertified_steps_do_not_floor(self, fig2_dag):
        with ResultStore(":memory:") as store:
            loose = _solve(fig2_dag, 4, store=store, schedule="geometric")
            assert loose.found and not loose.minimal
            warm = store.warm_start(fig2_dag, budget=3, options=EncodingOptions())
            assert warm is None or warm.step_floor is None


class TestFingerprintWork:
    """A lookup keys rows by the exact digest alone; only the calls that
    write or query the ``canonical`` column (``put_*``, ``warm_start``)
    run the isomorphism-invariant fingerprint, once per DAG object."""

    @pytest.fixture
    def fingerprinted(self, monkeypatch):
        import repro.store.store as store_module

        seen = []
        original = store_module.dag_fingerprint

        def counted(dag):
            seen.append(dag)
            return original(dag)

        monkeypatch.setattr(store_module, "dag_fingerprint", counted)
        return seen

    def test_pebble_gets_compute_none(self, fingerprinted):
        request = dict(
            budget=4, options=EncodingOptions(), search=LinearSearch(),
            incremental=True,
        )
        with ResultStore(":memory:") as store:
            assert store.get_pebble(example_dag(), **request) is None
            assert fingerprinted == []
            written = example_dag()
            store.put_pebble(written, _solve(written, 4), **request)
            assert fingerprinted == [written]
            assert store.get_pebble(example_dag(), **request) is not None
            assert fingerprinted == [written]

    def test_compile_gets_compute_none(self, fingerprinted):
        from repro.circuits.pipeline import compile_cache_request, compile_dag
        from repro.workloads.registry import load_workload_network

        network = load_workload_network("fig2")
        request = compile_cache_request(pebbles=4, workload="fig2")

        def fresh():
            return load_workload_or_path("fig2", network=network)

        with ResultStore(":memory:") as store:
            assert store.get_compile(fresh(), network=network, **request) is None
            assert fingerprinted == []
            # A miss: get_compile, then the search's get_pebble, warm_start
            # and put_pebble, then put_compile, all on one DAG object.
            compiled = fresh()
            compile_dag(
                compiled, pebbles=4, network=network, workload="fig2", store=store
            )
            assert store.session["puts"] == 2
            assert fingerprinted == [compiled]
            assert store.get_compile(fresh(), network=network, **request) is not None
            assert fingerprinted == [compiled]

    def test_writes_and_warm_starts_share_one_per_dag(self, fingerprinted):
        with ResultStore(":memory:") as store:
            first = example_dag()
            _solve(first, 4, store=store)  # get (miss), warm_start, put
            _solve(first, 5, store=store)
            assert store.session["puts"] == 2
            assert fingerprinted == [first]
            second = example_dag()
            assert store.warm_start(second, budget=6, options=EncodingOptions())
            store.warm_start(second, budget=3, options=EncodingOptions())
            assert fingerprinted == [first, second]


class TestMaintenance:
    def test_eviction_keeps_most_recent(self, fig2_dag):
        with ResultStore(":memory:", max_entries=2) as store:
            _solve(fig2_dag, 4, store=store)
            _solve(fig2_dag, 5, store=store)
            _solve(fig2_dag, 6, store=store)
            stats = store.stats()
            assert stats.entries == 2
            assert store.session["evictions"] == 1
            # The oldest row (budget 4) was evicted; 5 and 6 still hit.
            assert store.warm_start(
                fig2_dag, budget=4, options=EncodingOptions()
            ).step_floor is not None
            _solve(fig2_dag, 5, store=store)
            _solve(fig2_dag, 6, store=store)
            assert store.session["hits"] == 2

    def test_warm_reads_refresh_lru_recency(self, fig2_dag, chain_dag):
        with ResultStore(":memory:", max_entries=2) as store:
            _solve(fig2_dag, 4, store=store)  # anchor: oldest row, 6 steps
            _solve(fig2_dag, 6, store=store)
            # A pure warm probe uses the p4 row as its (unique) certified
            # floor — that read must count as a use for LRU purposes.
            warm = store.warm_start(fig2_dag, budget=3, options=EncodingOptions())
            assert warm.floor_budget == 4
            # An unrelated insert trips eviction: without the warm-read
            # recency refresh the p4 anchor would be the LRU row and die.
            _solve(chain_dag, 5, store=store)
            assert store.session["evictions"] == 1
            assert store.session["hits"] == 0
            _solve(fig2_dag, 4, store=store)
            assert store.session["hits"] == 1, "warm-read anchor was evicted"

    def test_clear_and_stats(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        with ResultStore(path) as store:
            _solve(fig2_dag, 4, store=store)
            stats = store.stats()
            assert stats.entries == stats.pebble_entries == 1
            assert stats.size_bytes > 0
            assert store.clear() == 1
            assert store.stats().entries == 0

    def test_size_counts_pages_still_in_the_wal(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        with ResultStore(path) as store:
            for budget in (4, 5, 6, 7):
                _solve(fig2_dag, budget, store=store)
            size = store.stats().size_bytes
        assert size == path.stat().st_size

    def test_persistence_across_connections(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        with ResultStore(path) as store:
            cold = _solve(fig2_dag, 4, store=store)
        with ResultStore(path) as reopened:
            hit = _solve(fig2_dag, 4, store=reopened)
            assert reopened.session["hits"] == 1
        assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
            hit.to_json(), sort_keys=True
        )

    def test_reput_preserves_hit_counts(self, fig2_dag):
        # Two workers racing on the same miss both put; the second write
        # must not zero the hits the row accumulated in between.
        with ResultStore(":memory:") as store:
            cold = _solve(fig2_dag, 4, store=store)
            _solve(fig2_dag, 4, store=store)  # a hit: row hits -> 1
            parameters = dict(
                budget=4,
                options=EncodingOptions(),
                search=LinearSearch(),
                incremental=True,
                initial_steps=None,
                max_steps=None,
                step_floor=None,
            )
            assert store.put_pebble(fig2_dag, cold, **parameters)  # racing re-put
            assert store.stats().total_hits == 1

    def test_closed_store_raises(self):
        store = ResultStore(":memory:")
        store.close()
        with pytest.raises(StoreError):
            store.stats()

    def test_bad_max_entries_rejected(self):
        with pytest.raises(StoreError):
            ResultStore(":memory:", max_entries=0)


def _statements(store):
    """Every SQL statement the store's connection runs from now on."""
    seen: list[str] = []
    store._require().set_trace_callback(seen.append)
    return seen


def _verbs(statements):
    return [statement.split(None, 1)[0].upper() for statement in statements]


def _request(budget):
    return dict(
        budget=budget,
        options=EncodingOptions(),
        search=LinearSearch(),
        incremental=True,
        initial_steps=None,
        max_steps=None,
        step_floor=None,
    )


#: Opens a store, puts fig2 p4, reads it twice and dies without closing.
_CRASH_AFTER_HITS = """
import os, sys
from repro.pebbling.solver import ReversiblePebblingSolver
from repro.store import ResultStore
from repro.workloads import example_dag

store = ResultStore(sys.argv[1])
for _ in range(3):
    ReversiblePebblingSolver(example_dag()).solve(
        4, strategy="linear", time_limit=60, store=store
    )
assert store.session["puts"] == 1 and store.session["hits"] == 2
os._exit(0)
"""


class TestUsesRideOnWrites:
    """A read writes nothing; its hit and recency ride on the next write."""

    def test_hits_and_warm_starts_only_select(self):
        from repro.circuits.pipeline import compile_cache_request, compile_dag
        from repro.workloads.registry import load_workload_network

        network = load_workload_network("fig2")
        dag = load_workload_or_path("fig2", network=network)
        compile_request = compile_cache_request(pebbles=4, workload="fig2")
        with ResultStore(":memory:") as store:
            _solve(dag, 4, store=store)
            compile_dag(dag, pebbles=4, network=network, workload="fig2", store=store)
            hits = store.session["hits"]
            statements = _statements(store)
            assert store.get_pebble(dag, **_request(4)) is not None
            assert store.get_compile(dag, network=network, **compile_request) is not None
            warm = store.warm_start(dag, budget=5, options=EncodingOptions())
            assert warm is not None and warm.ceiling_budget == 4
            assert store.session["hits"] == hits + 2
            assert set(_verbs(statements)) == {"SELECT"}, statements

    def test_the_next_put_writes_the_hits_with_its_row(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        with ResultStore(path) as store:
            _solve(fig2_dag, 4, store=store)
            for _ in range(3):
                _solve(fig2_dag, 4, store=store)
            statements = _statements(store)
            _solve(fig2_dag, 6, store=store)  # a miss: get, warm start, put
            verbs = _verbs(statements)
            assert verbs.count("BEGIN") == verbs.count("COMMIT") == 1
            # The uses go in first, inside the put's own transaction.
            write = verbs[verbs.index("BEGIN"):]
            assert write == ["BEGIN", "UPDATE", "INSERT", "COMMIT"], statements
            # Another connection sees the hits and the row before any
            # stats() or close() of the first.
            other = sqlite3.connect(path)
            try:
                assert other.execute(
                    "SELECT COUNT(*), SUM(hits) FROM results"
                ).fetchone() == (2, 3)
            finally:
                other.close()
            assert store.stats().total_hits == 3

    def test_close_writes_the_hits(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        with ResultStore(path) as store:
            _solve(fig2_dag, 4, store=store)
            for _ in range(4):
                _solve(fig2_dag, 4, store=store)
        with ResultStore(path) as reopened:
            assert reopened.stats().total_hits == 4

    def test_a_put_that_evicts_commits_once(self, fig2_dag, chain_dag, and9_dag):
        with ResultStore(":memory:", max_entries=2) as store:
            _solve(fig2_dag, 4, store=store)  # A
            _solve(chain_dag, 5, store=store)  # B
            _solve(fig2_dag, 4, store=store)  # hit A: B is now the LRU row
            statements = _statements(store)
            _solve(and9_dag, 5, store=store)  # C evicts B in its own commit
            verbs = _verbs(statements)
            assert verbs.count("COMMIT") == 1
            assert verbs[verbs.index("BEGIN"):] == [
                "BEGIN", "UPDATE", "INSERT", "DELETE", "COMMIT"
            ], statements
            assert store.session["evictions"] == 1
            _solve(fig2_dag, 4, store=store)
            assert store.session["hits"] == 2, "the hit row A was evicted"
            _solve(chain_dag, 5, store=store)
            assert store.session["hits"] == 2, "the LRU row B survived"

    def test_clear_drops_pending_uses(self, fig2_dag):
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store)
            _solve(fig2_dag, 4, store=store)
            assert store.clear() == 1
            statements = _statements(store)
            _solve(fig2_dag, 4, store=store)
            assert "UPDATE" not in _verbs(statements), statements
            assert store.stats().total_hits == 0

    def test_a_corrupt_row_leaves_no_pending_use(self, fig2_dag):
        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store)
            _solve(fig2_dag, 4, store=store)  # a use of the row, pending
            connection = store._require()
            connection.execute("UPDATE results SET payload = '!'")
            connection.commit()
            statements = _statements(store)
            assert store.get_pebble(fig2_dag, **_request(4)) is None
            assert _verbs(statements) == ["SELECT", "BEGIN", "DELETE", "COMMIT"]
            assert store.session["corrupt"] == 1
            _solve(fig2_dag, 4, store=store)  # re-stored fresh
            assert store.stats().total_hits == 0

    def test_a_crash_loses_hits_not_answers(self, fig2_dag, tmp_path):
        path = tmp_path / "cache.db"
        source = Path(repro.__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(source), os.environ.get("PYTHONPATH")])
            ),
        }
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_AFTER_HITS, str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        expected = _solve(fig2_dag, 4)
        with ResultStore(path) as reopened:
            stats = reopened.stats()
            assert (stats.entries, stats.total_hits) == (1, 0)
            stored = reopened.get_pebble(fig2_dag, **_request(4))
        assert stored is not None
        assert stored.outcome is expected.outcome
        assert stored.num_steps == expected.num_steps
        assert stored.strategy.configurations == expected.strategy.configurations


def _open_at_once(path, barrier):
    barrier.wait(timeout=30)
    store = ResultStore(path)
    # Hold the connection until every opener has one, as pool workers do.
    barrier.wait(timeout=5)
    store.close()


class TestConcurrentOpen:
    def test_processes_creating_one_file_at_once_all_open_it(self, tmp_path):
        # The switch of a new file to WAL takes an exclusive lock without
        # the busy handler; unretried, an opener here and there failed
        # with "database is locked".
        context = multiprocessing.get_context("fork")
        for round_ in range(40):
            path = str(tmp_path / f"race-{round_}.db")
            barrier = context.Barrier(3)
            openers = [
                context.Process(target=_open_at_once, args=(path, barrier))
                for _ in range(3)
            ]
            for opener in openers:
                opener.start()
            for opener in openers:
                opener.join(timeout=60)
            assert [opener.exitcode for opener in openers] == [0, 0, 0]


class TestCacheParity:
    """Acceptance criterion: cache hits are byte-identical per suite task."""

    @pytest.mark.parametrize(
        "task", tasks_from_suite("default", time_limit=60.0), ids=lambda t: t.name
    )
    def test_default_suite_hits_are_byte_identical(self, task):
        dag = load_workload_or_path(task.workload, scale=task.scale)
        parameters = task_solve_parameters(task)
        with ResultStore(":memory:") as store:
            solver = ReversiblePebblingSolver(dag, options=parameters["options"])
            cold = solver.solve(
                task.pebbles,
                strategy=parameters["search"],
                time_limit=task.time_limit,
                store=store,
            )
            hit = solver.solve(
                task.pebbles,
                strategy=parameters["search"],
                time_limit=task.time_limit,
                store=store,
            )
            assert store.session["hits"] == 1, "second solve must be a pure hit"
        assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
            hit.to_json(), sort_keys=True
        )
        # And the store never changed what gets computed: a store-free
        # solve agrees on every semantic field (runtimes aside).
        bare = ReversiblePebblingSolver(dag, options=parameters["options"]).solve(
            task.pebbles,
            strategy=parameters["search"],
            time_limit=task.time_limit,
        )
        assert bare.outcome == cold.outcome
        assert bare.num_steps == cold.num_steps
        assert len(bare.attempts) == len(cold.attempts)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])


class TestBackendInvariance:
    """Content addresses ignore the backend; payloads record the producer."""

    def test_hit_transfers_across_backends(self, fig2_dag):
        with ResultStore(":memory:") as store:
            produced = ReversiblePebblingSolver(fig2_dag, backend="dpll").solve(
                4, time_limit=60, store=store
            )
            assert produced.backend == "dpll"
            assert store.session["puts"] == 1
            served = ReversiblePebblingSolver(fig2_dag, backend="cdcl").solve(
                4, time_limit=60, store=store
            )
            assert store.session["hits"] == 1, "cross-backend request must hit"
        # The served result is the stored one — metadata names the actual
        # producer, not the requester.
        assert served.backend == "dpll"
        assert served.num_steps == produced.num_steps

    def test_warm_start_transfers_across_backends(self, fig2_dag):
        with ResultStore(":memory:") as store:
            ReversiblePebblingSolver(fig2_dag, backend="dpll").solve(
                5, time_limit=60, store=store
            )
            warm = store.warm_start(
                fig2_dag, budget=4, options=EncodingOptions()
            )
        assert warm is not None
        assert warm.step_floor is not None

    def test_core_schedule_addresses_differ_from_plain(self, fig2_dag):
        # Core-guided schedules change the attempt sequence, so they cache
        # under their own signature — but stay backend-invariant.
        from repro.pebbling.search import GeometricRefine

        with ResultStore(":memory:") as store:
            _solve(fig2_dag, 4, store=store, schedule=GeometricRefine())
            assert store.stats().entries == 1
            _solve(
                fig2_dag, 4, store=store, schedule=GeometricRefine(core_guided=True)
            )
            assert store.stats().entries == 2
