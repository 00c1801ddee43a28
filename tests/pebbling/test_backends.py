"""Backend threading through the pebbling engine.

Verdict/step parity across the default engine (the C core when it loads),
the Python engine, DPLL and the stub-external backend on small instances,
producer metadata on results, and the fail-fast validation that replaced
the silent solver-factory fallback.
"""

from __future__ import annotations

import pytest

from repro.errors import PebblingError, SolverError
from repro.pebbling import EncodingOptions, PebblingOutcome, ReversiblePebblingSolver
from repro.pebbling.search import GeometricRefine, LinearSearch
from repro.pebbling.solver import pebble_dag
from repro.sat.backend import resolve_backend
from repro.workloads import load_workload
from tests.external_stub_solver import stub_backend_spec

STUB_SPEC = stub_backend_spec()

ALL_BACKENDS = ["cdcl", "cdcl:native=0", "dpll", STUB_SPEC]


class TestBackendSelection:
    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(SolverError, match="registered backends"):
            ReversiblePebblingSolver(load_workload("fig2"), backend="bogus")

    def test_unavailable_backend_fails_at_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAT_EXTERNAL", raising=False)
        with pytest.raises(SolverError, match="not usable on this host"):
            ReversiblePebblingSolver(load_workload("fig2"), backend="external")

    def test_the_solver_alone_names_the_backend(self):
        solver = ReversiblePebblingSolver(load_workload("fig2"), backend="cdcl")
        assert solver.backend == resolve_backend("cdcl")
        with pytest.raises(TypeError, match="backend"):
            EncodingOptions(backend="dpll")  # type: ignore[call-arg]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBackendParity:
    def test_fig2_feasible_budget(self, backend):
        result = ReversiblePebblingSolver(
            load_workload("fig2"), backend=backend
        ).solve(4, time_limit=120)
        assert result.outcome is PebblingOutcome.SOLUTION
        assert result.num_steps == 6
        assert result.backend == resolve_backend(backend)

    def test_fig2_structurally_infeasible_budget(self, backend):
        result = ReversiblePebblingSolver(
            load_workload("fig2"), backend=backend
        ).solve(2, time_limit=120)
        assert result.outcome is PebblingOutcome.INFEASIBLE
        assert result.complete

    def test_fig2_unsat_sweep_hits_step_limit(self, backend):
        # Budget 3 is infeasible but above the structural bound, so every
        # probed bound answers UNSAT until the step guard cuts the sweep.
        # (The guard sits at 5: exhaustive DPLL UNSAT proofs blow up
        # exponentially a couple of frames later.)
        result = ReversiblePebblingSolver(
            load_workload("fig2"), backend=backend
        ).solve(3, time_limit=120, max_steps=5)
        assert result.outcome is PebblingOutcome.STEP_LIMIT
        assert result.complete

    def test_monolithic_mode(self, backend):
        result = ReversiblePebblingSolver(
            load_workload("fig2"), backend=backend, incremental=False
        ).solve(4, time_limit=120)
        assert result.num_steps == 6

    def test_strategy_is_legal(self, backend):
        # PebblingStrategy validates legality at construction; reaching a
        # strategy object at all means the model decoded into legal moves.
        result = ReversiblePebblingSolver(
            load_workload("fig2"), backend=backend
        ).solve(4, time_limit=120)
        assert result.strategy is not None
        assert result.strategy.max_pebbles <= 4


def _fig2_p4(backend, calls):
    """fig2 at 4 pebbles on ``backend``; ``calls`` collects each call's stats."""
    result = ReversiblePebblingSolver(load_workload("fig2"), backend=backend).solve(
        4, time_limit=120
    )
    assert len(calls) == len(result.attempts) > 1
    return result


class TestAttemptCounters:
    """Each engine reports what it tracks, summed over the search's calls."""

    def test_dpll_reports_only_tracked_counters(self, call_stats):
        result = _fig2_p4("dpll", call_stats)
        assert set(result.counters) == {"decisions", "propagations", "solve_time"}
        assert result.counters["decisions"] == sum(stats.decisions for stats in call_stats)
        assert result.counters["propagations"] == sum(
            stats.propagations for stats in call_stats
        )
        assert result.counters["solve_time"] == pytest.approx(
            sum(stats.solve_time for stats in call_stats)
        )

    def test_external_reports_only_solve_time(self, call_stats):
        result = _fig2_p4(STUB_SPEC, call_stats)
        assert set(result.counters) == {"solve_time"}
        assert result.counters["solve_time"] == pytest.approx(
            sum(stats.solve_time for stats in call_stats)
        )

    def test_cdcl_reports_full_counter_set(self, call_stats):
        result = _fig2_p4("cdcl:native=0", call_stats)
        assert "blocker_hits" in result.counters
        for name in ("conflicts", "propagations", "blocker_hits", "lbd_sum"):
            assert result.counters[name] == sum(
                getattr(stats, name) for stats in call_stats
            )
        assert result.counters["max_decision_level"] == max(
            stats.max_decision_level for stats in call_stats
        )


class TestBackendMetadata:
    def test_result_json_round_trips_backend(self):
        dag = load_workload("fig2")
        result = ReversiblePebblingSolver(dag, backend="dpll").solve(
            4, time_limit=120
        )
        from repro.pebbling.solver import PebblingResult

        clone = PebblingResult.from_json(result.to_json(), dag)
        assert clone.backend == "dpll"
        assert clone.num_steps == result.num_steps

    def test_summary_names_backend(self):
        result = pebble_dag(load_workload("fig2"), 4, backend="dpll", time_limit=120)
        assert result.summary()["backend"] == "dpll"


class TestCoreGuidedSearch:
    def test_core_refine_matches_plain_refine(self):
        for workload, budget in [("fig2", 4), ("c17", 4), ("and9", 5)]:
            dag = load_workload(workload)
            plain = ReversiblePebblingSolver(dag).solve(
                budget, strategy=GeometricRefine(), time_limit=120
            )
            core = ReversiblePebblingSolver(dag).solve(
                budget, strategy=GeometricRefine(core_guided=True), time_limit=120
            )
            assert core.outcome == plain.outcome
            assert core.num_steps == plain.num_steps
            assert core.minimal == plain.minimal
            assert len(core.attempts) <= len(plain.attempts)

    def test_core_refine_saves_calls_somewhere(self):
        # The acceptance case: strictly fewer SAT calls on c17 with budget 4.
        dag = load_workload("c17")
        plain = ReversiblePebblingSolver(dag).solve(
            4, strategy=GeometricRefine(), time_limit=120
        )
        core = ReversiblePebblingSolver(dag).solve(
            4, strategy=GeometricRefine(core_guided=True), time_limit=120
        )
        assert core.num_steps == plain.num_steps
        assert len(core.attempts) < len(plain.attempts)

    def test_linear_core_matches_linear(self):
        for workload, budget in [("fig2", 4), ("c17", 4)]:
            dag = load_workload(workload)
            linear = ReversiblePebblingSolver(dag).solve(
                budget, strategy="linear", time_limit=120
            )
            fast = ReversiblePebblingSolver(dag).solve(
                budget, strategy="linear-core", time_limit=120
            )
            assert fast.num_steps == linear.num_steps
            assert fast.minimal == linear.minimal
            assert len(fast.attempts) <= len(linear.attempts)

    def test_core_guided_works_on_every_backend(self):
        # External backends degrade to the trivial core; verdicts must hold.
        for backend in ALL_BACKENDS:
            result = ReversiblePebblingSolver(
                load_workload("fig2"), backend=backend
            ).solve(4, strategy="core-refine", time_limit=120)
            assert result.num_steps == 6
            assert result.minimal

    def test_core_schedules_rejected_without_idle_steps(self):
        dag = load_workload("fig2")
        options = EncodingOptions(forbid_idle_steps=True)
        for strategy in ("core-refine", LinearSearch(core_lookahead=2)):
            with pytest.raises(PebblingError, match="idle steps"):
                ReversiblePebblingSolver(dag, options=options).solve(
                    4, strategy=strategy, time_limit=10
                )

    def test_core_refine_unsat_sweep_stops_at_ceiling(self):
        # An UNSAT-at-ceiling answer must end the search conclusively,
        # core ladder or not.
        result = ReversiblePebblingSolver(load_workload("c17")).solve(
            3, strategy="core-refine", time_limit=120, max_steps=10
        )
        assert result.outcome is PebblingOutcome.STEP_LIMIT
        assert result.complete

    def test_weighted_core_refine(self):
        dag = load_workload("fig2")
        options = EncodingOptions(weighted=True)
        plain = ReversiblePebblingSolver(dag, options=options).solve(
            4, strategy="geometric-refine", time_limit=120
        )
        core = ReversiblePebblingSolver(dag, options=options).solve(
            4, strategy="core-refine", time_limit=120
        )
        assert core.num_steps == plain.num_steps
