"""Tests for the SAT-driven reversible pebbling solver."""

import time

import pytest

from repro.errors import PebblingError
from repro.dag import Dag, linear_chain
from repro.sat import backend as backend_registry
from repro.sat.solver import CdclSolver, SolveResult, Status
from repro.pebbling import (
    EncodingOptions,
    PebblingEncoder,
    PebblingOutcome,
    ReversiblePebblingSolver,
    bennett_strategy,
    minimize_pebbles,
    pebble_dag,
)
from repro.pebbling import solver as solver_module
from repro.pebbling.search import strategy_from_name
from repro.pebbling.solver import completeness_threshold
from repro.workloads import load_workload


def assert_calls_add_up(per_call, totals):
    """Per-call ``SolveResult.stats`` dicts add up to an engine's totals.

    ``max_decision_level`` is the highest of any call; every other
    counter, seconds included, is the sum.
    """
    assert per_call and {"conflicts", "solve_time"} <= set(totals)
    for name, total in totals.items():
        values = [stats[name] for stats in per_call]
        if name == "max_decision_level":
            assert total == max(values), name
        else:
            assert total == pytest.approx(sum(values)), name


class TestProblemOne:
    def test_fig2_with_four_pebbles(self, fig2_dag):
        result = pebble_dag(fig2_dag, 4, time_limit=60)
        assert result.found
        assert result.outcome is PebblingOutcome.SOLUTION
        assert result.strategy.max_pebbles <= 4
        # The paper's example needs recomputation below 5 pebbles.
        assert result.num_moves > bennett_strategy(fig2_dag).num_moves

    def test_fig2_with_enough_pebbles_matches_bennett_moves(self, fig2_dag):
        result = pebble_dag(fig2_dag, 6, time_limit=60)
        assert result.found
        assert result.num_moves == bennett_strategy(fig2_dag).num_moves

    def test_single_move_mode_reproduces_fig4_step_count(self, fig2_dag):
        options = EncodingOptions(max_moves_per_step=1)
        result = pebble_dag(fig2_dag, 6, options=options, time_limit=120)
        assert result.found
        # Fig. 4 (left): the Bennett strategy needs 10 single-move steps, and
        # that is also the minimum.
        assert result.num_steps == 10

    def test_single_move_mode_with_four_pebbles(self, fig2_dag):
        options = EncodingOptions(max_moves_per_step=1)
        result = pebble_dag(fig2_dag, 4, options=options, time_limit=120)
        assert result.found
        assert result.strategy.max_pebbles <= 4
        # The paper's Fig. 4 (right) example uses 14 steps; the solver may do
        # better but can never beat the Bennett lower bound of 10.
        assert 10 <= result.num_steps <= 14

    def test_and9_with_seven_pebbles_matches_fig6(self, and9_dag):
        result = pebble_dag(and9_dag, 7, time_limit=120)
        assert result.found
        # Fig. 6(c): 16 qubits = 9 inputs + 7 ancillae, 23 gates.
        assert result.strategy.max_pebbles <= 7
        assert result.num_moves <= 23

    def test_infeasible_budget_detected_without_sat_call(self, fig2_dag):
        result = pebble_dag(fig2_dag, 1)
        assert result.outcome is PebblingOutcome.INFEASIBLE
        assert result.attempts == []

    def test_impossible_budget_hits_step_limit(self, fig2_dag):
        # Three pebbles satisfy the structural lower bound but no strategy
        # exists; the solver must exhaust its step budget and say so.
        result = pebble_dag(fig2_dag, 3, max_steps=12, time_limit=60)
        assert result.outcome is PebblingOutcome.STEP_LIMIT
        assert not result.found

    def test_timeout_is_respected(self):
        dag = linear_chain(30, name="slow_chain")
        result = pebble_dag(dag, 4, time_limit=0.2)
        assert result.outcome in (PebblingOutcome.TIMEOUT, PebblingOutcome.STEP_LIMIT,
                                  PebblingOutcome.SOLUTION)
        assert result.runtime < 10

    def test_attempt_records_are_kept(self, fig2_dag):
        result = pebble_dag(fig2_dag, 4, time_limit=60)
        assert result.attempts and result.max_pebbles == 4
        # One record per SAT call of this budget's search, in call order:
        # each probed one bound under one guard, within the search's time.
        starts = [record.at for record in result.attempts]
        assert starts == sorted(starts) and starts[0] >= 0
        for record in result.attempts:
            assert record.ladder == 1 and record.core_size is None
            assert 0 <= record.at + record.runtime <= result.runtime
        # The last attempt is the satisfiable one.
        assert result.attempts[-1].status.value == "sat"

    def test_summary_fields(self, fig2_dag):
        summary = pebble_dag(fig2_dag, 4, time_limit=60).summary()
        assert summary["dag"] == fig2_dag.name
        assert summary["max_pebbles"] == 4
        assert summary["outcome"] == "solution"
        assert summary["moves"] >= 10

    def test_invalid_arguments_rejected(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        with pytest.raises(PebblingError):
            solver.solve(0)
        with pytest.raises(PebblingError):
            solver.solve(4, strategy=strategy_from_name("linear", step_increment=0))
        with pytest.raises(PebblingError, match="strategy must be one of"):
            solver.solve(4, strategy="sideways")

    def test_geometric_schedule_finds_solutions(self, fig2_dag):
        result = pebble_dag(fig2_dag, 4, time_limit=60, strategy="geometric")
        assert result.found
        assert result.strategy.max_pebbles <= 4

    def test_geometric_schedule_uses_fewer_sat_calls(self, and9_dag):
        linear = pebble_dag(and9_dag, 7, time_limit=60)
        geometric = pebble_dag(and9_dag, 7, time_limit=60, strategy="geometric")
        assert linear.found and geometric.found
        assert len(geometric.attempts) <= len(linear.attempts)

    def test_non_incremental_agrees_with_incremental(self, fig2_dag):
        incremental = ReversiblePebblingSolver(fig2_dag, incremental=True).solve(
            4, time_limit=60
        )
        monolithic = ReversiblePebblingSolver(fig2_dag, incremental=False).solve(
            4, time_limit=60
        )
        assert incremental.found and monolithic.found
        assert incremental.strategy.max_pebbles <= 4
        assert monolithic.strategy.max_pebbles <= 4
        assert incremental.num_steps == monolithic.num_steps


class TestSolverInjection:
    def test_registered_backend_drives_a_search(self, fig2_dag, monkeypatch):
        # A private registry copy: the registration disappears with the test.
        monkeypatch.setattr(
            backend_registry, "_REGISTRY", dict(backend_registry._REGISTRY)
        )
        created = []

        def factory(argument, conflict_limit):
            solver = CdclSolver(conflict_limit=conflict_limit)
            created.append((argument, solver))
            return solver

        backend_registry.register_backend("recording", factory)
        solver = ReversiblePebblingSolver(fig2_dag, backend="recording:tag")
        result = solver.solve(4, time_limit=30)
        assert result.found and result.backend == "recording:tag"
        # One live engine per search, built from the spec's argument, and
        # every attempt answered by it: the search's counters are its own.
        assert [argument for argument, _ in created] == ["tag"]
        (_, engine), = created
        assert result.counters == engine.counters()
        assert result.counters["conflicts"] == sum(a.conflicts for a in result.attempts)

    def test_deadline_covers_encoding_time(self, fig2_dag, monkeypatch):
        # Every bound's encoding takes SLOW seconds; the SAT call that
        # follows may only get what is left of the limit after it.
        limit, slow, slack = 0.6, 0.1, 0.03
        monkeypatch.setattr(
            backend_registry, "_REGISTRY", dict(backend_registry._REGISTRY)
        )
        calls = []

        class Recording(CdclSolver):
            def solve(self, assumptions=(), *, time_limit=None, **kwargs):
                calls.append((time_limit, time.monotonic()))
                return super().solve(assumptions, time_limit=time_limit, **kwargs)

        backend_registry.register_backend(
            "deadline", lambda argument, conflict_limit: Recording(
                conflict_limit=conflict_limit
            )
        )
        extend_to = PebblingEncoder.extend_to

        def slow_extend_to(self, num_steps):
            time.sleep(slow)
            extend_to(self, num_steps)

        monkeypatch.setattr(PebblingEncoder, "extend_to", slow_extend_to)
        started = time.monotonic()
        result = ReversiblePebblingSolver(fig2_dag, backend="deadline").solve(
            3, time_limit=limit
        )
        assert result.outcome is PebblingOutcome.TIMEOUT  # an all-UNSAT sweep
        assert calls
        for time_limit, called in calls:
            assert time_limit <= limit - (called - started) + slack

    @pytest.mark.parametrize("incremental", [True, False])
    def test_a_solve_builds_one_encoder(self, fig2_dag, monkeypatch, incremental):
        # Each oracle builds the encoder it reads; the solver builds none.
        built = []

        class Counted(PebblingEncoder):
            def __init__(self, *args, **kwargs):
                built.append(incremental)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(solver_module, "PebblingEncoder", Counted)
        result = ReversiblePebblingSolver(fig2_dag, incremental=incremental).solve(
            4, time_limit=30
        )
        assert result.found
        assert built == [incremental]

    @pytest.mark.parametrize("engine", ["cdcl", "cdcl:native=0"])
    @pytest.mark.parametrize("incremental", [True, False])
    def test_the_counters_add_up_the_calls(
        self, fig2_dag, call_stats, engine, incremental
    ):
        result = ReversiblePebblingSolver(
            fig2_dag, backend=engine, incremental=incremental
        ).solve(3, time_limit=30)
        assert len(call_stats) == len(result.attempts) > 10
        assert [stats.conflicts for stats in call_stats] == [
            record.conflicts for record in result.attempts
        ]
        assert_calls_add_up([stats.as_dict() for stats in call_stats], result.counters)
        assert result.counters["propagations"] > 0

    def test_incremental_sweep_disables_stale_guards(self, fig2_dag):
        # An all-UNSAT sweep asserts -guard after every bound; the solver
        # must stay sound and report the same outcome as re-encoding from
        # scratch each time.
        incremental = ReversiblePebblingSolver(fig2_dag, incremental=True).solve(
            3, max_steps=20, time_limit=60
        )
        monolithic = ReversiblePebblingSolver(fig2_dag, incremental=False).solve(
            3, max_steps=20, time_limit=60
        )
        assert incremental.outcome == monolithic.outcome
        assert [record.status for record in incremental.attempts] == \
            [record.status for record in monolithic.attempts]


class TestBounds:
    def test_minimum_pebbles_lower_bound(self, fig2_dag, and9_dag):
        assert ReversiblePebblingSolver(fig2_dag).minimum_pebbles_lower_bound() >= 3
        assert ReversiblePebblingSolver(and9_dag).minimum_pebbles_lower_bound() >= 3

    def test_default_initial_steps_single_move(self, fig2_dag):
        solver = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(max_moves_per_step=1)
        )
        assert solver.default_initial_steps(max_pebbles=6) == 10

    def test_default_initial_steps_multi_move(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        assert solver.default_initial_steps(max_pebbles=6) == fig2_dag.depth() + 1

    def test_an_output_that_reads_only_outputs_goes_on_while_the_rest_comes_off(self):
        # n3 reads only the output n2, so it can go on in the transition
        # that clears n0 and n1: three steps, one fewer than depth + 1.
        dag = Dag("reads_outputs")
        dag.add_node("n0", [])
        dag.add_node("n1", [])
        dag.add_node("n2", ["n0", "n1"])
        dag.add_node("n3", ["n2"])
        dag.set_outputs(["n2", "n3"])
        solver = ReversiblePebblingSolver(dag)
        assert solver.default_initial_steps(max_pebbles=3) == 3
        result = solver.solve(3, strategy="linear")
        assert result.found and result.minimal
        assert result.num_steps == 3

    def test_nodes_no_output_needs_do_not_raise_the_floor(self, chain_dag):
        dag = chain_dag.copy()
        dag.add_node("spare", ["n1"])
        dag.set_outputs(["n5"])
        solver = ReversiblePebblingSolver(
            dag, options=EncodingOptions(max_moves_per_step=1)
        )
        # Only the chain is ever pebbled: each node on once, n1..n4 off once.
        assert solver.default_initial_steps(max_pebbles=5) == 2 * 5 - 1
        result = solver.solve(5, strategy="linear")
        assert result.found and result.minimal
        assert result.num_steps == 2 * 5 - 1

    def test_a_node_no_output_needs_does_not_raise_the_budget_floor(self):
        # b reads a, but only a is an output: pebbling a alone is a
        # one-pebble, one-step strategy.
        dag = Dag("spare_reader")
        dag.add_node("a", [])
        dag.add_node("b", ["a"])
        dag.set_outputs(["a"])
        solver = ReversiblePebblingSolver(dag)
        assert solver.minimum_pebbles_lower_bound() == 1
        result = solver.solve(1)
        assert result.found and result.minimal
        assert (result.num_steps, result.strategy.max_pebbles) == (1, 1)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("workload", ["fig2", "c17", "and9"])
    def test_a_spare_reading_every_node_leaves_both_floors_alone(self, workload, weighted):
        # The spare's fan-in is |V| and, weighted, it outweighs the rest;
        # no output needs it, so neither floor may move.
        dag = load_workload(workload)
        if weighted:
            for index, node in enumerate(dag.nodes()):
                dag.node(node).weight = float(1 + index % 3)
        spared = dag.copy()
        spared.set_outputs(dag.outputs())
        spared.add_node("spare", dag.nodes())
        spared.node("spare").weight = 10.0 if weighted else 1.0
        for moves in (None, 1):
            options = EncodingOptions(weighted=weighted, max_moves_per_step=moves)
            plain = ReversiblePebblingSolver(dag, options=options)
            extended = ReversiblePebblingSolver(spared, options=options)
            assert (
                extended.minimum_pebbles_lower_bound()
                == plain.minimum_pebbles_lower_bound()
            )
            assert extended.default_initial_steps(max_pebbles=8) == (
                plain.default_initial_steps(max_pebbles=8)
            )


#: ``incremental`` of the two Problem-1 oracles: one live backend across
#: all bounds, or a fresh encoding and backend per bound.
ORACLES = {"live": True, "fresh": False}


@pytest.fixture
def hooked_backend(monkeypatch):
    """Register a backend whose every ``solve`` goes through a hook.

    The backend is the Python engine; ``hook(time_limit, solve)`` decides
    what each call returns, where ``solve()`` runs the real query.  The
    registration lives in a private registry copy and ends with the test.
    ``register(hook)`` returns the spec to search with and the list of
    ``time_limit`` values the calls received.
    """
    monkeypatch.setattr(
        backend_registry, "_REGISTRY", dict(backend_registry._REGISTRY)
    )
    calls = []

    def register(hook=lambda time_limit, solve: solve()):
        class Hooked(CdclSolver):
            def solve(self, assumptions=(), *, time_limit=None, **kwargs):
                calls.append(time_limit)
                return hook(
                    time_limit,
                    lambda: CdclSolver.solve(
                        self, assumptions, time_limit=time_limit, **kwargs
                    ),
                )

        backend_registry.register_backend(
            "hooked",
            lambda argument, conflict_limit: Hooked(conflict_limit=conflict_limit),
        )
        return "hooked", calls

    return register


@pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
class TestQueryLoop:
    """Every step-bound query is one backend ``solve`` call, given whatever
    is left of the search's time limit; an unanswered call ends the
    search."""

    @pytest.mark.parametrize("schedule", ["linear", "geometric", "geometric-refine"])
    def test_every_query_is_one_solve_call(self, hooked_backend, incremental, schedule):
        backend, calls = hooked_backend()
        result = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental, backend=backend
        ).solve(4, strategy=schedule)
        assert result.found and result.complete
        assert len(calls) == len(result.attempts)
        # No time limit: every call runs until it answers.
        assert calls == [None] * len(calls)

    def test_each_query_gets_what_is_left_of_the_time_limit(
        self, hooked_backend, incremental
    ):
        backend, calls = hooked_backend()
        result = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental, backend=backend
        ).solve(4, time_limit=30)
        assert result.found and len(calls) == len(result.attempts) == 5
        assert all(0 < limit <= 30 for limit in calls)
        assert calls == sorted(calls, reverse=True)

    def test_an_unanswered_query_ends_the_search(self, hooked_backend, incremental):
        def expire_the_second_query(time_limit, solve):
            return SolveResult(Status.UNKNOWN) if len(calls) == 2 else solve()

        backend, calls = hooked_backend(expire_the_second_query)
        result = ReversiblePebblingSolver(
            load_workload("fig2"), incremental=incremental, backend=backend
        ).solve(4)
        assert result.outcome is PebblingOutcome.TIMEOUT
        assert not (result.found or result.complete or result.minimal)
        # The expired query is recorded once and never re-issued.
        assert [(a.num_steps, a.status) for a in result.attempts] == [
            (4, Status.UNSATISFIABLE),
            (5, Status.UNKNOWN),
        ]
        assert len(calls) == 2
        assert result.partial == {
            "checkpoint": {"next_bound": 5, "refuted_through": 4, "known_sat": None},
            "best_steps": None,
            "sat_calls": 2,
        }

    def test_a_witness_found_before_a_timeout_is_kept(self, hooked_backend, incremental):
        # geometric-refine overshoots to 9 steps on c17 at 4 pebbles and
        # then refines; every query after the overshoot's witness expires.
        witnessed = []

        def expire_after_the_first_witness(time_limit, solve):
            if witnessed:
                return SolveResult(Status.UNKNOWN)
            answer = solve()
            if answer.is_sat:
                witnessed.append(answer)
            return answer

        backend, calls = hooked_backend(expire_after_the_first_witness)
        result = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental, backend=backend
        ).solve(4, strategy="geometric-refine")
        assert result.outcome is PebblingOutcome.SOLUTION
        assert result.found and result.num_steps <= 9
        assert result.strategy.max_pebbles <= 4
        # Cut short in the refinement: not complete, not certified, and
        # the checkpoint still brackets the minimum in (6, 9].
        assert not result.complete and not result.minimal
        assert [(a.num_steps, a.status) for a in result.attempts] == [
            (4, Status.UNSATISFIABLE),
            (6, Status.UNSATISFIABLE),
            (9, Status.SATISFIABLE),
            (8, Status.UNKNOWN),
        ]
        assert len(calls) == 4
        assert result.partial == {
            "checkpoint": {"next_bound": 8, "refuted_through": 6, "known_sat": 9},
            "best_steps": result.num_steps,
            "sat_calls": 4,
        }


class _Recording:
    """A backend proxy that keeps every clause handed to ``add_clause``."""

    def __init__(self, inner, clauses):
        self._inner = inner
        self._clauses = clauses

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def add_clause(self, literals):
        self._clauses.append(list(literals))
        return self._inner.add_clause(literals)


class TestGuardRetirement:
    """Every refuted bound's guard goes over as one negated unit, once, in
    ascending order of its step, exactly as a scan of the sorted guards
    would hand them over."""

    class _SortedScan(solver_module._LiveOracle):
        """The retirement the heap replaced: scan every guard, sorted."""

        def __init__(self, owner, max_pebbles):
            super().__init__(owner, max_pebbles)
            self.retired = set()

        def retire(self, refuted):
            for step in sorted(self._guards):
                if step <= refuted and step not in self.retired:
                    self.backend.add_clause([-self._guards[step]])
                    self.retired.add(step)

    @staticmethod
    def _units(monkeypatch, oracle_class, workload, budget, schedule):
        oracles, clauses = [], []

        class Recorded(oracle_class):
            def __init__(self, owner, max_pebbles):
                super().__init__(owner, max_pebbles)
                self.backend = _Recording(self.backend, clauses)
                oracles.append(self)

        monkeypatch.setattr(solver_module, "_LiveOracle", Recorded)
        result = ReversiblePebblingSolver(load_workload(workload)).solve(
            budget, strategy=schedule
        )
        (oracle,) = oracles
        steps = {-guard: step for step, guard in oracle._guards.items()}
        assert all(len(clause) == 1 and clause[0] in steps for clause in clauses)
        return [steps[clause[0]] for clause in clauses], result

    @pytest.mark.parametrize("schedule", ["linear", "geometric-refine", "core-refine"])
    @pytest.mark.parametrize(("workload", "budget"), [("fig2", 3), ("c17", 4), ("and9", 5)])
    def test_each_guard_is_retired_once_in_step_order(
        self, monkeypatch, schedule, workload, budget
    ):
        retired, result = self._units(
            monkeypatch, solver_module._LiveOracle, workload, budget, schedule
        )
        assert retired and retired == sorted(set(retired))
        refuted = [a.num_steps for a in result.attempts if a.status is Status.UNSATISFIABLE]
        assert max(retired) >= max(refuted)
        if result.found:
            assert max(retired) < result.num_steps
        reference, _ = self._units(monkeypatch, self._SortedScan, workload, budget, schedule)
        assert retired == reference


class TestMinimizePebbles:
    def test_fig2_minimum_is_four(self, fig2_dag):
        best, attempts = minimize_pebbles(fig2_dag, timeout_per_budget=30)
        assert best is not None
        assert best.strategy.max_pebbles == 4
        # The scan tried at least budgets 6, 5, 4 and the failing 3.
        assert len(attempts) >= 3

    def test_and9_minimum_within_small_budget(self, and9_dag):
        solver = ReversiblePebblingSolver(and9_dag)
        best, _ = solver.minimize_pebbles(timeout_per_budget=20, lower_bound=3)
        assert best is not None
        assert best.strategy.max_pebbles <= 5
        # No budget below the Bennett peak is tried: the Bennett seed is
        # the answer, and it names the engine the solver resolved.
        seed, attempts = solver.minimize_pebbles(timeout_per_budget=20, lower_bound=8)
        assert not attempts
        assert seed.strategy.max_pebbles == 8
        assert seed.summary()["backend"] == solver.backend

    def test_upper_bound_respected(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        best, attempts = solver.minimize_pebbles(upper_bound=4, timeout_per_budget=30)
        assert best is not None
        assert best.strategy.max_pebbles <= 4
        assert all(result.max_pebbles <= 4 for result in attempts)


class TestWeightedPebbling:
    """The weighted game: budgets bound total pebbled weight, not count."""

    @staticmethod
    def _weighted(dag, weight=2.0):
        for node in dag.nodes():
            dag.node(node).weight = weight
        return dag

    def test_weight_budget_below_weighted_minimum_is_infeasible(self, fig2_dag):
        # With every node weighing 2, a weight budget of 7 admits at most 3
        # simultaneous pebbles — but fig2 needs 4, so no step bound works.
        # An unweighted budget of 7 "pebbles" would be trivially satisfiable,
        # which proves the weights actually reach the SAT encoding.
        dag = self._weighted(fig2_dag)
        unweighted = ReversiblePebblingSolver(dag)
        assert unweighted.solve(7, time_limit=60).found

        solver = ReversiblePebblingSolver(
            dag, options=EncodingOptions(weighted=True)
        )
        result = solver.solve(7, time_limit=60, max_steps=12)
        assert not result.found
        assert result.outcome is PebblingOutcome.STEP_LIMIT

    def test_weight_budget_of_twice_the_pebble_minimum_succeeds(self, fig2_dag):
        dag = self._weighted(fig2_dag)
        solver = ReversiblePebblingSolver(
            dag, options=EncodingOptions(weighted=True)
        )
        result = solver.solve(8, time_limit=60)
        assert result.found
        assert result.weighted is True
        assert result.weight_used == 8.0
        assert result.strategy.max_pebbles == 4
        assert result.num_steps == 6  # same step count as the unweighted game
        summary = result.summary()
        assert summary["weighted"] is True
        assert summary["weight_used"] == 8.0

    def test_non_uniform_weights_raise_the_budget_selectively(self, fig2_dag):
        # Only E is heavy: computing E holds C, D and E at once, so the
        # weighted game needs w(C) + w(D) + w(E) = 5 while the unweighted
        # game needs just 4 pebbles.
        fig2_dag.node("E").weight = 3.0
        solver = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(weighted=True)
        )
        assert solver.minimum_pebbles_lower_bound() == 5
        infeasible = solver.solve(4, time_limit=60)
        assert infeasible.outcome is PebblingOutcome.INFEASIBLE
        result = solver.solve(6, time_limit=60)
        assert result.found
        assert result.weight_used <= 6.0
        assert max(result.strategy.weight_profile()) <= 6.0

    def test_budget_bounds_follow_the_game(self, fig2_dag):
        # Weight 3 on A, C and D: no weight budget below 7 pebbles fig2,
        # and the eager Bennett strategy peaks at weight 12; the pebble
        # game keeps its own bounds.
        for name in ("A", "C", "D"):
            fig2_dag.node(name).weight = 3.0
        weighted = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(weighted=True)
        )
        assert weighted.budget_bounds() == (7, 12)
        assert ReversiblePebblingSolver(fig2_dag).budget_bounds() == (3, 6)

    def test_unit_weights_weighted_matches_unweighted_search(self, fig2_dag):
        weighted = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(weighted=True)
        ).solve(4, time_limit=60)
        plain = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        assert weighted.found and plain.found
        assert weighted.num_steps == plain.num_steps
        assert len(weighted.attempts) == len(plain.attempts)

    def test_fractional_weights_are_rejected(self, fig2_dag):
        fig2_dag.node("A").weight = 1.5
        with pytest.raises(PebblingError):
            ReversiblePebblingSolver(
                fig2_dag, options=EncodingOptions(weighted=True)
            ).solve(4)

    def test_weighted_minimize_scans_weight_budgets(self, fig2_dag):
        fig2_dag.node("E").weight = 3.0
        best, attempts = minimize_pebbles(
            fig2_dag,
            options=EncodingOptions(weighted=True),
            timeout_per_budget=30.0,
        )
        assert best is not None and best.strategy is not None
        # Computing E holds C + D + E = 5, but cleaning C up afterwards
        # needs A pebbled next to E, so the weighted minimum is 6.
        assert best.max_pebbles == 6
        assert best.weight_used <= 6.0
        assert all(result.weighted for result in attempts)

    def test_weighted_works_with_incremental_and_monolithic(self, fig2_dag):
        fig2_dag.node("F").weight = 2.0
        options = EncodingOptions(weighted=True)
        incremental = ReversiblePebblingSolver(
            fig2_dag, options=options, incremental=True
        ).solve(5, time_limit=60)
        monolithic = ReversiblePebblingSolver(
            fig2_dag, options=options, incremental=False
        ).solve(5, time_limit=60)
        assert incremental.found and monolithic.found
        assert incremental.num_steps == monolithic.num_steps


class TestStepFloorAndMinimality:
    def test_trusted_step_floor_skips_fruitless_bounds(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        cold = solver.solve(4, time_limit=60)
        assert cold.num_steps == 6 and len(cold.attempts) == 3
        floored = solver.solve(4, time_limit=60, step_floor=6)
        assert floored.num_steps == 6
        assert len(floored.attempts) == 1
        assert floored.minimal

    def test_loose_step_floor_is_harmless(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(
            4, time_limit=60, step_floor=2
        )
        assert result.num_steps == 6
        assert result.minimal

    def test_minimal_flag_per_schedule(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        assert solver.solve(4, time_limit=60).minimal  # linear, inc 1
        assert solver.solve(
            4, time_limit=60, strategy="geometric-refine"
        ).minimal
        # Geometric overshoot may stop above the minimum: never certified.
        assert not solver.solve(4, time_limit=60, strategy="geometric").minimal
        # A linear scan seeded above the floor only proves ">= seed".
        seeded = solver.solve(4, time_limit=60, initial_steps=8)
        assert seeded.found and not seeded.minimal
        # Unsolved searches are never minimal.
        assert not solver.solve(3, time_limit=60).minimal

    def test_linear_coarse_increment_is_not_certified(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(
            4, time_limit=60, strategy=strategy_from_name("linear", step_increment=2)
        )
        assert result.found
        assert not result.minimal


class TestCompletenessThreshold:
    """At most P of n nodes pebbled leave C = sum(binom(n, i), i <= P)
    configurations, so a shortest strategy takes at most C - 1 steps."""

    def test_threshold_counts_configurations(self):
        assert completeness_threshold(6, 3, 144) == 1 + 6 + 15 + 20 - 1
        assert completeness_threshold(8, 4, 256) == 162
        # A budget of every node (or more) allows all 2^n configurations.
        assert completeness_threshold(6, 6, 144) == 63
        assert completeness_threshold(6, 10, 144) == 63

    def test_threshold_past_the_ceiling_is_none(self):
        assert completeness_threshold(8, 4, 161) is None
        assert completeness_threshold(8, 4, 162) == 162
        # The sum stops once it passes the ceiling: this would be a
        # million-term sum of enormous binomials otherwise.
        assert completeness_threshold(10**6, 10**6, 100) is None

    def test_linear_sweep_stops_at_the_threshold(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(3, time_limit=60)
        assert result.outcome is PebblingOutcome.STEP_LIMIT and result.complete
        assert result.proved_infeasible
        assert [record.num_steps for record in result.attempts] == list(range(4, 42))

    def test_a_ceiling_below_the_threshold_proves_nothing(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(3, max_steps=40)
        assert result.outcome is PebblingOutcome.STEP_LIMIT
        assert not result.proved_infeasible
        assert result.attempts[-1].num_steps == 40

    def test_overshooting_schedules_keep_their_ceiling(self, fig2_dag):
        solver = ReversiblePebblingSolver(fig2_dag)
        for strategy in ("geometric", strategy_from_name("linear", step_increment=2)):
            result = solver.solve(3, strategy=strategy)
            assert result.outcome is PebblingOutcome.STEP_LIMIT
            assert not result.proved_infeasible
            assert result.attempts[-1].num_steps > 41

    def test_a_scan_seeded_past_the_threshold_decides_with_one_call(self, fig2_dag):
        # Idle steps allowed: a strategy, if any, pads up to the seed.
        result = ReversiblePebblingSolver(fig2_dag).solve(3, initial_steps=50)
        assert result.proved_infeasible
        assert [record.num_steps for record in result.attempts] == [50]
        found = ReversiblePebblingSolver(fig2_dag).solve(4, initial_steps=50)
        assert found.found and len(found.attempts) == 1

    def test_forbidden_idle_steps_cap_only_scans_from_the_floor(self, fig2_dag):
        solver = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(forbid_idle_steps=True)
        )
        floored = solver.solve(3)
        assert floored.proved_infeasible
        assert floored.attempts[-1].num_steps == 41
        # Seeded above the floor, the bounds below the seed stay open and
        # step-satisfiability is not monotone: no cap, no proof.
        seeded = solver.solve(3, initial_steps=10)
        assert seeded.outcome is PebblingOutcome.STEP_LIMIT
        assert not seeded.proved_infeasible
        assert seeded.attempts[-1].num_steps == 4 * 6 * 6

    def test_weight_budgets_count_at_most_w_nodes(self, fig2_dag):
        weighted = ReversiblePebblingSolver(
            fig2_dag, options=EncodingOptions(weighted=True)
        ).solve(3)
        assert weighted.proved_infeasible
        assert len(weighted.attempts) == 38

    def test_feasible_budgets_are_untouched(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4)
        assert (result.num_steps, len(result.attempts), result.minimal) == (6, 3, True)
        assert not result.proved_infeasible
