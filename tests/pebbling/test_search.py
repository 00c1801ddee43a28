"""Tests for the pluggable step-bound search strategies."""

import pytest

from repro.errors import PebblingError
from repro.pebbling import (
    EncodingOptions,
    PebblingOutcome,
    GeometricRefine,
    GeometricSearch,
    LinearSearch,
    ReversiblePebblingSolver,
    minimize_pebbles,
    pebble_dag,
    strategy_from_name,
)
from repro.pebbling.search import resolve_search_strategy


def _drive(cursor, oracle):
    """Run a cursor against a ``bound -> bool`` oracle; return the queries."""
    queries = []
    bound = cursor.bound
    for _ in range(100):
        queries.append(bound)
        bound = cursor.advance(oracle(bound))
        if bound is None:
            return queries
    raise AssertionError("cursor did not terminate")


class TestCursors:
    def test_linear_cursor_sequence(self):
        cursor = LinearSearch(step_increment=2).start(3, 3)
        assert _drive(cursor, lambda bound: bound >= 9) == [3, 5, 7, 9]

    def test_geometric_cursor_sequence(self):
        cursor = GeometricSearch(factor=1.5).start(4, 4)
        assert _drive(cursor, lambda bound: bound >= 13) == [4, 6, 9, 13]

    def test_geometric_refine_finds_exact_minimum(self):
        # Minimal K is 10; the cursor must overshoot then close the bracket.
        cursor = GeometricRefine(factor=1.5).start(3, 3)
        queries = _drive(cursor, lambda bound: bound >= 10)
        assert queries[-1] != 10 or queries.count(10) >= 1
        sat_queries = [bound for bound in queries if bound >= 10]
        assert min(sat_queries) == 10  # the minimum was certified SAT
        unsat_nine = [bound for bound in queries if bound == 9]
        assert unsat_nine or 9 < min(queries)  # ... and 9 certified UNSAT

    @pytest.mark.parametrize("minimum", [1, 2, 5, 17, 40])
    @pytest.mark.parametrize("initial", [1, 3, 10])
    def test_geometric_refine_always_certifies_minimum(self, minimum, initial):
        cursor = GeometricRefine().start(initial, min(initial, 1))
        queries = _drive(cursor, lambda bound: bound >= minimum)
        if initial <= minimum:
            assert minimum in queries
            if minimum > 1 and initial < minimum:
                assert minimum - 1 in queries
        else:
            # Started above the minimum: refine down to the floor bracket.
            assert min(bound for bound in queries if bound >= minimum) == minimum

    def test_geometric_refine_uses_fewer_queries_than_linear(self):
        linear = _drive(LinearSearch().start(3, 3), lambda bound: bound >= 40)
        refine = _drive(GeometricRefine().start(3, 3), lambda bound: bound >= 40)
        assert len(refine) < len(linear)


class TestValidation:
    def test_linear_increment_validated(self):
        with pytest.raises(PebblingError):
            LinearSearch(step_increment=0)

    @pytest.mark.parametrize("factory", [GeometricSearch, GeometricRefine])
    def test_geometric_factor_validated(self, factory):
        with pytest.raises(PebblingError):
            factory(factor=1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(PebblingError):
            strategy_from_name("sideways")

    def test_step_increment_rejected_for_non_linear_names(self):
        with pytest.raises(PebblingError):
            strategy_from_name("geometric", step_increment=2)
        with pytest.raises(PebblingError):
            strategy_from_name("geometric-refine", step_increment=3)

    def test_resolve_defaults_to_linear(self):
        strategy = resolve_search_strategy(None)
        assert isinstance(strategy, LinearSearch)
        assert strategy.step_increment == 1


class TestSolverIntegration:
    @pytest.mark.parametrize("incremental", [True, False])
    def test_refine_matches_linear_minimum(self, fig2_dag, incremental):
        linear = ReversiblePebblingSolver(fig2_dag, incremental=incremental).solve(
            4, time_limit=60
        )
        refine = ReversiblePebblingSolver(fig2_dag, incremental=incremental).solve(
            4, time_limit=60, strategy="geometric-refine"
        )
        assert linear.found and refine.found
        assert refine.num_steps == linear.num_steps
        assert refine.strategy.max_pebbles <= 4

    def test_refine_matches_linear_on_and9(self, and9_dag):
        linear = pebble_dag(and9_dag, 5, time_limit=60)
        refine = pebble_dag(and9_dag, 5, time_limit=60, strategy=GeometricRefine())
        assert linear.found and refine.found
        assert refine.num_steps == linear.num_steps
        assert len(refine.attempts) <= len(linear.attempts)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_refine_rejected_with_forbidden_idle_steps(self, fig2_dag, incremental):
        # Forbidding idle steps makes step-satisfiability non-monotone in K
        # (e.g. single-move strategies fix the parity of K), which breaks
        # the bracket refinement's soundness — the combination must raise.
        options = EncodingOptions(max_moves_per_step=1, forbid_idle_steps=True)
        solver = ReversiblePebblingSolver(
            fig2_dag, options=options, incremental=incremental
        )
        with pytest.raises(PebblingError, match="geometric-refine"):
            solver.solve(6, time_limit=120, strategy="geometric-refine")
        # The linear schedule still certifies the single-move minimum.
        linear = solver.solve(6, time_limit=120)
        assert linear.found and linear.num_steps == 10

    def test_refine_growth_clamped_to_max_steps(self, fig2_dag):
        # Minimal K is 6; geometric growth from 4 would probe 4, 6, ... so a
        # budget of exactly 6 must not be jumped over, and a budget of 5
        # must be *proved* infeasible by the UNSAT answer at the ceiling.
        found = pebble_dag(
            fig2_dag, 4, time_limit=60, strategy="geometric-refine",
            initial_steps=3, max_steps=6,
        )
        assert found.found and found.num_steps == 6 and found.complete
        exhausted = pebble_dag(
            fig2_dag, 4, time_limit=60, strategy="geometric-refine",
            initial_steps=3, max_steps=5,
        )
        assert exhausted.outcome is PebblingOutcome.STEP_LIMIT
        assert exhausted.complete

    def test_complete_flag_reflects_time_cut(self, fig2_dag):
        full = pebble_dag(fig2_dag, 4, time_limit=60)
        assert full.found and full.complete
        assert full.summary()["complete"] is True
        cut = pebble_dag(fig2_dag, 3, max_steps=40, time_limit=0.0)
        assert cut.outcome is PebblingOutcome.TIMEOUT
        assert not cut.complete

    def test_infeasible_budget_is_complete(self, fig2_dag):
        result = pebble_dag(fig2_dag, 1)
        assert result.outcome is PebblingOutcome.INFEASIBLE
        assert result.complete

    def test_refine_certifies_minimum_from_overshot_hint(self, fig2_dag):
        # A warm-start hint above the true minimum: linear stops at the hint,
        # refine searches back down below it.
        refine = pebble_dag(
            fig2_dag, 4, time_limit=60, strategy="geometric-refine", initial_steps=9
        )
        assert refine.found
        assert refine.num_steps == 6

    def test_minimize_pebbles_accepts_strategy_objects(self, fig2_dag):
        best, _ = minimize_pebbles(
            fig2_dag, timeout_per_budget=30, strategy=GeometricRefine()
        )
        assert best is not None
        assert best.strategy.max_pebbles == 4

    def test_strategies_are_reusable_across_searches(self, fig2_dag):
        strategy = GeometricRefine()
        first = pebble_dag(fig2_dag, 4, time_limit=30, strategy=strategy)
        second = pebble_dag(fig2_dag, 4, time_limit=30, strategy=strategy)
        assert first.num_steps == second.num_steps == 6


def _drive_core(cursor, oracle, minimum):
    """Drive a core-aware cursor; the oracle refutes the whole ladder.

    ``oracle`` is the plain ``bound -> bool`` SAT oracle; on UNSAT the
    strongest refuted ladder bound below ``minimum`` is reported, which is
    exactly what a perfect failed-assumption core would certify.
    """
    queries = []
    bound = cursor.bound
    for _ in range(100):
        queries.append(bound)
        ladder = cursor.ladder()
        assert ladder[0] == bound
        assert ladder == sorted(ladder)
        if oracle(bound):
            bound = cursor.advance_core(True)
        else:
            refuted = max(step for step in ladder if step < minimum)
            bound = cursor.advance_core(False, refuted)
        if bound is None:
            return queries
    raise AssertionError("cursor did not terminate")


class TestCoreAwareCursors:
    def test_plain_cursors_expose_single_bound_ladder(self):
        assert LinearSearch().start(3, 3).ladder() == [3]
        assert GeometricRefine().start(3, 3).ladder() == [3]

    def test_linear_core_ladder_and_fast_forward(self):
        cursor = LinearSearch(core_lookahead=3).start(2, 2)
        assert cursor.ladder() == [2, 3, 4, 5]
        # The core refutes up to bound 4: the next probe skips 3 and 4.
        assert cursor.advance_core(False, 4) == 5
        assert cursor.advance_core(True) is None

    def test_linear_core_ladder_clamped_to_ceiling(self):
        cursor = LinearSearch(core_lookahead=10).start(2, 2, 5)
        assert cursor.ladder() == [2, 3, 4, 5]

    def test_linear_core_finds_same_minimum(self):
        for minimum in (1, 4, 9, 23):
            plain = _drive(LinearSearch().start(1, 1), lambda b: b >= minimum)
            fast = _drive_core(
                LinearSearch(core_lookahead=4).start(1, 1),
                lambda b: b >= minimum,
                minimum,
            )
            assert plain[-1] == fast[-1] == minimum
            assert len(fast) <= len(plain)

    def test_core_refine_ladder_spans_bracket(self):
        cursor = GeometricRefine(core_guided=True, core_lookahead=2).start(3, 3)
        assert cursor.ladder() == [3, 4, 5]  # overshoot: lookahead-wide
        cursor.advance_core(True)  # SAT at 3 -> bracket [3, 3) closed
        cursor2 = GeometricRefine(core_guided=True).start(4, 2)
        bound = cursor2.advance_core(True)  # SAT at 4: refine [2, 4)
        assert bound == 3
        assert cursor2.ladder() == [3]  # bracket interior only

    def test_core_refine_bracket_tightens_from_core(self):
        # Minimum is 9.  Overshoot 3 -> 6 (core refutes through 5) -> 9 SAT;
        # the bracket is then [6+1?..] — core said 5, so lo = 6... probe 7, 8.
        cursor = GeometricRefine(core_guided=True, core_lookahead=4).start(3, 3)
        queries = _drive_core(cursor, lambda b: b >= 9, 9)
        plain = _drive(GeometricRefine().start(3, 3), lambda b: b >= 9)
        assert queries[-1] == plain[-1] == 9 or 9 in queries
        assert min(q for q in queries if q >= 9) == 9
        assert len(queries) <= len(plain)

    @pytest.mark.parametrize("minimum", [1, 2, 5, 17, 40])
    @pytest.mark.parametrize("initial", [1, 3, 10])
    def test_core_refine_always_certifies_minimum(self, minimum, initial):
        cursor = GeometricRefine(core_guided=True).start(initial, min(initial, 1))
        queries = _drive_core(cursor, lambda b: b >= minimum, minimum)
        if initial <= minimum:
            assert minimum in queries
        assert min(q for q in queries if q >= minimum) == minimum

    def test_core_refine_ceiling_cut(self):
        cursor = GeometricRefine(core_guided=True).start(3, 3, 6)
        assert cursor.ladder() == [3, 4, 5, 6]
        assert cursor.advance_core(False, 6) is None  # core refuted the ceiling


class TestCoreStrategyConfiguration:
    def test_named_core_schedules_resolve(self):
        fast = strategy_from_name("linear-core")
        assert isinstance(fast, LinearSearch) and fast.core_lookahead > 0
        refine = strategy_from_name("core-refine")
        assert isinstance(refine, GeometricRefine) and refine.core_guided

    def test_signatures_distinguish_core_variants(self):
        assert LinearSearch().signature != LinearSearch(core_lookahead=4).signature
        assert (
            GeometricRefine().signature
            != GeometricRefine(core_guided=True).signature
        )

    def test_core_variants_certify_minimality(self):
        assert strategy_from_name("linear-core").certifies_minimality
        assert strategy_from_name("core-refine").certifies_minimality

    def test_monotonicity_requirements(self):
        assert not LinearSearch().needs_monotone_steps
        assert LinearSearch(core_lookahead=1).needs_monotone_steps
        assert GeometricRefine().needs_monotone_steps
        assert strategy_from_name("core-refine").needs_monotone_steps

    def test_negative_lookahead_rejected(self):
        with pytest.raises(PebblingError):
            LinearSearch(core_lookahead=-1)
        with pytest.raises(PebblingError):
            GeometricRefine(core_lookahead=-2)

    def test_linear_core_accepts_step_increment(self):
        strategy = strategy_from_name("linear-core", step_increment=2)
        assert strategy.step_increment == 2
        assert not strategy.certifies_minimality
