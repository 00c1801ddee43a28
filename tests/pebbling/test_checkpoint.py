"""Tests for anytime answers: search checkpoints and result partials.

Every search cursor must be able to report a sound checkpoint — the next
bound it would try, the bounds refuted so far, any known-SAT witness bound
— and :class:`PebblingResult` must carry that snapshot in its ``partial``
field exactly when the search did not run to completion.
"""

from __future__ import annotations

import pytest

from repro.pebbling.solver import (
    PebblingOutcome,
    PebblingResult,
    ReversiblePebblingSolver,
)


CHECKPOINT_KEYS = {"next_bound", "refuted_through", "known_sat"}


class TestResultPartials:
    def test_complete_result_has_no_partial(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        assert result.complete
        assert result.partial is None

    def test_infeasible_result_has_no_partial(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(1, time_limit=60)
        assert result.outcome is PebblingOutcome.INFEASIBLE
        assert result.partial is None

    @pytest.mark.parametrize("schedule", ["linear", "geometric", "geometric-refine"])
    def test_timeout_carries_a_checkpoint(self, and9_dag, schedule):
        # A per-call conflict budget stops the search part-way on any
        # engine and any host; a short time limit would not stop the C core.
        result = ReversiblePebblingSolver(and9_dag, conflict_limit=20).solve(
            4, strategy=schedule, time_limit=60
        )
        assert result.outcome is PebblingOutcome.TIMEOUT
        assert result.partial is not None
        assert set(result.partial) == {"checkpoint", "best_steps", "sat_calls"}
        checkpoint = result.partial["checkpoint"]
        assert set(checkpoint) == CHECKPOINT_KEYS
        assert checkpoint["next_bound"] >= 1
        assert result.partial["sat_calls"] == len(result.attempts)

    def test_refuted_bounds_are_sound(self, and9_dag):
        # and9 with 4 pebbles is infeasible: every refuted bound the
        # checkpoint claims must be below the bound the search would try
        # next, and no SAT witness may be reported.  A per-call conflict
        # budget stops the sweep part-way on any engine and any host (the
        # C core finishes the whole sweep inside a 0.3 s time limit).
        result = ReversiblePebblingSolver(and9_dag, conflict_limit=20).solve(
            4, strategy="linear", time_limit=60
        )
        assert result.outcome is PebblingOutcome.TIMEOUT
        checkpoint = result.partial["checkpoint"]
        refuted = checkpoint["refuted_through"]
        if refuted is not None:
            assert refuted < checkpoint["next_bound"]
        assert checkpoint["known_sat"] is None

    def test_feasible_timeout_reports_best_steps(self, and9_dag):
        # A budget that *is* feasible but times out mid-refinement still
        # checkpoints; best_steps mirrors the best witness found (None if
        # the timeout hit before any SAT answer).
        result = ReversiblePebblingSolver(and9_dag).solve(
            5, strategy="geometric-refine", time_limit=0.0
        )
        assert result.outcome is PebblingOutcome.TIMEOUT
        assert result.partial["best_steps"] == result.num_steps


class TestPartialSerialisation:
    def test_schema_version_is_3(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        assert result.to_json()["schema"] == 3

    def test_partial_round_trips_through_json(self, and9_dag):
        result = ReversiblePebblingSolver(and9_dag, conflict_limit=20).solve(
            4, strategy="linear", time_limit=60
        )
        assert result.partial is not None
        restored = PebblingResult.from_json(result.to_json(), and9_dag)
        assert restored.partial == result.partial
        assert restored.complete is False

    def test_missing_partial_defaults_to_none(self, fig2_dag):
        result = ReversiblePebblingSolver(fig2_dag).solve(4, time_limit=60)
        data = result.to_json()
        del data["partial"]  # a schema-2 payload
        restored = PebblingResult.from_json(data, fig2_dag)
        assert restored.partial is None
