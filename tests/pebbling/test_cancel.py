"""Tests for first-winner cancellation: the token and the searches it stops.

A portfolio backend race hands every lane one :class:`CancellationToken`;
the first lane to answer raises it and the others must stop.  The solver
checks the token before every SAT query, and a query issued under a token
runs in doubling time slices so that it can be stopped mid-call.
"""

from __future__ import annotations

import pytest

from repro.errors import PebblingError
from repro.obs import metrics as obs_metrics
from repro.obs.analyze import load_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import tracer
from repro.pebbling import CancellationToken, PebblingOutcome, ReversiblePebblingSolver
from repro.pebbling.cancel import POLL_SLICE, resolve_token
from repro.pebbling.portfolio import PortfolioTask, RetryPolicy, run_portfolio
from repro.sat import backend as backend_registry
from repro.sat.solver import CdclSolver, SolveResult, Status
from repro.workloads import load_workload

#: ``incremental`` of the two Problem-1 oracles: one live backend across
#: all bounds, or a fresh encoding and backend per bound.
ORACLES = {"live": True, "fresh": False}


class TestCancellationToken:
    def test_round_trips_through_its_path(self, tmp_path):
        token = CancellationToken(str(tmp_path / "winner.cancel"))
        assert not token.cancelled()
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled()
        assert CancellationToken(token.path).cancelled()

    def test_cancel_survives_a_vanished_scratch_dir(self, tmp_path):
        token = CancellationToken(str(tmp_path / "gone" / "winner.cancel"))
        token.cancel()  # parent directory missing: no-op, no raise
        assert not token.cancelled()

    def test_resolve_token_accepts_a_token_a_path_or_nothing(self, tmp_path):
        token = CancellationToken(str(tmp_path / "winner.cancel"))
        assert resolve_token(None) is None
        assert resolve_token(token) is token
        assert resolve_token(token.path) == token


def _raised(tmp_path) -> CancellationToken:
    token = CancellationToken(str(tmp_path / "winner.cancel"))
    token.cancel()
    return token


def _trajectory(result):
    """What a search did: its verdict and every query it answered."""
    return (
        result.outcome,
        result.num_steps,
        result.minimal,
        result.complete,
        [(attempt.num_steps, attempt.status) for attempt in result.attempts],
    )


@pytest.fixture
def hooked_backend(monkeypatch):
    """Register a backend whose every ``solve`` goes through a hook.

    The backend is the Python engine; ``hook(time_limit, solve)`` decides
    what each call returns, where ``solve()`` runs the real query.  The
    registration lives in a private registry copy and ends with the test.
    A search that keeps re-issuing a query it should have given up fails
    the test instead of hanging it.
    """
    monkeypatch.setattr(
        backend_registry, "_REGISTRY", dict(backend_registry._REGISTRY)
    )
    calls = []

    def register(hook) -> str:
        class Hooked(CdclSolver):
            def solve(self, assumptions=(), *, time_limit=None, **kwargs):
                calls.append(time_limit)
                assert len(calls) <= 200, "the search never stopped re-issuing"
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
        return "hooked"

    return register


class TestCancelledSearch:
    @pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
    def test_a_raised_token_stops_the_search_before_its_first_query(
        self, tmp_path, incremental
    ):
        solver = ReversiblePebblingSolver(load_workload("fig2"), incremental=incremental)
        result = solver.solve(4, cancel=_raised(tmp_path))
        assert result.outcome is PebblingOutcome.CANCELLED
        assert not (result.found or result.complete or result.minimal)
        assert result.attempts == []
        assert result.partial["cancelled"] is True
        assert result.partial["sat_calls"] == 0

    def test_a_bare_path_stands_for_its_token(self, tmp_path):
        solver = ReversiblePebblingSolver(load_workload("fig2"))
        result = solver.solve(4, cancel=_raised(tmp_path).path)
        assert result.outcome is PebblingOutcome.CANCELLED
        assert result.attempts == []

    @pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
    def test_a_token_never_raised_leaves_every_search_unchanged(
        self, tmp_path, incremental
    ):
        token = CancellationToken(str(tmp_path / "winner.cancel"))
        for workload, budget, max_steps in (
            ("fig2", 4, None), ("fig2", 3, 20), ("c17", 4, None), ("and9", 5, None)
        ):
            for schedule in ("linear", "geometric-refine"):
                solver = ReversiblePebblingSolver(
                    load_workload(workload), incremental=incremental
                )
                plain = solver.solve(budget, strategy=schedule, max_steps=max_steps)
                tokened = solver.solve(
                    budget, strategy=schedule, max_steps=max_steps, cancel=token
                )
                assert _trajectory(tokened) == _trajectory(plain)
                assert tokened.partial is None

    @pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
    def test_expired_slices_reissue_the_query_with_doubled_limits(
        self, tmp_path, hooked_backend, incremental
    ):
        # The first two slices of every query expire; the third answers.
        limits = []

        def expire_short_slices(time_limit, solve):
            limits.append(time_limit)
            if time_limit < 4 * POLL_SLICE:
                return SolveResult(Status.UNKNOWN)
            return solve()

        backend = hooked_backend(expire_short_slices)
        plain = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental
        ).solve(4)
        sliced = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental, backend=backend
        ).solve(4, cancel=CancellationToken(str(tmp_path / "winner.cancel")))
        # An expired slice is no answer: one attempt per query, not per
        # slice, and the search walks the same bounds to the same minimum.
        assert _trajectory(sliced) == _trajectory(plain)
        assert limits == [POLL_SLICE, 2 * POLL_SLICE, 4 * POLL_SLICE] * len(
            plain.attempts
        )

    def test_slices_never_outlast_the_search_time_limit(
        self, tmp_path, hooked_backend
    ):
        limits = []

        def record(time_limit, solve):
            limits.append(time_limit)
            return solve()

        backend = hooked_backend(record)
        result = ReversiblePebblingSolver(load_workload("c17"), backend=backend).solve(
            4,
            time_limit=0.8 * POLL_SLICE,
            cancel=CancellationToken(str(tmp_path / "winner.cancel")),
        )
        assert result.found
        assert limits and all(limit <= 0.8 * POLL_SLICE for limit in limits)

    @pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
    def test_a_token_raised_mid_query_interrupts_it(
        self, tmp_path, hooked_backend, incremental
    ):
        token = CancellationToken(str(tmp_path / "winner.cancel"))
        queries = []

        def cancel_inside_the_second_query(time_limit, solve):
            if time_limit == POLL_SLICE:
                queries.append(time_limit)
            if len(queries) == 2:
                token.cancel()  # a sibling lane answers while we wait
                return SolveResult(Status.UNKNOWN)
            return solve()

        backend = hooked_backend(cancel_inside_the_second_query)
        result = ReversiblePebblingSolver(
            load_workload("fig2"), incremental=incremental, backend=backend
        ).solve(4, cancel=token)
        assert result.outcome is PebblingOutcome.CANCELLED
        assert not result.complete
        # The interrupted query is recorded once, as unanswered, and no
        # slice is issued after the token is seen.
        assert [(a.num_steps, a.status) for a in result.attempts] == [
            (4, Status.UNSATISFIABLE),
            (5, Status.UNKNOWN),
        ]
        assert len(queries) == 2
        assert result.partial["cancelled"] is True

    @pytest.mark.parametrize("incremental", ORACLES.values(), ids=list(ORACLES))
    def test_a_witness_found_before_cancellation_is_kept(
        self, tmp_path, hooked_backend, incremental
    ):
        # geometric-refine overshoots to 9 steps on c17 at 4 pebbles and
        # then refines down to 8; the token goes up right after the
        # overshoot's witness.
        token = CancellationToken(str(tmp_path / "winner.cancel"))

        def cancel_after_the_first_witness(time_limit, solve):
            answer = solve()
            if answer.is_sat:
                token.cancel()
            return answer

        backend = hooked_backend(cancel_after_the_first_witness)
        result = ReversiblePebblingSolver(
            load_workload("c17"), incremental=incremental, backend=backend
        ).solve(4, strategy="geometric-refine", cancel=token)
        assert result.outcome is PebblingOutcome.SOLUTION
        assert result.found and result.num_steps <= 9
        assert result.strategy.max_pebbles <= 4
        # Cut short before the refinement: not complete, not certified,
        # and the checkpoint still brackets the minimum in (6, 9].
        assert not result.complete and not result.minimal
        assert result.partial == {
            "checkpoint": {"next_bound": 8, "refuted_through": 6, "known_sat": 9},
            "best_steps": result.num_steps,
            "sat_calls": 3,
            "cancelled": True,
        }

    def test_a_cancellation_is_counted_and_traced(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        previous = obs_metrics.set_registry(registry)
        try:
            path = tmp_path / "trace.jsonl"
            with tracer(path):
                ReversiblePebblingSolver(load_workload("fig2")).solve(
                    4, cancel=_raised(tmp_path)
                )
        finally:
            obs_metrics.set_registry(previous)
        assert registry.counter("repro_cancellations_total").value == 1
        assert registry.counter("repro_sat_calls_total").value == 0
        (event,) = [
            record for record in load_trace(path).events
            if record["name"] == "solve.cancelled"
        ]
        assert event["attrs"] == {"bound": 4, "witness": False}


class TestCancelledTask:
    def test_a_raised_token_answers_a_task_without_running_it(self, tmp_path):
        token = _raised(tmp_path)
        (record,) = run_portfolio(
            [PortfolioTask("fig2", 4, time_limit=30)],
            jobs=1,
            retry=RetryPolicy(max_attempts=3),
            cancel_paths=[token.path],
        )
        assert record.outcome == "cancelled"
        assert not record.found and not record.complete
        assert record.sat_calls == 0
        assert record.retries == 0

    def test_cancel_paths_must_align_with_tasks(self, tmp_path):
        with pytest.raises(PebblingError, match="cancel_paths"):
            run_portfolio(
                [PortfolioTask("fig2", 4), PortfolioTask("c17", 4)],
                jobs=1,
                cancel_paths=[str(tmp_path / "winner.cancel")],
            )
