"""Tests for the fault-tolerant portfolio layer: retries, backoff, rebuilds.

Covers :class:`RetryPolicy` validation and its deterministic, monotone
backoff schedule (including a hypothesis property over the policy knobs),
the retry loop in ``_execute_task`` healing chaos-injected faults within
the task's one time limit, the ``traceback`` field on error records,
byte-identical determinism of (task, chaos seed, policy) triples, and the
``BrokenProcessPool`` rebuild/abandon paths driven by the chaos ``exit``
fault.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PebblingError
from repro.pebbling import portfolio
from repro.pebbling.portfolio import (
    PortfolioRecord,
    PortfolioTask,
    RetryPolicy,
    _execute_task,
    run_portfolio,
)
from repro.sat.backend import set_chaos_scope


@pytest.fixture(autouse=True)
def _reset_scope():
    set_chaos_scope("", attempt=0, epoch=0)
    yield
    set_chaos_scope("", attempt=0, epoch=0)


def _task(backend: str = "cdcl", **overrides) -> PortfolioTask:
    parameters = dict(workload="fig2", pebbles=4, time_limit=20.0,
                      backend=backend)
    parameters.update(overrides)
    return PortfolioTask(**parameters)


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"max_delay": -0.1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(PebblingError):
            RetryPolicy(**kwargs)

    def test_no_delay_before_first_attempt(self):
        assert RetryPolicy().delay_before(0) == 0.0

    def test_delays_are_deterministic_per_key(self):
        policy = RetryPolicy(max_attempts=5)
        first = [policy.delay_before(n, key="task-a") for n in range(1, 5)]
        second = [policy.delay_before(n, key="task-a") for n in range(1, 5)]
        assert first == second
        other = [policy.delay_before(n, key="task-b") for n in range(1, 5)]
        assert first != other  # jitter is keyed, not shared

    def test_delays_grow_exponentially_up_to_the_cap(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, max_delay=0.4)
        raw = [0.1, 0.2, 0.4, 0.4]  # doubling, clamped at the cap
        draws = [random.Random(f"retry||{step}").random() for step in range(1, 5)]
        jittered = [
            delay * (1.0 + portfolio.JITTER * draw) for delay, draw in zip(raw, draws)
        ]
        expected = list(itertools.accumulate(jittered, max))
        assert [policy.delay_before(n) for n in range(1, 5)] == pytest.approx(expected)

    @given(
        base_delay=st.floats(0.0, 1.0),
        max_delay=st.floats(0.0, 2.0),
        key=st.text(max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_backoff_is_monotone_non_decreasing(self, base_delay, max_delay, key):
        policy = RetryPolicy(max_attempts=8, base_delay=base_delay, max_delay=max_delay)
        delays = [policy.delay_before(n, key=key) for n in range(9)]
        assert all(late >= early for early, late in zip(delays, delays[1:]))


class TestRetryExecution:
    def test_flaky_task_heals_with_retries(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        record = _execute_task(_task("chaos:3,flaky=1"), None, policy)
        assert record.outcome == "solution"
        assert record.steps == 6
        assert record.complete
        assert record.retries == 1
        assert record.error is None

    def test_flaky_task_without_policy_is_an_error_with_traceback(self):
        record = _execute_task(_task("chaos:3,flaky=1"))
        assert record.outcome == "error"
        assert record.retries == 0
        assert record.traceback is not None
        assert "ChaosInjectedError" in record.traceback

    def test_exhausted_retries_keep_the_best_record(self):
        # flaky=999 fails every attempt-0 call; attempts 1+ heal, so only
        # max_attempts=1 stays broken.
        policy = RetryPolicy(max_attempts=1, base_delay=0.0)
        record = _execute_task(_task("chaos:3,flaky=999"), None, policy)
        assert record.outcome == "error"
        assert record.traceback is not None

    def test_successful_task_never_retries(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        record = _execute_task(_task(), None, policy)
        assert record.outcome == "solution"
        assert record.retries == 0

    def test_health_counters_absorb_retries(self, fresh_registry):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        records = run_portfolio([_task("chaos:3,flaky=1"), _task()], retry=policy)
        assert [record.retries for record in records] == [1, 0]
        snapshot = fresh_registry.snapshot()
        assert snapshot["repro_portfolio_retried_tasks_total"] == 1
        assert snapshot["repro_retries_total"] == 1
        assert "repro_pool_rebuilds_total" not in snapshot

    def test_pool_retries_are_counted_like_inline_ones(self, fresh_registry):
        # A retry spent in a pool worker must reach the caller's registry:
        # the records are merged, and counted, in the calling process.
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        tasks = [_task("chaos:3,flaky=1"), _task("chaos:3,flaky=1", workload="c17")]
        counts = []
        for jobs in (1, 2):
            fresh_registry.reset()
            records = run_portfolio(
                tasks, jobs=jobs, force_pool=jobs > 1, retry=policy
            )
            assert [record.retries for record in records] == [1, 1]
            snapshot = fresh_registry.snapshot()
            counts.append((
                snapshot.get("repro_retries_total"),
                snapshot.get("repro_portfolio_retried_tasks_total"),
            ))
        assert counts == [(2, 2), (2, 2)]

    def test_pool_sat_calls_are_counted_like_inline_ones(self, fresh_registry):
        # A pool worker's SAT calls reach the caller's registry too, the
        # retried attempts' included; their call times, a histogram, stay
        # with the process that made the calls.
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        tasks = [_task(), _task("chaos:3,flaky=1", workload="c17")]
        counts = []
        for jobs in (1, 2):
            fresh_registry.reset()
            records = run_portfolio(tasks, jobs=jobs, force_pool=jobs > 1, retry=policy)
            assert [record.retries for record in records] == [0, 1]
            snapshot = fresh_registry.snapshot()
            calls = sum(record.sat_calls for record in records)
            counts.append((
                snapshot.get("repro_sat_calls_total"),
                snapshot.get("repro_portfolio_sat_calls_total"),
                calls,
            ))
            assert ("repro_sat_call_seconds" in snapshot) == (jobs == 1)
        ((inline, *_), (pooled, *_)) = counts
        assert counts[0] == counts[1] and inline == pooled == counts[0][2] > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_identical_triples_are_byte_identical(self, seed):
        """Same (task, chaos seed, policy) ⇒ byte-identical records.

        Wall-clock can never be byte-identical, so the ``runtime`` field is
        stripped before comparing; everything else — outcome, steps,
        retries, partials, errors — must reproduce exactly.
        """
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        task = _task(f"chaos:{seed},flaky=1,crash=0.05,unknown=0.05")

        def normalised() -> str:
            record = _execute_task(task, None, policy).as_dict()
            record.pop("runtime")
            return json.dumps(record, sort_keys=True)

        assert normalised() == normalised()


class _FakeClock:
    """Stands in for the ``time`` module inside the portfolio."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _failing_attempts(monkeypatch, seconds_each: float) -> list:
    """Make every attempt fail after ``seconds_each`` of fake time.

    Returns the list that collects the time limit each attempt was given.
    """
    clock = _FakeClock()
    limits: list = []

    def attempt(task, store, number, epoch, time_limit):
        limits.append(time_limit)
        clock.now += seconds_each
        return PortfolioRecord(task=task, outcome="error", error="injected")

    monkeypatch.setattr(portfolio, "time", clock)
    monkeypatch.setattr(portfolio, "_attempt_task", attempt)
    return limits


class TestOneTimeLimit:
    """A task's ``time_limit`` covers all its attempts and backoff sleeps."""

    def test_each_attempt_gets_what_is_left_of_the_limit(self, monkeypatch):
        limits = _failing_attempts(monkeypatch, 0.3)
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, max_delay=0.1)
        record = _execute_task(_task(time_limit=1.0), None, policy)
        first, second = (policy.delay_before(n, key=record.name) for n in (1, 2))
        assert limits == pytest.approx([1.0, 0.7 - first, 0.4 - first - second])
        # The limit is spent before a fourth attempt could start.
        assert record.retries == 2
        assert record.outcome == "error"

    def test_without_a_limit_every_attempt_runs_unbounded(self, monkeypatch):
        limits = _failing_attempts(monkeypatch, 100.0)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        record = _execute_task(_task(time_limit=None), None, policy)
        assert (limits, record.retries) == ([None, None, None], 2)

    def test_a_search_that_used_its_limit_is_not_retried(self):
        # Uninterrupted, kummer-double p13 takes 7.6 s on the C core, so
        # the first attempt spends the whole 0.3 s and leaves no time for
        # a second one.
        task = PortfolioTask("kummer-double", 13, time_limit=0.3)
        record = _execute_task(task, None, RetryPolicy(max_attempts=3))
        assert (record.outcome, record.complete, record.retries) == (
            "timeout", False, 0,
        )
        assert record.partial is not None

    def test_a_spurious_unknown_is_retried_to_a_certified_answer(self):
        # 30% of SAT calls answer UNKNOWN at once, so the attempts they cut
        # short leave almost all of the limit for the next one.
        policy = RetryPolicy(max_attempts=6, base_delay=0.0)
        record = _execute_task(_task("chaos:19,unknown=0.3"), None, policy)
        assert (record.outcome, record.steps, record.complete) == ("solution", 6, True)
        assert record.retries >= 1

    def test_the_winning_attempt_keeps_its_own_counters(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.0)
        record = _execute_task(_task("chaos:19,unknown=0.3"), None, policy)
        own = [entry["counters"] or {} for entry in record.attempt_stats]
        assert record.counters["propagations"] == sum(
            counters.get("propagations", 0) for counters in own
        )
        assert own[-1]["propagations"] < record.counters["propagations"]


class TestPoolRebuild:
    def test_broken_pool_is_rebuilt_and_work_resubmitted(self, fresh_registry):
        # exit=1 hard-kills the worker on its first solve call of epoch 0;
        # the resubmission runs at epoch 1, where the fault is silent.
        records = run_portfolio([_task("chaos:3,exit=1")], jobs=2, force_pool=True)
        assert [record.outcome for record in records] == ["solution"]
        assert records[0].steps == 6
        assert fresh_registry.snapshot()["repro_pool_rebuilds_total"] >= 1

    def test_a_rebuilt_pool_returns_records_in_task_order(self):
        # The middle task kills its worker; whatever had not finished by
        # then is resubmitted, and each record still lines up with its task.
        tasks = [_task(), _task("chaos:3,exit=1"), _task(pebbles=2), _task(workload="c17")]
        records = run_portfolio(tasks, jobs=2, force_pool=True)
        assert [record.task for record in records] == tasks
        assert [(record.outcome, record.steps) for record in records] == [
            ("solution", 6), ("solution", 6), ("infeasible", None), ("solution", 8),
        ]

    def test_rebuild_limit_abandons_with_error_records(self, monkeypatch):
        monkeypatch.setattr(portfolio, "POOL_REBUILD_LIMIT", 0)
        records = run_portfolio([_task("chaos:3,exit=1")], jobs=2, force_pool=True)
        assert records[0].outcome == "error"
        assert "rebuild limit" in records[0].error
