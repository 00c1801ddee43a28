"""Tests for the fault-tolerant portfolio layer: retries, backoff, rebuilds.

Covers :class:`RetryPolicy` validation and its deterministic, monotone
backoff schedule (including a hypothesis property over the policy knobs),
the retry loop in ``_execute_task`` healing chaos-injected faults, the
``traceback`` field on error records, byte-identical determinism of
(task, chaos seed, policy) triples, and the ``BrokenProcessPool``
rebuild/abandon paths driven by the chaos ``exit`` fault.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PebblingError
from repro.pebbling.portfolio import (
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
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"jitter": -0.1},
        {"attempt_time_limit": 0.0},
        {"total_time_limit": -1.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(PebblingError):
            RetryPolicy(**kwargs)

    def test_no_delay_before_first_attempt(self):
        assert RetryPolicy().delay_before(0) == 0.0

    def test_delays_are_deterministic_per_key(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.5)
        first = [policy.delay_before(n, key="task-a") for n in range(1, 5)]
        second = [policy.delay_before(n, key="task-a") for n in range(1, 5)]
        assert first == second
        other = [policy.delay_before(n, key="task-b") for n in range(1, 5)]
        assert first != other  # jitter is keyed, not shared

    def test_delays_grow_exponentially_up_to_the_cap(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, backoff_factor=2.0,
            max_delay=0.4, jitter=0.0,
        )
        assert policy.delay_before(1) == pytest.approx(0.1)
        assert policy.delay_before(2) == pytest.approx(0.2)
        assert policy.delay_before(3) == pytest.approx(0.4)
        assert policy.delay_before(4) == pytest.approx(0.4)  # clamped

    @given(
        base_delay=st.floats(0.0, 1.0),
        backoff_factor=st.floats(1.0, 4.0),
        max_delay=st.floats(0.0, 2.0),
        jitter=st.floats(0.0, 1.0),
        key=st.text(max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_backoff_is_monotone_non_decreasing(
        self, base_delay, backoff_factor, max_delay, jitter, key
    ):
        policy = RetryPolicy(
            max_attempts=8, base_delay=base_delay,
            backoff_factor=backoff_factor, max_delay=max_delay, jitter=jitter,
        )
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

    def test_rebuild_limit_abandons_with_error_records(self):
        records = run_portfolio(
            [_task("chaos:3,exit=1")], jobs=2, force_pool=True,
            pool_rebuild_limit=0,
        )
        assert records[0].outcome == "error"
        assert "rebuild limit" in records[0].error

    def test_negative_rebuild_limit_rejected(self):
        with pytest.raises(PebblingError):
            run_portfolio([_task()], pool_rebuild_limit=-1)
