"""Tests for the service's fault-tolerance surface.

Covers admission control (bounded queue, load shedding, dedup immunity),
graceful deadline preemption into anytime partial answers, the structured
health snapshot, retry threading into solver jobs, and the lenient
request-file runner (malformed entries become positional error records
while well-formed siblings still run).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields

import pytest

from repro.pebbling.portfolio import RetryPolicy
from repro.service import (
    JobRequest,
    PebblingService,
    ServiceError,
    ServiceOverloadError,
    parse_request_file,
    run_request_file,
)


def _pebble(budget: int = 4, **overrides) -> JobRequest:
    parameters = dict(kind="pebble", workload="fig2", budget=budget)
    parameters.update(overrides)
    return JobRequest(**parameters)


def _drive(coroutine):
    return asyncio.run(coroutine)


class TestAdmissionControl:
    def test_max_queue_must_be_positive(self):
        with pytest.raises(ServiceError, match="max_queue"):
            PebblingService(max_queue=0)

    def test_overload_sheds_excess_submissions(self):
        async def scenario():
            async with PebblingService(max_queue=2) as service:
                requests = [_pebble(budget) for budget in (4, 5, 6, 7)]
                results = await service.run(requests)
                return results, service.stats

        results, stats = _drive(scenario())
        shed = [result for result in results if result.source == "shed"]
        served = [result for result in results if result.source != "shed"]
        assert len(shed) == 2 and len(served) == 2
        assert all(result.status == "error" for result in shed)
        assert all("shed" in result.error for result in shed)
        assert all(result.ok for result in served)
        assert stats.sheds == 2

    def test_submit_raises_overload_directly(self):
        async def scenario():
            async with PebblingService(max_queue=1) as service:
                first = asyncio.ensure_future(service.submit(_pebble(4)))
                await asyncio.sleep(0)  # let the first submission enqueue
                with pytest.raises(ServiceOverloadError):
                    await service.submit(_pebble(5))
                return await first

        result = _drive(scenario())
        assert result.ok

    def test_deduplicated_requests_are_never_shed(self):
        async def scenario():
            async with PebblingService(max_queue=1) as service:
                # Four copies of one request: one occupies the whole queue,
                # the rest piggyback on it instead of being shed.
                results = await service.run([_pebble(4)] * 4)
                return results, service.stats

        results, stats = _drive(scenario())
        assert all(result.ok for result in results)
        assert stats.sheds == 0
        assert stats.deduplicated == 3


class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ServiceError, match="deadline"):
            _pebble(deadline=0.0).validate()

    def test_preempted_request_returns_anytime_partial(self):
        async def scenario():
            async with PebblingService() as service:
                # Uninterrupted, this search takes 7.6 s on the C core (2-core
                # x86-64 host, Python 3.11), 38x the 0.2 s deadline, so a
                # faster engine cannot finish it in time.
                request = JobRequest(
                    kind="pebble", workload="kummer-double", budget=13,
                    time_limit=60.0, deadline=0.2,
                )
                result = await service.submit(request)
                return result, service.stats

        result, stats = _drive(scenario())
        assert result.ok  # degraded, not failed
        payload = result.payload
        assert payload["complete"] is False
        assert payload["partial"]
        checkpoint = payload["partial"]["checkpoint"]
        assert checkpoint["next_bound"] >= 1
        assert stats.preempted == 1
        assert stats.partial_answers == 1

    def test_a_deadline_bounds_the_retries_too(self):
        async def scenario():
            retry = RetryPolicy(max_attempts=3)
            async with PebblingService(retry=retry) as service:
                # The deadline clamps the task's time limit, which covers
                # every attempt: the first one spends it all, so none is
                # retried.
                request = JobRequest(
                    kind="pebble", workload="kummer-double", budget=13,
                    time_limit=60.0, deadline=0.3,
                )
                result = await service.submit(request)
                return result, service.stats

        result, stats = _drive(scenario())
        assert result.ok
        assert result.payload["complete"] is False
        assert result.payload["partial"]
        assert result.payload["retries"] == 0
        assert (stats.retries, stats.preempted) == (0, 1)

    def test_fast_request_beats_its_deadline_untouched(self):
        async def scenario():
            async with PebblingService() as service:
                result = await service.submit(_pebble(4, deadline=30.0))
                return result, service.stats

        result, stats = _drive(scenario())
        assert result.ok
        assert result.payload["complete"] is True
        assert result.payload["steps"] == 6
        assert stats.preempted == 0


class TestHealthAndRetries:
    def test_health_snapshot_shape(self):
        async def scenario():
            async with PebblingService(max_queue=9) as service:
                await service.submit(_pebble(4))
                return service.health()

        health = _drive(scenario())
        assert set(health) == {
            "queue_depth", "in_flight", "max_queue",
            "engine", "stats", "metrics",
        }
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["max_queue"] == 9
        assert health["stats"]["completed"] == 1

    def test_retry_policy_heals_chaos_faults_in_solver_jobs(self):
        async def scenario():
            retry = RetryPolicy(max_attempts=3, base_delay=0.0)
            async with PebblingService(retry=retry) as service:
                result = await service.submit(
                    _pebble(4, backend="chaos:3,flaky=1")
                )
                return result, service.health()

        result, health = _drive(scenario())
        assert result.ok
        assert result.payload["steps"] == 6
        assert result.payload["retries"] == 1
        assert health["stats"]["retries"] >= 1


class TestRequestFileLeniency:
    GOOD = {"kind": "pebble", "workload": "fig2", "budget": 4}
    BAD_FIELD = {"kind": "pebble", "workload": "fig2", "nonsense": 1}
    BAD_SHAPE = "just a string"

    def _write(self, tmp_path, entries) -> str:
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": entries}), encoding="utf-8")
        return str(path)

    def test_malformed_entries_become_positional_error_records(self, tmp_path):
        path = self._write(
            tmp_path, [self.BAD_FIELD, self.GOOD, self.BAD_SHAPE]
        )
        report = run_request_file(path)
        results = report["results"]
        assert len(results) == 3
        assert results[0]["source"] == "request-file"
        assert "nonsense" in results[0]["error"]
        assert results[0]["request"]["nonsense"] == 1  # raw entry preserved
        assert results[1]["status"] == "ok"
        assert results[1]["payload"]["steps"] == 6
        assert results[2]["source"] == "request-file"
        assert "JSON object" in results[2]["error"]

    #: Entries whose fields have the wrong JSON type or range.  Before the
    #: service checked field types, some raised a bare TypeError from
    #: ``validate`` and the rest were accepted and failed inside the solver.
    MISTYPED = {
        "deadline-string": ("deadline", dict(GOOD, deadline="soon")),
        "sweep-min-budget-string": (
            "min_budget",
            {"kind": "sweep", "workload": "fig2", "min_budget": "2", "max_budget": 4},
        ),
        "budget-string": ("budget", dict(GOOD, budget="3")),
        "budget-bool": ("budget", dict(GOOD, budget=True)),
        "budget-zero": ("budget", dict(GOOD, budget=0)),
        "time-limit-string": ("time_limit", dict(GOOD, time_limit="x")),
        "workload-int": ("workload", dict(GOOD, workload=7)),
        "scale-string": ("scale", dict(GOOD, scale="big")),
        "single-move-string": ("single_move", dict(GOOD, single_move="yes")),
    }

    @pytest.mark.parametrize(("field", "entry"), MISTYPED.values(), ids=list(MISTYPED))
    def test_mistyped_fields_raise_a_service_error(self, tmp_path, field, entry):
        path = self._write(tmp_path, [entry])
        with pytest.raises(ServiceError, match=field):
            parse_request_file(path)

    #: A wrong value for each field the table above leaves out, and the
    #: range checks it does not reach, so that every field of a request
    #: is refused under its own name.
    MISTYPED_ELSEWHERE = {
        "kind-int": ("kind", dict(GOOD, kind=1)),
        "cardinality-null": ("cardinality", dict(GOOD, cardinality=None)),
        "schedule-list": ("schedule", dict(GOOD, schedule=["linear"])),
        "backend-int": ("backend", dict(GOOD, backend=0)),
        "weighted-int": ("weighted", dict(GOOD, weighted=1)),
        "decompose-string": ("decompose", dict(GOOD, decompose="false")),
        "verify-null": ("verify", dict(GOOD, verify=None)),
        "sweep-max-budget-float": (
            "max_budget",
            {"kind": "sweep", "workload": "fig2", "min_budget": 2, "max_budget": 4.5},
        ),
        "step-increment-zero": ("step_increment", dict(GOOD, step_increment=0)),
        "max-steps-string": ("max_steps", dict(GOOD, max_steps="40")),
        "budget-float": ("budget", dict(GOOD, budget=3.5)),
        "scale-zero": ("scale", dict(GOOD, scale=0)),
        "time-limit-negative": ("time_limit", dict(GOOD, time_limit=-1)),
        "deadline-infinite": ("deadline", dict(GOOD, deadline=float("inf"))),
    }

    @pytest.mark.parametrize(
        ("field", "entry"), MISTYPED_ELSEWHERE.values(), ids=list(MISTYPED_ELSEWHERE)
    )
    def test_every_field_is_refused_under_its_own_name(self, tmp_path, field, entry):
        path = self._write(tmp_path, [entry])
        with pytest.raises(ServiceError, match=f"request's {field} must"):
            parse_request_file(path)

    def test_the_tables_cover_every_request_field(self):
        request_fields = {entry.name for entry in fields(JobRequest)} - {"trace"}
        covered = {
            field
            for field, _ in [*self.MISTYPED.values(), *self.MISTYPED_ELSEWHERE.values()]
        }
        assert covered == request_fields

    def test_a_mistyped_entry_does_not_fail_its_batch(self, tmp_path):
        # The bad scale used to pass validation and then raise while the
        # portfolio formatted the task's name, which failed every request
        # of the batch with the same error.
        path = self._write(tmp_path, [
            self.GOOD,
            {"kind": "pebble", "workload": "c17", "budget": 4},
            {"kind": "pebble", "workload": "fig2", "budget": 3, "scale": "big"},
        ])
        results = run_request_file(path)["results"]
        assert [result["status"] for result in results] == ["ok", "ok", "error"]
        assert results[2]["source"] == "request-file"
        assert "scale" in results[2]["error"]

    def test_parse_request_file_stays_strict(self, tmp_path):
        path = self._write(tmp_path, [self.GOOD, self.BAD_FIELD])
        with pytest.raises(ServiceError, match="nonsense"):
            parse_request_file(path)

    def test_file_level_problems_still_raise(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ServiceError, match="not valid JSON"):
            run_request_file(str(path))

    def test_report_carries_health_and_default_deadline(self, tmp_path):
        path = self._write(tmp_path, [self.GOOD])
        report = run_request_file(path, deadline=30.0)
        assert report["results"][0]["request"]["deadline"] == 30.0
        assert report["health"]["stats"]["completed"] == 1

    def test_explicit_deadline_wins_over_default(self, tmp_path):
        entry = dict(self.GOOD, deadline=15.0)
        path = self._write(tmp_path, [entry])
        report = run_request_file(path, deadline=30.0)
        assert report["results"][0]["request"]["deadline"] == 15.0
