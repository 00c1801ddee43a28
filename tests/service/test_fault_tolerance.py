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
            async with PebblingService(max_queue=2, batch_window=0.0) as service:
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
            async with PebblingService(max_queue=1, batch_window=0.0) as service:
                first = asyncio.ensure_future(service.submit(_pebble(4)))
                await asyncio.sleep(0)  # let the first submission enqueue
                with pytest.raises(ServiceOverloadError):
                    await service.submit(_pebble(5))
                return await first

        result = _drive(scenario())
        assert result.ok

    def test_deduplicated_requests_are_never_shed(self):
        async def scenario():
            async with PebblingService(max_queue=1, batch_window=0.05) as service:
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
            async with PebblingService(batch_window=0.0) as service:
                # ~1 s of all-UNSAT sweep against a 0.2 s deadline.
                request = JobRequest(
                    kind="pebble", workload="and9", budget=4, single_move=True,
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

    def test_fast_request_beats_its_deadline_untouched(self):
        async def scenario():
            async with PebblingService(batch_window=0.0) as service:
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
            async with PebblingService(max_queue=9, workers=2) as service:
                await service.submit(_pebble(4))
                return service.health()

        health = _drive(scenario())
        assert set(health) == {
            "queue_depth", "in_flight", "workers", "max_queue",
            "engine", "stats", "metrics",
        }
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["workers"] == 2
        assert health["max_queue"] == 9
        assert health["stats"]["completed"] == 1

    def test_retry_policy_heals_chaos_faults_in_solver_jobs(self):
        async def scenario():
            retry = RetryPolicy(max_attempts=3, base_delay=0.0)
            async with PebblingService(batch_window=0.0, retry=retry) as service:
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
        report = run_request_file(path, batch_window=0.0)
        results = report["results"]
        assert len(results) == 3
        assert results[0]["source"] == "request-file"
        assert "nonsense" in results[0]["error"]
        assert results[0]["request"]["nonsense"] == 1  # raw entry preserved
        assert results[1]["status"] == "ok"
        assert results[1]["payload"]["steps"] == 6
        assert results[2]["source"] == "request-file"
        assert "JSON object" in results[2]["error"]

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
        report = run_request_file(path, batch_window=0.0, deadline=30.0)
        assert report["results"][0]["request"]["deadline"] == 30.0
        assert report["health"]["stats"]["completed"] == 1

    def test_explicit_deadline_wins_over_default(self, tmp_path):
        entry = dict(self.GOOD, deadline=15.0)
        path = self._write(tmp_path, [entry])
        report = run_request_file(path, batch_window=0.0, deadline=30.0)
        assert report["results"][0]["request"]["deadline"] == 15.0
