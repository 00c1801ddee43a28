"""Tests for the asyncio pebbling service (dedup, batching, cache-first)."""

import asyncio
import json
import threading

import pytest

from repro.dag.io import dag_to_dict
from repro.obs import metrics as obs_metrics
from repro.obs.analyze import load_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import tracer
from repro.service import (
    JobRequest,
    PebblingService,
    ServiceError,
    parse_request_file,
    run_request_file,
)
from repro.service.scheduler import SERVICE_COUNTERS
from repro.store import ResultStore
from repro.workloads import example_dag


def _run(coroutine):
    return asyncio.run(coroutine)


class TestJobRequest:
    def test_validation(self):
        with pytest.raises(ServiceError, match="kind"):
            JobRequest(kind="teleport", workload="fig2").validate()
        with pytest.raises(ServiceError, match="workload"):
            JobRequest(kind="pebble").validate()
        with pytest.raises(ServiceError, match="budget"):
            JobRequest(kind="pebble", workload="fig2").validate()
        with pytest.raises(ServiceError, match="min_budget"):
            JobRequest(kind="sweep", workload="fig2", budget=4).validate()
        JobRequest(kind="sweep", workload="fig2").validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="pebbels"):
            JobRequest.from_dict({"workload": "fig2", "pebbels": 4})
        with pytest.raises(ServiceError, match="cubes"):
            JobRequest.from_dict({"workload": "fig2", "budget": 4, "cubes": 4})
        request = JobRequest.from_dict(
            {"kind": "pebble", "workload": "fig2", "budget": 4}
        )
        assert request.budget == 4
        assert request.as_dict()["workload"] == "fig2"

    def test_requests_are_hashable_dedup_keys(self):
        a = JobRequest(kind="pebble", workload="fig2", budget=4)
        b = JobRequest(kind="pebble", workload="fig2", budget=4)
        assert a == b and hash(a) == hash(b)
        assert a != JobRequest(kind="pebble", workload="fig2", budget=5)


class TestService:
    def test_single_pebble_request(self):
        async def scenario():
            async with PebblingService() as service:
                result = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               time_limit=30)
                )
                return service, result

        service, result = _run(scenario())
        assert result.ok and result.source == "solver"
        assert result.payload["outcome"] == "solution"
        assert result.payload["steps"] == 6
        assert service.stats.solver_jobs == 1

    def test_identical_inflight_requests_deduplicate(self):
        request = JobRequest(kind="pebble", workload="fig2", budget=4,
                             time_limit=30)

        async def scenario():
            async with PebblingService() as service:
                results = await service.run([request, request, request])
                return service, results

        service, results = _run(scenario())
        assert all(result.ok for result in results)
        assert {json.dumps(r.payload, sort_keys=True) for r in results} \
            == {json.dumps(results[0].payload, sort_keys=True)}
        assert service.stats.deduplicated == 2
        assert service.stats.solver_jobs == 1

    def test_distinct_requests_batch_into_one_round(self):
        requests = [
            JobRequest(kind="pebble", workload="fig2", budget=budget,
                       time_limit=30)
            for budget in (4, 5, 6)
        ]

        async def scenario():
            async with PebblingService() as service:
                results = await service.run(requests)
                return service, results

        service, results = _run(scenario())
        assert [r.payload["steps"] for r in results] == [6, 5, 5]
        assert service.stats.batches == 1
        assert service.stats.solver_jobs == 3

    def test_a_request_submitted_during_a_batch_joins_the_next(self):
        started, release = threading.Event(), threading.Event()
        batches = []

        async def scenario():
            async with PebblingService() as service:
                process = service._process_batch

                def held(items):
                    batches.append([request.budget for request, _ in items])
                    if len(batches) == 1:
                        started.set()
                        assert release.wait(30)
                    return process(items)

                service._process_batch = held
                first = asyncio.ensure_future(service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               time_limit=30)
                ))
                try:
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(None, started.wait, 30)
                    second = asyncio.ensure_future(service.submit(
                        JobRequest(kind="pebble", workload="fig2", budget=5,
                                   time_limit=30)
                    ))
                    await asyncio.sleep(0)  # let the second request enqueue
                finally:
                    release.set()
                return service, await asyncio.gather(first, second)

        service, results = _run(scenario())
        assert [r.payload["steps"] for r in results] == [6, 5]
        assert batches == [[4], [5]]
        assert service.stats.batches == 2

    def test_a_closed_service_leaves_no_store_connection(self, tmp_path):
        db = tmp_path / "cache.db"

        async def scenario():
            async with PebblingService(store=str(db)) as service:
                result = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               time_limit=30)
                )
                return service, result

        service, result = _run(scenario())
        assert result.source == "solver" and service.stats.solver_jobs == 1
        # SQLite removes the write-ahead log when its last connection closes.
        assert db.exists()
        assert not (tmp_path / "cache.db-wal").exists()
        assert not (tmp_path / "cache.db-shm").exists()

    def test_cache_hits_skip_the_solver(self, tmp_path):
        db = str(tmp_path / "cache.db")
        request = JobRequest(kind="pebble", workload="fig2", budget=4,
                             time_limit=30)

        async def scenario():
            async with PebblingService(store=db) as service:
                first = await service.submit(request)
                second = await service.submit(request)
                return service, first, second

        service, first, second = _run(scenario())
        assert first.source == "solver" and second.source == "cache"
        assert service.stats.cache_hits == 1
        assert service.stats.solver_jobs == 1
        # The cached answer matches the solved one field for field.
        assert second.payload == first.payload

    def test_in_memory_store_object_is_shared(self):
        request = JobRequest(kind="pebble", workload="c17", budget=4,
                             time_limit=30)

        async def scenario():
            with ResultStore(":memory:") as store:
                async with PebblingService(store=store) as service:
                    first = await service.submit(request)
                    second = await service.submit(request)
                    return first.source, second.source

        assert _run(scenario()) == ("solver", "cache")

    def test_sweep_expands_dedups_and_aggregates(self, tmp_path):
        db = str(tmp_path / "cache.db")
        sweep = JobRequest(kind="sweep", workload="fig2", min_budget=3,
                           max_budget=6, time_limit=30)

        async def scenario():
            async with PebblingService(store=db) as service:
                overlapping = JobRequest(kind="pebble", workload="fig2",
                                         budget=4, time_limit=30)
                sweep_result, single = await asyncio.gather(
                    service.submit(sweep), service.submit(overlapping)
                )
                return service, sweep_result, single

        service, sweep_result, single = _run(scenario())
        assert sweep_result.ok and sweep_result.source == "aggregate"
        payload = sweep_result.payload
        assert payload["minimum_feasible_budget"] == 4
        assert [p["request"]["budget"] for p in payload["points"]] == [3, 4, 5, 6]
        assert single.ok
        assert service.stats.expanded == 4
        # The overlapping single request shared work with the sweep, one
        # way or the other (dedup if concurrent, cache if sequenced).
        assert service.stats.deduplicated + service.stats.cache_hits >= 1

    def test_a_weighted_sweep_starts_at_the_weighted_floor(self, tmp_path):
        # fig2 with weight 3 on A, C and D: no weight budget below 7 can
        # pebble it, and the eager Bennett strategy peaks at weight 12.
        data = dag_to_dict(example_dag())
        for entry in data["nodes"]:
            if entry["id"] in ("A", "C", "D"):
                entry["weight"] = 3
        path = tmp_path / "fig2_weighted.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        sweep = JobRequest(kind="sweep", workload=str(path), weighted=True,
                           time_limit=30)

        async def scenario():
            async with PebblingService() as service:
                return await service.submit(sweep), service.stats

        result, stats = _run(scenario())
        assert result.ok
        payload = result.payload
        assert (payload["min_budget"], payload["max_budget"]) == (7, 12)
        assert payload["minimum_feasible_budget"] == 8
        assert stats.expanded == stats.solver_jobs == 6

    def test_compile_requests_and_cache(self, tmp_path):
        db = str(tmp_path / "cache.db")
        request = JobRequest(kind="compile", workload="fig2", budget=4,
                             decompose=True, time_limit=30)

        async def scenario():
            async with PebblingService(store=db) as service:
                first = await service.submit(request)
                second = await service.submit(request)
                return first, second

        first, second = _run(scenario())
        assert first.ok and first.source == "solver"
        assert first.payload["verified"] is True
        assert second.source == "cache"
        assert second.payload == first.payload

    def test_a_compile_request_looks_the_store_up_once(self, tmp_path, monkeypatch):
        lookups = []
        original = ResultStore.get_compile

        def counted(store, *args, **kwargs):
            report = original(store, *args, **kwargs)
            lookups.append(report is not None)
            return report

        monkeypatch.setattr(ResultStore, "get_compile", counted)
        request = JobRequest(kind="compile", workload="c17", budget=4, time_limit=30)

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                return [(await service.submit(request)).source for _ in range(2)]

        assert _run(scenario()) == ["solver", "cache"]
        assert lookups == [False, True]

    @pytest.mark.parametrize(
        ("kinds", "hits"),
        [
            (("pebble", "pebble", "pebble"), 2),
            (("compile", "compile", "compile"), 2),
            (("pebble", "compile", "pebble", "compile", "compile"), 3),
        ],
        ids=["pebble", "compile", "mixed"],
    )
    def test_registry_counts_each_cache_hit_once(self, tmp_path, kinds, hits):
        # Pebble and compile repeats alike: on a fresh registry the hit
        # counter agrees with the service's own count.
        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                for kind in kinds:
                    await service.submit(
                        JobRequest(kind=kind, workload="c17", budget=4, time_limit=30)
                    )
                return service.stats.cache_hits

        registry = MetricsRegistry(enabled=True)
        previous = obs_metrics.set_registry(registry)
        try:
            cache_hits = _run(scenario())
        finally:
            obs_metrics.set_registry(previous)
        assert cache_hits == hits
        assert registry.snapshot()["repro_service_cache_hits_total"] == cache_hits

    def test_store_lookup_counters_match_the_session(self, tmp_path):
        # The service's own probes count as lookups too, not only the
        # solver's: the registry agrees with the store's session.
        kinds = ("pebble", "pebble", "compile", "compile")

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                sources = [
                    (await service.submit(
                        JobRequest(kind=kind, workload="c17", budget=4, time_limit=30)
                    )).source
                    for kind in kinds
                ]
                return sources, dict(service.store.session)

        registry = MetricsRegistry(enabled=True)
        previous = obs_metrics.set_registry(registry)
        try:
            sources, session = _run(scenario())
        finally:
            obs_metrics.set_registry(previous)
        assert sources == ["solver", "cache", "solver", "cache"]
        assert session["hits"] >= 2 and session["misses"] >= 2
        snapshot = registry.snapshot()
        assert snapshot["repro_store_hits_total"] == session["hits"]
        assert snapshot["repro_store_misses_total"] == session["misses"]

    def test_every_stats_field_matches_its_counter(self, tmp_path, fresh_registry):
        # One site writes each field and its counter, so on a fresh
        # registry the two agree: dedup, a sweep, an error and a hit.
        c17 = JobRequest(kind="pebble", workload="c17", budget=4, time_limit=30)

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                await service.run([
                    c17,
                    c17,
                    JobRequest(kind="sweep", workload="fig2", min_budget=3,
                               max_budget=4, time_limit=30),
                    JobRequest(kind="pebble", workload="no-such-workload", budget=4),
                ])
                await service.submit(c17)
                return service.stats.as_dict()

        stats = _run(scenario())
        snapshot = fresh_registry.snapshot()
        assert set(SERVICE_COUNTERS) == set(stats) - {"retries"}
        for field, (name, _) in SERVICE_COUNTERS.items():
            assert snapshot.get(name, 0) == stats[field], field
        assert (stats["deduplicated"], stats["expanded"], stats["errors"]) == (1, 2, 1)
        assert stats["cache_hits"] == 1
        assert not {"repro_service_queue_depth", "repro_service_in_flight"} & set(snapshot)

    def test_every_cache_answer_is_a_trace_event(self, tmp_path):
        kinds = ("pebble", "compile", "pebble", "compile", "compile")

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                sources = [
                    (await service.submit(
                        JobRequest(kind=kind, workload="c17", budget=4, time_limit=30)
                    )).source
                    for kind in kinds
                ]
                return sources, service.stats.cache_hits

        path = tmp_path / "trace.jsonl"
        with tracer(path):
            sources, cache_hits = _run(scenario())
        assert sources == ["solver", "solver", "cache", "cache", "cache"]
        events = [
            event for event in load_trace(path).events
            if event["name"] == "service.cache_hit"
        ]
        assert len(events) == cache_hits == 3
        assert [event["attrs"]["kind"] for event in events] == [
            "pebble", "compile", "compile",
        ]
        assert all(event["attrs"]["outcome"] == "solution" for event in events)

    def test_compile_request_parses_a_bench_file_once(self, tmp_path, counted_c17_bench):
        path, parsed = counted_c17_bench
        request = JobRequest(kind="compile", workload=str(path), budget=4,
                             time_limit=60)

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                answers, counts = [], []
                for _ in range(3):
                    answers.append(await service.submit(request))
                    counts.append(len(parsed))
                return answers, counts

        answers, counts = _run(scenario())
        assert [answer.source for answer in answers] == ["solver", "cache", "cache"]
        assert answers[0].payload["verified"] is True
        # The miss parses once; the first repeat is the file's second load,
        # which parses it again and keeps the parse; later repeats parse
        # nothing.
        assert counts == [1, 2, 2]

    def test_a_repeat_of_a_rewritten_file_is_solved_for_the_new_graph(self, tmp_path):
        from repro.logic.bench import write_bench
        from repro.logic.iscas import c17_network
        from repro.workloads import example_network

        path = tmp_path / "work.bench"
        write_bench(c17_network(), path)
        request = JobRequest(kind="pebble", workload=str(path), budget=4,
                             time_limit=60)

        async def scenario():
            async with PebblingService(store=str(tmp_path / "cache.db")) as service:
                answers = [await service.submit(request), await service.submit(request)]
                write_bench(example_network(), path)
                answers.append(await service.submit(request))
                return answers

        answers = _run(scenario())
        assert [answer.source for answer in answers] == ["solver", "cache", "solver"]
        # c17 needs 8 steps at 4 pebbles, the Fig. 2 network 6.
        assert [answer.payload["steps"] for answer in answers] == [8, 8, 6]

    def test_errors_are_contained_results(self):
        async def scenario():
            async with PebblingService() as service:
                bad, good = await service.run([
                    JobRequest(kind="pebble", workload="no-such", budget=4),
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               time_limit=30),
                ])
                return service, bad, good

        service, bad, good = _run(scenario())
        assert bad.status == "error" and "no-such" in bad.error
        assert good.ok
        assert service.stats.errors == 1

    def test_sweep_with_failing_children_reports_error(self):
        async def scenario():
            async with PebblingService() as service:
                return await service.submit(
                    JobRequest(kind="sweep", workload="missing_dag.json",
                               min_budget=3, max_budget=4)
                )

        result = _run(scenario())
        assert result.status == "error"
        assert "2 of 2 budget searches failed" in result.error
        assert all(
            "does not exist" in point["error"]
            for point in result.payload["points"]
        )

    def test_sweep_with_erroring_budget_points_reports_error(self, monkeypatch):
        # Bounds resolve fine, but every per-budget child crashes: the
        # aggregate must not read as "ok" (mirrors pebble-batch's exit 1).
        import repro.service.scheduler as scheduler_module

        def _boom(task, store=None):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(scheduler_module, "run_portfolio",
                            lambda tasks, **kwargs: [_boom(t) for t in tasks])

        async def scenario():
            async with PebblingService() as service:
                return await service.submit(
                    JobRequest(kind="sweep", workload="fig2", min_budget=3,
                               max_budget=4, time_limit=10)
                )

        result = _run(scenario())
        assert result.status == "error"
        assert "2 of 2 budget searches failed" in result.error

    def test_close_fails_pending_futures(self):
        async def scenario():
            service = PebblingService()
            pending = asyncio.create_task(service.submit(
                JobRequest(kind="pebble", workload="and9", budget=4,
                           time_limit=5)  # an UNSAT sweep: ~1 s of work
            ))
            await asyncio.sleep(0)  # let the request enqueue
            await service.close()
            with pytest.raises(ServiceError, match="closed with requests pending"):
                await pending

        _run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            service = PebblingService()
            await service.close()
            with pytest.raises(ServiceError):
                await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4)
                )

        _run(scenario())


class TestRequestFile:
    def test_parse_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text('{"nope": []}')
        with pytest.raises(ServiceError, match="requests"):
            parse_request_file(path)
        path.write_text('"just a string"')
        with pytest.raises(ServiceError, match="object or list"):
            parse_request_file(path)
        path.write_text('{"requests": [5]}')
        with pytest.raises(ServiceError, match="JSON object"):
            parse_request_file(path)
        path.write_text("{not json")
        with pytest.raises(ServiceError, match="not valid JSON"):
            parse_request_file(path)
        with pytest.raises(ServiceError, match="cannot read"):
            parse_request_file(path.parent / "absent.json")

    def test_end_to_end_report(self, tmp_path):
        db = str(tmp_path / "cache.db")
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({
            "requests": [
                {"kind": "pebble", "workload": "fig2", "budget": 4,
                 "time_limit": 30},
                {"kind": "pebble", "workload": "fig2", "budget": 4,
                 "time_limit": 30},
                {"kind": "pebble", "workload": "c17", "budget": 4,
                 "time_limit": 30},
            ]
        }))
        report = run_request_file(path, store=db)
        assert [r["status"] for r in report["results"]] == ["ok"] * 3
        assert report["stats"]["deduplicated"] == 1
        assert report["store"]["entries"] >= 2
        # A second run of the same file is answered entirely from cache.
        again = run_request_file(path, store=db)
        assert again["stats"]["cache_hits"] >= 1
        assert again["stats"]["solver_jobs"] == 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])


class TestBackendRequests:
    def test_backend_is_part_of_request_identity(self):
        base = JobRequest(kind="pebble", workload="fig2", budget=4)
        dpll = JobRequest(kind="pebble", workload="fig2", budget=4, backend="dpll")
        assert base != dpll

    def test_invalid_backend_rejected(self):
        with pytest.raises(ServiceError, match="backend"):
            JobRequest(kind="pebble", workload="fig2", budget=4, backend="").validate()

    def test_request_backend_reaches_the_solver(self):
        async def scenario():
            async with PebblingService() as service:
                result = await service.submit(
                    JobRequest(
                        kind="pebble", workload="fig2", budget=4,
                        backend="dpll", time_limit=30,
                    )
                )
                return result

        result = _run(scenario())
        assert result.ok
        assert result.payload["backend"] == "dpll"
        assert result.payload["steps"] == 6

    def test_unknown_backend_is_error_result_not_exception(self):
        async def scenario():
            async with PebblingService() as service:
                return await service.submit(
                    JobRequest(
                        kind="pebble", workload="fig2", budget=4, backend="bogus"
                    )
                )

        result = _run(scenario())
        assert result.status == "error"
        assert "registered backends" in result.error

    def test_cache_transfers_across_backends(self):
        async def scenario():
            async with PebblingService(store=ResultStore(":memory:")) as service:
                first = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               backend="dpll", time_limit=30)
                )
                second = await service.submit(
                    JobRequest(kind="pebble", workload="fig2", budget=4,
                               backend="cdcl", time_limit=30)
                )
                return first, second, service.stats.cache_hits

        first, second, cache_hits = _run(scenario())
        assert first.source == "solver"
        # Identical request modulo backend: the content address matches, so
        # the second answer comes from the cache and names its producer.
        assert cache_hits == 1 and second.source == "cache"
        assert second.payload["backend"] == "dpll"

    def test_request_file_default_backend(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({
            "requests": [
                {"kind": "pebble", "workload": "fig2", "budget": 4,
                 "time_limit": 30},
                {"kind": "pebble", "workload": "fig2", "budget": 4,
                 "backend": "cdcl", "time_limit": 30},
            ]
        }))
        requests = parse_request_file(path, default_backend="dpll")
        assert requests[0].backend == "dpll"  # filled in
        assert requests[1].backend == "cdcl"  # explicit wins
        report = run_request_file(path, default_backend="dpll")
        assert [r["status"] for r in report["results"]] == ["ok", "ok"]
        assert report["results"][0]["payload"]["backend"] == "dpll"
