"""Trace writer unit tests: spans, events, context shipping, merging."""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.obs import trace as obs_trace
from repro.obs.analyze import load_trace
from repro.obs.trace import TraceContext, tracer


def _worker_emit(ctx: TraceContext, value: int) -> None:
    """Adopt a shipped context and emit one span + event (child process)."""

    with obs_trace.activated(ctx):
        with obs_trace.span("worker.unit", value=value) as unit:
            unit.set(doubled=value * 2)
            obs_trace.event("worker.tick", value=value)


class TestInactiveMode:
    def test_span_yields_the_shared_null(self):
        assert not obs_trace.active()
        with obs_trace.span("anything", key="value") as first:
            with obs_trace.span("nested") as second:
                assert first is second  # the one shared _NULL_SPAN
                first.set(ignored=True)

    def test_event_and_context_are_no_ops(self):
        assert obs_trace.event("anything", key="value") is None
        assert obs_trace.current_context() is None

    def test_activated_none_is_a_no_op(self):
        with obs_trace.activated(None):
            assert not obs_trace.active()

    def test_tracer_none_yields_none(self):
        with tracer(None) as owner:
            assert owner is None
            assert not obs_trace.active()

    def test_disabled_instrumentation_is_cheap(self):
        # Guard the no-op fast path: 50k span+event pairs with tracing off
        # must stay one global read each.  The bound is deliberately huge
        # (wall-clock on shared CI is noisy); it exists to catch the
        # fast path growing I/O or allocation, not to micro-benchmark.
        import time

        started = time.perf_counter()
        for _ in range(50_000):
            with obs_trace.span("noop"):
                obs_trace.event("noop")
        assert time.perf_counter() - started < 5.0


class TestSingleProcess:
    def test_nested_spans_record_parentage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path):
            assert obs_trace.active()
            with obs_trace.span("root", kind="test") as root:
                with obs_trace.span("child") as child:
                    obs_trace.event("tick", n=1)
        trace = load_trace(path)
        assert trace.complete
        # Records merge by start timestamp, so the root sorts first even
        # though the child span closed (and was written) before it.
        assert [record["name"] for record in trace.spans] == ["root", "child"]
        by_name = {record["name"]: record for record in trace.spans}
        assert by_name["child"]["parent"] == by_name["root"]["span"]
        assert by_name["root"]["parent"] is None
        assert by_name["root"]["trace"] == by_name["child"]["trace"]
        assert root.span_id == by_name["root"]["span"]
        assert child.span_id == by_name["child"]["span"]
        (event,) = trace.events
        assert event["span"] == by_name["child"]["span"]
        assert event["attrs"] == {"n": 1}

    def test_sibling_top_level_spans_root_fresh_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path):
            with obs_trace.span("first"):
                pass
            with obs_trace.span("second"):
                pass
        trace = load_trace(path)
        assert len(trace.roots) == 2
        assert len(trace.trace_ids) == 2

    def test_error_status_on_exception(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path):
            try:
                with obs_trace.span("boom", bound=4):
                    raise ValueError("injected")
            except ValueError:
                pass
        (record,) = load_trace(path).spans
        assert record["status"] == "error"
        assert record["attrs"]["bound"] == 4

    def test_spool_is_merged_and_removed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path) as owner:
            with obs_trace.span("root"):
                pass
            spool = owner.spool
        assert path.exists()
        assert not spool.exists()
        meta = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert meta["type"] == "meta"
        assert meta["schema"] == obs_trace.TRACE_SCHEMA
        assert meta["records"] == 1

    def test_truncated_part_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path) as owner:
            with obs_trace.span("root"):
                pass
            # A worker killed mid-write leaves a truncated final line.
            (owner.spool / "part-99999.jsonl").write_text(
                '{"type": "span", "name": "half', encoding="utf-8"
            )
        trace = load_trace(path)
        assert trace.complete
        assert [record["name"] for record in trace.spans] == ["root"]


class TestCrossProcess:
    def test_current_context_ships_the_open_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracer(path):
            with obs_trace.span("root") as root:
                ctx = obs_trace.current_context()
        assert isinstance(ctx, TraceContext)
        assert ctx.span_id == root.span_id

    def test_forked_workers_merge_under_the_owner_root(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        mp = multiprocessing.get_context("fork")
        with tracer(path):
            with obs_trace.span("root") as root:
                ctx = obs_trace.current_context()
                workers = [
                    mp.Process(target=_worker_emit, args=(ctx, value))
                    for value in (1, 2)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                    assert worker.exitcode == 0
        trace = load_trace(path)
        assert trace.complete
        pids = {record["pid"] for record in trace.spans}
        assert len(pids) == 3  # the owner plus two forked children
        units = [r for r in trace.spans if r["name"] == "worker.unit"]
        assert len(units) == 2
        for record in units:
            assert record["parent"] == root.span_id
            assert record["trace"] == root.trace_id
            assert record["attrs"]["doubled"] == record["attrs"]["value"] * 2
        ticks = [r for r in trace.events if r["name"] == "worker.tick"]
        assert {t["span"] for t in ticks} == {u["span"] for u in units}

    def test_merge_orders_by_timestamp_across_pids(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        mp = multiprocessing.get_context("fork")
        with tracer(path):
            with obs_trace.span("root"):
                ctx = obs_trace.current_context()
                worker = mp.Process(target=_worker_emit, args=(ctx, 7))
                worker.start()
                worker.join()
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        stamps = [(r["ts"], r["pid"], r["seq"]) for r in records]
        assert stamps == sorted(stamps)

    def test_each_record_is_encoded_once(self, tmp_path, monkeypatch):
        # The owner's records reach the merge in memory and a worker's
        # lines are written back as they were read: one encoding each.
        encoded = []
        dumps = json.dumps

        def counting(record, **kwargs):
            encoded.append((os.getpid(), record.get("name", record["type"])))
            return dumps(record, **kwargs)

        monkeypatch.setattr(obs_trace.json, "dumps", counting)
        path = tmp_path / "trace.jsonl"
        mp = multiprocessing.get_context("fork")
        with tracer(path):
            with obs_trace.span("root"):
                obs_trace.event("owner.tick")
                ctx = obs_trace.current_context()
                worker = mp.Process(target=_worker_emit, args=(ctx, 3))
                worker.start()
                worker.join()
                assert worker.exitcode == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(name for _, name in encoded) == ["meta", "owner.tick", "root"]
        assert {pid for pid, _ in encoded} == {os.getpid()}
        names = sorted(json.loads(line).get("name", "meta") for line in lines)
        assert names == ["meta", "owner.tick", "root", "worker.tick", "worker.unit"]
