"""Cross-process trace merging through the real portfolio pool.

Property-based: the span tree must come back complete — every parent id
resolvable, every ``sat.call`` span attributed with its bound — for any
pool width, because workers flush their own part files and the owner
merges them deterministically.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs import trace as obs_trace
from repro.obs.analyze import load_trace
from repro.obs.trace import tracer
from repro.pebbling.portfolio import PortfolioTask, run_portfolio


def _assert_sat_calls_attributed(trace) -> None:
    calls = [record for record in trace.spans if record["name"] == "sat.call"]
    assert calls, "no sat.call spans recorded"
    for record in calls:
        assert "bound" in record["attrs"]
        # Error spans (injected faults) legitimately close
        # before a verdict lands; everything else must carry one.
        if record.get("status") != "error":
            assert "verdict" in record["attrs"]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(jobs=st.integers(min_value=1, max_value=2))
def test_pool_traces_merge_complete(jobs: int) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        with tracer(path):
            (record,) = run_portfolio(
                [PortfolioTask("fig2", 4, time_limit=30.0)],
                jobs=jobs,
                force_pool=True,
            )
            assert record.found
        trace = load_trace(path)
        assert trace.complete, trace.problems
        assert trace.spans
        assert len(trace.trace_ids) == 1
        _assert_sat_calls_attributed(trace)
        # force_pool portfolio runs cross a process boundary, so the
        # merged file must show the owner plus at least one worker pid.
        pids = {record["pid"] for record in trace.spans + trace.events}
        assert len(pids) >= 2, pids


def test_each_call_record_is_one_span_of_its_search(tmp_path):
    from repro.pebbling import ReversiblePebblingSolver
    from repro.workloads import load_workload

    path = tmp_path / "trace.jsonl"
    with tracer(path):
        result = ReversiblePebblingSolver(load_workload("fig2")).solve(3)
    trace = load_trace(path)
    (solve,) = [record for record in trace.spans if record["name"] == "pebble.solve"]
    calls = [record for record in trace.spans if record["name"] == "sat.call"]
    assert len(calls) == len(result.attempts) > 10
    for span, attempt in zip(sorted(calls, key=lambda r: r["ts"]), result.attempts):
        assert span["parent"] == solve["span"] and span["status"] == "ok"
        assert span["attrs"] == {
            "bound": attempt.num_steps, "budget": 3, "backend": result.backend,
            "ladder": attempt.ladder, "verdict": attempt.status.value,
            "conflicts": attempt.conflicts,
        }
        assert span["dur"] == attempt.runtime
        assert solve["ts"] <= span["ts"]
        assert span["ts"] + span["dur"] <= solve["ts"] + solve["dur"]


def test_a_search_that_raises_keeps_its_finished_calls(
    tmp_path, monkeypatch, fresh_registry
):
    import pytest

    from repro.errors import SolverError
    from repro.pebbling import ReversiblePebblingSolver
    from repro.sat import backend as registry
    from repro.sat.solver import CdclSolver
    from repro.workloads import load_workload

    class Failing(CdclSolver):
        """Answers two calls, then fails the third."""

        calls = 0

        def solve(self, assumptions=(), **limits):
            Failing.calls += 1
            if Failing.calls == 3:
                raise SolverError("the engine failed")
            return super().solve(assumptions, **limits)

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    registry.register_backend("failing", lambda argument, limit: Failing())
    path = tmp_path / "trace.jsonl"
    with tracer(path), pytest.raises(SolverError, match="engine failed"):
        ReversiblePebblingSolver(load_workload("fig2"), backend="failing").solve(3)
    trace = load_trace(path)
    assert trace.complete, trace.problems
    (solve,) = [record for record in trace.spans if record["name"] == "pebble.solve"]
    calls = sorted(
        (record for record in trace.spans if record["name"] == "sat.call"),
        key=lambda record: record["ts"],
    )
    assert solve["status"] == "error"
    assert [record["status"] for record in calls] == ["ok", "ok", "error"]
    assert all(record["parent"] == solve["span"] for record in calls)
    assert calls[-1]["attrs"] == {
        "bound": calls[1]["attrs"]["bound"] + 1, "budget": 3,
        "backend": "failing", "ladder": 1,
    }
    assert fresh_registry.snapshot()["repro_sat_calls_total"] == 2
