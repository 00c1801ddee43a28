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
