"""Tests for the deterministic fault-injecting ``chaos`` SAT backend.

Covers spec parsing/rendering, the seeded fault schedule's determinism,
each injected fault kind in isolation (flaky first solves, random
crashes, spurious UNKNOWNs, artificial delays), the retry-scope healing
contract (faults must not replay identically on later attempts), and the
registry integration (probe delegates to the inner backend, chaos cannot
nest).
"""

from __future__ import annotations

import pytest

from repro.errors import ChaosInjectedError, SolverError, TransientSolverError
from repro.sat.backend import (
    ChaosBackend,
    ChaosSpec,
    backend_names,
    backend_unavailable_reason,
    chaos_scope,
    create_backend,
    set_chaos_scope,
)
from repro.sat.solver import Status


@pytest.fixture(autouse=True)
def _reset_scope():
    """Chaos scope is module-level state; leave it clean for other tests."""
    set_chaos_scope("", attempt=0, epoch=0)
    yield
    set_chaos_scope("", attempt=0, epoch=0)


def _tiny_backend(spec: str) -> ChaosBackend:
    """A chaos backend over a 1-variable satisfiable instance."""
    backend = create_backend(spec)
    assert isinstance(backend, ChaosBackend)
    variable = backend.add_variable()
    backend.add_clause([variable])
    return backend


class TestSpecParsing:
    def test_defaults(self):
        spec = ChaosSpec.parse(None)
        assert spec == ChaosSpec()
        assert spec.seed == 0 and spec.inner == "cdcl"

    def test_bare_integer_is_the_seed(self):
        assert ChaosSpec.parse("42").seed == 42

    def test_full_key_value_mix(self):
        spec = ChaosSpec.parse("7,flaky=2,crash=0.25,unknown=0.5,delay=0.01,exit=1")
        assert spec.seed == 7
        assert spec.flaky == 2
        assert spec.crash == 0.25
        assert spec.unknown == 0.5
        assert spec.delay == 0.01
        assert spec.exit == 1

    def test_inner_spec_may_contain_colons(self):
        spec = ChaosSpec.parse("inner=external:minisat")
        assert spec.inner == "external:minisat"

    def test_duplicate_seed_rejected(self):
        with pytest.raises(SolverError, match="twice"):
            ChaosSpec.parse("1,2")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SolverError, match="twice"):
            ChaosSpec.parse("flaky=1,flaky=2")

    def test_unknown_key_rejected(self):
        with pytest.raises(SolverError, match="unknown key"):
            ChaosSpec.parse("explode=1")

    @pytest.mark.parametrize("argument", [
        "crash=1.5", "unknown=-0.1", "delay=-1", "flaky=-1", "exit=-2",
        "crash=lots", "seed=x",
    ])
    def test_out_of_range_values_rejected(self, argument):
        with pytest.raises(SolverError):
            ChaosSpec.parse(argument)

    def test_nested_chaos_rejected(self):
        with pytest.raises(SolverError, match="cannot itself be chaos"):
            ChaosSpec.parse("inner=chaos:1")

    def test_render_round_trips(self):
        spec = ChaosSpec.parse("3,inner=dpll,flaky=1,crash=0.1")
        rendered = spec.render()
        assert rendered.startswith("chaos:")
        assert ChaosSpec.parse(rendered.split(":", 1)[1]) == spec


class TestRegistry:
    def test_chaos_is_registered(self):
        assert "chaos" in backend_names()

    def test_probe_delegates_to_inner(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAT_EXTERNAL", raising=False)
        assert backend_unavailable_reason("chaos") is None
        reason = backend_unavailable_reason("chaos:inner=external")
        assert reason is not None  # the inner external backend is unusable

    def test_probe_reports_bad_spec(self):
        with pytest.raises(SolverError, match="invalid SAT backend spec.*unknown key"):
            backend_unavailable_reason("chaos:explode=1")

    def test_create_rejects_nested_chaos(self):
        with pytest.raises(SolverError, match="cannot itself be chaos"):
            create_backend("chaos:inner=chaos")


class TestFaultInjection:
    def test_error_hierarchy(self):
        # Retry layers key off TransientSolverError; chaos faults must be one.
        assert issubclass(ChaosInjectedError, TransientSolverError)

    def test_clean_spec_solves_through_inner(self):
        backend = _tiny_backend("chaos:0")
        result = backend.solve()
        assert result.status is Status.SATISFIABLE

    def test_flaky_fails_first_calls_then_heals(self):
        backend = _tiny_backend("chaos:0,flaky=2")
        with pytest.raises(ChaosInjectedError, match="flaky"):
            backend.solve()
        with pytest.raises(ChaosInjectedError, match="flaky"):
            backend.solve()
        assert backend.solve().status is Status.SATISFIABLE

    def test_flaky_is_silent_on_retry_attempts(self):
        set_chaos_scope("task", attempt=1)
        backend = _tiny_backend("chaos:0,flaky=5")
        assert backend.solve().status is Status.SATISFIABLE

    def test_flaky_is_silent_after_pool_rebuild(self):
        set_chaos_scope("task", attempt=0, epoch=1)
        backend = _tiny_backend("chaos:0,flaky=5")
        assert backend.solve().status is Status.SATISFIABLE

    def test_certain_crash_raises_every_call(self):
        backend = _tiny_backend("chaos:0,crash=1.0")
        for _ in range(3):
            with pytest.raises(ChaosInjectedError, match="crash"):
                backend.solve()

    def test_certain_unknown_is_a_spurious_timeout(self):
        backend = _tiny_backend("chaos:0,unknown=1.0")
        result = backend.solve()
        assert result.status is Status.UNKNOWN
        assert result.model is None

    def test_exit_never_kills_the_main_process(self):
        # The exit fault is guarded to pool worker processes; inline it
        # must fall through to the inner backend instead of killing pytest.
        backend = _tiny_backend("chaos:0,exit=3")
        assert backend.solve().status is Status.SATISFIABLE

    def test_delay_still_solves(self):
        backend = _tiny_backend("chaos:0,delay=0.001")
        assert backend.solve().status is Status.SATISFIABLE

    def test_counters_expose_injections(self):
        backend = _tiny_backend("chaos:0,unknown=1.0")
        backend.solve()
        backend.solve()
        counters = backend.counters()
        assert counters["chaos_calls"] == 2.0
        assert counters["chaos_unknown"] == 2.0
        assert "chaos_crash" not in counters  # only nonzero faults reported


class TestSearchCountsEachCallOnce:
    """A search on chaos reads its counters once, so none is counted twice.

    Summing a copy of the totals per call counted ``chaos_calls`` as
    1 + 2 + ... + n, and an injected UNKNOWN repeated the inner engine's
    counters of the call before it.
    """

    @pytest.mark.parametrize(
        ("spec", "workload", "calls"),
        [
            ("chaos:1", "fig2", 38),
            ("chaos:5,unknown=0.2", "fig2", 3),
            ("chaos:5,unknown=0.2", "c17", 2),
        ],
    )
    def test_the_record_counts_each_call_once(self, spec, workload, calls):
        from repro.pebbling.portfolio import PortfolioTask, run_portfolio

        (record,) = run_portfolio([PortfolioTask(workload, 3, backend=spec)])
        assert record.sat_calls == calls
        assert record.counters["chaos_calls"] == calls
        if "unknown" in spec:
            assert record.counters["chaos_unknown"] == 1

    @pytest.mark.parametrize("spec", ["chaos:1", "chaos:5,unknown=0.2"])
    @pytest.mark.parametrize("workload", ["fig2", "c17"])
    def test_the_counters_add_up_the_calls(self, spec, workload):
        from repro.pebbling import ReversiblePebblingSolver
        from repro.workloads import load_workload

        set_chaos_scope(f"{workload}_p3")
        result = ReversiblePebblingSolver(load_workload(workload), backend=spec).solve(3)
        assert result.counters["chaos_calls"] == len(result.attempts) > 1
        assert result.counters["conflicts"] == sum(a.conflicts for a in result.attempts)


class TestDeterminism:
    def _injection_trace(self, spec: str, calls: int = 40) -> list[str]:
        set_chaos_scope("trace-task", attempt=0, epoch=0)
        backend = _tiny_backend(spec)
        trace = []
        for _ in range(calls):
            try:
                result = backend.solve()
            except ChaosInjectedError:
                trace.append("crash")
            else:
                trace.append(result.status.value)
        return trace

    def test_same_seed_same_schedule(self):
        spec = "chaos:11,crash=0.3,unknown=0.3"
        assert self._injection_trace(spec) == self._injection_trace(spec)

    def test_different_seed_different_schedule(self):
        first = self._injection_trace("chaos:11,crash=0.3,unknown=0.3")
        second = self._injection_trace("chaos:12,crash=0.3,unknown=0.3")
        assert first != second

    def test_schedule_depends_on_scope_token(self):
        spec = "chaos:11,crash=0.5"
        set_chaos_scope("task-a")
        backend = _tiny_backend(spec)
        trace_a = []
        for _ in range(30):
            try:
                backend.solve()
                trace_a.append("ok")
            except ChaosInjectedError:
                trace_a.append("crash")
        set_chaos_scope("task-b")
        backend = _tiny_backend(spec)
        trace_b = []
        for _ in range(30):
            try:
                backend.solve()
                trace_b.append("ok")
            except ChaosInjectedError:
                trace_b.append("crash")
        assert trace_a != trace_b

    def test_scope_accessor_round_trips(self):
        set_chaos_scope("unit", attempt=2, epoch=1)
        assert chaos_scope() == ("unit", 2, 1)
