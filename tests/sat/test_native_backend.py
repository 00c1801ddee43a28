"""Parity tests for the ctypes-loaded native CDCL core.

The native core runs every request that names no engine, but the Python
engine stays the reference: when a C compiler is present these tests pin
the core to the Python engine and the DPLL oracle on verdicts, model
validity and core soundness, end to end through the pebbling search.
Without a compiler the whole module skips — cleanly, with the probe's
reason — and the one test that must run everywhere asserts the probe
itself: ``cdcl:native=1`` either works or reports a human-readable
reason, never a silent fallback.
"""

from __future__ import annotations

import random

import pytest

from repro.sat.backend import backend_unavailable_reason, create_backend
from repro.sat.dpll import DpllSolver
from repro.sat.instances import pigeonhole
from repro.sat.native import native_unavailable_reason
from repro.sat.solver import CdclSolver

NATIVE_REASON = native_unavailable_reason()

needs_native = pytest.mark.skipif(
    NATIVE_REASON is not None,
    reason=f"native core unavailable: {NATIVE_REASON}",
)


def test_probe_reports_availability_honestly():
    """Runs with or without a compiler: the registry probe must mirror the
    loader exactly — usable, or unavailable with the loader's reason."""
    probe = backend_unavailable_reason("cdcl:native=1")
    if NATIVE_REASON is None:
        assert probe is None
    else:
        assert probe is not None
        assert NATIVE_REASON in probe


def test_unavailable_construction_raises_not_falls_back():
    if NATIVE_REASON is None:
        pytest.skip("native core is available here")
    from repro.errors import SolverError
    from repro.sat.native import NativeCdclSolver

    with pytest.raises(SolverError, match="native core unavailable"):
        NativeCdclSolver()


@needs_native
def test_native_spec_builds_the_native_class():
    from repro.sat.native import NativeCdclSolver

    backend = create_backend("cdcl:native=1")
    assert isinstance(backend, NativeCdclSolver)
    assert isinstance(create_backend("cdcl:native=0"), CdclSolver)


@needs_native
def test_pigeonhole_verdicts_and_counters():
    backend = create_backend("cdcl:native=1")
    for clause in pigeonhole(7, 6).clauses:
        assert backend.add_clause(clause)
    result = backend.solve()
    assert result.is_unsat
    counters = backend.counters()
    assert counters["conflicts"] > 0
    assert counters["propagations"] > 0
    assert counters["solve_time"] >= 0


@needs_native
def test_random_cnfs_agree_with_dpll_and_models_are_valid():
    rng = random.Random(1234)
    for _ in range(150):
        num_vars = rng.randint(1, 12)
        clauses = [
            [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(0, 40))
        ]
        native = create_backend("cdcl:native=1")
        dpll = DpllSolver()
        for clause in clauses:
            native.add_clause(clause)
            dpll.add_clause(clause)
        result = native.solve()
        assert result.is_sat == dpll.solve().is_sat
        if result.is_sat:
            model = result.model
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


@needs_native
def test_assumption_cores_are_sound_subsets():
    rng = random.Random(99)
    for _ in range(100):
        num_vars = rng.randint(2, 10)
        clauses = [
            [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(1, 25))
        ]
        assumptions = [
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(rng.randint(1, 4))
        ]
        native = create_backend("cdcl:native=1")
        for clause in clauses:
            native.add_clause(clause)
        result = native.solve(assumptions)
        oracle = DpllSolver()
        for clause in clauses:
            oracle.add_clause(clause)
        for literal in assumptions:
            oracle.add_clause([literal])
        assert result.is_sat == oracle.solve().is_sat
        if not result.is_sat:
            core = native.failed_assumptions()
            assert set(core) <= set(assumptions)
            check = DpllSolver()
            for clause in clauses:
                check.add_clause(clause)
            for literal in core:
                check.add_clause([literal])
            assert not check.solve().is_sat


@needs_native
def test_incremental_solving_accumulates_clauses():
    backend = create_backend("cdcl:native=1")
    backend.add_clause([1, 2])
    assert backend.solve().is_sat
    backend.add_clause([-1])
    result = backend.solve()
    assert result.is_sat
    assert result.model[2] is True
    backend.add_clause([-2])
    assert backend.solve().is_unsat


@needs_native
def test_conflict_limit_yields_unknown_not_a_wrong_answer():
    backend = create_backend("cdcl:native=1", conflict_limit=1)
    for clause in pigeonhole(8, 7).clauses:
        backend.add_clause(clause)
    result = backend.solve()
    assert result.is_unknown or result.is_unsat


@needs_native
def test_pebbling_search_parity_with_the_python_engine():
    from repro.pebbling.solver import ReversiblePebblingSolver
    from repro.workloads import load_workload

    for workload, budget in (("fig2", 4), ("c17", 4)):
        dag = load_workload(workload)
        python_result = ReversiblePebblingSolver(
            dag, backend="cdcl:native=0"
        ).solve(budget)
        native_result = ReversiblePebblingSolver(
            dag, backend="cdcl:native=1"
        ).solve(budget)
        assert native_result.outcome == python_result.outcome
        assert native_result.num_steps == python_result.num_steps
