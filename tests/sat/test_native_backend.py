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

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sat import native
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


@pytest.mark.parametrize(
    ("restart_base", "seed", "message"),
    [
        (2**64 + 1, 0, "restart_base must be >= 1 and <= 2147483647"),
        (2**64, 0, "restart_base must be"),
        (0, 0, "restart_base must be"),
        (100, -1, "seed must be >= 0 and <= 4294967295"),
        (100, 2**32, "seed must be"),
    ],
)
def test_values_the_core_cannot_hold_are_refused(restart_base, seed, message):
    """ctypes would truncate these silently, so the run would not be the
    one its spec names.  Checked before the core loads, so this runs with
    or without a compiler; so does a spec built directly, not parsed."""
    from repro.errors import SolverError
    from repro.sat.backend import CdclSpec
    from repro.sat.native import NativeCdclSolver

    with pytest.raises(SolverError, match=message):
        NativeCdclSolver(restart_base=restart_base, random_seed=seed)
    with pytest.raises(SolverError, match=message):
        CdclSpec(restart_base=restart_base, seed=seed, native=True).build()


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


@needs_native
def test_declaring_variables_past_the_core_bound_changes_nothing():
    # Only the declared count moves, so nothing is allocated before the
    # check: a solve would size its model from it.
    from repro.errors import SolverError
    from repro.sat.cnf import Cnf

    engine = native.NativeCdclSolver()
    past = Cnf()
    past.add_clause([1, -2])
    past.pool.reserve_through(engine.max_variable + 1)
    with pytest.raises(SolverError, match="declare"):
        engine.add_cnf(past)
    assert engine.num_variables == 0

    full = Cnf()
    full.pool.reserve_through(engine.max_variable)
    engine.add_cnf(full)
    assert engine.num_variables == engine.max_variable
    with pytest.raises(SolverError, match="declare"):
        engine.add_variable()
    assert engine.num_variables == engine.max_variable


_OUT_OF_MEMORY = '''
import resource
from array import array
from repro.errors import SolverError
from repro.sat.native import NativeCdclSolver
engine = NativeCdclSolver()  # load the core before the cap
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    {call}
except SolverError as exc:
    print("raised:", exc)
engine.add_clause([1, 2])
print("then sat:", engine.solve().is_sat)
'''


@needs_native
@pytest.mark.parametrize(
    "call",
    [
        "engine.add_clause([10**8, 1])",
        "engine.add_clause([2**28, 1])",
        "engine.add_clause_buffer(array('i', [10**8, 1, 0]), 1)",
        "engine.solve([10**8])",
    ],
    ids=["clause", "clause-2^28", "buffer", "assumption"],
)
def test_an_allocation_failure_raises_and_leaves_the_solver_usable(call):
    # Variables under the core's bound can still ask for more memory than
    # the process may have: 10**8 variables need about 8 GB of slots.  A
    # 1 GiB address-space cap makes that allocation fail, in a child
    # process so that the cap stays there.  This test stays out of the
    # sanitizer run: ASan's shadow memory does not fit under the cap.
    source = Path(native.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(source), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY.format(call=call)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    raised, then = proc.stdout.splitlines()
    assert raised.startswith("raised: native core out of memory"), proc.stdout
    assert then == "then sat: True"
