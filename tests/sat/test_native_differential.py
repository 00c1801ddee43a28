"""Differential tests for the native core's clause transfer.

Random incremental sequences — clause batches, assumptions, solves — run
through three engines side by side: the C core fed one
:meth:`~repro.sat.native.NativeCdclSolver.add_clauses` buffer per batch,
the C core fed the same clauses one :meth:`add_clause` call each, and the
DPLL oracle.  They must agree on every verdict, the two native engines
must end in the same state (same models, same cores), every model must
satisfy every clause added so far, and every core must be a subset of
the call's assumptions that is UNSAT together with the formula.

In a process started with libasan preloaded, the native engines come
from an AddressSanitizer/UBSan build of ``cdcl.c`` (its own hash name,
made by :func:`~repro.sat.native.build_library` with the flags below)
instead of the shared one, so the same sequences check the C core for
memory errors and undefined behaviour::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        python -m pytest tests/sat/test_native_differential.py
"""

from __future__ import annotations

import ctypes

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.sat import native
from repro.sat.dpll import DpllSolver

#: Compiler flags of the instrumented build.
SANITIZER_FLAGS = (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer", "-g",
)

#: True when libasan is already in the process (it must come first).
SANITIZED = hasattr(ctypes.CDLL(None), "__asan_init")

NATIVE_REASON = native.native_unavailable_reason()


def build_sanitized() -> tuple[ctypes.CDLL | None, str | None]:
    """The instrumented core, loaded: ``(library, None)`` or ``(None, reason)``."""
    path, reason = native.build_library(flags=SANITIZER_FLAGS)
    if path is None:
        return None, reason
    return native.load_library(path)


if SANITIZED:
    LIBRARY, LIBRARY_REASON = build_sanitized()
else:
    LIBRARY, LIBRARY_REASON = None, NATIVE_REASON

pytestmark = pytest.mark.skipif(
    LIBRARY_REASON is not None,
    reason=f"native core unavailable: {LIBRARY_REASON}",
)


def _engine() -> native.NativeCdclSolver:
    return native.NativeCdclSolver(library=LIBRARY)


@st.composite
def incremental_sequences(draw):
    """(variable count, steps): each step adds a batch or solves."""
    num_vars = draw(st.integers(min_value=1, max_value=8))
    literal = st.builds(
        lambda variable, sign: variable * sign,
        st.integers(min_value=1, max_value=num_vars),
        st.sampled_from([1, -1]),
    )
    clause = st.lists(literal, min_size=1, max_size=4)
    add = st.tuples(st.just("add"), st.lists(clause, max_size=10))
    solve = st.tuples(st.just("solve"), st.lists(literal, max_size=4))
    steps = draw(st.lists(st.one_of(add, solve), min_size=1, max_size=8))
    return num_vars, steps


def _satisfies(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(
        any(model.get(abs(literal), False) == (literal > 0) for literal in clause)
        for clause in clauses
    )


def _unsat_with(clauses: list[list[int]], units: list[int]) -> bool:
    oracle = DpllSolver()
    for clause in clauses:
        oracle.add_clause(clause)
    for literal in units:
        oracle.add_clause([literal])
    return oracle.solve().is_unsat


@given(incremental_sequences())
@settings(max_examples=200, deadline=None)
def test_batched_per_clause_and_dpll_agree(sequence):
    _, steps = sequence
    batched, single, oracle = _engine(), _engine(), DpllSolver()
    clauses: list[list[int]] = []
    for kind, payload in steps:
        if kind == "add":
            ok = batched.add_clauses(payload)
            results = [single.add_clause(clause) for clause in payload]
            for clause in payload:
                oracle.add_clause(clause)
            clauses.extend(payload)
            if results:
                assert ok == results[-1]
            continue
        assumptions = payload
        fast, slow, truth = (
            batched.solve(assumptions), single.solve(assumptions),
            oracle.solve(assumptions),
        )
        assert fast.is_sat == slow.is_sat == truth.is_sat
        if fast.is_sat:
            assert fast.model == slow.model
            assert _satisfies(fast.model, clauses + [[lit] for lit in assumptions])
        else:
            core = batched.failed_assumptions()
            assert core == single.failed_assumptions()
            assert set(core) <= set(assumptions)
            assert _unsat_with(clauses, core)


@given(incremental_sequences())
@settings(max_examples=100, deadline=None)
def test_per_call_counters_add_up_to_the_lifetime_totals(sequence):
    _, steps = sequence
    engine = _engine()
    summed: dict[str, float] = {}
    lifetime: dict[str, int] = {}
    for kind, payload in steps:
        if kind == "add":
            engine.add_clauses(payload)
            continue
        engine.solve(payload)
        lifetime = engine.lifetime_counters()
        reported = engine.counters()
        assert reported["max_decision_level"] == lifetime["max_decision_level"]
        for name, value in reported.items():
            if name not in ("max_decision_level", "solve_time"):
                summed[name] = summed.get(name, 0) + value
    lifetime.pop("max_decision_level", None)
    assert summed == {name: float(value) for name, value in lifetime.items()}


def test_batch_is_validated_before_anything_is_added():
    engine = _engine()
    assert engine.add_clauses([[1, 2], [-1, 3]])
    for bad in ([[2], [1, 0, 2]], [[2], [-(2**31)]], [[2], [2**31]], [[2], [1.5]]):
        with pytest.raises(SolverError, match="invalid literal"):
            engine.add_clauses(bad)
    # Nothing of a rejected batch arrived: -2 is still allowed.
    result = engine.solve([-2])
    assert result.is_sat and result.model[2] is False and result.model[3]


@pytest.mark.parametrize("literal", [0, 2**31, -(2**31), True, 1.0])
def test_single_clause_validates_its_literals(literal):
    engine = _engine()
    with pytest.raises(SolverError, match="invalid literal"):
        engine.add_clause([1, literal])
    assert engine.solve([-1]).is_sat  # nothing arrived


def test_batch_with_an_empty_clause_is_unsat_like_add_clause():
    batched, single = _engine(), _engine()
    assert not batched.add_clauses([[1], []])
    assert single.add_clause([1]) and not single.add_clause([])
    assert batched.solve().is_unsat and single.solve().is_unsat
    assert not batched.add_clauses([[2]])


def test_sanitized_build_is_the_one_under_test():
    """Under libasan every engine here runs the instrumented build."""
    if not SANITIZED:
        pytest.skip("libasan is not preloaded: the shared build is under test")
    assert LIBRARY is not None
    assert _engine()._lib is LIBRARY
