"""Property tests for the clause-database layer of the CDCL solver.

The learned-clause machinery rewritten for the flat-arena layout —
LBD-ranked reduction and the flat watcher lists — is invisible from the
public API when it works, and silently unsound when it does not.  These
tests audit the invariants directly:

* ``_reduce_learned`` never deletes a clause that is locked as a reason
  on the trail or whose LBD is at most ``glue_max``;
* after every reduction and every ``_detach`` the watcher lists are
  exactly consistent (every live clause watched twice, on the negations
  of its first two literals, with no stale slot references);
* reduction never changes a verdict on random incremental
  add/solve/assume sequences, cross-checked against the DPLL oracle;
* the engine repeats itself: the same formula solved twice takes the
  same search, counter for counter.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sat.dpll import DpllSolver
from repro.sat.instances import pigeonhole
from repro.sat.solver import CdclSolver

MAX_VARIABLES = 12


@st.composite
def random_cnf(draw, max_clauses: int = 40) -> list[list[int]]:
    num_variables = draw(st.integers(min_value=1, max_value=MAX_VARIABLES))
    num_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses: list[list[int]] = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clauses.append(
            [
                draw(st.integers(min_value=1, max_value=num_variables))
                * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    return clauses


class AuditingSolver(CdclSolver):
    """CdclSolver that checks reduction invariants on every call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reduce_calls = 0

    def _reduce_learned(self):
        locked_before = self._locked_slots() & set(self._learned_slots)
        glue_before = {
            slot
            for slot in self._learned_slots
            if self._lbd[slot] <= self._glue_max
        }
        super()._reduce_learned()
        survivors = set(self._learned_slots)
        assert glue_before <= survivors, "reduction deleted a glue clause"
        assert locked_before <= survivors, "reduction deleted a locked reason"
        for slot in glue_before | locked_before:
            assert self._arena[slot] is not None
        self._debug_check_watches()
        self.reduce_calls += 1


def _aggressive(**overrides) -> AuditingSolver:
    """A solver tuned so reduction and restarts fire on tiny instances."""
    options = dict(
        reduce_min_learned=8,
        learned_limit_base=8,
        restart_base=4,
    )
    options.update(overrides)
    return AuditingSolver(**options)


def test_reduction_fires_and_preserves_verdict_on_pigeonhole():
    solver = _aggressive()
    for clause in pigeonhole(7, 6).clauses:
        solver.add_clause(clause)
    result = solver.solve()
    assert not result.is_sat
    assert solver.reduce_calls > 0
    assert solver.stats.deleted_clauses > 0
    solver._debug_check_watches()


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_aggressive_reduction_agrees_with_dpll(clauses):
    solver = _aggressive()
    dpll = DpllSolver()
    for clause in clauses:
        solver.add_clause(clause)
        dpll.add_clause(clause)
    assert solver.solve().is_sat == dpll.solve().is_sat
    solver._debug_check_watches()


@given(
    st.lists(random_cnf(max_clauses=15), min_size=1, max_size=4),
    st.lists(
        st.lists(
            st.integers(min_value=1, max_value=MAX_VARIABLES), max_size=3
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_incremental_reduction_agrees_with_dpll(batches, assumption_sets):
    """Random add/solve/assume sequences: learned clauses kept or reduced
    away in one solve must leave every later solve (with or without
    assumptions) agreeing with DPLL."""
    solver = _aggressive()
    reference: list[list[int]] = []
    for index, batch in enumerate(batches):
        for clause in batch:
            solver.add_clause(clause)
            reference.append(clause)
        assumptions = [
            variable if variable % 2 else -variable
            for variable in assumption_sets[index % len(assumption_sets)]
        ]
        dpll = DpllSolver()
        for clause in reference:
            dpll.add_clause(clause)
        for literal in assumptions:
            dpll.add_clause([literal])
        expected = dpll.solve().is_sat
        got = solver.solve(assumptions=assumptions)
        assert got.is_sat == expected
        # And without assumptions the base formula's verdict must hold too.
        dpll_base = DpllSolver()
        for clause in reference:
            dpll_base.add_clause(clause)
        assert solver.solve().is_sat == dpll_base.solve().is_sat
    solver._debug_check_watches()


def test_detach_is_consistent_and_repeatable():
    solver = CdclSolver()
    slots = []
    for clause in ([1, 2, 3], [-1, 2, 4], [2, 3, 4, 5], [-2, -3]):
        solver.add_clause(clause)
    # Internal slots 0..3 in insertion order; detach the middle ones.
    solver._debug_check_watches()
    solver._detach(1)
    solver._free_slot(1)
    solver._debug_check_watches()
    solver._detach(3)
    solver._free_slot(3)
    solver._debug_check_watches()
    assert solver.solve().is_sat
    del slots


def test_glue_clauses_survive_many_solves():
    solver = _aggressive(glue_max=2)
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    glue = {
        slot
        for slot in solver._learned_slots
        if solver._lbd[slot] <= solver._glue_max
    }
    assert glue == {
        slot for slot in glue if solver._arena[slot] is not None
    }
    assert solver._glue_count == sum(
        1
        for slot in solver._learned_slots
        if solver._lbd[slot] <= solver._glue_max
    )


def test_profile_mode_records_phase_times():
    solver = CdclSolver(profile=True)
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    phase_times = solver.stats.phase_times
    assert phase_times is not None
    assert set(phase_times) == {"propagate", "analyze", "reduce"}
    assert all(value >= 0.0 for value in phase_times.values())
    counters = solver.stats.as_dict()
    for key in ("time_propagate", "time_analyze", "time_reduce"):
        assert key in counters
    assert counters["time_propagate"] > 0.0


def test_lbd_histogram_counts_learned_clauses():
    solver = CdclSolver()
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    stats = solver.stats
    total = stats.lbd_glue + stats.lbd_mid + stats.lbd_high
    # The histogram counts every learned lemma, including unit lemmas
    # that are enqueued at the root instead of attached as clauses.
    assert total >= stats.learned_clauses > 0
    assert total <= stats.conflicts
    assert stats.lbd_sum >= total  # every learned clause has LBD >= 1
    assert "lbd_glue" in stats.as_dict()
    assert "phase_times" not in stats.as_dict()


def test_the_engine_repeats_itself():
    """No part of the search depends on the wall clock: two fresh solvers
    on the same formula take the same search, conflict for conflict."""
    counts = []
    for _ in range(2):
        solver = CdclSolver()
        for clause in pigeonhole(8, 7).clauses:
            solver.add_clause(clause)
        assert solver.solve().is_unsat
        stats = solver.stats
        counts.append((stats.conflicts, stats.decisions, stats.propagations))
    assert counts[0] == counts[1]
