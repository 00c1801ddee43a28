"""Property tests for the root-level simplification engine.

Bounded variable elimination rewrites the formula into an equisatisfiable
one over fewer variables, so every invariant here is about what must
survive the rewrite: reconstructed models still satisfy the *original*
clauses, vivification only ever strengthens, chronological backtracking
changes the search trajectory but never a verdict or the soundness of an
assumption core, and frozen variables are untouchable.  Everything is
cross-checked against the DPLL oracle on random incremental
add/solve/assume sequences — the same discipline the inprocessing suite
uses, pointed at the three new techniques.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sat.dpll import DpllSolver
from repro.sat.instances import pigeonhole, random_3sat
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


def _aggressive(**overrides) -> CdclSolver:
    """A solver tuned so inprocessing (and with it BVE/vivify) fires early."""
    options = dict(
        reduce_min_learned=8,
        learned_limit_base=8,
        restart_base=4,
        inprocess_interval=16,
    )
    options.update(overrides)
    return CdclSolver(**options)


def _satisfies(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


# ---------------------------------------------------------------------------
# BVE: model reconstruction
# ---------------------------------------------------------------------------
@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_bve_models_satisfy_the_original_clauses(clauses):
    """simplify() may eliminate variables; the model handed back must still
    satisfy every clause as originally added, via the reconstruction stack."""
    solver = _aggressive(bve=True, bve_grow=2)
    dpll = DpllSolver()
    for clause in clauses:
        solver.add_clause(clause)
        dpll.add_clause(clause)
    solver.simplify()
    result = solver.solve()
    assert result.is_sat == dpll.solve().is_sat
    if result.is_sat:
        assert _satisfies(result.model, clauses)


def test_bve_eliminates_and_reconstructs_on_pigeonhole_sat():
    solver = _aggressive(bve=True)
    instance = random_3sat(30, 100, seed=7)
    for clause in instance.clauses:
        solver.add_clause(clause)
    solver.simplify()
    reference = DpllSolver()
    for clause in instance.clauses:
        reference.add_clause(clause)
    result = solver.solve()
    assert result.is_sat == reference.solve().is_sat
    if result.is_sat:
        assert _satisfies(result.model, [c for c in instance.clauses])


@given(random_cnf(max_clauses=25))
@settings(max_examples=60, deadline=None)
def test_restore_on_mention_keeps_later_clauses_sound(clauses):
    """Adding a clause over an eliminated variable restores it; the verdict
    and models must match an oracle that saw every clause up front."""
    if not clauses:
        return
    split = max(1, len(clauses) // 2)
    first, second = clauses[:split], clauses[split:]
    solver = _aggressive(bve=True)
    for clause in first:
        solver.add_clause(clause)
    solver.simplify()
    for clause in second:
        solver.add_clause(clause)
    dpll = DpllSolver()
    for clause in clauses:
        dpll.add_clause(clause)
    result = solver.solve()
    assert result.is_sat == dpll.solve().is_sat
    if result.is_sat:
        assert _satisfies(result.model, clauses)


# ---------------------------------------------------------------------------
# frozen-variable discipline
# ---------------------------------------------------------------------------
@given(
    random_cnf(),
    st.sets(st.integers(min_value=1, max_value=MAX_VARIABLES), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_frozen_variables_are_never_eliminated(clauses, frozen):
    solver = _aggressive(bve=True)
    for clause in clauses:
        solver.add_clause(clause)
    solver.freeze(frozen)
    solver.simplify()
    for variable in frozen:
        assert not solver._eliminated[variable], (
            f"frozen variable {variable} was eliminated"
        )
    result = solver.solve()
    if result.is_sat:
        assert _satisfies(result.model, clauses)


@given(
    random_cnf(max_clauses=25),
    st.lists(
        st.integers(min_value=1, max_value=MAX_VARIABLES).map(
            lambda v: v if v % 2 else -v
        ),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_assumption_cores_stay_sound_after_elimination(clauses, assumptions):
    """Assumptions may name variables BVE removed; solve() restores them and
    the reported core (formula + core as units) must still be UNSAT."""
    solver = _aggressive(bve=True)
    for clause in clauses:
        solver.add_clause(clause)
    solver.simplify()
    dpll = DpllSolver()
    for clause in clauses:
        dpll.add_clause(clause)
    for literal in assumptions:
        dpll.add_clause([literal])
    result = solver.solve(assumptions=assumptions)
    assert result.is_sat == dpll.solve().is_sat
    if not result.is_sat:
        core = solver.failed_assumptions()
        assert set(core) <= set(assumptions)
        check = DpllSolver()
        for clause in clauses:
            check.add_clause(clause)
        for literal in core:
            check.add_clause([literal])
        assert not check.solve().is_sat


# ---------------------------------------------------------------------------
# vivification: strengthening only
# ---------------------------------------------------------------------------
@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_vivification_preserves_verdicts_and_models(clauses):
    solver = _aggressive(vivify=True, bve=False)
    dpll = DpllSolver()
    for clause in clauses:
        solver.add_clause(clause)
        dpll.add_clause(clause)
    solver.simplify()
    result = solver.solve()
    assert result.is_sat == dpll.solve().is_sat
    if result.is_sat:
        assert _satisfies(result.model, clauses)


def test_vivification_strengthens_a_redundant_clause():
    # (x1 v x2) and (x1 v ~x2) force x1 one propagation step after ~x1 is
    # probed, so (x1 v x3 v x4) collapses to x1 — a strengthening only the
    # unit-propagation probe finds (no clause subsumes the candidate).
    solver = CdclSolver(vivify=True, bve=False)
    solver.add_clause([1, 2])
    solver.add_clause([1, -2])
    solver.add_clause([1, 3, 4])  # vivifiable: ~1 is unit-refutable
    solver.simplify()
    assert solver.stats.vivified_clauses + solver.stats.root_simplified >= 1
    assert solver.solve().is_sat


# ---------------------------------------------------------------------------
# chronological backtracking
# ---------------------------------------------------------------------------
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
def test_chrono_agrees_with_dpll_on_incremental_sequences(batches, assumption_sets):
    """Chronological backtracking (forced on every conflict via chrono=1)
    must agree with the oracle on random add/solve/assume sequences, and
    its UNSAT cores must stay sound."""
    solver = _aggressive(chrono=1)
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
        if not got.is_sat:
            core = solver.failed_assumptions()
            check = DpllSolver()
            for clause in reference:
                check.add_clause(clause)
            for literal in core:
                check.add_clause([literal])
            assert not check.solve().is_sat


def test_chrono_fires_and_preserves_the_pigeonhole_verdict():
    solver = CdclSolver(chrono=1, restart_base=4)
    for clause in pigeonhole(7, 6).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    assert solver.stats.chrono_backtracks > 0
