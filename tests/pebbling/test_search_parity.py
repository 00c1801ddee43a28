"""Golden search trajectories of the Problem-1 loop.

Every row pins what one search did, not just what it answered: the
outcome, the step count, the number of SAT calls and whether the step
count is certified minimal.  The table covers each named schedule with
the live incremental oracle and with a fresh encoding per bound.  Both
engines must reproduce every row exactly: they reach the same verdicts
by different conflicts.

This table runs the sequential counter, named explicitly, and was
recorded before the default changed.  A second table pins the live
oracle under the totalizer, the default encoding.  Every frame here has
6 or 8 nodes, where the totalizer emits the binomial clauses wherever
they are no more than its tree's clauses plus registers, so the table
was recorded again when that rule came in.  It reaches the same
outcomes and certified step counts as the first, and the same SAT-call
counts under ``linear`` and ``geometric-refine``.  Only what no
certificate pins moved: the SAT calls of the core-guided schedules
(fig2 p3 ``linear-core`` takes 34 calls, not 36) and the witness of a
non-certified ``geometric`` probe (c17 p4 finds 8 steps, not 9).  On
two rows the engines part, each written as one value per engine: the
C core's ``geometric`` probe on and9 p6 meets a 10-step witness where
the Python engine meets an 8-step one, and on c17 p3 ``core-refine``
at the threshold the Python engine takes one call more.

A third table runs the two all-UNSAT sweeps, fig2 and c17 at 3 pebbles,
at the default step ceiling, under the sequential counter with both
oracles and under the totalizer with the live one.  With at most 3 of 6
nodes pebbled there are C = 42 configurations, so every schedule that certifies minimality
stops at the completeness threshold C - 1 = 41 and claims the proof;
``geometric`` keeps the 4 n^2 ceiling and claims nothing.  The rows of
the first two tables stop at ``max_steps=40``, one bound short of the
threshold, and must claim no proof.
"""

from __future__ import annotations

import pytest

from repro.pebbling import EncodingOptions, ReversiblePebblingSolver
from repro.sat.backend import DEFAULT_BACKEND, resolve_backend
from repro.sat.cards import CardinalityEncoding
from repro.workloads import load_workload

ENGINES = sorted({resolve_backend(DEFAULT_BACKEND), "cdcl:native=0"})

SCHEDULES = ("linear", "geometric", "geometric-refine", "linear-core", "core-refine")

#: (workload, budget, single_move, max_steps) -> schedule ->
#: (outcome, steps, SAT calls, minimal) for incremental=True, then False.
GOLDEN = {
    ("fig2", 3, False, 40): {
        "linear": [("step-limit", None, 37, False), ("step-limit", None, 37, False)],
        "geometric": [("step-limit", None, 6, False), ("step-limit", None, 6, False)],
        "geometric-refine": [("step-limit", None, 7, False), ("step-limit", None, 7, False)],
        "linear-core": [("step-limit", None, 36, False), ("step-limit", None, 37, False)],
        "core-refine": [("step-limit", None, 7, False), ("step-limit", None, 7, False)],
    },
    ("fig2", 4, False, None): {
        "linear": [("solution", 6, 3, True), ("solution", 6, 3, True)],
        "geometric": [("solution", 6, 2, False), ("solution", 6, 2, False)],
        "geometric-refine": [("solution", 6, 3, True), ("solution", 6, 3, True)],
        "linear-core": [("solution", 6, 2, True), ("solution", 6, 3, True)],
        "core-refine": [("solution", 6, 3, True), ("solution", 6, 3, True)],
    },
    ("c17", 3, False, 40): {
        "linear": [("step-limit", None, 37, False), ("step-limit", None, 37, False)],
        "geometric": [("step-limit", None, 6, False), ("step-limit", None, 6, False)],
        "geometric-refine": [("step-limit", None, 7, False), ("step-limit", None, 7, False)],
        "linear-core": [("step-limit", None, 8, False), ("step-limit", None, 37, False)],
        "core-refine": [("step-limit", None, 4, False), ("step-limit", None, 7, False)],
    },
    ("c17", 4, False, None): {
        "linear": [("solution", 8, 5, True), ("solution", 8, 5, True)],
        "geometric": [("solution", 9, 3, False), ("solution", 8, 3, False)],
        "geometric-refine": [("solution", 8, 5, True), ("solution", 8, 5, True)],
        "linear-core": [("solution", 8, 3, True), ("solution", 8, 5, True)],
        "core-refine": [("solution", 8, 4, True), ("solution", 8, 5, True)],
    },
    ("and9", 5, False, None): {
        "linear": [("solution", 10, 6, True), ("solution", 10, 6, True)],
        "geometric": [("solution", 10, 3, False), ("solution", 10, 3, False)],
        "geometric-refine": [("solution", 10, 4, True), ("solution", 10, 4, True)],
        "linear-core": [("solution", 10, 3, True), ("solution", 10, 6, True)],
        "core-refine": [("solution", 10, 4, True), ("solution", 10, 4, True)],
    },
    ("and9", 6, False, None): {
        "linear": [("solution", 8, 4, True), ("solution", 8, 4, True)],
        "geometric": [("solution", 10, 3, False), ("solution", 8, 3, False)],
        "geometric-refine": [("solution", 8, 5, True), ("solution", 8, 5, True)],
        "linear-core": [("solution", 8, 2, True), ("solution", 8, 4, True)],
        "core-refine": [("solution", 8, 4, True), ("solution", 8, 5, True)],
    },
    ("hadamard", 6, False, None): {
        "linear": [("solution", 4, 2, True), ("solution", 4, 2, True)],
        "geometric": [("solution", 4, 2, False), ("solution", 4, 2, False)],
        "geometric-refine": [("solution", 4, 2, True), ("solution", 4, 2, True)],
        "linear-core": [("solution", 4, 2, True), ("solution", 4, 2, True)],
        "core-refine": [("solution", 4, 2, True), ("solution", 4, 2, True)],
    },
    ("and9", 5, True, None): {
        "linear": [("solution", 21, 7, True), ("solution", 21, 7, True)],
        "geometric": [("solution", 21, 2, False), ("solution", 21, 2, False)],
        "geometric-refine": [("solution", 21, 5, True), ("solution", 21, 5, True)],
        "linear-core": [("solution", 21, 7, True), ("solution", 21, 7, True)],
        "core-refine": [("solution", 21, 5, True), ("solution", 21, 5, True)],
    },
}

#: GOLDEN's keys -> schedule -> (outcome, steps, SAT calls, minimal) for
#: the live oracle under the totalizer; a row the engines part on maps
#: each engine to its own.
GOLDEN_TOTALIZER = {
    ("fig2", 3, False, 40): {
        "linear": ("step-limit", None, 37, False),
        "geometric": ("step-limit", None, 6, False),
        "geometric-refine": ("step-limit", None, 7, False),
        "linear-core": ("step-limit", None, 34, False),
        "core-refine": ("step-limit", None, 6, False),
    },
    ("fig2", 4, False, None): {
        "linear": ("solution", 6, 3, True),
        "geometric": ("solution", 6, 2, False),
        "geometric-refine": ("solution", 6, 3, True),
        "linear-core": ("solution", 6, 2, True),
        "core-refine": ("solution", 6, 3, True),
    },
    ("c17", 3, False, 40): {
        "linear": ("step-limit", None, 37, False),
        "geometric": ("step-limit", None, 6, False),
        "geometric-refine": ("step-limit", None, 7, False),
        "linear-core": ("step-limit", None, 8, False),
        "core-refine": ("step-limit", None, 4, False),
    },
    ("c17", 4, False, None): {
        "linear": ("solution", 8, 5, True),
        "geometric": ("solution", 8, 3, False),
        "geometric-refine": ("solution", 8, 5, True),
        "linear-core": ("solution", 8, 3, True),
        "core-refine": ("solution", 8, 4, True),
    },
    ("and9", 5, False, None): {
        "linear": ("solution", 10, 6, True),
        "geometric": ("solution", 10, 3, False),
        "geometric-refine": ("solution", 10, 4, True),
        "linear-core": ("solution", 10, 3, True),
        "core-refine": ("solution", 10, 4, True),
    },
    ("and9", 6, False, None): {
        "linear": ("solution", 8, 4, True),
        "geometric": {
            "cdcl:native=0": ("solution", 8, 3, False),
            "cdcl:native=1": ("solution", 10, 3, False),
        },
        "geometric-refine": ("solution", 8, 5, True),
        "linear-core": ("solution", 8, 2, True),
        "core-refine": ("solution", 8, 4, True),
    },
    ("hadamard", 6, False, None): {
        "linear": ("solution", 4, 2, True),
        "geometric": ("solution", 4, 2, False),
        "geometric-refine": ("solution", 4, 2, True),
        "linear-core": ("solution", 4, 2, True),
        "core-refine": ("solution", 4, 2, True),
    },
    ("and9", 5, True, None): {
        "linear": ("solution", 21, 7, True),
        "geometric": ("solution", 21, 2, False),
        "geometric-refine": ("solution", 21, 5, True),
        "linear-core": ("solution", 21, 7, True),
        "core-refine": ("solution", 21, 5, True),
    },
}

#: (workload, budget) -> schedule -> (outcome, steps, SAT calls, minimal,
#: proved_infeasible) at the default step ceiling: the sequential counter
#: with incremental=True, then False, then the totalizer with
#: incremental=True.
GOLDEN_THRESHOLD = {
    ("fig2", 3): {
        "linear": [
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 38, False, True),
        ],
        "geometric": [
            ("step-limit", None, 10, False, False),
            ("step-limit", None, 10, False, False),
            ("step-limit", None, 10, False, False),
        ],
        "geometric-refine": [
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 7, False, True),
        ],
        "linear-core": [
            ("step-limit", None, 37, False, True),
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 35, False, True),
        ],
        "core-refine": [
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 6, False, True),
        ],
    },
    ("c17", 3): {
        "linear": [
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 38, False, True),
        ],
        "geometric": [
            ("step-limit", None, 10, False, False),
            ("step-limit", None, 10, False, False),
            ("step-limit", None, 10, False, False),
        ],
        "geometric-refine": [
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 7, False, True),
            ("step-limit", None, 7, False, True),
        ],
        "linear-core": [
            ("step-limit", None, 8, False, True),
            ("step-limit", None, 38, False, True),
            ("step-limit", None, 8, False, True),
        ],
        "core-refine": [
            ("step-limit", None, 4, False, True),
            ("step-limit", None, 7, False, True),
            {
                "cdcl:native=0": ("step-limit", None, 5, False, True),
                "cdcl:native=1": ("step-limit", None, 4, False, True),
            },
        ],
    },
}


def _row_id(workload, budget, single_move, schedule, incremental):
    return (
        f"{workload}-p{budget}{'-single' if single_move else ''}"
        f"-{schedule}-{'live' if incremental else 'fresh'}"
    )


def _table_rows():
    for (workload, budget, single_move, max_steps), by_schedule in GOLDEN.items():
        for schedule in SCHEDULES:
            for incremental, expected in zip((True, False), by_schedule[schedule]):
                yield pytest.param(
                    workload,
                    budget,
                    single_move,
                    max_steps,
                    schedule,
                    incremental,
                    expected,
                    id=_row_id(workload, budget, single_move, schedule, incremental),
                )


def _totalizer_rows():
    for (workload, budget, single_move, max_steps), by_schedule in GOLDEN_TOTALIZER.items():
        for schedule in SCHEDULES:
            yield pytest.param(
                workload,
                budget,
                single_move,
                max_steps,
                schedule,
                by_schedule[schedule],
                id=_row_id(workload, budget, single_move, schedule, True),
            )


def _threshold_rows():
    for (workload, budget), by_schedule in GOLDEN_THRESHOLD.items():
        for schedule in SCHEDULES:
            live, fresh, totalizer = by_schedule[schedule]
            for cardinality, incremental, expected in (
                (CardinalityEncoding.SEQUENTIAL, True, live),
                (CardinalityEncoding.SEQUENTIAL, False, fresh),
                (CardinalityEncoding.TOTALIZER, True, totalizer),
            ):
                yield pytest.param(
                    workload,
                    budget,
                    schedule,
                    incremental,
                    cardinality,
                    expected,
                    id=_row_id(workload, budget, False, schedule, incremental)
                    + f"-{cardinality.value}",
                )


def _search(engine, workload, budget, single_move, max_steps, schedule,
            incremental, cardinality):
    options = EncodingOptions(
        cardinality=cardinality, max_moves_per_step=1 if single_move else None
    )
    solver = ReversiblePebblingSolver(
        load_workload(workload), options=options, incremental=incremental, backend=engine
    )
    result = solver.solve(budget, strategy=schedule, max_steps=max_steps)
    assert result.complete
    return result


def _for_engine(expected, engine):
    """A golden row, or the engine's own where the engines part."""
    return expected[engine] if isinstance(expected, dict) else expected


def _trajectory(result):
    return (
        result.outcome.value,
        result.num_steps,
        len(result.attempts),
        result.minimal,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    ("workload", "budget", "single_move", "max_steps", "schedule", "incremental", "expected"),
    list(_table_rows()),
)
def test_search_trajectory_matches_the_golden_table(
    engine, workload, budget, single_move, max_steps, schedule, incremental, expected
):
    result = _search(
        engine, workload, budget, single_move, max_steps, schedule, incremental,
        CardinalityEncoding.SEQUENTIAL,
    )
    assert _trajectory(result) == expected
    assert not result.proved_infeasible


def test_the_golden_table_has_eighty_rows():
    assert len(list(_table_rows())) == 80


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    ("workload", "budget", "single_move", "max_steps", "schedule", "expected"),
    list(_totalizer_rows()),
)
def test_live_totalizer_trajectory_matches_the_golden_table(
    engine, workload, budget, single_move, max_steps, schedule, expected
):
    result = _search(
        engine, workload, budget, single_move, max_steps, schedule, True,
        CardinalityEncoding.TOTALIZER,
    )
    assert _trajectory(result) == _for_engine(expected, engine)
    assert not result.proved_infeasible


def test_the_totalizer_table_covers_every_live_row():
    assert list(GOLDEN_TOTALIZER) == list(GOLDEN)
    assert len(list(_totalizer_rows())) == 40


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    ("workload", "budget", "schedule", "incremental", "cardinality", "expected"),
    list(_threshold_rows()),
)
def test_sweep_to_the_threshold_matches_the_golden_table(
    engine, workload, budget, schedule, incremental, cardinality, expected
):
    result = _search(
        engine, workload, budget, False, None, schedule, incremental, cardinality
    )
    assert (*_trajectory(result), result.proved_infeasible) == _for_engine(
        expected, engine
    )


def test_the_threshold_table_has_thirty_rows():
    assert len(list(_threshold_rows())) == 30
