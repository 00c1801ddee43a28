"""The default at-most-P counter against the sequential counter.

``totalizer`` takes the binomial clauses on narrow frames and its tree on
wide ones, so its CNF differs from the sequential counter's on both sides
of that rule.  The CNF may change the search, never the answer.  On every
request class of the steady benchmark (``perfbench/workloads.py``) and
every row of the default batch suite, each schedule must reach the same
outcome, the same certified step count and the same infeasibility proof
under both encodings.  Under ``linear``, which probes every bound in
turn, the SAT calls must match too; the core-guided schedules may take a
different number of calls, and ``geometric`` a different uncertified
witness.
"""

from __future__ import annotations

import pytest

from repro.pebbling import EncodingOptions, ReversiblePebblingSolver
from repro.sat.cards import CardinalityEncoding
from repro.workloads import load_workload

SCHEDULES = ("linear", "geometric", "geometric-refine", "linear-core", "core-refine")

#: (workload, budget, single_move, scale): the steady benchmark's request
#: classes (tight-budget, loose-budget, service-mix), then the default
#: batch suite's rows that none of them covers.
CLASSES = (
    ("fig2", 3, False, 1.0),
    ("c17", 3, False, 1.0),
    ("and9", 4, False, 1.0),
    ("and9", 4, True, 1.0),
    ("hadamard", 5, False, 1.0),
    ("and9", 5, True, 1.0),
    ("edwards-add", 11, False, 1.0),
    ("kummer-double", 16, False, 1.0),
    ("c432", 9, False, 0.1),
    ("c499", 9, False, 0.1),
    ("c1355", 12, False, 0.1),
    ("c1908", 12, False, 0.1),
    ("kummer-add", 20, False, 1.0),
    ("kummer-double", 20, False, 1.0),
    ("edwards-add", 14, False, 1.0),
    ("and9", 5, False, 1.0),
    ("and9", 6, False, 1.0),
    ("fig2", 4, False, 1.0),
    ("hadamard", 6, False, 1.0),
    ("hadamard", 7, False, 1.0),
    ("c17", 4, False, 1.0),
    ("fig2", 4, True, 1.0),
)


def _answer(dag, budget, single_move, schedule, cardinality):
    options = EncodingOptions(
        cardinality=cardinality, max_moves_per_step=1 if single_move else None
    )
    result = ReversiblePebblingSolver(dag, options=options).solve(budget, strategy=schedule)
    assert result.complete
    answer = (
        result.outcome.value,
        result.num_steps if result.minimal else None,
        result.minimal,
        result.proved_infeasible,
    )
    if schedule == "linear":
        answer += (len(result.attempts),)
    return answer


@pytest.mark.parametrize(
    ("workload", "budget", "single_move", "scale"),
    CLASSES,
    ids=[
        f"{workload}-p{budget}{'-single' if single_move else ''}"
        f"{'' if scale == 1.0 else f'-s{scale:g}'}"
        for workload, budget, single_move, scale in CLASSES
    ],
)
def test_the_totalizer_answers_as_the_sequential_counter_does(
    workload, budget, single_move, scale
):
    dag = load_workload(workload, scale=scale)
    for schedule in SCHEDULES:
        answers = [
            _answer(dag, budget, single_move, schedule, cardinality)
            for cardinality in (CardinalityEncoding.SEQUENTIAL, CardinalityEncoding.TOTALIZER)
        ]
        assert answers[0] == answers[1], schedule
