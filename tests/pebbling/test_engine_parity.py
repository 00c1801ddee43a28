"""The default engine against the Python engine on the hard request classes.

One request of each class the tight-budget benchmark sends: budgets one
below the minimum for the small DAGs (all-UNSAT sweeps up to the step
guard), and9 p5 single-move, and a few pebbles above the minimum for the
crypto SLPs.  Switching the default engine must not change the search:
the outcome, the step count and the number of SAT calls of every request
must match the Python engine's (``cdcl:native=0``).
"""

from __future__ import annotations

import pytest

from repro.pebbling import EncodingOptions, ReversiblePebblingSolver
from repro.sat.backend import DEFAULT_BACKEND
from repro.workloads import load_workload

#: (workload, budget, single_move)
TIGHT_CLASSES = [
    ("fig2", 3, False),
    ("c17", 3, False),
    ("and9", 4, False),
    ("and9", 4, True),
    ("hadamard", 5, False),
    ("and9", 5, True),
    ("edwards-add", 11, False),
    ("kummer-double", 16, False),
]


@pytest.mark.parametrize(("workload", "budget", "single_move"), TIGHT_CLASSES)
def test_default_engine_searches_like_the_python_engine(workload, budget, single_move):
    dag = load_workload(workload)
    options = EncodingOptions(max_moves_per_step=1 if single_move else None)

    def search(backend: str):
        result = ReversiblePebblingSolver(dag, options=options, backend=backend).solve(
            budget, time_limit=300
        )
        assert result.complete
        return result.outcome, result.num_steps, len(result.attempts)

    assert search(DEFAULT_BACKEND) == search("cdcl:native=0")
