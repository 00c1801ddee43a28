"""Reversible pebbling game — the paper's core contribution.

The subpackage is organised as follows:

* :mod:`repro.pebbling.strategy` -- pebbling configurations and strategies,
  legality checking, step/move/pebble metrics, serialisation to single
  moves and operation-count reports;
* :mod:`repro.pebbling.bennett` -- the Bennett baseline (compute everything,
  then uncompute in reverse order) and the eager-release variant obtained by
  reordering (Fig. 3(b));
* :mod:`repro.pebbling.encoding` -- the SAT encoding of Problem 2 (pebble
  variables :math:`p_{v,i}`, initial/final clauses, move clauses and
  cardinality clauses);
* :mod:`repro.pebbling.solver` -- :class:`ReversiblePebblingSolver`, which
  iterates the bounded-step SAT queries (Problem 1), minimises the number
  of pebbles under a timeout, and extracts strategies from models;
* :mod:`repro.pebbling.heuristic` -- a greedy heuristic pebbler usable on
  DAGs that are too large for the SAT engine;
* :mod:`repro.pebbling.portfolio` -- batches of pebbling tasks over a
  process pool, with retries and pool rebuilds.
"""

from repro.pebbling.bennett import bennett_strategy, eager_bennett_strategy
from repro.pebbling.encoding import EncodingOptions, PebblingEncoder
from repro.pebbling.heuristic import greedy_pebbling_strategy
from repro.pebbling.portfolio import (
    PortfolioRecord,
    PortfolioTask,
    RetryPolicy,
    run_portfolio,
    tasks_from_suite,
)
from repro.pebbling.search import (
    GeometricRefine,
    GeometricSearch,
    LinearSearch,
    SearchStrategy,
    strategy_from_name,
)
from repro.pebbling.solver import (
    PebblingOutcome,
    PebblingResult,
    ReversiblePebblingSolver,
    minimize_pebbles,
    pebble_dag,
)
from repro.pebbling.strategy import PebbleMove, PebblingStrategy

__all__ = [
    "EncodingOptions",
    "GeometricRefine",
    "GeometricSearch",
    "LinearSearch",
    "PebbleMove",
    "PebblingEncoder",
    "PebblingOutcome",
    "PebblingResult",
    "PebblingStrategy",
    "PortfolioRecord",
    "PortfolioTask",
    "RetryPolicy",
    "ReversiblePebblingSolver",
    "SearchStrategy",
    "bennett_strategy",
    "eager_bennett_strategy",
    "greedy_pebbling_strategy",
    "minimize_pebbles",
    "pebble_dag",
    "run_portfolio",
    "strategy_from_name",
    "tasks_from_suite",
]
