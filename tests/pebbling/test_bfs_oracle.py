"""The Problem-1 search against an oracle that shares none of its encoding.

:func:`bfs_min_steps` explores the reversible pebbling game directly:
configurations are bit masks over the nodes of a :class:`~repro.dag.Dag`,
a transition toggles any set of nodes whose dependencies stay pebbled on
both sides of it (one node per transition under the single-move rule), and
no configuration may exceed the budget (pebble count, or total node weight
in the weighted game).  Breadth-first search from the empty configuration
gives the exact minimum number of transitions to reach exactly the
outputs, or ``None`` when no strategy exists within the budget for any
number of steps.  It imports nothing from :mod:`repro.pebbling.encoding`,
so a bug in the CNF cannot hide behind an engine that reads the same CNF.

Every named schedule, under each cardinality encoding and with the live
and the fresh oracle, must agree with it: a certified minimum equals the
BFS distance, a witness is legal and never shorter, and
``proved_infeasible`` is set exactly when BFS finds the outputs
unreachable and the search stopped at the completeness threshold (every
schedule but ``geometric``, whose probe grid keeps the ``4 n^2`` ceiling).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import Dag
from repro.dag.generators import layered_random_dag
from repro.pebbling import EncodingOptions, ReversiblePebblingSolver
from repro.pebbling.solver import PebblingOutcome
from repro.sat.cards import CardinalityEncoding, _binomial_undercuts_tree
from repro.workloads import load_workload

SCHEDULES = ("linear", "geometric", "geometric-refine", "linear-core", "core-refine")
ENCODINGS = ("sequential", "totalizer", "pairwise")


def _game(dag: Dag, weighted: bool):
    nodes = dag.nodes()
    bit = {node: index for index, node in enumerate(nodes)}
    dependencies = [
        sum(1 << bit[dependency] for dependency in dag.dependencies(node))
        for node in nodes
    ]
    costs = [int(dag.node(node).weight) if weighted else 1 for node in nodes]
    target = sum(1 << bit[output] for output in dag.outputs())
    return bit, dependencies, costs, target


def _changes(movable: int, single_move: bool):
    """Every non-empty subset of ``movable`` (single bits when single-move)."""
    if single_move:
        while movable:
            low = movable & -movable
            yield low
            movable ^= low
        return
    subset = movable
    while subset:
        yield subset
        subset = (subset - 1) & movable


def bfs_min_steps(
    dag: Dag, budget: int, *, single_move: bool = False, weighted: bool = False
) -> int | None:
    """Fewest transitions from nothing pebbled to exactly the outputs.

    ``None`` when the outputs are unreachable within ``budget``.
    """
    _, dependencies, costs, target = _game(dag, weighted)
    size = len(costs)

    def load(configuration: int) -> int:
        return sum(costs[index] for index in range(size) if configuration >> index & 1)

    distance = {0: 0}
    frontier = [0]
    while frontier and target not in distance:
        successors = []
        for configuration in frontier:
            movable = 0
            for index in range(size):
                if dependencies[index] & configuration == dependencies[index]:
                    movable |= 1 << index
            for change in _changes(movable, single_move):
                # A toggled node's dependencies must stay pebbled, so none
                # of them may toggle in the same transition.
                if any(
                    change >> index & 1 and dependencies[index] & change
                    for index in range(size)
                ):
                    continue
                successor = configuration ^ change
                if successor in distance or load(successor) > budget:
                    continue
                distance[successor] = distance[configuration] + 1
                successors.append(successor)
        frontier = successors
    return distance.get(target)


def _legal(dag: Dag, configurations, budget: int, single_move: bool, weighted: bool) -> bool:
    """Replay a witness under the rules :func:`bfs_min_steps` explores."""
    bit, dependencies, costs, target = _game(dag, weighted)
    masks = [sum(1 << bit[node] for node in configuration) for configuration in configurations]
    if masks[0] != 0 or masks[-1] != target:
        return False
    for mask in masks:
        if sum(cost for index, cost in enumerate(costs) if mask >> index & 1) > budget:
            return False
    for before, after in zip(masks, masks[1:]):
        change = before ^ after
        if single_move and change & (change - 1):
            return False
        for index in range(len(costs)):
            if change >> index & 1 and dependencies[index] & ~(before & after):
                return False
    return True


def _check(dag, budget, schedule, cardinality, *, incremental=True,
           single_move=False, weighted=False, distance=None):
    options = EncodingOptions(
        cardinality=CardinalityEncoding.from_name(cardinality),
        max_moves_per_step=1 if single_move else None,
        weighted=weighted,
    )
    solver = ReversiblePebblingSolver(dag, options=options, incremental=incremental)
    result = solver.solve(budget, strategy=schedule)
    label = (dag.name, budget, schedule, cardinality, incremental, single_move, weighted)
    assert result.complete, label
    if distance is None:
        assert result.outcome is PebblingOutcome.STEP_LIMIT, label
        assert result.proved_infeasible is (schedule != "geometric"), label
        return
    assert not result.proved_infeasible, label
    if schedule == "geometric":
        # Its grid may jump from below the minimum past the ceiling.
        if not result.found:
            assert result.outcome is PebblingOutcome.STEP_LIMIT, label
            return
    else:
        assert result.found, label
        assert result.minimal, label
        assert result.num_steps == distance, label
    assert result.num_steps >= distance, label
    assert _legal(dag, result.strategy.configurations, budget, single_move, weighted), label


def _budgets(dag: Dag, weighted: bool = False) -> range:
    options = EncodingOptions(weighted=weighted)
    low = ReversiblePebblingSolver(dag, options=options).minimum_pebbles_lower_bound()
    high = (
        sum(int(dag.node(node).weight) for node in dag.nodes())
        if weighted
        else dag.num_nodes
    )
    return range(low, high + 1)


class TestTheOracle:
    def test_fig2_distances(self, fig2_dag):
        # Budget 3 is infeasible (a SAT sweep of every bound up to 41
        # refutes it) and 4 pebbles need 6 steps.  With a pebble for every
        # node the chain A -> C -> E still takes 5: A, C and E go on, then
        # C and A come off, one step each.
        assert bfs_min_steps(fig2_dag, 3) is None
        assert bfs_min_steps(fig2_dag, 4) == 6
        assert bfs_min_steps(fig2_dag, 6) == 5
        # One move per step: every node pebbled once, every non-output
        # unpebbled once, at the full budget.
        assert bfs_min_steps(fig2_dag, 6, single_move=True) == 2 * 6 - 2

    def test_a_chain_needs_the_recursive_strategy(self, chain_dag):
        # On a path, k pebbles reach at most 2^(k-1) nodes and leave only
        # the last one pebbled, so 5 nodes need 4 pebbles, not 3.
        assert bfs_min_steps(chain_dag, 3) is None
        assert bfs_min_steps(chain_dag, 4) is not None
        assert bfs_min_steps(chain_dag, 5, single_move=True) == 2 * 5 - 1

    def test_weights_count_against_the_budget(self, fig2_dag):
        dag = fig2_dag.copy()
        dag.node("E").weight = 3.0
        assert bfs_min_steps(dag, 4, weighted=True) is None
        assert bfs_min_steps(dag, 4) == 6
        assert bfs_min_steps(dag, 6, weighted=True) is not None

    def test_below_the_structural_minimum_nothing_is_reachable(self):
        for name in ("fig2", "c17", "and9", "hadamard"):
            dag = load_workload(name)
            low = _budgets(dag).start
            assert bfs_min_steps(dag, low - 1) is None, name


@pytest.mark.parametrize("single_move", [False, True], ids=["any-moves", "single-move"])
@pytest.mark.parametrize("cardinality", ENCODINGS)
@pytest.mark.parametrize("name", ["fig2", "c17", "and9", "hadamard"])
def test_live_searches_match_the_oracle_at_every_budget(name, cardinality, single_move):
    dag = load_workload(name)
    for budget in _budgets(dag):
        distance = bfs_min_steps(dag, budget, single_move=single_move)
        for schedule in SCHEDULES:
            _check(dag, budget, schedule, cardinality,
                   single_move=single_move, distance=distance)


@pytest.mark.parametrize("single_move", [False, True], ids=["any-moves", "single-move"])
@pytest.mark.parametrize("name", ["fig2", "c17"])
def test_fresh_searches_match_the_oracle_at_every_budget(name, single_move):
    dag = load_workload(name)
    for budget in _budgets(dag):
        distance = bfs_min_steps(dag, budget, single_move=single_move)
        for schedule in SCHEDULES:
            for cardinality in ENCODINGS:
                _check(dag, budget, schedule, cardinality, incremental=False,
                       single_move=single_move, distance=distance)


@pytest.mark.parametrize("single_move", [False, True], ids=["any-moves", "single-move"])
def test_weighted_searches_match_the_oracle_at_every_budget(fig2_dag, single_move):
    dag = fig2_dag.copy()
    for node, weight in zip(dag.nodes(), (1, 2, 1, 3, 2, 1)):
        dag.node(node).weight = float(weight)
    for budget in _budgets(dag, weighted=True):
        distance = bfs_min_steps(dag, budget, single_move=single_move, weighted=True)
        for schedule in SCHEDULES:
            for cardinality in ENCODINGS:
                _check(dag, budget, schedule, cardinality, single_move=single_move,
                       weighted=True, distance=distance)


@pytest.mark.parametrize("weighted", [False, True], ids=["pebbles", "unit-weights"])
@pytest.mark.parametrize("single_move", [False, True], ids=["any-moves", "single-move"])
def test_the_default_counter_matches_the_oracle_on_both_sides_of_its_rule(
    single_move, weighted
):
    # The bundled DAGs have at most 8 nodes, where the totalizer takes the
    # binomial clauses at almost every budget.  On these ten nodes it
    # keeps its tree at budgets 4 (infeasible), 5 and 6, and takes the
    # binomial clauses at 7 to 9 and for the single-move bound.  Unit
    # weights go through the weighted entry point to the same rule.
    dag = layered_random_dag(10, 2, depth=4, seed=3)
    budgets = _budgets(dag, weighted)
    assert {
        _binomial_undercuts_tree(dag.num_nodes, budget)
        for budget in budgets
        if budget < dag.num_nodes
    } == {False, True}
    for budget in budgets:
        distance = bfs_min_steps(dag, budget, single_move=single_move, weighted=weighted)
        for schedule in SCHEDULES:
            _check(dag, budget, schedule, "totalizer", single_move=single_move,
                   weighted=weighted, distance=distance)


@st.composite
def _games(draw):
    """A DAG of at most 7 nodes, a move rule, weights and a budget."""
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    dag = layered_random_dag(
        num_nodes,
        draw(st.integers(min_value=1, max_value=max(1, num_nodes // 2))),
        depth=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    weighted = draw(st.booleans())
    if weighted:
        for node in dag.nodes():
            dag.node(node).weight = float(draw(st.integers(min_value=1, max_value=3)))
    budget = draw(st.sampled_from(list(_budgets(dag, weighted))))
    return dag, budget, draw(st.booleans()), weighted


@given(
    _games(),
    st.sampled_from(SCHEDULES),
    st.sampled_from(ENCODINGS),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_games_match_the_oracle(game, schedule, cardinality, incremental):
    dag, budget, single_move, weighted = game
    distance = bfs_min_steps(dag, budget, single_move=single_move, weighted=weighted)
    _check(dag, budget, schedule, cardinality, incremental=incremental,
           single_move=single_move, weighted=weighted, distance=distance)


@st.composite
def _games_with_spares(draw):
    """A small random game plus nodes that no output needs.

    :func:`layered_random_dag` gives every non-output a dependent, so the
    spares come afterwards: each reads up to three earlier nodes (spares
    included) and is read by nothing but a later spare.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    dag = layered_random_dag(
        num_nodes,
        draw(st.integers(min_value=1, max_value=max(1, num_nodes // 2))),
        depth=draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        reads = draw(st.lists(st.sampled_from(dag.nodes()), max_size=3, unique=True))
        dag.add_node(f"spare{index}", reads)
    weighted = draw(st.booleans())
    if weighted:
        for node in dag.nodes():
            dag.node(node).weight = float(draw(st.integers(min_value=1, max_value=3)))
    return dag, weighted


@given(_games_with_spares())
@settings(max_examples=60, deadline=None)
def test_the_budget_floor_never_exceeds_the_smallest_feasible_budget(game):
    dag, weighted = game
    solver = ReversiblePebblingSolver(dag, options=EncodingOptions(weighted=weighted))
    # A transition's moves can be made one at a time, removals first, so
    # the single-move game is feasible at exactly the same budgets.
    smallest = next(
        budget
        for budget in itertools.count(1)
        if bfs_min_steps(dag, budget, single_move=True, weighted=weighted) is not None
    )
    assert solver.minimum_pebbles_lower_bound() <= smallest
