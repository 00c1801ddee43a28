"""Tests for the Bennett and eager-Bennett baseline strategies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import PebblingError
from repro.dag import Dag
from repro.pebbling import bennett_strategy, eager_bennett_strategy
from repro.workloads import and_tree_dag, load_workload

#: Prints the eager-Bennett move list of every workload named on the
#: command line, as JSON.
_MOVES = """
import json, sys
from repro.pebbling import eager_bennett_strategy
from repro.workloads import load_workload
print(json.dumps({
    name: [str(move) for move in eager_bennett_strategy(load_workload(name)).moves()]
    for name in sys.argv[1:]
}))
"""


def _eager_moves_under_hash_seed(seed: int, workloads: list[str]) -> dict:
    source = Path(repro.__file__).resolve().parents[1]
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(seed),
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(source), os.environ.get("PYTHONPATH")])
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _MOVES, *workloads],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBennett:
    def test_fig2_matches_paper_numbers(self, fig2_dag):
        strategy = bennett_strategy(fig2_dag)
        # Section II-B: 6 pebbles (= number of nodes) and 10 steps.
        assert strategy.max_pebbles == 6
        assert strategy.num_moves == 10
        assert strategy.num_steps == 10

    def test_move_count_formula(self, fig2_dag, chain_dag, diamond_dag):
        for dag in (fig2_dag, chain_dag, diamond_dag):
            strategy = bennett_strategy(dag)
            assert strategy.num_moves == 2 * dag.num_nodes - len(dag.outputs())
            assert strategy.max_pebbles == dag.num_nodes

    def test_every_node_computed_exactly_once(self, fig2_dag):
        counts = bennett_strategy(fig2_dag).compute_counts()
        assert all(count == 1 for count in counts.values())

    def test_and9_matches_fig6_gate_count(self, and9_dag):
        # Fig. 6(b): 15 gates, 8 ancillae (17 qubits with the 9 inputs).
        strategy = bennett_strategy(and9_dag)
        assert strategy.num_moves == 15
        assert strategy.max_pebbles == 8

    def test_custom_order(self, fig2_dag):
        order = ["B", "D", "A", "C", "F", "E"]
        strategy = bennett_strategy(fig2_dag, order=order)
        assert strategy.max_pebbles == 6
        assert strategy.num_moves == 10

    def test_non_topological_order_rejected(self, fig2_dag):
        with pytest.raises(PebblingError):
            bennett_strategy(fig2_dag, order=["C", "A", "B", "D", "E", "F"])

    def test_order_must_be_a_permutation(self, fig2_dag):
        with pytest.raises(PebblingError):
            bennett_strategy(fig2_dag, order=["A", "B"])


class TestEagerBennett:
    def test_same_move_count_as_bennett(self, fig2_dag, and9_dag):
        for dag in (fig2_dag, and9_dag):
            assert eager_bennett_strategy(dag).num_moves == bennett_strategy(dag).num_moves

    def test_never_uses_more_pebbles_than_bennett(self, fig2_dag, and9_dag, diamond_dag):
        for dag in (fig2_dag, and9_dag, diamond_dag):
            assert (
                eager_bennett_strategy(dag).max_pebbles
                <= bennett_strategy(dag).max_pebbles
            )

    def test_saves_pebbles_when_outputs_finish_early(self):
        """A DAG where one output is computed long before the end: its cone
        can be released early, which plain Bennett never does."""
        dag = Dag("early_output")
        dag.add_node("a", [])
        dag.add_node("early", ["a"])          # output computed early
        dag.add_node("b", [])
        dag.add_node("c", ["b"])
        dag.add_node("d", ["c"])
        dag.add_node("late", ["d"])           # output computed last
        dag.set_outputs(["early", "late"])
        plain = bennett_strategy(dag)
        eager = eager_bennett_strategy(dag)
        assert eager.num_moves == plain.num_moves
        assert eager.max_pebbles < plain.max_pebbles

    def test_every_node_computed_exactly_once(self, and9_dag):
        counts = eager_bennett_strategy(and9_dag).compute_counts()
        assert all(count == 1 for count in counts.values())

    def test_chain_behaves_like_bennett(self, chain_dag):
        # On a chain nothing can be released early.
        assert eager_bennett_strategy(chain_dag).max_pebbles == chain_dag.num_nodes

    def test_wide_and_tree_savings(self):
        """On a large balanced AND tree the eager variant saves pebbles."""
        dag = and_tree_dag(17)
        plain = bennett_strategy(dag)
        eager = eager_bennett_strategy(dag)
        assert eager.max_pebbles <= plain.max_pebbles

    def test_release_order_does_not_depend_on_the_hash_seed(self):
        # Node names are strings, whose hashes change with PYTHONHASHSEED;
        # candidates are released in topological order, not set order.
        workloads = ["fig2", "c17", "and9"]
        first = _eager_moves_under_hash_seed(0, workloads)
        second = _eager_moves_under_hash_seed(1, workloads)
        assert first == second
        for name in workloads:
            moves = eager_bennett_strategy(load_workload(name)).num_moves
            assert len(first[name]) == moves
