"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.dag import Dag
from repro.logic import LogicNetwork
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.workloads import and_tree_dag, example_dag


@pytest.fixture
def fresh_registry():
    """A clean enabled registry installed as the global, restored after."""

    registry = MetricsRegistry(enabled=True)
    previous = obs_metrics.set_registry(registry)
    try:
        yield registry
    finally:
        obs_metrics.set_registry(previous)


@pytest.fixture
def call_stats(monkeypatch):
    """The ``SolveResult.stats`` of every SAT call searches make in the test.

    Each engine a :class:`~repro.pebbling.solver.ReversiblePebblingSolver`
    builds appends its answers' own stats, in call order.
    """
    from repro.pebbling.solver import ReversiblePebblingSolver

    calls: list[object] = []
    original = ReversiblePebblingSolver._make_solver

    def recording(self, cnf=None):
        engine = original(self, cnf)
        solve = engine.solve

        def kept(*args, **kwargs):
            answer = solve(*args, **kwargs)
            calls.append(answer.stats)
            return answer

        engine.solve = kept
        return engine

    monkeypatch.setattr(ReversiblePebblingSolver, "_make_solver", recording)
    return calls


@pytest.fixture
def fig2_dag() -> Dag:
    """The paper's Fig. 2 example DAG (6 nodes, outputs E and F)."""
    return example_dag()


@pytest.fixture
def and9_dag() -> Dag:
    """The Fig. 6(a) 9-input AND DAG (8 nodes, one output)."""
    return and_tree_dag(9)


@pytest.fixture
def chain_dag() -> Dag:
    """A 5-node chain: the worst case for pebble reuse."""
    dag = Dag("chain5")
    previous: list[str] = []
    for index in range(1, 6):
        dag.add_node(f"n{index}", previous)
        previous = [f"n{index}"]
    return dag


@pytest.fixture
def diamond_dag() -> Dag:
    """A diamond: one source feeding two middle nodes joined by a sink."""
    dag = Dag("diamond")
    dag.add_node("s", [])
    dag.add_node("l", ["s"])
    dag.add_node("r", ["s"])
    dag.add_node("t", ["l", "r"])
    return dag


@pytest.fixture
def half_adder_network() -> LogicNetwork:
    """A two-gate half adder used across logic/circuit tests."""
    network = LogicNetwork("half_adder")
    network.add_input("a")
    network.add_input("b")
    network.add_gate("sum", "XOR", ["a", "b"])
    network.add_gate("carry", "AND", ["a", "b"])
    network.add_output("sum")
    network.add_output("carry")
    return network


@pytest.fixture
def bench_parses(monkeypatch):
    """Names of the networks ``parse_bench`` builds during the test.

    The workload loaders parse a file's bytes with ``parse_bench``, so that
    is the function counted.
    """
    from repro.logic import bench

    names: list[object] = []
    original = bench.parse_bench

    def counting(text, **kwargs):
        names.append(kwargs.get("name"))
        return original(text, **kwargs)

    monkeypatch.setattr(bench, "parse_bench", counting)
    return names


@pytest.fixture
def counted_c17_bench(tmp_path, bench_parses):
    """A ``.bench`` file of c17 and the names of the networks parsed since."""
    from repro.logic.bench import write_bench
    from repro.logic.iscas import c17_network

    path = tmp_path / "c17.bench"
    write_bench(c17_network(), path)
    return path, bench_parses
