"""Tests for the end-to-end compilation pipeline."""

import json

import pytest

from repro.errors import CircuitError
from repro.circuits import (
    CompilationReport,
    compile_dag,
    compile_workload,
    pareto_sweep,
    verify_compiled_against_network,
)
from repro.circuits.compile import compile_strategy, network_controls
from repro.pebbling import EncodingOptions, bennett_strategy
from repro.workloads import example_dag, example_network


class TestCompileWorkload:
    def test_fig2_report_is_verified_and_serialisable(self):
        report = compile_workload("fig2", pebbles=4, time_limit=30)
        assert report.found
        assert report.outcome == "solution"
        assert report.verified is True
        assert report.verify_patterns == 64  # exhaustive: 2^6 inputs
        assert report.pebbles_used == 4
        assert report.qubits == 6 + 4  # inputs + work qubits
        assert report.gates == report.moves
        data = json.loads(json.dumps(report.as_dict()))
        assert data["workload"] == "fig2"
        assert data["verified"] is True
        assert "strategy" not in data and "circuit" not in data

    def test_fig2_decomposed_is_verified_with_elementary_gates(self):
        report = compile_workload("fig2", pebbles=4, decompose=True,
                                  time_limit=30)
        assert report.found and report.verified is True
        assert report.decomposed is True
        assert all(gate.num_controls <= 2 for gate in report.circuit.gates)
        # Elementary counts: every gate is its own Toffoli equivalent.
        assert report.toffoli_equivalents == report.gates

    def test_structural_workload_compiles_without_verification(self):
        report = compile_workload("hadamard", pebbles=8, time_limit=30)
        assert report.found
        assert report.verified is None  # no LogicNetwork behind the SLP DAG
        assert report.qubits is not None and report.gates is not None

    def test_structural_workload_cannot_be_decomposed(self):
        with pytest.raises(CircuitError):
            compile_workload("hadamard", pebbles=8, decompose=True,
                             time_limit=30)

    def test_infeasible_budget_reports_outcome_without_circuit(self):
        report = compile_workload("fig2", pebbles=2, time_limit=10)
        assert not report.found
        assert report.outcome == "infeasible"
        assert report.qubits is None and report.verified is None

    def test_single_move_strategy_compiles_one_gate_per_step(self):
        report = compile_workload("fig2", pebbles=6, single_move=True,
                                  time_limit=60)
        assert report.found
        assert report.gates == report.steps == report.moves

    def test_c17_compiles_and_verifies(self):
        report = compile_workload("c17", pebbles=4, decompose=True,
                                  time_limit=60)
        assert report.found and report.verified is True

    def test_bench_file_path_compiles_with_network(self, tmp_path):
        from repro.logic.bench import write_bench
        from repro.logic.iscas import c17_network

        path = tmp_path / "c17.bench"
        write_bench(c17_network(), path)
        report = compile_workload(str(path), pebbles=4, time_limit=60)
        assert report.found and report.verified is True

    def test_bench_file_is_parsed_once_per_compile(self, counted_c17_bench):
        path, parsed = counted_c17_bench
        counts = []
        for _ in range(3):
            report = compile_workload(str(path), pebbles=4, time_limit=60)
            assert report.found and report.verified is True
            counts.append(len(parsed))
        # The first compile parses once (its DAG comes from the network);
        # the second load of the same bytes parses them again and keeps the
        # result, and every later compile reuses it.
        assert counts == [1, 2, 2]

    def test_a_sweep_parses_a_bench_file_at_most_twice(self, counted_c17_bench):
        path, parsed = counted_c17_bench
        sweep = pareto_sweep(str(path), budgets=[4, 5, 6], jobs=1, time_limit=60)
        assert [point.outcome for point in sweep.points] == ["solution"] * 3
        # One parse for the sweep's own network and DAG, one when the first
        # budget's search loads the file again (which keeps the parse); the
        # other two budgets reuse it.
        assert len(parsed) == 2


class TestWeightedPipeline:
    def test_weighted_budget_reaches_the_sat_encoding(self):
        # With E weighing 3, the weighted game needs a budget of 6 where
        # the unweighted game needs 4 pebbles; budget 4 must fail even
        # though 4 *pebbles* would succeed.
        dag = example_dag()
        dag.node("E").weight = 3.0
        network = example_network()
        blocked = compile_dag(dag, pebbles=4, network=network, weighted=True,
                              time_limit=30, max_steps=12)
        assert not blocked.found
        report = compile_dag(dag, pebbles=6, network=network, weighted=True,
                             decompose=True, time_limit=30)
        assert report.found
        assert report.weighted is True
        assert report.weight_used <= 6.0
        assert report.verified is True

    def test_weighted_unit_weights_match_unweighted_compile(self):
        weighted = compile_workload("fig2", pebbles=4, weighted=True,
                                    time_limit=30)
        plain = compile_workload("fig2", pebbles=4, time_limit=30)
        assert weighted.found and plain.found
        assert weighted.steps == plain.steps
        assert weighted.gates == plain.gates


class TestVerification:
    def test_verification_catches_a_wrong_circuit(self):
        # Compile fig2 against a network whose E gate differs (OR vs AND):
        # the verifier must produce a counter-example.
        from repro.logic import LogicNetwork

        dag = example_dag()
        network = example_network()
        wrong = LogicNetwork("fig2_wrong")
        for index in range(6):
            wrong.add_input(f"x{index}")
        wrong.add_gate("A", "AND", ["x0", "x1"])
        wrong.add_gate("B", "XOR", ["x2", "x3"])
        wrong.add_gate("C", "OR", ["A", "x4"])
        wrong.add_gate("D", "NAND", ["B", "x5"])
        wrong.add_gate("E", "OR", ["C", "D"])  # example_network uses AND
        wrong.add_gate("F", "XOR", ["A", "x4"])
        wrong.add_output("E")
        wrong.add_output("F")
        strategy = bennett_strategy(dag)
        compiled = compile_strategy(
            dag, strategy, provider=network_controls(network)
        )
        # Against the network it was compiled from: fine.
        assert verify_compiled_against_network(network, compiled) == 64
        with pytest.raises(CircuitError):
            verify_compiled_against_network(wrong, compiled)

    def test_random_sampling_kicks_in_for_wide_networks(self):
        report = compile_workload("c17", pebbles=4, time_limit=60,
                                  max_verify_patterns=8)
        assert report.found and report.verified is True
        assert report.verify_patterns == 8  # c17 has 5 inputs = 32 patterns


class TestParetoSweep:
    def test_fig2_sweep_marks_the_pareto_front(self):
        report = pareto_sweep("fig2", time_limit=30)
        assert report.workload == "fig2"
        budgets = [point.budget for point in report.points]
        assert budgets == sorted(budgets)
        solved = [point for point in report.points if point.found]
        assert solved, "the eager-Bennett anchor budget must be solvable"
        front = report.pareto_front()
        assert front
        # Front points must not dominate each other: qubits strictly
        # increase while gates strictly decrease (or stay equal on ties).
        for first, second in zip(front, front[1:]):
            assert second.qubits > first.qubits
            assert second.gates < first.gates
        data = json.loads(json.dumps(report.as_dict()))
        assert data["points"][0]["budget"] == budgets[0]

    def test_explicit_budgets_and_jobs(self):
        report = pareto_sweep("fig2", budgets=[4, 5], jobs=2, time_limit=30)
        assert [point.budget for point in report.points] == [4, 5]
        assert all(point.found for point in report.points)

    def test_a_store_answers_a_repeated_sweep(self, tmp_path):
        from repro.store import ResultStore

        with ResultStore(str(tmp_path / "cache.db")) as store:
            first = pareto_sweep("fig2", budgets=[4, 5], time_limit=30, store=store)
            second = pareto_sweep("fig2", budgets=[4, 5], time_limit=30, store=store)
            assert store.session["hits"] == 2
        assert [point.as_dict() | {"runtime": 0} for point in second.points] == [
            point.as_dict() | {"runtime": 0} for point in first.points
        ]

    def test_weighted_sweep_reports_weight(self):
        report = pareto_sweep("fig2", budgets=[4], weighted=True,
                              time_limit=30)
        assert report.weighted is True
        point = report.points[0]
        assert point.found and point.weight_used == 4.0
