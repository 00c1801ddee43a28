"""End-to-end integration tests reproducing the paper's headline scenarios.

Each test exercises the full pipeline (workload construction, baseline,
SAT-based pebbling, compilation, simulation) the way the corresponding
section of the paper does, with scaled-down sizes where the original
experiment is too large for a pure-Python SAT solver in a unit test.
"""

import pytest

from repro.circuits import barenco_and_oracle, circuit_cost, compile_network_oracle
from repro.circuits.simulator import verify_oracle_circuit
from repro.pebbling import (
    EncodingOptions,
    ReversiblePebblingSolver,
    bennett_strategy,
    eager_bennett_strategy,
    pebble_dag,
)
from repro.slp import kummer_point_addition_slp
from repro.visualize import render_strategy_grid
from repro.workloads import load_workload
from repro.workloads.registry import and_tree_network


class TestSection2Example:
    """Fig. 2 / Fig. 3 / Fig. 4: the six-node example."""

    def test_bennett_versus_constrained_strategies(self, fig2_dag):
        bennett = bennett_strategy(fig2_dag)
        assert (bennett.max_pebbles, bennett.num_moves) == (6, 10)

        # Fig. 3(b): reordering alone can save a qubit without extra gates.
        reordered = eager_bennett_strategy(fig2_dag)
        assert reordered.num_moves == 10

        # Fig. 3(c)/Fig. 4 (right): with only 4 pebbles some values must be
        # recomputed, increasing the number of gates.
        constrained = pebble_dag(fig2_dag, 4, time_limit=60)
        assert constrained.found
        assert constrained.strategy.max_pebbles <= 4
        assert constrained.num_moves > bennett.num_moves

    def test_grid_rendering_matches_fig4_shape(self, fig2_dag):
        strategy = bennett_strategy(fig2_dag)
        grid = render_strategy_grid(strategy, show_header=False)
        rows = [line for line in grid.splitlines()[:-2]]
        assert len(rows) == 6
        assert all(len(row.split()[1]) == 11 for row in rows)


class TestSection4aStraightLinePrograms:
    """Fig. 5: pebbling a cryptographic straight-line program with
    decreasing ancilla budgets."""

    def test_pebble_budget_sweep_on_the_kummer_program(self):
        """The Fig. 5 experiment shape on the Kummer point addition: a
        constrained budget still admits a strategy, at the price of more
        executed operations than the Bennett minimum."""
        dag = kummer_point_addition_slp().to_dag()
        baseline = eager_bennett_strategy(dag)
        result = pebble_dag(dag, 24, time_limit=120, strategy="geometric")
        assert result.found
        cleaned = result.strategy.remove_redundant_moves()
        assert cleaned.max_pebbles <= 24 < baseline.max_pebbles
        assert cleaned.num_moves >= baseline.num_moves

    def test_fine_grained_sweep_on_the_edwards_program(self):
        """A finer budget sweep on the smaller Edwards addition program: the
        move count never drops below the Bennett minimum and the budget is
        always respected."""
        dag = load_workload("edwards-add")
        baseline = eager_bennett_strategy(dag)
        for budget in (baseline.max_pebbles, baseline.max_pebbles - 3,
                       baseline.max_pebbles - 5):
            result = pebble_dag(dag, budget, time_limit=60)
            assert result.found, budget
            cleaned = result.strategy.remove_redundant_moves()
            assert cleaned.max_pebbles <= budget
            assert cleaned.num_moves >= baseline.num_moves

    def test_operation_counts_reported_per_type(self):
        dag = load_workload("edwards-add")
        result = pebble_dag(dag, 14, time_limit=60)
        assert result.found
        counts = result.strategy.operation_counts()
        assert set(counts) <= {"add", "sub", "mul", "sqr", "cmul"}
        assert sum(counts.values()) == result.num_moves


class TestSection4bBennettComparison:
    """Table I (scaled down): Bennett vs SAT pebbling on gate-level DAGs."""

    @pytest.mark.parametrize("workload,scale", [("c17", 1.0), ("c432", 0.08)])
    def test_pebble_reduction_on_iscas_like_circuits(self, workload, scale):
        dag = load_workload(workload, scale=scale)
        baseline = eager_bennett_strategy(dag)
        solver = ReversiblePebblingSolver(dag)
        best, _ = solver.minimize_pebbles(
            timeout_per_budget=15, stop_after_failures=1
        )
        assert best is not None
        assert best.strategy.max_pebbles <= baseline.max_pebbles
        assert best.num_moves >= baseline.num_moves

    def test_hadamard_gate_level_comparison(self):
        dag = load_workload("b2_m3", scale=0.5)   # 1-bit variant of the H operator
        baseline = eager_bennett_strategy(dag)
        result = pebble_dag(
            dag, max(3, baseline.max_pebbles - 2), time_limit=90, strategy="geometric"
        )
        assert result.found
        assert result.strategy.max_pebbles < baseline.max_pebbles


class TestSection4cHardwareConstraints:
    """Fig. 6: mapping a 9-input AND oracle onto a 16-qubit device."""

    def test_three_way_comparison(self):
        network = and_tree_network(9)
        dag = network.to_dag()

        bennett = compile_network_oracle(network)
        assert bennett.num_qubits == 17           # does not fit on 16 qubits
        assert bennett.num_gates == 15

        barenco = barenco_and_oracle(9)
        assert barenco.num_qubits == 11
        assert barenco.num_gates == 48

        pebbled_result = pebble_dag(dag, 7, time_limit=120)
        assert pebbled_result.found
        pebbled = compile_network_oracle(network, pebbled_result.strategy)
        assert pebbled.num_qubits <= 16           # fits the ibmqx5-style budget
        assert pebbled.num_gates <= 23            # the paper reports 23 gates

        # The pebbled circuit is the balanced option: fewer gates than
        # Barenco, fewer qubits than Bennett.
        assert pebbled.num_gates < barenco.num_gates
        assert pebbled.num_qubits < bennett.num_qubits

        # All three circuits must implement the same oracle.
        output = network.outputs[0]
        for compiled in (bennett, pebbled):
            verify_oracle_circuit(
                compiled.circuit,
                network,
                input_map={name: compiled.input_qubits[name] for name in network.inputs},
                output_map={output: compiled.output_qubits[output]},
            )
        verify_oracle_circuit(
            barenco,
            lambda values: {"h": all(values[f"x{i}"] for i in range(9))},
            input_map={f"x{i}": f"x{i}" for i in range(9)},
            output_map={"h": "h"},
        )

    def test_cost_model_ranks_the_alternatives(self):
        network = and_tree_network(9)
        dag = network.to_dag()
        pebbled_result = pebble_dag(dag, 7, time_limit=120)
        bennett_cost = circuit_cost(compile_network_oracle(network).circuit)
        pebbled_cost = circuit_cost(
            compile_network_oracle(network, pebbled_result.strategy).circuit
        )
        barenco_cost = circuit_cost(barenco_and_oracle(9))
        assert bennett_cost.gates < pebbled_cost.gates < barenco_cost.gates
        assert barenco_cost.qubits < pebbled_cost.qubits < bennett_cost.qubits


class TestSingleMoveSemantics:
    """The encoding option reproducing the paper's one-move-per-step grids."""

    def test_single_move_strategies_are_single_move(self, fig2_dag):
        options = EncodingOptions(max_moves_per_step=1)
        result = pebble_dag(fig2_dag, 5, options=options, time_limit=60)
        assert result.found
        for index in range(result.strategy.num_steps):
            before = result.strategy.configurations[index]
            after = result.strategy.configurations[index + 1]
            assert len(before.symmetric_difference(after)) == 1
