"""Inputs the verifiers must refuse, and networks they must handle."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import CircuitError
from repro.circuits import (
    QubitRole,
    ReversibleCircuit,
    ToffoliGate,
    compile_network_oracle,
    compile_workload,
    decompose_circuit,
    verify_compiled_against_network,
    verify_oracle_circuit,
)
from repro.circuits import pipeline
from repro.logic import LogicNetwork
from repro.logic.iscas import c17_network


def _copy_circuit():
    """``h = x0``: wrong for the reference ``x0 and x1`` on pattern 1 only."""
    circuit = ReversibleCircuit("copy")
    circuit.add_qubits(["x0", "x1"], QubitRole.INPUT)
    circuit.add_qubit("h", QubitRole.OUTPUT)
    circuit.append(ToffoliGate.from_names("h", ["x0"]))
    return circuit


def _verify_copy(max_patterns):
    return verify_oracle_circuit(
        _copy_circuit(),
        lambda values: {"h": values["x0"] and values["x1"]},
        input_map={"x0": "x0", "x1": "x1"},
        output_map={"h": "h"},
        max_patterns=max_patterns,
    )


class TestPatternCountsBelowOne:
    @pytest.mark.parametrize("count", [0, -3, True, 2.5, "8"])
    def test_oracle_verifier_refuses_them(self, count):
        with pytest.raises(CircuitError, match="at least 1"):
            _verify_copy(count)

    def test_oracle_verifier_without_a_cap_is_exhaustive(self):
        with pytest.raises(CircuitError, match="output 'h' mismatch"):
            _verify_copy(None)
        assert _verify_copy(1) is True  # pattern 0 alone agrees

    @pytest.mark.parametrize("count", [0, -1, False])
    def test_network_verifier_refuses_them(self, count):
        network = c17_network()
        compiled = compile_network_oracle(network)
        with pytest.raises(CircuitError, match="at least 1"):
            verify_compiled_against_network(network, compiled, max_patterns=count)

    def test_compile_refuses_them_before_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the SAT search ran")

        monkeypatch.setattr(pipeline, "ReversiblePebblingSolver", no_search)
        for count in (0, -3):
            with pytest.raises(CircuitError, match="at least 1"):
                compile_workload("c17", pebbles=4, max_verify_patterns=count)

    def test_compile_ignores_them_when_nothing_is_verified(self):
        unverified = compile_workload(
            "c17", pebbles=4, verify=False, max_verify_patterns=0, time_limit=30
        )
        assert unverified.found and unverified.verified is None
        structural = compile_workload(
            "hadamard", pebbles=8, max_verify_patterns=0, time_limit=30
        )
        assert structural.found and structural.verified is None

    def test_cli_rejects_them_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", "c17", "--pebbles", "4", "--verify-patterns", "0"])
        assert exit_info.value.code == 2
        assert "--verify-patterns" in capsys.readouterr().err

    def test_cli_ignores_them_without_verification(self, capsys):
        assert main(["compile", "c17", "--pebbles", "4", "--no-verify",
                     "--verify-patterns", "0", "--timeout", "30"]) == 0
        capsys.readouterr()


def _inverter_network() -> LogicNetwork:
    network = LogicNetwork("inverters")
    network.add_inputs(["a", "b"])
    network.add_gate("c", "AND", ["a", "b"])
    network.add_gate("d", "NOT", ["c"])
    network.add_gate("e", "BUF", ["b"])
    network.add_gate("f", "XOR", ["d", "e"])
    network.add_output("d")
    network.add_output("f")
    return network


class TestUncollapsedInverters:
    """NOT and BUF gates pebbled as nodes of their own."""

    def test_circuit_verifies_before_and_after_lowering(self):
        network = _inverter_network()
        compiled = compile_network_oracle(network, collapse_inverters=False)
        labels = {gate.label for gate in compiled.circuit.gates}
        assert {"NOT", "BUF"} <= labels
        assert verify_compiled_against_network(network, compiled) == 4
        lowered = decompose_circuit(compiled.circuit)
        assert all(gate.num_controls <= 2 for gate in lowered.gates)
        assert verify_compiled_against_network(network, compiled, lowered) == 4
