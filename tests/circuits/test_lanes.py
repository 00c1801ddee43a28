"""Bit-parallel simulation, the shared pattern checker and table lowering
against per-pattern references.

The references below are the straightforward one-basis-state-at-a-time
implementations: a simulator over a ``dict`` of bools, verification loops
that simulate the whole circuit once per input pattern, and an ANF
lowering that evaluates the gate's control function on every row.  The
lane-based code must agree with them exactly: same final states, same
verdicts and messages, same pattern counts, same lowered gates.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CircuitError
from repro.circuits import QubitRole, ReversibleCircuit, SingleTargetGate, ToffoliGate
from repro.circuits.barenco import decompose_circuit, decompose_mct
from repro.circuits.compile import compile_strategy, network_controls
from repro.circuits.pipeline import verify_compiled_against_network
from repro.circuits.simulator import BLOCK_WIDTH, simulate_lanes, verify_oracle_circuit
from repro.logic import GateType, LogicNetwork
from repro.logic.network import evaluate_gate_lanes, pattern_lanes, projection_lanes
from repro.pebbling import eager_bennett_strategy
from repro.workloads import list_network_workloads, load_workload, load_workload_network
from tests.circuits.test_pipeline_properties import _SCALES


# ---------------------------------------------------------------------------
# per-pattern references
# ---------------------------------------------------------------------------
def reference_simulate(circuit, input_values, initial_values=None):
    """One basis state through the circuit, gate by gate, on bools."""
    values = {}
    for name in circuit.qubits():
        if circuit.qubit(name).role is QubitRole.INPUT:
            values[name] = bool(input_values[name])
        else:
            values[name] = False
    for name, value in (initial_values or {}).items():
        values[name] = bool(value)
    for gate in circuit.gates:
        if gate.evaluate(values):
            values[gate.target] = not values[gate.target]
    return values


def _reference_failure(circuit, assignment, circuit_inputs, final, outputs, expected_as):
    for name, qubit, expected in outputs:
        if expected != final[qubit]:
            return (
                f"output {name!r} mismatch for input {assignment}: "
                f"{expected_as} {expected}, circuit produced {final[qubit]}"
            )
    for qubit in circuit.qubits(QubitRole.ANCILLA):
        if final[qubit]:
            return f"ancilla {qubit!r} left dirty for input {assignment}"
    for qubit, value in circuit_inputs.items():
        if final[qubit] != value:
            return f"input qubit {qubit!r} was modified for input {assignment}"
    return None


def reference_verify_network(network, compiled, circuit=None, *, max_patterns=64, seed=0):
    """The per-pattern loop of ``verify_compiled_against_network``."""
    circuit = circuit if circuit is not None else compiled.circuit
    inputs = network.inputs
    if len(inputs) <= 30 and (1 << len(inputs)) <= max_patterns:
        patterns = list(range(1 << len(inputs)))
    else:
        rng = random.Random(seed)
        patterns = [rng.getrandbits(len(inputs)) for _ in range(max_patterns)]
    for pattern in patterns:
        assignment = {
            name: bool((pattern >> position) & 1) for position, name in enumerate(inputs)
        }
        values = network.simulate(assignment)
        circuit_inputs = {
            qubit: assignment[name] for name, qubit in compiled.input_qubits.items()
        }
        final = reference_simulate(circuit, circuit_inputs)
        outputs = [
            (node, qubit, bool(values[str(node)]))
            for node, qubit in compiled.output_qubits.items()
        ]
        message = _reference_failure(
            circuit, assignment, circuit_inputs, final, outputs, "network computes"
        )
        if message:
            raise CircuitError(message)
    return len(patterns)


def reference_verify_oracle(circuit, reference, *, input_map, output_map, max_patterns=None):
    """The per-pattern loop of ``verify_oracle_circuit``."""
    names = list(input_map)
    num_patterns = 1 << len(names)
    if max_patterns is not None:
        num_patterns = min(num_patterns, max_patterns)
    for pattern in range(num_patterns):
        assignment = {
            name: bool((pattern >> position) & 1) for position, name in enumerate(names)
        }
        if isinstance(reference, LogicNetwork):
            expected = reference.simulate_outputs(assignment)
        else:
            expected = reference(assignment)
        circuit_inputs = {input_map[name]: value for name, value in assignment.items()}
        final = reference_simulate(circuit, circuit_inputs)
        outputs = [
            (name, qubit, bool(expected[name])) for name, qubit in output_map.items()
        ]
        message = _reference_failure(
            circuit, assignment, circuit_inputs, final, outputs, "expected"
        )
        if message:
            raise CircuitError(message)
    return True


def _outcome(verify, *args, **kwargs):
    """``("ok", result)`` or ``("error", message)`` of one verifier call."""
    try:
        return ("ok", verify(*args, **kwargs))
    except CircuitError as error:
        return ("error", str(error))


def reference_lowering(gate, borrowable):
    """ANF lowering from the control function, evaluated row by row."""
    controls = list(gate.controls)
    size = 1 << len(controls)
    coefficients = [
        gate.evaluate({name: bool((index >> k) & 1) for k, name in enumerate(controls)})
        for index in range(size)
    ]
    for position in range(len(controls)):
        bit = 1 << position
        for index in range(size):
            if index & bit:
                coefficients[index] ^= coefficients[index ^ bit]
    gates = []
    for index in range(size):
        if not coefficients[index]:
            continue
        monomial = [controls[k] for k in range(len(controls)) if (index >> k) & 1]
        if len(monomial) <= 2:
            gates.append(ToffoliGate.from_names(gate.target, monomial))
        else:
            borrowed = [q for q in borrowable if q != gate.target and q not in monomial]
            gates.extend(decompose_mct(monomial, gate.target, borrowed))
    return gates


def reference_decompose(circuit):
    """Every gate lowered on its own, in circuit order."""
    qubits = circuit.qubits()
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, ToffoliGate):
            if gate.num_controls <= 2:
                gates.append(gate)
                continue
            flips = [ToffoliGate(name) for name, positive in gate.controls if not positive]
            borrowed = [q for q in qubits if q not in gate.qubits()]
            gates.extend(flips)
            gates.extend(decompose_mct(list(gate.control_names()), gate.target, borrowed))
            gates.extend(flips)
        else:
            gates.extend(reference_lowering(gate, qubits))
    return gates


# ---------------------------------------------------------------------------
# lane simulation
# ---------------------------------------------------------------------------
@st.composite
def circuits_and_patterns(draw):
    """A random circuit mixing Toffoli and single-target gates, and patterns."""
    num_inputs = draw(st.integers(1, 4))
    num_work = draw(st.integers(1, 4))
    inputs = [f"x{index}" for index in range(num_inputs)]
    work = [f"w{index}" for index in range(num_work)]
    circuit = ReversibleCircuit("random")
    circuit.add_qubits(inputs, QubitRole.INPUT)
    for name in work:
        circuit.add_qubit(name, draw(st.sampled_from([QubitRole.ANCILLA, QubitRole.OUTPUT])))
    qubits = inputs + work
    patterns = draw(st.lists(st.integers(0, (1 << num_inputs) - 1), min_size=1, max_size=8))
    wide_added = False
    for _ in range(draw(st.integers(1, 12))):
        target = draw(st.sampled_from(work))
        others = [q for q in qubits if q != target]
        controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=min(4, len(others))))
        kind = draw(st.sampled_from(["toffoli", "table", "callable"]))
        if kind == "toffoli":
            polarities = draw(st.lists(st.booleans(), min_size=len(controls), max_size=len(controls)))
            circuit.append(ToffoliGate(target, tuple(zip(controls, polarities))))
            continue
        table = draw(st.integers(0, (1 << (1 << len(controls))) - 1))
        wide_added |= 1 << len(controls) > len(patterns)
        circuit.append(_stg(target, controls, table, kind))
    if not wide_added:
        # One gate whose truth table has more rows than the block has patterns.
        target = work[0]
        controls = [q for q in qubits if q != target][:4]
        table = draw(st.integers(0, (1 << (1 << len(controls))) - 1))
        circuit.append(_stg(target, controls, table, "callable"))
    initial = {name: draw(st.integers(0, (1 << len(patterns)) - 1)) for name in work}
    return circuit, inputs, patterns, initial


def _stg(target, controls, table, kind):
    if kind == "table":
        return SingleTargetGate(target, tuple(controls), label="t", table=table)

    def function(values, _controls=tuple(controls), _table=table):
        index = sum(1 << k for k, name in enumerate(_controls) if values[name])
        return bool((_table >> index) & 1)

    return SingleTargetGate(target, tuple(controls), function, label="f")


@given(circuits_and_patterns())
@settings(max_examples=150, deadline=None)
def test_lane_simulation_matches_per_pattern_reference(case):
    circuit, inputs, patterns, initial = case
    lanes = dict(zip(inputs, pattern_lanes(patterns, len(inputs))))
    final = simulate_lanes(circuit, lanes, len(patterns), initial_lanes=initial)
    for state, pattern in enumerate(patterns):
        expected = reference_simulate(
            circuit,
            {name: (pattern >> k) & 1 for k, name in enumerate(inputs)},
            {name: (lane >> state) & 1 for name, lane in initial.items()},
        )
        assert {name: bool((lane >> state) & 1) for name, lane in final.items()} == expected


def test_wide_callable_gate_is_evaluated_per_pattern_without_its_table():
    """A gate with more table rows than patterns is never expanded."""
    calls = []

    def function(values):
        calls.append(dict(values))
        return all(values.values())

    controls = tuple(f"x{index}" for index in range(5))
    circuit = ReversibleCircuit("wide")
    circuit.add_qubits(controls, QubitRole.INPUT)
    circuit.add_qubit("t", QubitRole.OUTPUT)
    gate = circuit.append(SingleTargetGate("t", controls, function))
    lanes = dict(zip(controls, pattern_lanes([0b11111, 0b01111, 0b11111], 5)))
    assert simulate_lanes(circuit, lanes, 3)["t"] == 0b101
    assert len(calls) == 3 and gate.table is None


def test_a_table_gate_evaluates_through_its_table_and_checks_its_size():
    gate = SingleTargetGate("t", ("a", "b"), table=0b0110)  # a xor b
    assert [gate.evaluate({"a": a, "b": b}) for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [
        False, True, True, False
    ]
    for table in (-1, 1 << 4):
        with pytest.raises(CircuitError, match="does not fit"):
            SingleTargetGate("t", ("a", "b"), table=table)


def test_pattern_and_projection_lanes_agree():
    for count in range(6):
        assert projection_lanes(count) == pattern_lanes(range(1 << count), count)
    assert pattern_lanes([0b10, 0b01, 0b11, 0b100], 2) == [0b0110, 0b0101]


# ---------------------------------------------------------------------------
# the shared checker
# ---------------------------------------------------------------------------
def _and_oracle(num_inputs, *, drop=None, dirty=False, clobber=False):
    """``h = AND(x..)`` through one ancilla, optionally broken."""
    inputs = [f"x{index}" for index in range(num_inputs)]
    circuit = ReversibleCircuit("and_oracle")
    circuit.add_qubits(inputs, QubitRole.INPUT)
    circuit.add_qubit("a", QubitRole.ANCILLA)
    circuit.add_qubit("h", QubitRole.OUTPUT)
    half = inputs[: num_inputs // 2]
    gates = [
        ToffoliGate.from_names("a", half),
        ToffoliGate.from_names("h", ["a", *inputs[num_inputs // 2:]]),
        ToffoliGate.from_names("a", half),
    ]
    if drop is not None:
        del gates[drop]
    circuit.extend(gates)
    if dirty:
        circuit.append(ToffoliGate.from_names("a", inputs[-2:]))
    if clobber:
        circuit.append(ToffoliGate.from_names(inputs[0], ["h"]))
    return circuit, inputs


def _and_reference(inputs):
    return lambda values: {"h": all(values[name] for name in inputs)}


@pytest.mark.parametrize("broken", [
    {},                      # correct
    {"drop": 1},             # output wrong on the all-ones pattern only
    {"drop": 2},             # ancilla dirty whenever the first half is all ones
    {"dirty": True},         # ancilla dirty on patterns ending in 11
    {"clobber": True},       # input modified on the all-ones pattern
    {"drop": 2, "dirty": True},
])
@pytest.mark.parametrize("num_inputs", [3, 11])
@pytest.mark.parametrize("max_patterns", [None, 5, BLOCK_WIDTH + 1])
def test_oracle_checker_matches_reference(broken, num_inputs, max_patterns):
    """Same verdict and message as the per-pattern loop; with 11 inputs the
    failures sit past the first block of patterns."""
    circuit, inputs = _and_oracle(num_inputs, **broken)
    network = LogicNetwork("and")
    network.add_inputs(inputs)
    network.add_gate("h", "AND", inputs)
    network.add_output("h")
    for reference in (_and_reference(inputs), network):
        kwargs = dict(
            input_map={name: name for name in inputs},
            output_map={"h": "h"},
            max_patterns=max_patterns,
        )
        assert _outcome(verify_oracle_circuit, circuit, reference, **kwargs) == _outcome(
            reference_verify_oracle, circuit, reference, **kwargs
        )


def test_a_pattern_failing_two_checks_reports_the_output_first():
    circuit, inputs = _and_oracle(3, drop=2)
    circuit.append(ToffoliGate.from_names("h", ["x0"]))  # output now wrong too
    kwargs = dict(input_map={name: name for name in inputs}, output_map={"h": "h"})
    outcome = _outcome(verify_oracle_circuit, circuit, _and_reference(inputs), **kwargs)
    assert outcome == _outcome(reference_verify_oracle, circuit, _and_reference(inputs), **kwargs)
    assert outcome[1].startswith("output 'h' mismatch for input {'x0': True, 'x1': False")


@lru_cache(maxsize=None)
def _compiled(workload, scale):
    dag = load_workload(workload, scale=scale)
    network = load_workload_network(workload, scale=scale)
    return network, compile_strategy(
        dag, eager_bennett_strategy(dag), provider=network_controls(network)
    )


def _broken_compiled(workload, scale, gate_index):
    """A Bennett compilation of ``workload`` with one gate removed."""
    network, compiled = _compiled(workload, scale)
    if gate_index is None:
        return network, compiled
    broken = ReversibleCircuit("broken")
    for name in compiled.circuit.qubits():
        broken.add_qubit(name, compiled.circuit.qubit(name).role)
    gates = compiled.circuit.gates
    del gates[gate_index]
    broken.extend(gates)
    return network, replace(compiled, circuit=broken)


@pytest.mark.parametrize("workload,scale", [("fig2", 1.0), ("c17", 1.0), ("c7552", 0.1)])
@pytest.mark.parametrize("gate_index", [None, 0, -1, 3])
@pytest.mark.parametrize("max_patterns", [1, 15, BLOCK_WIDTH - 1, BLOCK_WIDTH, BLOCK_WIDTH + 1])
def test_network_checker_matches_reference(workload, scale, gate_index, max_patterns):
    """Exhaustive and sampled pattern lists (c17 at 15 patterns repeats
    some) give the reference's count, verdict and message."""
    network, compiled = _broken_compiled(workload, scale, gate_index)
    for seed in (0, 7):
        assert _outcome(
            verify_compiled_against_network, network, compiled,
            max_patterns=max_patterns, seed=seed,
        ) == _outcome(
            reference_verify_network, network, compiled,
            max_patterns=max_patterns, seed=seed,
        )


def test_sampled_patterns_repeat_and_are_all_counted():
    network, compiled = _broken_compiled("c17", 1.0, None)
    rng = random.Random(0)
    sample = [rng.getrandbits(len(network.inputs)) for _ in range(15)]
    assert len(set(sample)) < len(sample)
    assert verify_compiled_against_network(network, compiled, max_patterns=15) == 15


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------
@lru_cache(maxsize=None)
def _bennett_circuit(workload):
    scale = _SCALES.get(workload, 1.0)
    dag = load_workload(workload, scale=scale)
    network = load_workload_network(workload, scale=scale)
    return compile_strategy(
        dag, eager_bennett_strategy(dag), provider=network_controls(network)
    ).circuit


@pytest.mark.parametrize("workload", list_network_workloads())
def test_decompose_matches_reference_lowering_gate_for_gate(workload):
    circuit = _bennett_circuit(workload)
    assert decompose_circuit(circuit).gates == reference_decompose(circuit)


def test_decompose_lowers_repeated_and_negative_toffoli_gates_like_the_reference():
    circuit = ReversibleCircuit("mixed")
    circuit.add_qubits(["a", "b", "c", "d"], QubitRole.INPUT)
    circuit.add_qubit("s", QubitRole.ANCILLA)
    circuit.add_qubit("t", QubitRole.OUTPUT)
    wide = ToffoliGate.from_names("t", ["a", "b", "c", "d"], negated=["b"])
    majority = SingleTargetGate("s", ("a", "b", "c"), lambda v: sum(v.values()) >= 2)
    circuit.extend([wide, majority, wide, majority])
    lowered = decompose_circuit(circuit)
    assert lowered.gates == reference_decompose(circuit)
    assert majority.table == 0b11101000


# ---------------------------------------------------------------------------
# network lanes
# ---------------------------------------------------------------------------
def _old_truth_tables(network):
    """The projection-building loop ``truth_tables`` used to run."""
    num_patterns = 1 << network.num_inputs
    mask = (1 << num_patterns) - 1
    values = {}
    for position, name in enumerate(network.inputs):
        pattern = 0
        for index in range(num_patterns):
            if (index >> position) & 1:
                pattern |= 1 << index
        values[name] = pattern
    for gate in network.gates():
        fanins = [values[fanin] for fanin in gate.fanins]
        values[gate.output] = evaluate_gate_lanes(gate.gate_type, fanins, mask)
    return {name: values[name] for name in network.outputs}


_SCALAR = {
    GateType.AND: all,
    GateType.OR: any,
    GateType.NAND: lambda v: not all(v),
    GateType.NOR: lambda v: not any(v),
    GateType.XOR: lambda v: sum(v) % 2 == 1,
    GateType.XNOR: lambda v: sum(v) % 2 == 0,
    GateType.NOT: lambda v: not v[0],
    GateType.BUF: lambda v: v[0],
    GateType.MAJ: lambda v: sum(v) >= 2,
    GateType.CONST0: lambda v: False,
    GateType.CONST1: lambda v: True,
}


def _scalar_outputs(network, pattern):
    values = {name: bool((pattern >> k) & 1) for k, name in enumerate(network.inputs)}
    for gate in network.gates():
        values[gate.output] = bool(_SCALAR[gate.gate_type]([values[f] for f in gate.fanins]))
    return {name: values[name] for name in network.outputs}


@pytest.mark.parametrize("workload", list_network_workloads())
def test_truth_tables_match_the_old_loop_and_scalar_evaluation(workload):
    # The largest of these scales with at most 12 inputs keeps the old loop fast.
    network = next(
        candidate
        for candidate in (load_workload_network(workload, scale=s) for s in (1.0, 0.1, 0.05))
        if candidate.num_inputs <= 12
    )
    tables = network.truth_tables()
    assert tables == _old_truth_tables(network)
    for pattern in range(0, 1 << network.num_inputs, 7):
        expected = _scalar_outputs(network, pattern)
        assert {name: bool((table >> pattern) & 1) for name, table in tables.items()} == expected
        assert network.simulate_outputs(
            {name: bool((pattern >> k) & 1) for k, name in enumerate(network.inputs)}
        ) == expected
