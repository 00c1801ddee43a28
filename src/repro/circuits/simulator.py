"""Classical simulation of reversible circuits.

All gates produced in this package are classical reversible gates (they
permute computational basis states), so a circuit can be verified by
simulating it on basis states: feed every input pattern, check that the
output qubits carry the specified Boolean function and — crucially for this
paper — that every ancilla qubit is restored to ``|0>``.  A circuit that
leaves an ancilla dirty would entangle intermediate values with the result
on a quantum machine, which is exactly the failure mode quantum memory
management must prevent (Fig. 1 of the paper).

Simulation is bit-parallel: every qubit holds one Python integer, a
*lane*, whose bit ``j`` is the qubit's value in basis state ``j``, so one
pass over the gates simulates a whole block of input patterns.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import CircuitError
from repro.circuits.circuit import QubitRole, ReversibleCircuit
from repro.circuits.gates import Gate, SingleTargetGate, ToffoliGate
from repro.logic.network import LogicNetwork, pattern_lanes

#: Input patterns simulated in one pass over the gates.  Verification walks
#: its patterns in blocks of this many, so its memory stays bounded however
#: many patterns it checks.
BLOCK_WIDTH = 1024


def simulate_lanes(
    circuit: ReversibleCircuit,
    input_lanes: Mapping[str, int],
    width: int,
    *,
    initial_lanes: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Simulate ``circuit`` on ``width`` basis states at once.

    Bit ``j`` of ``input_lanes[name]`` is the value of INPUT-role qubit
    ``name`` in basis state ``j``; ancilla and output qubits start at
    ``|0>`` unless overridden through ``initial_lanes``.  Returns the final
    lane of every qubit.
    """
    mask = (1 << width) - 1
    lanes: dict[str, int] = {}
    for name in circuit.qubits():
        if circuit.qubit(name).role is QubitRole.INPUT:
            if name not in input_lanes:
                raise CircuitError(f"missing value for input qubit {name!r}")
            lanes[name] = input_lanes[name] & mask
        else:
            lanes[name] = 0
    if initial_lanes:
        for name, lane in initial_lanes.items():
            if name not in lanes:
                raise CircuitError(f"unknown qubit {name!r} in initial_values")
            lanes[name] = lane & mask
    for gate in circuit:
        lanes[gate.target] ^= _flips(gate, lanes, width, mask)
    return lanes


def _flips(gate: Gate, lanes: Mapping[str, int], width: int, mask: int) -> int:
    """The lane of basis states in which ``gate`` flips its target."""
    if isinstance(gate, ToffoliGate):
        flips = mask
        for name, positive in gate.controls:
            flips &= lanes[name] if positive else ~lanes[name]
        return flips
    if not isinstance(gate, SingleTargetGate):  # pragma: no cover - defensive
        raise CircuitError(f"cannot simulate gate {gate!r}")
    controls = [lanes[name] for name in gate.controls]
    if 1 << len(controls) <= width:
        # Folding the truth table costs one step per table row, no more
        # than one evaluation per basis state.
        table = gate.truth_table()
        rows = [mask if (table >> row) & 1 else 0 for row in range(1 << len(controls))]
        for lane in controls:
            rows = [
                low if low == high else low ^ ((low ^ high) & lane)
                for low, high in zip(rows[0::2], rows[1::2])
            ]
        return rows[0]
    flips = 0
    for state in range(width):
        values = {name: (lane >> state) & 1 for name, lane in zip(gate.controls, controls)}
        if gate.evaluate(values):
            flips |= 1 << state
    return flips


def simulate_circuit(
    circuit: ReversibleCircuit,
    input_values: Mapping[str, bool],
    *,
    initial_values: Mapping[str, bool] | None = None,
) -> dict[str, bool]:
    """Simulate ``circuit`` on a basis state; return the final qubit values.

    ``input_values`` assigns the INPUT-role qubits; ancilla and output
    qubits start at ``|0>`` unless overridden through ``initial_values``.
    """
    lanes = simulate_lanes(
        circuit,
        {name: int(bool(value)) for name, value in input_values.items()},
        1,
        initial_lanes=None if initial_values is None else {
            name: int(bool(value)) for name, value in initial_values.items()
        },
    )
    return {name: bool(lane) for name, lane in lanes.items()}


def verify_ancillae_clean(
    circuit: ReversibleCircuit, input_values: Mapping[str, bool]
) -> bool:
    """Return ``True`` when every ancilla ends in ``|0>`` for this input."""
    final = simulate_circuit(circuit, input_values)
    return all(not final[name] for name in circuit.qubits(QubitRole.ANCILLA))


def check_pattern_count(count: object) -> None:
    """Refuse a verification pattern count that is not an int of at least 1.

    A check over zero patterns proves nothing, so it must not report a
    circuit as verified.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise CircuitError(
            f"the number of verification patterns must be an int of at least 1, "
            f"got {count!r}"
        )


def check_patterns(
    circuit: ReversibleCircuit,
    patterns: Iterable[int],
    *,
    inputs: Sequence[str],
    input_qubits: Mapping[str, str],
    outputs: Sequence[tuple[object, str]],
    expected: Callable[[dict[str, int], int], Mapping[object, int]],
    expected_as: str,
) -> int:
    """Check ``circuit`` on every input pattern; return how many were checked.

    Pattern ``p`` gives reference input ``inputs[k]`` the value of bit
    ``k`` of ``p``; ``input_qubits`` maps reference inputs to the qubits
    that carry them.  ``expected(lanes, width)`` returns, for one block of
    patterns as input lanes, the lane each reference output must have,
    keyed like the names in ``outputs`` (``(name, qubit)`` pairs).

    A pattern fails when an output qubit is wrong, an ancilla is left
    dirty or an input qubit is modified.  On the first failing pattern, in
    the order given, this raises :class:`~repro.errors.CircuitError` naming
    the first failed check of that pattern (outputs, then ancillae, then
    inputs, each in their own order); ``expected_as`` words the expected
    value in an output mismatch.
    """
    ancillae = circuit.qubits(QubitRole.ANCILLA)
    checked = 0
    remaining = iter(patterns)
    while block := list(islice(remaining, BLOCK_WIDTH)):
        width = len(block)
        reference = dict(zip(inputs, pattern_lanes(block, len(inputs))))
        initial = {qubit: reference[name] for name, qubit in input_qubits.items()}
        final = simulate_lanes(circuit, initial, width)
        wanted = expected(reference, width)
        failed = 0
        for name, qubit in outputs:
            failed |= final[qubit] ^ wanted[name]
        for qubit in ancillae:
            failed |= final[qubit]
        for qubit, lane in initial.items():
            failed |= final[qubit] ^ lane
        if failed:
            state = (failed & -failed).bit_length() - 1
            assignment = {
                name: bool((block[state] >> position) & 1)
                for position, name in enumerate(inputs)
            }

            def bit(lane: int) -> bool:
                return bool((lane >> state) & 1)

            for name, qubit in outputs:
                if bit(final[qubit]) != bit(wanted[name]):
                    raise CircuitError(
                        f"output {name!r} mismatch for input {assignment}: "
                        f"{expected_as} {bit(wanted[name])}, circuit produced {bit(final[qubit])}"
                    )
            for qubit in ancillae:
                if bit(final[qubit]):
                    raise CircuitError(f"ancilla {qubit!r} left dirty for input {assignment}")
            for qubit, lane in initial.items():
                if bit(final[qubit]) != bit(lane):
                    raise CircuitError(
                        f"input qubit {qubit!r} was modified for input {assignment}"
                    )
        checked += width
    return checked


def verify_oracle_circuit(
    circuit: ReversibleCircuit,
    reference: "LogicNetwork | Callable[[Mapping[str, bool]], Mapping[str, bool]]",
    *,
    input_map: Mapping[str, str],
    output_map: Mapping[str, str],
    max_patterns: int | None = None,
) -> bool:
    """Exhaustively verify a compiled oracle circuit against a reference.

    ``reference`` is either the :class:`~repro.logic.network.LogicNetwork`
    the circuit was compiled from or any callable mapping input assignments
    to output assignments.  ``input_map`` maps reference input names to
    circuit qubit names, ``output_map`` maps reference output names to the
    circuit qubits holding them at the end.

    Verifies, for every input pattern (the first ``max_patterns`` of them
    when given, which must then be an int of at least 1):

    * every reference output matches the corresponding circuit qubit;
    * every ancilla qubit is restored to zero;
    * every input qubit still holds its input value.

    Raises :class:`~repro.errors.CircuitError` with a counter-example on the
    first mismatch, returns ``True`` otherwise.
    """
    reference_inputs = list(input_map.keys())
    num_patterns = 1 << len(reference_inputs)
    if max_patterns is not None:
        check_pattern_count(max_patterns)
        num_patterns = min(num_patterns, max_patterns)

    if isinstance(reference, LogicNetwork):
        def expected(lanes: dict[str, int], width: int) -> Mapping[object, int]:
            values = reference.simulate_lanes(lanes, width)
            return {name: values[name] for name in reference.outputs}
    else:
        def expected(lanes: dict[str, int], width: int) -> Mapping[object, int]:
            wanted = dict.fromkeys(output_map, 0)
            for state in range(width):
                produced = reference(
                    {name: bool((lanes[name] >> state) & 1) for name in reference_inputs}
                )
                for name in wanted:
                    if produced[name]:
                        wanted[name] |= 1 << state
            return wanted

    check_patterns(
        circuit,
        range(num_patterns),
        inputs=reference_inputs,
        input_qubits=input_map,
        outputs=list(output_map.items()),
        expected=expected,
        expected_as="expected",
    )
    return True
