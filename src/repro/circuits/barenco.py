"""Barenco decomposition of multi-controlled Toffoli gates.

The hardware-constrained show-case (Fig. 6) compares three ways of mapping
a 9-input AND oracle onto 16 qubits; one of them applies "the well known
decomposition method proposed by Barenco" to the 9-control Toffoli gate,
requiring a single extra ancilla but exploding the gate count from 15 to 48.

This module implements the two classic lemmas of Barenco et al.,
*Elementary gates for quantum computation* (1995), at the Toffoli level:

* **Lemma 7.2** — a ``C^m X`` gate on an ``n``-qubit register with
  ``n >= 2m - 1`` (i.e. ``m - 2`` borrowed, possibly dirty, ancillae)
  decomposes into ``4 (m - 2)`` Toffoli gates;
* **Lemma 7.3** — a ``C^m X`` gate with a single borrowed ancilla splits
  into two ``C^{ceil(m/2)} X`` and two ``C^{floor(m/2)+1} X`` gates, each of
  which then falls under Lemma 7.2.

For ``m = 9`` this yields exactly ``4 * 12 = 48`` Toffoli gates, matching
the paper's number.
"""

from __future__ import annotations

from repro.errors import CircuitError
from repro.circuits.circuit import QubitRole, ReversibleCircuit
from repro.circuits.gates import TABLE_CONTROL_LIMIT, SingleTargetGate, ToffoliGate
from repro.logic.network import projection_lanes


def decompose_mct(
    controls: list[str],
    target: str,
    ancillae: list[str],
) -> list[ToffoliGate]:
    """Decompose a multi-controlled Toffoli into Toffoli (<=2-control) gates.

    ``ancillae`` are *borrowed* qubits: they may hold arbitrary values and
    are returned to those values.  The decomposition strategy is chosen
    automatically:

    * 0, 1 or 2 controls — the gate is already elementary;
    * enough ancillae (``>= len(controls) - 2``) — Lemma 7.2;
    * at least one ancilla — Lemma 7.3, recursing into Lemma 7.2;
    * no ancilla for 3+ controls — a :class:`~repro.errors.CircuitError`
      (the textbook construction without ancillae needs non-Toffoli gates).
    """
    _check_distinct(controls, target, ancillae)
    m = len(controls)
    if m <= 2:
        return [ToffoliGate.from_names(target, controls)]
    if len(ancillae) >= m - 2:
        return _lemma_7_2(controls, target, ancillae[: m - 2])
    if ancillae:
        return _lemma_7_3(controls, target, ancillae)
    raise CircuitError(
        f"cannot decompose a {m}-controlled Toffoli without any ancilla qubit"
    )


def _check_distinct(controls: list[str], target: str, ancillae: list[str]) -> None:
    seen: set[str] = set()
    for name in [*controls, target, *ancillae]:
        if name in seen:
            raise CircuitError(f"qubit {name!r} used twice in a decomposition")
        seen.add(name)


def _lemma_7_2(controls: list[str], target: str, ancillae: list[str]) -> list[ToffoliGate]:
    """Barenco Lemma 7.2: ``C^m X`` with ``m - 2`` borrowed ancillae."""
    m = len(controls)
    if m <= 2:
        return [ToffoliGate.from_names(target, controls)]
    if len(ancillae) < m - 2:
        raise CircuitError("Lemma 7.2 needs m-2 ancilla qubits")
    work = ancillae[: m - 2]
    # The V-shaped cascade: Toffoli(c_{m-1}, w_{m-3}, target), then a ladder
    # down to Toffoli(c_0, c_1, w_0) and back up, and the whole pattern twice.
    ladder_down: list[ToffoliGate] = []
    ladder_down.append(ToffoliGate.from_names(target, [controls[m - 1], work[m - 3]]))
    for index in range(m - 3, 0, -1):
        ladder_down.append(
            ToffoliGate.from_names(work[index], [controls[index + 1], work[index - 1]])
        )
    ladder_down.append(ToffoliGate.from_names(work[0], [controls[0], controls[1]]))

    # The "V" pattern: down the ladder, then back up through the middle
    # gates.  Repeating the V a second time restores every borrowed ancilla
    # while leaving the conjunction of all controls XORed onto the target.
    v_pattern = ladder_down + list(reversed(ladder_down[1:-1]))
    gates = v_pattern + v_pattern
    expected = 4 * (m - 2)
    if len(gates) != expected:  # pragma: no cover - structural invariant
        raise CircuitError(
            f"Lemma 7.2 produced {len(gates)} gates, expected {expected}"
        )
    return gates


def _lemma_7_3(controls: list[str], target: str, ancillae: list[str]) -> list[ToffoliGate]:
    """Barenco Lemma 7.3: ``C^m X`` with one borrowed ancilla."""
    m = len(controls)
    ancilla = ancillae[0]
    first_count = (m + 1) // 2
    first_controls = controls[:first_count]
    second_controls = controls[first_count:] + [ancilla]

    # Borrowed qubits for the two sub-gates: each may borrow the qubits the
    # other sub-gate does not touch (they are restored by construction).
    first_borrowed = [q for q in controls[first_count:] + [target] if q != ancilla]
    second_borrowed = list(controls[:first_count])

    first = _lemma_7_2(first_controls, ancilla, first_borrowed[: max(0, first_count - 2)]) \
        if first_count > 2 else [ToffoliGate.from_names(ancilla, first_controls)]
    second_count = len(second_controls)
    second = _lemma_7_2(second_controls, target, second_borrowed[: max(0, second_count - 2)]) \
        if second_count > 2 else [ToffoliGate.from_names(target, second_controls)]
    return first + second + first + second


def single_target_gate_to_mct(
    gate: SingleTargetGate, borrowable: list[str]
) -> list[ToffoliGate]:
    """Lower a single-target gate to Toffoli (<=2-control) gates.

    The control function is expanded into its algebraic normal form (a XOR
    of AND monomials, computed with the Möbius transform over the gate's
    truth table); each monomial becomes one multi-controlled Toffoli on the
    same target, and monomials with more than two controls fall through to
    :func:`decompose_mct`, borrowing any ``borrowable`` qubits the monomial
    does not touch.  Since ``t ^= f`` equals the XOR of the monomial
    contributions, the lowering is exact on every basis state and uses no
    clean ancillae.
    """
    return _anf_lowering(gate.target, gate.controls, _lowering_table(gate), borrowable)


def _lowering_table(gate: SingleTargetGate) -> int:
    """The truth table the lowering of ``gate`` expands."""
    if gate.function is None:
        raise CircuitError(
            f"gate {gate.label or gate.target!r} has no concrete control "
            "function; structural circuits cannot be decomposed"
        )
    arity = gate.num_controls
    if arity > TABLE_CONTROL_LIMIT:
        raise CircuitError(
            f"cannot expand a {arity}-control gate's truth table for lowering"
        )
    return gate.truth_table()


def _anf_lowering(
    target: str, controls: tuple[str, ...], table: int, borrowable: list[str]
) -> list[ToffoliGate]:
    # In-place Möbius transform, one control at a time: every row with the
    # control's bit set absorbs the row without it.  The table becomes the
    # ANF: bit ``i`` is the coefficient of the monomial of ``i``'s controls.
    coefficients = table
    for position, lane in enumerate(projection_lanes(len(controls))):
        coefficients ^= (coefficients & ~lane) << (1 << position)
    gates: list[ToffoliGate] = []
    while coefficients:
        lowest = coefficients & -coefficients
        coefficients ^= lowest
        index = lowest.bit_length() - 1
        monomial = [
            name for position, name in enumerate(controls) if (index >> position) & 1
        ]
        if len(monomial) <= 2:
            gates.append(ToffoliGate.from_names(target, monomial))
        else:
            borrowed = [
                qubit
                for qubit in borrowable
                if qubit != target and qubit not in monomial
            ]
            gates.extend(decompose_mct(monomial, target, borrowed))
    return gates


def decompose_circuit(
    circuit: ReversibleCircuit, *, name: str | None = None
) -> ReversibleCircuit:
    """Rewrite a circuit over arbitrary gates into Toffoli (<=2-control) gates.

    Single-target gates are lowered through their algebraic normal form
    (:func:`single_target_gate_to_mct`); multi-controlled Toffoli gates go
    through the Barenco construction (negative controls are conjugated with
    NOTs first).  All decompositions borrow dirty qubits from the rest of
    the circuit, so the result has exactly the qubits (and roles) of the
    input circuit and computes the same permutation of basis states.  A
    single-target gate that occurs more than once (a node pebbled and
    unpebbled on the same qubits) is lowered once and its gates reused.
    """
    result = ReversibleCircuit(name or f"{circuit.name}_mct")
    for qubit in circuit.qubits():
        result.add_qubit(qubit, circuit.qubit(qubit).role)
    all_qubits = circuit.qubits()
    lowerings: dict[tuple[str, tuple[str, ...], int], list[ToffoliGate]] = {}
    for gate in circuit.gates:
        if isinstance(gate, ToffoliGate):
            if gate.num_controls <= 2:
                result.append(gate)
                continue
            flips = [name for (name, polarity) in gate.controls if not polarity]
            for qubit in flips:
                result.append(ToffoliGate(qubit))
            borrowed = [q for q in all_qubits if q not in gate.qubits()]
            for lowered in decompose_mct(
                list(gate.control_names()), gate.target, borrowed
            ):
                result.append(lowered)
            for qubit in flips:
                result.append(ToffoliGate(qubit))
        else:
            table = _lowering_table(gate)
            key = (gate.target, gate.controls, table)
            gates = lowerings.get(key)
            if gates is None:
                gates = lowerings[key] = _anf_lowering(
                    gate.target, gate.controls, table, all_qubits
                )
            result.extend(gates)
    return result


def barenco_and_oracle(
    num_inputs: int,
    *,
    input_prefix: str = "x",
    target: str = "h",
    ancilla: str = "a0",
    name: str | None = None,
) -> ReversibleCircuit:
    """The Fig. 6(d) construction: an ``num_inputs``-input AND oracle as a
    single multi-controlled Toffoli, decomposed with one borrowed ancilla.

    Returns a circuit with ``num_inputs + 2`` qubits (inputs, one ancilla,
    one output).  For 9 inputs the circuit has 48 Toffoli gates.
    """
    if num_inputs < 2:
        raise CircuitError("an AND oracle needs at least two inputs")
    circuit = ReversibleCircuit(name or f"and{num_inputs}_barenco")
    inputs = [f"{input_prefix}{index}" for index in range(num_inputs)]
    circuit.add_qubits(inputs, QubitRole.INPUT)
    circuit.add_qubit(ancilla, QubitRole.ANCILLA)
    circuit.add_qubit(target, QubitRole.OUTPUT)
    for gate in decompose_mct(inputs, target, [ancilla]):
        circuit.append(gate)
    return circuit
