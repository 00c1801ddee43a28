"""Compilation of pebbling strategies into reversible circuits.

A pebbling strategy prescribes *when* every intermediate value is computed
and uncomputed; compilation turns each pebble move into a single-target
gate (Definition 1 of the paper):

* ``pebble(v)``   → apply ``G_{f_v}`` targeting a free work qubit;
* ``unpebble(v)`` → apply the same gate again on the same qubit, restoring
  it to ``|0>``.

The compiler allocates ``strategy.max_pebbles`` work qubits in addition to
one qubit per primary input, exactly the ``#inputs + #pebbles`` budget the
paper uses when mapping onto a constrained device (Fig. 6).

Control functions come from a *control provider*.  Two providers are
available: :func:`dag_controls` (structural only — the gate controls are
the node's DAG dependencies, no concrete Boolean function) and
:func:`network_controls` (full Boolean fidelity for DAGs derived from a
:class:`~repro.logic.network.LogicNetwork`, including folded inverters and
constants, which is what the simulator needs to verify circuits
end-to-end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import CircuitError
from repro.dag.graph import Dag, NodeId
from repro.circuits.circuit import QubitRole, ReversibleCircuit
from repro.circuits.gates import TABLE_CONTROL_LIMIT, SingleTargetGate
from repro.logic.network import GateType, LogicNetwork, evaluate_gate_lanes, projection_lanes
from repro.pebbling.bennett import bennett_strategy
from repro.pebbling.strategy import PebblingStrategy

#: A control provider maps a DAG node to its gate description.
ControlProvider = Callable[[NodeId], "NodeControls"]


@dataclass(frozen=True)
class NodeControls:
    """Gate description of one DAG node.

    ``controls`` lists the value names the gate reads: primary-input names
    and/or other DAG node identifiers.  ``function`` evaluates the control
    function given ``{control name: bool}`` (``None`` when only the
    dependency structure is known).  ``table`` is the same function as a
    truth table over ``controls`` (bit ``i`` is its value when control
    ``k`` holds bit ``k`` of ``i``), or ``None`` when it is not known or
    wider than :data:`~repro.circuits.gates.TABLE_CONTROL_LIMIT` controls.
    ``label`` annotates the emitted gate.
    """

    controls: tuple[NodeId, ...]
    function: Callable[[Mapping[NodeId, bool]], bool] | None = None
    label: str = ""
    table: int | None = None


def dag_controls(dag: Dag) -> ControlProvider:
    """Structural control provider: controls are the node's dependencies."""

    def provider(node: NodeId) -> NodeControls:
        return NodeControls(
            controls=tuple(dag.dependencies(node)),
            function=None,
            label=str(dag.node(node).operation),
        )

    return provider


def network_controls(
    network: LogicNetwork, *, collapse_inverters: bool = True
) -> ControlProvider:
    """Boolean control provider for DAGs produced by ``network.to_dag()``.

    Every network signal is resolved to ``(representative, parity, constant)``
    where the representative is a DAG node or primary input; inverter chains
    contribute parity, constants are folded in.  The returned provider then
    evaluates each node's true gate function with the network's own gate
    evaluator, once per node over all rows of its truth table, so compiled
    circuits can be simulated and lowered bit-exactly.
    """
    network.validate()
    resolution: dict[str, tuple[str | None, bool, bool | None]] = {}
    #   signal -> (representative name or None, inverted?, constant value or None)
    for name in network.inputs:
        resolution[name] = (name, False, None)
    for gate in network.gates():
        if collapse_inverters and gate.gate_type in (GateType.NOT, GateType.BUF):
            rep, parity, const = resolution[gate.fanins[0]]
            flip = gate.gate_type is GateType.NOT
            if const is not None:
                resolution[gate.output] = (None, False, const ^ flip)
            else:
                resolution[gate.output] = (rep, parity ^ flip, None)
            continue
        if gate.gate_type is GateType.CONST0:
            resolution[gate.output] = (None, False, False)
            continue
        if gate.gate_type is GateType.CONST1:
            resolution[gate.output] = (None, False, True)
            continue
        resolution[gate.output] = (gate.output, False, None)

    def provider(node: NodeId) -> NodeControls:
        gate = network.gate(str(node))
        fanin_resolutions = [resolution[fanin] for fanin in gate.fanins]
        controls = tuple(
            dict.fromkeys(rep for rep, _, const in fanin_resolutions if const is None and rep)
        )
        gate_type = gate.gate_type

        def evaluate(lanes: Mapping[NodeId, int], mask: int) -> int:
            fanin_lanes = [
                (mask if const else 0) if const is not None
                else lanes[rep] ^ (mask if parity else 0)
                for rep, parity, const in fanin_resolutions
            ]
            return evaluate_gate_lanes(gate_type, fanin_lanes, mask)

        def function(values: Mapping[NodeId, bool]) -> bool:
            return bool(evaluate({rep: int(bool(values[rep])) for rep in controls}, 1))

        table = None
        if len(controls) <= TABLE_CONTROL_LIMIT:
            rows = 1 << len(controls)
            table = evaluate(dict(zip(controls, projection_lanes(len(controls)))), (1 << rows) - 1)
        return NodeControls(
            controls=controls, function=function, label=gate_type.value, table=table
        )

    return provider


@dataclass
class CompiledCircuit:
    """A compiled circuit plus the mapping from DAG outputs to qubits."""

    circuit: ReversibleCircuit
    output_qubits: dict[NodeId, str]
    input_qubits: dict[NodeId, str]

    @property
    def num_qubits(self) -> int:
        """Total number of qubits of the compiled circuit."""
        return self.circuit.num_qubits

    @property
    def num_gates(self) -> int:
        """Total number of gates of the compiled circuit."""
        return self.circuit.num_gates


def compile_strategy(
    dag: Dag,
    strategy: PebblingStrategy,
    *,
    provider: ControlProvider | None = None,
    name: str | None = None,
    work_qubit_prefix: str = "w",
) -> CompiledCircuit:
    """Compile ``strategy`` (a strategy for ``dag``) into a reversible circuit."""
    if strategy.dag is not dag:
        # Allow equal-but-distinct DAGs as long as node sets match.
        if set(map(str, strategy.dag.nodes())) != set(map(str, dag.nodes())):
            raise CircuitError("strategy was computed for a different DAG")
    provider = provider or dag_controls(dag)
    node_controls = {node: provider(node) for node in dag.nodes()}

    # Primary inputs = control names that are not DAG nodes.
    dag_nodes = set(dag.nodes())
    primary_inputs: list[NodeId] = []
    for controls in node_controls.values():
        for control in controls.controls:
            if control not in dag_nodes and control not in primary_inputs:
                primary_inputs.append(control)

    num_work_qubits = strategy.max_pebbles
    work_qubits = [f"{work_qubit_prefix}{index}" for index in range(num_work_qubits)]

    # First pass: walk the moves, assign work qubits, record gate plans.
    free = list(reversed(work_qubits))  # pop() returns w0 first
    location: dict[NodeId, str] = {}
    plans: list[tuple[NodeId, str, tuple[NodeId, ...], str]] = []
    for move in strategy.moves():
        node = move.node
        controls = node_controls[node]
        if move.pebble:
            if not free:  # pragma: no cover - prevented by max_pebbles sizing
                raise CircuitError("ran out of work qubits during compilation")
            qubit = free.pop()
            location[node] = qubit
        else:
            qubit = location[node]
        control_qubits = []
        for control in controls.controls:
            if control in dag_nodes:
                if control not in location:
                    raise CircuitError(
                        f"gate for {node!r} reads {control!r} which is not pebbled"
                    )
                control_qubits.append(location[control])
            else:
                control_qubits.append(f"x[{control}]")
        plans.append((node, qubit, tuple(control_qubits), controls.label))
        if not move.pebble:
            free.append(location.pop(node))

    # Second pass: build the circuit with qubit roles known.
    final_locations = dict(location)
    circuit = ReversibleCircuit(name or f"{dag.name}_pebbled")
    input_qubits = {pi: f"x[{pi}]" for pi in primary_inputs}
    for pi in primary_inputs:
        circuit.add_qubit(input_qubits[pi], QubitRole.INPUT)
    output_holders = set(final_locations.values())
    for qubit in work_qubits:
        circuit.add_qubit(
            qubit, QubitRole.OUTPUT if qubit in output_holders else QubitRole.ANCILLA
        )

    for node, target, control_qubits, label in plans:
        controls = node_controls[node]
        gate_function = None
        if controls.table is None and controls.function is not None:
            mapping = dict(zip(control_qubits, controls.controls))
            base_function = controls.function

            def gate_function(
                values: Mapping[str, bool], _mapping=mapping, _base=base_function
            ) -> bool:
                return _base({_mapping[qubit]: values[qubit] for qubit in _mapping})

        circuit.append(
            SingleTargetGate(
                target=target,
                controls=control_qubits,
                function=gate_function,
                label=label or str(node),
                table=controls.table,
            )
        )

    output_qubits = {node: qubit for node, qubit in final_locations.items()}
    return CompiledCircuit(circuit=circuit, output_qubits=output_qubits, input_qubits=input_qubits)


def compile_bennett(
    dag: Dag,
    *,
    provider: ControlProvider | None = None,
    name: str | None = None,
) -> CompiledCircuit:
    """Compile the Bennett baseline strategy of ``dag``."""
    strategy = bennett_strategy(dag)
    return compile_strategy(dag, strategy, provider=provider, name=name or f"{dag.name}_bennett")


def compile_network_oracle(
    network: LogicNetwork,
    strategy: PebblingStrategy | None = None,
    *,
    collapse_inverters: bool = True,
    name: str | None = None,
) -> CompiledCircuit:
    """Compile a logic network into a reversible oracle circuit.

    When ``strategy`` is ``None`` the Bennett strategy is used.  The DAG the
    strategy refers to must be ``network.to_dag(collapse_inverters=...)``;
    the convenience path builds it internally.
    """
    dag = strategy.dag if strategy is not None else network.to_dag(
        collapse_inverters=collapse_inverters
    )
    if strategy is None:
        strategy = bennett_strategy(dag)
    provider = network_controls(network, collapse_inverters=collapse_inverters)
    return compile_strategy(dag, strategy, provider=provider, name=name or f"{network.name}_oracle")
