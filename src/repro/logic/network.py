"""A small structural logic-network library.

A :class:`LogicNetwork` is a named DAG of logic gates over primary inputs.
It is the offline stand-in for the XOR-majority graphs the paper extracts
with mockturtle: the pebbling algorithm only needs the *dependency
structure* of the network, which :meth:`LogicNetwork.to_dag` exposes, but
having real gate functions lets the test-suite simulate networks, check
`.bench` round-trips, and verify that reversible circuits synthesised from
pebbling strategies compute the right Boolean function.

Signals are identified by strings.  Primary inputs are declared with
:meth:`add_input`; every gate produces exactly one signal.  Primary outputs
name existing signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro.errors import LogicNetworkError
from repro.dag.graph import Dag


class GateType(Enum):
    """Supported gate functions."""

    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    MAJ = "MAJ"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @classmethod
    def from_name(cls, name: "str | GateType") -> "GateType":
        """Accept an enum member or a (case-insensitive) gate name."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name.upper())
        except (ValueError, AttributeError) as exc:
            valid = ", ".join(member.value for member in cls)
            raise LogicNetworkError(f"unknown gate type {name!r} (valid: {valid})") from exc


_ARITY = {
    GateType.NOT: (1, 1),
    GateType.BUF: (1, 1),
    GateType.MAJ: (3, 3),
    GateType.CONST0: (0, 0),
    GateType.CONST1: (0, 0),
    GateType.AND: (1, None),
    GateType.OR: (1, None),
    GateType.NAND: (1, None),
    GateType.NOR: (1, None),
    GateType.XOR: (1, None),
    GateType.XNOR: (1, None),
}


@dataclass(frozen=True)
class Gate:
    """One gate: an output signal, a function and ordered fan-in signals."""

    output: str
    gate_type: GateType
    fanins: tuple[str, ...]


class LogicNetwork:
    """A combinational logic network (netlist).

    Example::

        network = LogicNetwork("half_adder")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("sum", "XOR", ["a", "b"])
        network.add_gate("carry", "AND", ["a", "b"])
        network.add_output("sum")
        network.add_output("carry")
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._order_cache: list[str] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input signal."""
        self._check_fresh(name)
        self._inputs.append(name)
        self._order_cache = None
        return name

    def add_inputs(self, names: Iterable[str]) -> list[str]:
        """Declare several primary inputs; return their names."""
        return [self.add_input(name) for name in names]

    def add_gate(self, output: str, gate_type: "str | GateType", fanins: Sequence[str]) -> Gate:
        """Add a gate computing ``output`` from ``fanins``."""
        self._check_fresh(output)
        resolved_type = GateType.from_name(gate_type)
        lower, upper = _ARITY[resolved_type]
        if len(fanins) < lower or (upper is not None and len(fanins) > upper):
            raise LogicNetworkError(
                f"gate {resolved_type.value} expects between {lower} and "
                f"{upper if upper is not None else 'any number of'} fanins, got {len(fanins)}"
            )
        for fanin in fanins:
            if not self.has_signal(fanin):
                raise LogicNetworkError(
                    f"gate {output!r} reads unknown signal {fanin!r}"
                )
        gate = Gate(output, resolved_type, tuple(fanins))
        self._gates[output] = gate
        self._order_cache = None
        return gate

    def add_output(self, signal: str) -> None:
        """Declare ``signal`` (an input or gate output) as a primary output."""
        if not self.has_signal(signal):
            raise LogicNetworkError(f"unknown output signal {signal!r}")
        self._outputs.append(signal)

    def _check_fresh(self, name: str) -> None:
        if not name:
            raise LogicNetworkError("signal names must be non-empty")
        if self.has_signal(name):
            raise LogicNetworkError(f"signal {name!r} already defined")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> list[str]:
        """Primary-input signal names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[str]:
        """Primary-output signal names, in declaration order."""
        return list(self._outputs)

    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    @property
    def num_gates(self) -> int:
        """Number of gates (excluding primary inputs)."""
        return len(self._gates)

    def has_signal(self, name: str) -> bool:
        """Return ``True`` if ``name`` is a declared input or gate output."""
        return name in self._gates or name in self._inputs

    def is_input(self, name: str) -> bool:
        """Return ``True`` if ``name`` is a primary input."""
        return name in self._inputs

    def gate(self, output: str) -> Gate:
        """Return the gate driving ``output``."""
        try:
            return self._gates[output]
        except KeyError as exc:
            raise LogicNetworkError(f"no gate drives signal {output!r}") from exc

    def gates(self) -> list[Gate]:
        """Return all gates in topological order."""
        return [self._gates[name] for name in self.topological_order() if name in self._gates]

    def topological_order(self) -> list[str]:
        """Return all signals (inputs first, then gates) in dependency order."""
        if self._order_cache is not None:
            return list(self._order_cache)
        order: list[str] = list(self._inputs)
        placed = set(order)
        remaining = dict(self._gates)
        # Kahn-style repeated sweep; gate count is small enough that the
        # quadratic worst case does not matter, and insertion order is
        # usually already topological so the common case is linear.
        progress = True
        while remaining and progress:
            progress = False
            for output in list(remaining):
                gate = remaining[output]
                if all(fanin in placed for fanin in gate.fanins):
                    order.append(output)
                    placed.add(output)
                    del remaining[output]
                    progress = True
        if remaining:
            raise LogicNetworkError(
                f"combinational loop involving signals {sorted(remaining)}"
            )
        self._order_cache = order
        return list(order)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.LogicNetworkError` on malformed networks."""
        if not self._inputs and not any(
            gate.gate_type in (GateType.CONST0, GateType.CONST1) for gate in self._gates.values()
        ):
            raise LogicNetworkError("network has no primary inputs")
        if not self._outputs:
            raise LogicNetworkError("network has no primary outputs")
        self.topological_order()

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Evaluate the network for one input assignment.

        Returns the value of every signal (inputs, internal gates and
        outputs).
        """
        lanes = {name: int(bool(value)) for name, value in assignment.items()}
        return {name: bool(lane) for name, lane in self.simulate_lanes(lanes, 1).items()}

    def simulate_outputs(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Evaluate the network and return only the primary outputs."""
        values = self.simulate(assignment)
        return {name: values[name] for name in self._outputs}

    def simulate_lanes(self, input_lanes: Mapping[str, int], width: int) -> dict[str, int]:
        """Bit-parallel evaluation of ``width`` input patterns at once.

        Bit ``j`` of ``input_lanes[name]`` is the value of input ``name`` in
        pattern ``j`` (see :func:`pattern_lanes`).  Returns the lane of
        every signal (inputs, internal gates and outputs), each an integer
        below ``2^width``.
        """
        mask = (1 << width) - 1
        values: dict[str, int] = {}
        for name in self._inputs:
            if name not in input_lanes:
                raise LogicNetworkError(f"assignment is missing input {name!r}")
            values[name] = input_lanes[name] & mask
        for name in self.topological_order():
            if name in values:
                continue
            gate = self._gates[name]
            fanins = [values[fanin] for fanin in gate.fanins]
            values[name] = evaluate_gate_lanes(gate.gate_type, fanins, mask)
        return values

    def truth_tables(self) -> dict[str, int]:
        """Bit-parallel simulation over all ``2^n`` input patterns.

        Returns, for every primary output, an integer whose bit ``i`` is the
        output value for the input pattern with index ``i`` (input ``k`` of
        the network is bit ``k`` of the pattern index).  Only usable for
        networks with at most 16 primary inputs.
        """
        n = self.num_inputs
        if n > 16:
            raise LogicNetworkError("truth_tables is limited to 16 primary inputs")
        values = self.simulate_lanes(dict(zip(self._inputs, projection_lanes(n))), 1 << n)
        return {name: values[name] for name in self._outputs}

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_dag(self, *, collapse_inverters: bool = True) -> Dag:
        """Return the pebbling dependency DAG of the network.

        Each gate becomes one DAG node; primary inputs are *not* nodes
        (they are always available, matching the paper).  When
        ``collapse_inverters`` is true, NOT/BUF gates are folded into their
        consumers: on a quantum target an inversion is a Pauli-X applied in
        place and does not occupy an ancilla, so it should not count as a
        pebble.  Primary outputs driven by a primary input are dropped (no
        computation is needed for them).
        """
        self.validate()
        representative: dict[str, str | None] = {name: None for name in self._inputs}
        dag = Dag(name=self.name)
        for gate in self.gates():
            if collapse_inverters and gate.gate_type in (GateType.NOT, GateType.BUF):
                representative[gate.output] = representative[gate.fanins[0]]
                continue
            if gate.gate_type in (GateType.CONST0, GateType.CONST1):
                representative[gate.output] = None
                continue
            dependencies = []
            for fanin in gate.fanins:
                mapped = representative.get(fanin, fanin)
                if mapped is not None and mapped in dag:
                    dependencies.append(mapped)
            dag.add_node(
                gate.output,
                list(dict.fromkeys(dependencies)),
                operation=gate.gate_type.value,
            )
            representative[gate.output] = gate.output
        outputs = []
        for name in self._outputs:
            mapped = representative.get(name, name)
            if mapped is not None and mapped in dag:
                outputs.append(mapped)
        if not outputs:
            raise LogicNetworkError(
                "network reduces to primary inputs only; nothing to pebble"
            )
        dag.set_outputs(outputs)
        return dag

    def statistics(self) -> dict[str, int]:
        """Return a summary used by reports: #PI, #PO, #gates, depth."""
        depth = 0
        level: dict[str, int] = {name: 0 for name in self._inputs}
        for name in self.topological_order():
            if name in level:
                continue
            gate = self._gates[name]
            level[name] = 1 + max((level[fanin] for fanin in gate.fanins), default=0)
            depth = max(depth, level[name])
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "depth": depth,
        }

    def __repr__(self) -> str:
        return (
            f"LogicNetwork(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )


def projection_lanes(count: int) -> list[int]:
    """The lanes of all ``2^count`` patterns of ``count`` inputs, in order.

    Lane ``k`` has bit ``j`` set exactly when bit ``k`` of ``j`` is set:
    ``0b1010...`` for input 0, ``0b1100...`` for input 1, and so on.  Each
    is the classic alternating mask ``(2^(2^count) - 1) / (2^(2^k) + 1)``
    shifted by ``2^k``, so building them costs ``O(count)`` operations.
    """
    full = (1 << (1 << count)) - 1
    return [(full // ((1 << (1 << k)) + 1)) << (1 << k) for k in range(count)]


def pattern_lanes(patterns: Sequence[int], count: int) -> list[int]:
    """Transpose input patterns into lanes.

    Pattern ``j`` assigns input ``k`` the value of its bit ``k``; lane
    ``k`` of the result has bit ``j`` set exactly when pattern ``j`` sets
    input ``k``.  ``patterns[j]`` is never read past bit ``count - 1``.
    """
    lanes = [0] * count
    inputs = (1 << count) - 1
    for position, pattern in enumerate(patterns):
        bit = 1 << position
        pattern &= inputs
        while pattern:
            low = pattern & -pattern
            lanes[low.bit_length() - 1] |= bit
            pattern ^= low
    return lanes


def evaluate_gate_lanes(gate_type: GateType, values: Sequence[int], mask: int) -> int:
    """The output lane of one gate given its fan-in lanes (bits above ``mask`` clear)."""
    if gate_type is GateType.AND:
        result = mask
        for value in values:
            result &= value
        return result
    if gate_type is GateType.OR:
        result = 0
        for value in values:
            result |= value
        return result
    if gate_type is GateType.NAND:
        return mask & ~evaluate_gate_lanes(GateType.AND, values, mask)
    if gate_type is GateType.NOR:
        return mask & ~evaluate_gate_lanes(GateType.OR, values, mask)
    if gate_type is GateType.XOR:
        result = 0
        for value in values:
            result ^= value
        return result
    if gate_type is GateType.XNOR:
        return mask & ~evaluate_gate_lanes(GateType.XOR, values, mask)
    if gate_type is GateType.NOT:
        return mask & ~values[0]
    if gate_type is GateType.BUF:
        return values[0]
    if gate_type is GateType.MAJ:
        a, b, c = values
        return (a & b) | (a & c) | (b & c)
    if gate_type is GateType.CONST0:
        return 0
    return mask  # CONST1
