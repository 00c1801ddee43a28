"""Gate types used by the reversible-circuit substrate.

Two gate families cover everything the reproduction needs:

* :class:`SingleTargetGate` — the paper's Definition 1: a reversible gate
  that XORs an arbitrary Boolean control function of its control qubits
  onto one target qubit.  Pebbling moves compile one-to-one into these.
* :class:`ToffoliGate` — a multi-controlled NOT with optional negative
  controls.  It is the special case of a single-target gate whose control
  function is a product of literals, and the unit in which the Barenco
  decomposition (Fig. 6(d)) is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import CircuitError


#: Widest control set whose truth table a gate may expand (``2^16`` bits).
TABLE_CONTROL_LIMIT = 16


@dataclass(frozen=True)
class SingleTargetGate:
    """A single-target gate ``|c..><t|  ->  |c..>|t xor f(c..)>``.

    ``controls`` are qubit names; ``function`` evaluates the control
    function given a ``{control name: bool}`` mapping.  ``label`` is used in
    reports (e.g. the DAG node or operation name the gate realises).

    ``table`` is the same function as a truth table: bit ``i`` is the
    function's value when control ``k`` holds bit ``k`` of ``i``.  A gate
    built from a table alone evaluates through it; a gate built from a
    callable alone computes its table on first use of
    :meth:`truth_table`, once.
    """

    target: str
    controls: tuple[str, ...]
    function: Callable[[Mapping[str, bool]], bool] | None = None
    label: str = ""
    table: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.target in self.controls:
            raise CircuitError(f"gate target {self.target!r} cannot also be a control")
        if len(set(self.controls)) != len(self.controls):
            raise CircuitError("duplicate control qubits")
        if self.table is not None:
            if self.table < 0 or self.table.bit_length() > 1 << len(self.controls):
                raise CircuitError(
                    f"truth table {self.table:#x} does not fit "
                    f"{len(self.controls)} controls"
                )
            if self.function is None:
                object.__setattr__(
                    self, "function", _table_function(self.controls, self.table)
                )

    @property
    def num_controls(self) -> int:
        """Number of control qubits."""
        return len(self.controls)

    def qubits(self) -> tuple[str, ...]:
        """All qubits touched by the gate (controls then target)."""
        return self.controls + (self.target,)

    def evaluate(self, values: Mapping[str, bool]) -> bool:
        """Evaluate the control function for the given control values."""
        if self.function is None:
            raise CircuitError(
                f"gate {self.label or self.target!r} has no concrete control function"
            )
        return bool(self.function({name: bool(values[name]) for name in self.controls}))

    def truth_table(self) -> int:
        """The control function as a truth table (see the class docstring)."""
        if self.table is None:
            arity = len(self.controls)
            if arity > TABLE_CONTROL_LIMIT:
                raise CircuitError(
                    f"cannot expand a {arity}-control gate's truth table"
                )
            table = 0
            for index in range(1 << arity):
                values = {
                    name: bool((index >> position) & 1)
                    for position, name in enumerate(self.controls)
                }
                if self.evaluate(values):
                    table |= 1 << index
            # ``table`` takes no part in equality or hashing, so caching it
            # on the frozen instance changes neither.
            object.__setattr__(self, "table", table)
        return self.table

    def __str__(self) -> str:
        label = self.label or "f"
        controls = ", ".join(self.controls)
        return f"{self.target} ^= {label}({controls})"


def _table_function(
    controls: tuple[str, ...], table: int
) -> Callable[[Mapping[str, bool]], bool]:
    """A control function that looks its value up in ``table``."""

    def function(values: Mapping[str, bool]) -> bool:
        index = 0
        for position, name in enumerate(controls):
            if values[name]:
                index |= 1 << position
        return bool((table >> index) & 1)

    return function


@dataclass(frozen=True)
class ToffoliGate:
    """A multi-controlled NOT with positive and negative controls.

    ``controls`` maps qubit name to required polarity (``True`` = positive
    control).  With zero controls the gate is a NOT, with one a CNOT, with
    two the classic Toffoli.
    """

    target: str
    controls: tuple[tuple[str, bool], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [name for name, _ in self.controls]
        if self.target in names:
            raise CircuitError(f"gate target {self.target!r} cannot also be a control")
        if len(set(names)) != len(names):
            raise CircuitError("duplicate control qubits")

    @classmethod
    def from_names(
        cls, target: str, controls: Sequence[str], *, negated: Sequence[str] = ()
    ) -> "ToffoliGate":
        """Build a Toffoli gate from control names (``negated`` lists the 0-controls)."""
        negated_set = set(negated)
        unknown = negated_set - set(controls)
        if unknown:
            raise CircuitError(f"negated controls {sorted(unknown)} are not controls")
        return cls(target, tuple((name, name not in negated_set) for name in controls))

    @property
    def num_controls(self) -> int:
        """Number of control qubits."""
        return len(self.controls)

    def control_names(self) -> tuple[str, ...]:
        """Control qubit names."""
        return tuple(name for name, _ in self.controls)

    def qubits(self) -> tuple[str, ...]:
        """All qubits touched by the gate."""
        return self.control_names() + (self.target,)

    def evaluate(self, values: Mapping[str, bool]) -> bool:
        """Return ``True`` when the target should be flipped."""
        return all(bool(values[name]) == polarity for name, polarity in self.controls)

    def as_single_target_gate(self) -> SingleTargetGate:
        """View the Toffoli gate as a single-target gate."""
        # The only true row is the one whose control bits match the polarities.
        row = sum(1 << position for position, (_, positive) in enumerate(self.controls) if positive)
        label = f"and{self.num_controls}" if self.num_controls else "not"
        return SingleTargetGate(self.target, self.control_names(), label=label, table=1 << row)

    def __str__(self) -> str:
        if not self.controls:
            return f"X({self.target})"
        controls = ", ".join(
            name if polarity else f"!{name}" for name, polarity in self.controls
        )
        return f"X({self.target}) if ({controls})"


Gate = SingleTargetGate | ToffoliGate
