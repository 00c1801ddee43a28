"""Seeded benchmark inputs: relabelled, reordered copies of the paper DAGs.

Every input file the benchmark hands to the program is a *variant* of one
in-repo source DAG: the nodes get fresh random names and the file lists
them in a topological order of its own.  Pebbling outcomes and minimal
step counts depend only on the graph's shape, so one expected-answer
table (``check.py``) serves every seed, while the variable order changes
the path the SAT search takes.

Gate-level sources are written as ISCAS ``.bench`` netlists, word-level
straight-line programs as DAG-JSON; the program parses the file on every
request.  Next to each file the generator returns a *shadow*: the
dependency lists and outputs of the variant, derived here from the source
structure (not by parsing the file back), which the witness replay in
``check.py`` checks answers against.

``retype=True`` also redraws the operation of every two-input gate (or
SLP node).  The unweighted pebbling answer ignores operations, but the
result store's isomorphism-invariant fingerprint does not, so a retyped
variant is a genuinely cold miss for the store.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Two-input gate functions a retyped variant may draw from.
_SYMMETRIC_GATES = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")

#: Gate-level sources: registry name -> scale of the ISCAS stand-in.
GATE_SOURCES = {
    "fig2": 1.0,
    "c17": 1.0,
    "and9": 1.0,
    "c432": 0.1,
    "c499": 0.1,
    "c1355": 0.1,
    "c1908": 0.1,
}

#: Word-level straight-line programs, written as DAG-JSON.
SLP_SOURCES = ("hadamard", "kummer-add", "kummer-double", "edwards-add")


@dataclass(frozen=True)
class Node:
    """One node of a source structure: a gate or an SLP operation."""

    name: str
    operation: str
    #: Gate fanins (primary inputs included) or SLP dependencies.
    fanins: tuple[str, ...]


@dataclass(frozen=True)
class Source:
    """The canonical structure one family of variants is drawn from."""

    name: str
    gate_level: bool
    inputs: tuple[str, ...]
    nodes: tuple[Node, ...]
    outputs: tuple[str, ...]


def load_source(name: str) -> Source:
    """Read a source structure out of the in-repo workload registry."""
    from repro.workloads.registry import load_workload, load_workload_network

    if name in GATE_SOURCES:
        network = load_workload_network(name, scale=GATE_SOURCES[name])
        gates = {gate.output: gate for gate in network.gates()}
        # Keep only the output cones, the sweep the registry applies too.
        wanted: set[str] = set()
        stack = [signal for signal in network.outputs if signal in gates]
        while stack:
            signal = stack.pop()
            if signal in wanted:
                continue
            wanted.add(signal)
            stack.extend(f for f in gates[signal].fanins if f in gates)
        nodes = []
        for gate in network.gates():
            if gate.output not in wanted:
                continue
            kind = gate.gate_type.value
            if kind in ("NOT", "BUF", "CONST0", "CONST1"):
                # The shadow treats every gate as a DAG node; inverters
                # and constants would be folded away by the parser.
                raise ValueError(f"{name}: gate {gate.output} is {kind}")
            nodes.append(Node(gate.output, kind, tuple(gate.fanins)))
        return Source(
            name, True, tuple(network.inputs), tuple(nodes), tuple(network.outputs)
        )
    if name in SLP_SOURCES:
        dag = load_workload(name)
        nodes = tuple(
            Node(str(node), str(dag.node(node).operation),
                 tuple(str(dep) for dep in dag.dependencies(node)))
            for node in dag.topological_order()
        )
        return Source(name, False, (), nodes, tuple(str(o) for o in dag.outputs()))
    raise ValueError(f"unknown benchmark source {name!r}")


def _fresh_names(rng: random.Random, old: list[str]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for name in old:
        token = f"s{rng.getrandbits(32):08x}"
        while token in used:
            token = f"s{rng.getrandbits(32):08x}"
        used.add(token)
        mapping[name] = token
    return mapping


def _random_topological(nodes: tuple[Node, ...], rng: random.Random) -> list[Node]:
    by_name = {node.name: node for node in nodes}
    waiting = {
        node.name: {f for f in node.fanins if f in by_name} for node in nodes
    }
    ready = sorted(name for name, deps in waiting.items() if not deps)
    order: list[Node] = []
    while ready:
        name = ready.pop(rng.randrange(len(ready)))
        order.append(by_name[name])
        for other, deps in waiting.items():
            if name in deps:
                deps.discard(name)
                if not deps:
                    ready.append(other)
    return order


def write_variant(
    source: Source, path: Path, rng: random.Random, shape: random.Random,
    *, retype: bool = False,
) -> dict[str, object]:
    """Write one seeded variant of ``source`` to ``path``; return its shadow.

    ``rng`` draws the node names; ``shape`` draws the topological order,
    the order of the input and output lines and, with ``retype``, the
    operations.  The shadow maps each DAG node to its dependencies (``"deps"``), lists
    the outputs, both under the variant's names, and records whether the
    variant is a gate-level netlist (whose compilations must verify).
    """
    node_names = {node.name for node in source.nodes}
    rename = _fresh_names(rng, list(source.inputs) + [n.name for n in source.nodes])
    operations = sorted({node.operation for node in source.nodes})
    order = _random_topological(source.nodes, shape)
    deps: dict[str, list[str]] = {}
    lines: list[str] = []
    entries: list[dict[str, object]] = []
    for node in order:
        operation = node.operation
        if retype and (not source.gate_level or len(set(node.fanins)) == 2):
            pool = _SYMMETRIC_GATES if source.gate_level else operations
            if operation in pool:
                operation = shape.choice(pool)
        fanins = [rename[f] for f in node.fanins]
        deps[rename[node.name]] = list(
            dict.fromkeys(rename[f] for f in node.fanins if f in node_names)
        )
        if source.gate_level:
            lines.append(f"{rename[node.name]} = {operation}({', '.join(fanins)})")
        else:
            entries.append({
                "id": rename[node.name],
                "operation": operation,
                "weight": 1.0,
                "dependencies": fanins,
            })
    outputs = [rename[o] for o in source.outputs]
    shape.shuffle(outputs)
    if source.gate_level:
        inputs = [rename[i] for i in source.inputs]
        shape.shuffle(inputs)
        text = "\n".join(
            [f"# {path.stem}"]
            + [f"INPUT({name})" for name in inputs]
            + [f"OUTPUT({name})" for name in outputs]
            + lines
        ) + "\n"
    else:
        text = json.dumps({"name": path.stem, "nodes": entries, "outputs": outputs})
    path.write_text(text, encoding="utf-8")
    return {"deps": deps, "outputs": outputs, "gate_level": source.gate_level}


def suffix(source: str) -> str:
    """File suffix of a source's variants."""
    return ".bench" if source in GATE_SOURCES else ".json"
