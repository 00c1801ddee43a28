"""Serialisation of dependency DAGs.

Supports a small JSON schema (round-trippable, used by the CLI and by the
workload registry) and Graphviz DOT export for visual inspection of the
DAGs in the paper's figures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from repro.errors import DagError
from repro.dag.graph import Dag


def dag_to_dict(dag: Dag) -> dict:
    """Return a JSON-serialisable description of ``dag``."""
    dag.validate()
    return {
        "name": dag.name,
        "nodes": [
            {
                "id": _node_key(node),
                "operation": dag.node(node).operation,
                "weight": dag.node(node).weight,
                "dependencies": [_node_key(dep) for dep in dag.dependencies(node)],
            }
            for node in dag.topological_order()
        ],
        "outputs": [_node_key(node) for node in dag.outputs()],
    }


def _node_key(node: object) -> str:
    return node if isinstance(node, str) else str(node)


def _node_weight(entry: Mapping) -> float:
    """A node entry's weight: a finite real number, 1.0 when absent.

    Whether it is a positive integer is the weighted game's own check.
    """
    weight = entry.get("weight", 1.0)
    if (
        isinstance(weight, bool)
        or not isinstance(weight, (int, float))
        or (isinstance(weight, float) and not math.isfinite(weight))
    ):
        raise DagError(
            f"malformed DAG description: node {entry['id']!r} has weight "
            f"{weight!r}; a weight must be a finite number"
        )
    return weight


def dag_from_dict(data: Mapping) -> Dag:
    """Rebuild a :class:`Dag` from :func:`dag_to_dict` output."""
    if not isinstance(data, Mapping):
        raise DagError(
            f"malformed DAG description: expected an object, got {type(data).__name__}"
        )
    try:
        dag = Dag(name=data.get("name", "dag"))
        for entry in data["nodes"]:
            dag.add_node(
                entry["id"],
                entry.get("dependencies", []),
                operation=entry.get("operation", "op"),
                weight=_node_weight(entry),
            )
        if data.get("outputs"):
            dag.set_outputs(data["outputs"])
    except (KeyError, TypeError) as exc:
        raise DagError(f"malformed DAG description: {exc}") from exc
    dag.validate()
    return dag


def dag_to_json(dag: Dag, path: str | Path | None = None, *, indent: int = 2) -> str:
    """Serialise ``dag`` to JSON; optionally also write it to ``path``."""
    text = json.dumps(dag_to_dict(dag), indent=indent)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def dag_from_json(source: str | Path) -> Dag:
    """Load a DAG from a JSON string or file path."""
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text(encoding="utf-8")
    return parse_dag_json(text)


def parse_dag_json(text: str) -> Dag:
    """Parse DAG-JSON content (as a string) into a :class:`Dag`."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or nesting too deep
        raise DagError(f"invalid JSON: {exc}") from exc
    return dag_from_dict(data)


def dag_to_dot(dag: Dag, *, highlight: set | None = None) -> str:
    """Return a Graphviz DOT rendering of ``dag``.

    ``highlight`` marks a set of nodes (e.g. a pebbling configuration) that
    are drawn filled.
    """
    highlight = highlight or set()
    outputs = set(dag.outputs())
    lines = [f'digraph "{dag.name}" {{', "  rankdir=BT;"]
    for node in dag.topological_order():
        record = dag.node(node)
        attributes = [f'label="{node}\\n{record.operation}"']
        if node in highlight:
            attributes.append('style=filled fillcolor="indianred1"')
        elif node in outputs:
            attributes.append('style=filled fillcolor="lightblue"')
        lines.append(f'  "{node}" [{" ".join(attributes)}];')
    for producer, consumer in dag.edges():
        lines.append(f'  "{producer}" -> "{consumer}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
