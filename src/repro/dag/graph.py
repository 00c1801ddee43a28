"""The dependency DAG on which the reversible pebbling game is played.

Terminology (kept consistent with the paper):

* every *node* is one unit of computation (one "part" of the decomposed
  algorithm, one gate, one arithmetic operation, ...);
* *primary inputs are not nodes* — a node with no dependencies only reads
  primary inputs, which are always available and never pebbled;
* ``dependencies(v)`` (the paper's *children* ``C(v)``) are the nodes whose
  values ``v`` reads; they must be pebbled for ``v`` to be (un)pebbled;
* ``dependents(v)`` are the nodes that read ``v``'s value;
* *outputs* are the nodes whose values must remain pebbled at the end of
  the game.  By default these are the sinks of the graph, but a subset can
  be designated explicitly (useful for logic networks whose primary outputs
  are not sinks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DagError

NodeId = Hashable


@dataclass
class DagNode:
    """A single computation node.

    ``operation`` is a free-form label ("add", "mul", "AND", ...) used by
    cost models and by the Fig. 5 operation-count reports; ``weight`` is a
    relative cost used by weighted statistics; ``payload`` carries anything
    else (e.g. the logic-network node it came from).
    """

    identifier: NodeId
    operation: str = "op"
    weight: float = 1.0
    payload: object | None = None


class Dag:
    """A mutable directed acyclic dependency graph.

    Nodes must be added before they are referenced as dependencies unless
    ``allow_forward_references`` is passed to :meth:`add_node`, in which
    case a placeholder node is created and must be defined later (this is
    convenient for parsers).  Cycles are rejected as soon as they would be
    created.
    """

    def __init__(self, name: str = "dag"):
        self.name = name
        self._nodes: dict[NodeId, DagNode] = {}
        self._dependencies: dict[NodeId, tuple[NodeId, ...]] = {}
        self._dependents: dict[NodeId, list[NodeId]] = {}
        self._outputs: list[NodeId] | None = None
        self._placeholders: set[NodeId] = set()
        self._topological_cache: list[NodeId] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        identifier: NodeId,
        dependencies: Sequence[NodeId] = (),
        *,
        operation: str = "op",
        weight: float = 1.0,
        payload: object | None = None,
        allow_forward_references: bool = False,
    ) -> DagNode:
        """Add a node and its dependency edges; return the node record."""
        was_placeholder = identifier in self._placeholders
        if identifier in self._nodes and not was_placeholder:
            raise DagError(f"node {identifier!r} already exists")
        for dependency in dependencies:
            if dependency == identifier:
                raise DagError(f"node {identifier!r} cannot depend on itself")
            if dependency not in self._nodes:
                if not allow_forward_references:
                    raise DagError(
                        f"node {identifier!r} depends on unknown node {dependency!r}"
                    )
                self._nodes[dependency] = DagNode(dependency)
                self._dependencies[dependency] = ()
                self._dependents[dependency] = []
                self._placeholders.add(dependency)
        node = DagNode(identifier, operation=operation, weight=weight, payload=payload)
        self._nodes[identifier] = node
        self._placeholders.discard(identifier)
        unique_dependencies = tuple(dict.fromkeys(dependencies))
        self._dependencies[identifier] = unique_dependencies
        self._dependents.setdefault(identifier, [])
        for dependency in unique_dependencies:
            self._dependents[dependency].append(identifier)
        self._topological_cache = None
        # A node added for the first time has no dependents yet, so only
        # a former forward reference can close a cycle.
        if was_placeholder and self._creates_cycle(identifier):
            # Roll back the insertion and restore the placeholder that the
            # forward reference created.
            for dependency in unique_dependencies:
                self._dependents[dependency].remove(identifier)
            self._nodes[identifier] = DagNode(identifier)
            self._dependencies[identifier] = ()
            self._placeholders.add(identifier)
            raise DagError(f"adding node {identifier!r} would create a cycle")
        return node

    def set_outputs(self, outputs: Iterable[NodeId]) -> None:
        """Designate the output nodes (defaults to all sinks when unset)."""
        output_list = list(dict.fromkeys(outputs))
        for output in output_list:
            if output not in self._nodes:
                raise DagError(f"unknown output node {output!r}")
        if not output_list:
            raise DagError("a DAG needs at least one output")
        self._outputs = output_list

    def _creates_cycle(self, start: NodeId) -> bool:
        # Depth-first walk along dependencies starting from ``start``.
        stack = [start]
        visited: set[NodeId] = set()
        while stack:
            current = stack.pop()
            for dependency in self._dependencies.get(current, ()):
                if dependency == start:
                    return True
                if dependency not in visited:
                    visited.add(dependency)
                    stack.append(dependency)
        return False

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, identifier: NodeId) -> bool:
        return identifier in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the DAG."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return sum(len(deps) for deps in self._dependencies.values())

    def node(self, identifier: NodeId) -> DagNode:
        """Return the :class:`DagNode` record for ``identifier``."""
        try:
            return self._nodes[identifier]
        except KeyError as exc:
            raise DagError(f"unknown node {identifier!r}") from exc

    def nodes(self) -> list[NodeId]:
        """Return all node identifiers in insertion order."""
        return list(self._nodes)

    def dependencies(self, identifier: NodeId) -> tuple[NodeId, ...]:
        """Nodes whose values ``identifier`` reads (the paper's C(v))."""
        self.node(identifier)
        return self._dependencies[identifier]

    # The paper calls the fan-ins of a node its "children".
    children = dependencies

    def dependents(self, identifier: NodeId) -> tuple[NodeId, ...]:
        """Nodes that read the value computed by ``identifier``."""
        self.node(identifier)
        return tuple(self._dependents[identifier])

    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """Return dependency edges as ``(producer, consumer)`` pairs."""
        result = []
        for consumer, producers in self._dependencies.items():
            for producer in producers:
                result.append((producer, consumer))
        return result

    def sources(self) -> list[NodeId]:
        """Nodes with no dependencies (they read only primary inputs)."""
        return [node for node in self._nodes if not self._dependencies[node]]

    def sinks(self) -> list[NodeId]:
        """Nodes whose value no other node reads."""
        return [node for node in self._nodes if not self._dependents[node]]

    def outputs(self) -> list[NodeId]:
        """Designated outputs (defaults to the sinks)."""
        if self._outputs is not None:
            return list(self._outputs)
        return self.sinks()

    def is_output(self, identifier: NodeId) -> bool:
        """Return ``True`` when ``identifier`` is an output node."""
        return identifier in set(self.outputs())

    def has_placeholders(self) -> bool:
        """Return ``True`` while forward-referenced nodes remain undefined."""
        return bool(self._placeholders)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.DagError` if the graph is malformed."""
        if not self._nodes:
            raise DagError("the DAG has no nodes")
        if self._placeholders:
            raise DagError(
                f"undefined forward-referenced nodes: {sorted(map(str, self._placeholders))}"
            )
        self.topological_order()  # raises on cycles
        if not self.outputs():
            raise DagError("the DAG has no outputs")

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> list[NodeId]:
        """Return the nodes in dependency order (Kahn's algorithm).

        Ties are broken by insertion order, which keeps the Bennett baseline
        deterministic.
        """
        if self._topological_cache is not None:
            return list(self._topological_cache)
        in_degree = {node: len(self._dependencies[node]) for node in self._nodes}
        ready = [node for node in self._nodes if in_degree[node] == 0]
        order: list[NodeId] = []
        ready_index = 0
        while ready_index < len(ready):
            current = ready[ready_index]
            ready_index += 1
            order.append(current)
            for dependent in self._dependents[current]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._nodes):
            raise DagError("the graph contains a cycle")
        self._topological_cache = order
        return list(order)

    def reverse_topological_order(self) -> list[NodeId]:
        """Topological order reversed (outputs towards sources)."""
        return list(reversed(self.topological_order()))

    def transitive_fanin(self, identifier: NodeId) -> set[NodeId]:
        """All nodes reachable from ``identifier`` through dependencies."""
        self.node(identifier)
        result: set[NodeId] = set()
        stack = list(self._dependencies[identifier])
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._dependencies[current])
        return result

    def transitive_fanout(self, identifier: NodeId) -> set[NodeId]:
        """All nodes that transitively depend on ``identifier``."""
        self.node(identifier)
        result: set[NodeId] = set()
        stack = list(self._dependents[identifier])
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._dependents[current])
        return result

    def depth(self) -> int:
        """Length (in nodes) of the longest dependency chain."""
        levels = self.levels()
        return max(levels.values(), default=0)

    def levels(self) -> dict[NodeId, int]:
        """Map each node to ``1 + max(level of dependencies)`` (sources = 1)."""
        levels: dict[NodeId, int] = {}
        for node in self.topological_order():
            dependencies = self._dependencies[node]
            if dependencies:
                levels[node] = 1 + max(levels[dependency] for dependency in dependencies)
            else:
                levels[node] = 1
        return levels

    def cone(self, outputs: Iterable[NodeId]) -> "Dag":
        """Return the sub-DAG feeding the given ``outputs``."""
        wanted: set[NodeId] = set()
        for output in outputs:
            self.node(output)
            wanted.add(output)
            wanted |= self.transitive_fanin(output)
        result = Dag(name=f"{self.name}_cone")
        for node in self.topological_order():
            if node not in wanted:
                continue
            record = self._nodes[node]
            result.add_node(
                node,
                [dep for dep in self._dependencies[node] if dep in wanted],
                operation=record.operation,
                weight=record.weight,
                payload=record.payload,
            )
        result.set_outputs([output for output in outputs])
        return result

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def relabel(self, mapping: Mapping[NodeId, NodeId] | Callable[[NodeId], NodeId]) -> "Dag":
        """Return a copy of the DAG with node identifiers renamed."""
        rename = mapping if callable(mapping) else (lambda node: mapping.get(node, node))
        renamed: dict[NodeId, NodeId] = {}
        for node in self._nodes:
            new_name = rename(node)
            if new_name in renamed.values():
                raise DagError(f"relabelling maps two nodes onto {new_name!r}")
            renamed[node] = new_name
        result = Dag(name=self.name)
        for node in self.topological_order():
            record = self._nodes[node]
            result.add_node(
                renamed[node],
                [renamed[dep] for dep in self._dependencies[node]],
                operation=record.operation,
                weight=record.weight,
                payload=record.payload,
            )
        result.set_outputs([renamed[output] for output in self.outputs()])
        return result

    def copy(self) -> "Dag":
        """Return an independent copy of the DAG."""
        return self.relabel(lambda node: node)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def statistics(self) -> "DagStatistics":
        """Return structural statistics (used in reports and EXPERIMENTS.md)."""
        fanouts = [len(self._dependents[node]) for node in self._nodes]
        fanins = [len(self._dependencies[node]) for node in self._nodes]
        return DagStatistics(
            name=self.name,
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            num_outputs=len(self.outputs()),
            num_sources=len(self.sources()),
            depth=self.depth(),
            max_fanin=max(fanins, default=0),
            max_fanout=max(fanouts, default=0),
            total_weight=sum(self._nodes[node].weight for node in self._nodes),
        )

    def operation_counts(self) -> dict[str, int]:
        """Return ``{operation label: node count}``."""
        counts: dict[str, int] = {}
        for node in self._nodes.values():
            counts[node.operation] = counts.get(node.operation, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"Dag(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, outputs={len(self.outputs())})"
        )


@dataclass(frozen=True)
class DagStatistics:
    """Structural summary of a :class:`Dag`."""

    name: str
    num_nodes: int
    num_edges: int
    num_outputs: int
    num_sources: int
    depth: int
    max_fanin: int
    max_fanout: int
    total_weight: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """Return the statistics as a plain dictionary."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_outputs": self.num_outputs,
            "num_sources": self.num_sources,
            "depth": self.depth,
            "max_fanin": self.max_fanin,
            "max_fanout": self.max_fanout,
            "total_weight": self.total_weight,
        }
