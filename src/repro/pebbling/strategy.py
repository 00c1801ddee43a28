"""Pebbling configurations, moves and strategies.

A *configuration* is the set of currently pebbled nodes (Definition 2 in
the paper).  A *strategy* is a sequence of configurations that starts
empty, ends with exactly the outputs pebbled, and where each transition
only (un)pebbles nodes whose dependencies are pebbled both before and
after the transition (Definition 3, generalised to allow several moves per
transition exactly as the paper's SAT encoding does).

:class:`PebblingStrategy` is the central object returned by every engine
(Bennett baseline, heuristic, SAT solver) and consumed by the circuit
compiler, the visualiser and the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvalidStrategyError
from repro.dag.graph import Dag, NodeId


@dataclass(frozen=True)
class PebbleMove:
    """A single pebble placement or removal.

    ``pebble`` is ``True`` when the move places a pebble on ``node``
    (computes the value) and ``False`` when it removes the pebble
    (uncomputes the value).
    """

    node: NodeId
    pebble: bool

    def __str__(self) -> str:
        action = "pebble" if self.pebble else "unpebble"
        return f"{action}({self.node})"


class PebblingStrategy:
    """A sequence of pebbling configurations for a given DAG.

    The constructor validates the strategy against the rules of the
    reversible pebbling game and raises
    :class:`~repro.errors.InvalidStrategyError` when they are violated,
    so any strategy object that exists is known to be legal.
    """

    def __init__(
        self,
        dag: Dag,
        configurations: Sequence[Iterable[NodeId]],
        *,
        max_moves_per_step: int | None = None,
        compress: bool = True,
    ) -> None:
        self.dag = dag
        configs = [frozenset(config) for config in configurations]
        if compress:
            configs = _compress(configs)
        self._configurations: list[frozenset[NodeId]] = configs
        self.max_moves_per_step = max_moves_per_step
        self._validate()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_moves(
        cls,
        dag: Dag,
        moves: Sequence[PebbleMove],
        *,
        compress: bool = False,
    ) -> "PebblingStrategy":
        """Build a strategy from a sequence of single moves."""
        configurations: list[set[NodeId]] = [set()]
        current: set[NodeId] = set()
        for move in moves:
            current = set(current)
            if move.pebble:
                if move.node in current:
                    raise InvalidStrategyError(f"{move} pebbles an already pebbled node")
                current.add(move.node)
            else:
                if move.node not in current:
                    raise InvalidStrategyError(f"{move} unpebbles an unpebbled node")
                current.remove(move.node)
            configurations.append(current)
        return cls(dag, configurations, max_moves_per_step=1, compress=compress)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        dag = self.dag
        dag.validate()
        configs = self._configurations
        if not configs:
            raise InvalidStrategyError("a strategy needs at least one configuration")
        node_set = set(dag.nodes())
        for index, config in enumerate(configs):
            unknown = config - node_set
            if unknown:
                raise InvalidStrategyError(
                    f"configuration {index} pebbles unknown nodes {sorted(map(str, unknown))}"
                )
        if configs[0]:
            raise InvalidStrategyError("the initial configuration must be empty")
        outputs = frozenset(dag.outputs())
        if configs[-1] != outputs:
            raise InvalidStrategyError(
                "the final configuration must contain exactly the outputs; "
                f"expected {sorted(map(str, outputs))}, got {sorted(map(str, configs[-1]))}"
            )
        for index in range(len(configs) - 1):
            before, after = configs[index], configs[index + 1]
            changed = before.symmetric_difference(after)
            if self.max_moves_per_step is not None and len(changed) > self.max_moves_per_step:
                raise InvalidStrategyError(
                    f"transition {index} changes {len(changed)} nodes, "
                    f"allowed at most {self.max_moves_per_step}"
                )
            for node in changed:
                for dependency in dag.dependencies(node):
                    if dependency not in before or dependency not in after:
                        raise InvalidStrategyError(
                            f"transition {index} (un)pebbles {node!r} while its "
                            f"dependency {dependency!r} is not pebbled on both sides"
                        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def configurations(self) -> list[frozenset[NodeId]]:
        """The configurations, starting with the empty one."""
        return list(self._configurations)

    @property
    def num_steps(self) -> int:
        """Number of transitions (the paper's K)."""
        return len(self._configurations) - 1

    @property
    def num_moves(self) -> int:
        """Total number of pebble placements and removals.

        For single-move strategies this equals :attr:`num_steps`; it is the
        number of single-target gates of the compiled reversible circuit.
        """
        return sum(
            len(self._configurations[i].symmetric_difference(self._configurations[i + 1]))
            for i in range(self.num_steps)
        )

    @property
    def max_pebbles(self) -> int:
        """Peak number of simultaneously pebbled nodes."""
        return max(len(config) for config in self._configurations)

    def pebble_profile(self) -> list[int]:
        """Number of pebbles in use at each configuration (Fig. 5 top curves)."""
        return [len(config) for config in self._configurations]

    def weight_profile(self) -> list[float]:
        """Total pebbled weight at each configuration (weighted game)."""
        return [
            sum(self.dag.node(node).weight for node in config)
            for config in self._configurations
        ]

    @property
    def max_weight(self) -> float:
        """Peak total weight of simultaneously pebbled nodes.

        With unit node weights this equals :attr:`max_pebbles`; with the
        weighted game's qubit-count weights it is the qubit budget the
        strategy actually needs.
        """
        return max(self.weight_profile())

    def moves(self) -> list[PebbleMove]:
        """Serialise the strategy into a list of single moves.

        Within one transition all changed nodes have their dependencies
        pebbled on both sides, so any serialisation order is legal; removals
        are emitted before additions to keep the intermediate pebble count
        from exceeding the configuration bound.
        """
        result: list[PebbleMove] = []
        for index in range(self.num_steps):
            before, after = self._configurations[index], self._configurations[index + 1]
            for node in sorted(before - after, key=str):
                result.append(PebbleMove(node, pebble=False))
            for node in sorted(after - before, key=str):
                result.append(PebbleMove(node, pebble=True))
        return result

    def as_single_move_strategy(self) -> "PebblingStrategy":
        """Return an equivalent strategy with exactly one move per transition."""
        return PebblingStrategy.from_moves(self.dag, self.moves())

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def compute_counts(self) -> dict[NodeId, int]:
        """How many times each node is pebbled (computed)."""
        counts: dict[NodeId, int] = {node: 0 for node in self.dag.nodes()}
        for move in self.moves():
            if move.pebble:
                counts[move.node] += 1
        return counts

    def operation_counts(self) -> dict[str, int]:
        """Number of executed operations per operation label.

        Both pebbling and unpebbling a node execute the node's operation
        once on the quantum machine (compute and uncompute use the same
        gate), so each move contributes one operation — this is the count
        reported under each grid of Fig. 5.
        """
        counts: dict[str, int] = {}
        for move in self.moves():
            operation = self.dag.node(move.node).operation
            counts[operation] = counts.get(operation, 0) + 1
        return counts

    def remove_redundant_moves(self) -> "PebblingStrategy":
        """Return an equivalent strategy without useless pebble/unpebble pairs.

        SAT models are only required to respect the step bound, so they may
        pebble a node and remove it again without any dependent ever reading
        it.  Such a pair of moves is redundant: dropping it keeps the
        strategy legal and can only lower the pebble profile.  The pass
        repeats until no redundant interval remains.
        """
        configs = [set(config) for config in self._configurations]
        changed = True
        while changed:
            changed = False
            for node in self.dag.nodes():
                intervals = _pebbled_intervals(configs, node)
                dependents = self.dag.dependents(node)
                for start, end in intervals:
                    if end >= len(configs) - 1 and node in configs[-1]:
                        continue  # the final interval of an output node
                    if _interval_is_used(configs, dependents, start, end):
                        continue
                    for index in range(start + 1, end + 1):
                        configs[index].discard(node)
                    changed = True
                if changed:
                    break
        return PebblingStrategy(
            self.dag, configs, max_moves_per_step=self.max_moves_per_step
        )

    def weighted_cost(self) -> float:
        """Total cost of all moves using each node's ``weight``."""
        return sum(self.dag.node(move.node).weight for move in self.moves())

    def summary(self) -> dict[str, object]:
        """A small report dictionary used by the CLI and the benchmarks."""
        return {
            "dag": self.dag.name,
            "nodes": self.dag.num_nodes,
            "steps": self.num_steps,
            "moves": self.num_moves,
            "pebbles": self.max_pebbles,
            "operation_counts": self.operation_counts(),
        }

    def __repr__(self) -> str:
        return (
            f"PebblingStrategy(dag={self.dag.name!r}, steps={self.num_steps}, "
            f"moves={self.num_moves}, pebbles={self.max_pebbles})"
        )


def strategy_payload(strategy: PebblingStrategy) -> dict[str, object]:
    """JSON-serialisable form of a strategy (see :func:`strategy_from_payload`).

    Node identifiers are serialised through ``str``, so round-tripping
    requires them to be uniquely stringifiable — true for every bundled
    workload and anything the compilation pipeline accepts.
    """
    return {
        "configurations": [
            sorted(str(node) for node in configuration)
            for configuration in strategy.configurations
        ],
        "max_moves_per_step": strategy.max_moves_per_step,
    }


def strategy_from_payload(
    payload: dict[str, object], dag: Dag
) -> PebblingStrategy:
    """Rebuild (and revalidate) a strategy from :func:`strategy_payload`.

    ``dag`` must be the graph the strategy was computed on; a payload
    serialised for a differently-labelled DAG raises a targeted error
    instead of a bare ``KeyError``.  A payload of the wrong shape raises
    :class:`~repro.errors.InvalidStrategyError` too: the configurations
    must be lists of node names, and the move cap ``null`` or a count.
    """
    if not isinstance(payload, dict):
        raise InvalidStrategyError(
            f"a stored strategy must be a JSON object, got {payload!r:.80}"
        )
    configurations = payload.get("configurations")
    if not isinstance(configurations, list) or not all(
        isinstance(configuration, list)
        and all(isinstance(name, str) for name in configuration)
        for configuration in configurations
    ):
        raise InvalidStrategyError(
            "a stored strategy's configurations must be lists of node names, "
            f"got {configurations!r:.80}"
        )
    moves = payload.get("max_moves_per_step")
    if moves is not None and (isinstance(moves, bool) or not isinstance(moves, int) or moves < 1):
        raise InvalidStrategyError(
            f"a stored strategy's move cap must be null or a count >= 1, got {moves!r:.20}"
        )
    by_name = {str(node): node for node in dag.nodes()}
    try:
        configurations = [
            {by_name[name] for name in configuration}
            for configuration in configurations
        ]
    except KeyError as exc:
        raise InvalidStrategyError(
            f"stored strategy references unknown node {exc.args[0]!r}; "
            "the result was serialised for a different DAG"
        ) from exc
    return PebblingStrategy(dag, configurations, max_moves_per_step=moves)


def _pebbled_intervals(
    configs: list[set[NodeId]], node: NodeId
) -> list[tuple[int, int]]:
    """Return maximal intervals ``(start, end)`` with ``node`` pebbled in
    configurations ``start + 1 .. end`` (pebbled by transition ``start`` and
    removed by transition ``end``, or still pebbled at the very end)."""
    intervals: list[tuple[int, int]] = []
    start: int | None = None
    for index, config in enumerate(configs):
        pebbled = node in config
        if pebbled and start is None:
            start = index - 1
        elif not pebbled and start is not None:
            intervals.append((start, index - 1))
            start = None
    if start is not None:
        intervals.append((start, len(configs) - 1))
    return intervals


def _interval_is_used(
    configs: list[set[NodeId]],
    dependents: tuple[NodeId, ...],
    start: int,
    end: int,
) -> bool:
    """Does any dependent change while the pebble interval is active?"""
    for transition in range(start + 1, end):
        before, after = configs[transition], configs[transition + 1]
        for dependent in dependents:
            if (dependent in before) != (dependent in after):
                return True
    return False


def _compress(configs: list[frozenset[NodeId]]) -> list[frozenset[NodeId]]:
    """Drop consecutive duplicate configurations (idle SAT steps)."""
    compressed: list[frozenset[NodeId]] = []
    for config in configs:
        if compressed and compressed[-1] == config:
            continue
        compressed.append(config)
    return compressed
