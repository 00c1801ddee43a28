"""Bennett-style baseline pebbling strategies.

Two baselines are provided:

* :func:`bennett_strategy` -- Bennett's original strategy [Bennett 1989]
  as described in Section II-A of the paper: compute every node in
  topological order, then uncompute every non-output node in reverse
  topological order.  It uses the minimum possible number of moves
  (``2·|V| - |O|``) and the maximum number of pebbles (``|V|``).

* :func:`eager_bennett_strategy` -- the space-optimised variant obtained by
  reordering (Fig. 3(b)): still computes every node exactly once (same
  number of moves) but releases a non-output node as soon as none of its
  dependents will ever need it again, which lowers the peak pebble count
  without increasing the move count.  This is the realistic baseline a
  designer would use without a pebbling solver, and the one the Table I
  comparison harness reports as "Bennett".
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PebblingError
from repro.dag.graph import Dag, NodeId
from repro.pebbling.strategy import PebbleMove, PebblingStrategy


def bennett_strategy(dag: Dag, *, order: Sequence[NodeId] | None = None) -> PebblingStrategy:
    """Bennett's compute-all-then-uncompute strategy.

    ``order`` overrides the compute order (it must be a topological order of
    the DAG); uncomputation uses the reverse of the same order.
    """
    topo = _resolve_order(dag, order)
    outputs = set(dag.outputs())
    moves = [PebbleMove(node, pebble=True) for node in topo]
    moves.extend(
        PebbleMove(node, pebble=False) for node in reversed(topo) if node not in outputs
    )
    return PebblingStrategy.from_moves(dag, moves)


def eager_bennett_strategy(
    dag: Dag, *, order: Sequence[NodeId] | None = None
) -> PebblingStrategy:
    """Bennett's strategy with eager release of pebbles (reordering only).

    Every node is still computed exactly once, so the move count is the
    Bennett minimum ``2·|V| - |O|``; but after each computation any node
    that has become *finalised-irrelevant* is uncomputed immediately.

    A non-output node ``v`` may be released once every dependent of ``v``
    is *finalised*: an output dependent is finalised when it has been
    computed, a non-output dependent is finalised when it has been
    uncomputed again.  Releasing earlier would make a later (un)computation
    of a dependent illegal.
    """
    topo = _resolve_order(dag, order)
    outputs = set(dag.outputs())
    moves: list[PebbleMove] = []
    # Insertion-ordered, so release candidates are visited in the compute
    # (topological) order, whatever the string hash seed.
    computed: dict[NodeId, None] = {}
    released: set[NodeId] = set()

    def finalised(node: NodeId) -> bool:
        if node in outputs:
            return node in computed
        return node in released

    def release_available() -> None:
        progress = True
        while progress:
            progress = False
            for candidate in list(computed):
                if candidate in outputs or candidate in released:
                    continue
                if all(finalised(dependent) for dependent in dag.dependents(candidate)):
                    moves.append(PebbleMove(candidate, pebble=False))
                    released.add(candidate)
                    del computed[candidate]
                    progress = True

    for node in topo:
        moves.append(PebbleMove(node, pebble=True))
        computed[node] = None
        release_available()

    # Any remaining non-output node is released in reverse order, exactly as
    # in the plain Bennett strategy (their dependencies are still pebbled).
    for node in reversed(topo):
        if node in outputs or node in released:
            continue
        moves.append(PebbleMove(node, pebble=False))
        released.add(node)
        del computed[node]

    return PebblingStrategy.from_moves(dag, moves)


def _resolve_order(dag: Dag, order: Sequence[NodeId] | None) -> list[NodeId]:
    if order is None:
        return dag.topological_order()
    order = list(order)
    if sorted(map(str, order)) != sorted(map(str, dag.nodes())):
        raise PebblingError("order must be a permutation of the DAG nodes")
    seen: set[NodeId] = set()
    for node in order:
        for dependency in dag.dependencies(node):
            if dependency not in seen:
                raise PebblingError(
                    f"order is not topological: {node!r} appears before its "
                    f"dependency {dependency!r}"
                )
        seen.add(node)
    return order
