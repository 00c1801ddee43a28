"""SAT encoding of the bounded-step reversible pebbling game (Problem 2).

Given a DAG ``G = (V, E)``, a pebble budget ``P`` and a number of steps
``K``, the encoding introduces one Boolean variable ``p[v, i]`` per node
``v`` and time point ``0 <= i <= K`` (``K + 1`` configurations, ``K``
transitions) and the three clause groups of Section III-B of the paper:

* **initial and final clauses** — at time 0 nothing is pebbled; at time K
  exactly the outputs are pebbled;
* **move clauses** — if ``v`` changes between ``i`` and ``i+1``, then every
  dependency ``w`` of ``v`` is pebbled at both ``i`` and ``i+1``:
  ``(p[v,i] xor p[v,i+1]) -> (p[w,i] and p[w,i+1])``;
* **cardinality clauses** — at every time point at most ``P`` pebbles are in
  use (compiled with a selectable cardinality encoding, see
  :class:`~repro.sat.cards.CardinalityEncoding`).

Optional extras beyond the paper's plain encoding (all off by default or
clearly flagged):

* ``max_moves_per_step`` limits how many nodes may change per transition
  (1 reproduces the single-move grids of Fig. 4);
* ``forbid_idle_steps`` forces at least one change per transition, which
  makes the reported K tight when a solution with fewer steps exists;
* ``weighted`` switches to the paper's *weighted* pebbling game: the
  per-step budget bounds the total **weight** of pebbled nodes
  (``sum of DagNode.weight over pebbled v``) instead of their count, so a
  node whose value occupies several qubits costs several units of budget.
  Weights must be positive integers; with all weights 1 the weighted
  encoding emits exactly the unweighted CNF.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field

from repro.errors import PebblingError
from repro.dag.graph import Dag, NodeId
from repro.sat.cards import CardinalityEncoding, at_most_k, at_most_k_weighted
from repro.sat.cnf import Clause, Cnf, Namer, VariablePool


#: The at-most-P encoding of every entry point that is not told otherwise:
#: :class:`EncodingOptions`, the portfolio, the circuit pipeline, the
#: service and the CLI all refer to this one name.  The totalizer emits
#: fewer clauses per frame than the sequential counter and is the faster
#: of the two on both engines wherever frames are large (measurements in
#: EXPERIMENTS.md); weighted budgets keep the generalised sequential
#: counter of :func:`~repro.sat.cards.at_most_k_weighted`.
DEFAULT_CARDINALITY = CardinalityEncoding.TOTALIZER


@dataclass(frozen=True)
class EncodingOptions:
    """Tuning knobs of the pebbling encoding.

    The SAT engine is no option of the encoding: a solver names it (see
    :class:`~repro.pebbling.solver.ReversiblePebblingSolver`).
    """

    cardinality: CardinalityEncoding = DEFAULT_CARDINALITY
    max_moves_per_step: int | None = None
    forbid_idle_steps: bool = False
    weighted: bool = False

    def __post_init__(self) -> None:
        if self.max_moves_per_step is not None and self.max_moves_per_step < 1:
            raise PebblingError("max_moves_per_step must be >= 1 (or None)")


def validated_node_weights(dag: Dag) -> dict[NodeId, int]:
    """Node weights of ``dag`` as positive integers, for the weighted game.

    :class:`~repro.dag.graph.DagNode` stores weights as floats (they are
    also used for soft statistics); the weighted pebbling encoding needs
    integral qubit counts, so fractional or non-positive weights are
    rejected here with a clear error instead of failing deep inside the
    cardinality encoder.
    """
    weights: dict[NodeId, int] = {}
    for node in dag.nodes():
        weight = dag.node(node).weight
        value = int(weight)
        if value != weight or value < 1:
            raise PebblingError(
                f"node {node!r} has weight {weight!r}; the weighted pebbling "
                "game needs integral node weights >= 1"
            )
        weights[node] = value
    return weights


@dataclass
class PebblingEncoding:
    """The result of encoding one (DAG, pebbles, steps) instance."""

    dag: Dag
    num_steps: int
    max_pebbles: int
    cnf: Cnf
    pebble_variables: dict[tuple[NodeId, int], int] = field(default_factory=dict)

    def variable(self, node: NodeId, step: int) -> int:
        """Return the CNF variable of ``p[node, step]``."""
        try:
            return self.pebble_variables[(node, step)]
        except KeyError as exc:
            raise PebblingError(f"no pebble variable for ({node!r}, {step})") from exc

    def configurations_from_model(self, model: dict[int, bool]) -> list[set[NodeId]]:
        """Decode a SAT model into the sequence of pebbling configurations."""
        configurations: list[set[NodeId]] = []
        for step in range(self.num_steps + 1):
            configurations.append(
                {
                    node
                    for node in self.dag.nodes()
                    if model.get(self.pebble_variables[(node, step)], False)
                }
            )
        return configurations


#: Byte order of every conversion between a frame's int32 lanes and an int:
#: the order ``array('i')`` stores them in on this host.
_BYTEORDER = sys.byteorder

#: Length of the step-bearing head of the template's register names.
_CARD_P_HEAD = len("card[p,1]")
_CARD_M_HEAD = len("card[m,0]")


def _node_namer(kind: str, nodes: list[NodeId], step: int) -> Namer:
    """Name a block with one variable per node: ``kind[node,step]``."""
    return lambda offset: f"{kind}[{nodes[offset]},{step}]"


def _lane_mask(positive: list[bool], negative: list[bool]) -> int:
    """The int whose 32-bit lane ``i`` adds +1, -1 or 0 to a stamped lane.

    One ``int.from_bytes`` per sign keeps it linear in the lane count.
    """
    plus = int.from_bytes(array("i", positive).tobytes(), _BYTEORDER)
    return plus - int.from_bytes(array("i", negative).tobytes(), _BYTEORDER)


class _FrameTemplate:
    """Frame 1 of an encoder, from which every frame ``k >= 1`` is stamped.

    Frame ``k`` is one block of variables -- configuration ``k``'s pebbles
    and at-most-P registers, then transition ``k - 1``'s move variables
    and moves registers -- and a fixed run of clauses over that block and
    configuration ``k - 1``'s pebbles.  Frame ``k`` is therefore the
    template with every literal over configuration ``k - 1`` moved by
    ``delta_previous`` and every literal over its own block moved by
    ``delta_current``.  Two offsets, because guard variables
    (:meth:`PebblingEncoder.final_guard`) may sit between frames.

    The run is kept as three ints of 32-bit lanes: ``_values`` holds the
    template's literals read unsigned, and ``_previous`` / ``_current``
    add +1 to a lane of a positive literal over their block and -1 to one
    of a negative literal.  A stamped frame is
    ``_values + delta_previous * _previous + delta_current * _current``
    written out with one ``to_bytes``.  No lane carries into the next as
    long as every moved variable stays within
    :data:`~repro.sat.cnf.MAX_VARIABLE`, which the pool guarantees by
    refusing any block past it before a frame is stamped.
    """

    def __init__(
        self,
        scratch: Cnf,
        first: int,
        previous: int,
        nodes: list[NodeId],
        split: int,
        moves: int,
    ) -> None:
        """Read the template off ``scratch``, frame 1 emitted from ``first``.

        ``previous`` is configuration 0's first pebble; the frame's block
        holds ``split`` variables of configuration 1, then ``moves`` move
        variables, then the moves registers.
        """
        lanes = scratch.literals
        self.first = first
        self.size = scratch.num_variables + 1 - first
        self.clauses = scratch.num_clauses
        self._length = len(lanes) * lanes.itemsize
        previous_end, current_end = previous + len(nodes), first + self.size
        masks = (
            [previous <= literal < previous_end for literal in lanes],
            [previous <= -literal < previous_end for literal in lanes],
            [first <= literal < current_end for literal in lanes],
            [first <= -literal < current_end for literal in lanes],
        )
        if sum(map(sum, masks)) != len(lanes) - self.clauses:
            stray = next(
                literal for literal, *hits in zip(lanes, *masks)
                if literal and not any(hits)
            )
            raise PebblingError(
                f"frame template literal {stray} names a variable outside "
                "configuration 0's pebbles and frame 1's block"
            )
        self._values = int.from_bytes(lanes.tobytes(), _BYTEORDER)
        self._previous = _lane_mask(masks[0], masks[1])
        self._current = _lane_mask(masks[2], masks[3])
        self._nodes = nodes
        self._split = split
        self._moves = moves
        self._template_name = lambda offset: scratch.pool.name_of(first + offset)

    def stamp(self, delta_previous: int, delta_current: int) -> bytes:
        """The lanes of the frame whose offsets are the two deltas."""
        return (
            self._values
            + delta_previous * self._previous
            + delta_current * self._current
        ).to_bytes(self._length, _BYTEORDER)

    def namer(self, step: int) -> Namer:
        """Names of frame ``step``'s block, built on demand.

        Register names are the template's with their ``card[...]`` head
        re-stepped, so they follow whatever the counters name them.
        """
        nodes, split, moves = self._nodes, self._split, self._moves
        width = len(nodes)
        pebbles = _node_namer("p", nodes, step)
        switches = _node_namer("m", nodes, step - 1)
        template_name = self._template_name
        counter_head, moves_head = f"card[p,{step}]", f"card[m,{step - 1}]"

        def name(offset: int) -> str:
            if offset < width:
                return pebbles(offset)
            if offset < split:
                return counter_head + template_name(offset)[_CARD_P_HEAD:]
            if offset < split + moves:
                return switches(offset - split)
            return moves_head + template_name(offset)[_CARD_M_HEAD:]

        return name


class PebblingEncoder:
    """Stateful frame-based encoder of the bounded pebbling game.

    An encoder constructed with a pebble budget is a *frame engine*: it owns
    one growing :class:`~repro.sat.cnf.Cnf`, whose clauses live in a single
    int32 literal stream, and emits clauses in per-step frames.  Frame
    ``i`` consists of the configuration variables ``p[v, i]`` with the
    cardinality block of configuration ``i``, then the transition (move)
    clauses between ``i - 1`` and ``i`` and the optional move variables
    ``m[v, i-1]`` with their constraints.  The clause emitters run only
    twice per encoder: for configuration 0, and for frame 1 into a scratch
    formula that becomes the frame *template*.  Every frame from 1 on is
    then stamped from it (:class:`_FrameTemplate`): the pool allocates the
    frame's variables as one block, and one big-integer sum shifted by
    two offsets yields the frame's literals, appended to the stream as raw
    int32 lanes with no Python work per clause, literal or register.  The
    public surface:

    * :meth:`extend_to` — emit only the frames between the current frontier
      and a new step bound (monotonic, idempotent);
    * :meth:`final_guard` — an activation literal implying the
      final-configuration clauses of a step, for assumption-based
      incremental solving;
    * :meth:`assert_final` — the same constraint as unconditional units,
      for one-shot (monolithic) instances;
    * :meth:`drain_new_literals` — the stream slice emitted since the last
      drain and its clause count, which incremental callers hand to a live
      SAT solver (the C core takes the slice as it is);
      :meth:`drain_new_clauses` is the same drain as
      :class:`~repro.sat.cnf.Clause` objects.

    Constructed *without* a budget the encoder is a reusable factory whose
    only operation is the one-shot :meth:`encode`, which runs
    ``extend_to(K)`` + ``assert_final(K)`` on a fresh frame engine — the
    monolithic and incremental paths therefore share every clause-emission
    rule by construction.

    Every variable is named (``p[v,i]``, ``m[v,i]``, ``final[i]`` and the
    ``card[...]``-prefixed cardinality auxiliaries), so two encodings of the
    same instance can be compared structurally up to variable renaming.
    The names are built on demand, when the pool is asked for them
    (:meth:`~repro.sat.cnf.VariablePool.new_block`).
    """

    def __init__(
        self,
        dag: Dag,
        *,
        max_pebbles: int | None = None,
        options: EncodingOptions | None = None,
    ):
        dag.validate()
        self.dag = dag
        self.options = options or EncodingOptions()
        self._nodes = dag.topological_order()
        self._index = {node: index for index, node in enumerate(self._nodes)}
        self._outputs = set(dag.outputs())
        self._moves = (
            self.options.max_moves_per_step is not None
            or self.options.forbid_idle_steps
        )
        self._weights: dict[NodeId, int] = {}
        if self.options.weighted:
            self._weights = validated_node_weights(dag)
        self.max_pebbles: int | None = None
        self._cnf: Cnf | None = None
        #: First pebble variable of each configuration 0 .. num_steps; the
        #: pebble of node ``v`` follows at the node's topological index.
        self._configurations: list[int] = []
        self._template: _FrameTemplate | None = None
        self._guards: dict[int, int] = {}
        self._num_steps = 0
        self._drained = 0  # clauses drained so far
        self._drained_at = 0  # their length in the literal stream
        if max_pebbles is not None:
            self._start(max_pebbles)

    # -- frame engine ------------------------------------------------------
    def _start(self, max_pebbles: int) -> None:
        if max_pebbles < 1:
            raise PebblingError("max_pebbles must be >= 1")
        self.max_pebbles = max_pebbles
        cnf = self._cnf = Cnf()
        budget_kind = "weight" if self.options.weighted else "pebbles"
        cnf.add_comment(
            f"reversible pebbling: dag={self.dag.name} nodes={len(self._nodes)} "
            f"{budget_kind}={max_pebbles}"
        )
        first = self._emit_configuration(cnf, 0)
        pebbles = range(first, first + len(self._nodes))
        self._configurations.append(first)
        # Initial clauses: at time 0 nothing is pebbled.
        flat: list[int] = []
        for variable in pebbles:
            flat += (-variable, 0)
        cnf.add_generated(flat)

    def _require_frames(self) -> Cnf:
        if self._cnf is None:
            raise PebblingError(
                "this encoder was built without a pebble budget; "
                "pass max_pebbles= to the constructor for frame-based use "
                "or call encode() for a one-shot instance"
            )
        return self._cnf

    @property
    def num_steps(self) -> int:
        """Number of transition frames emitted so far."""
        return self._num_steps

    @property
    def cnf(self) -> Cnf:
        """The growing CNF of the frame engine."""
        return self._require_frames()

    def _emit_configuration(self, cnf: Cnf, step: int) -> int:
        """Allocate configuration ``step``'s pebbles and bound them.

        Returns the first pebble variable.
        """
        assert self.max_pebbles is not None
        nodes = self._nodes
        first = cnf.new_block(len(nodes), _node_namer("p", nodes, step))
        variables = list(range(first, first + len(nodes)))
        if self.options.weighted:
            weights = [self._weights[node] for node in nodes]
            if self.max_pebbles < sum(weights):
                at_most_k_weighted(
                    cnf,
                    variables,
                    weights,
                    self.max_pebbles,
                    encoding=self.options.cardinality,
                    name_prefix=f"card[p,{step}]",
                )
        elif self.max_pebbles < len(nodes):
            at_most_k(
                cnf,
                variables,
                self.max_pebbles,
                encoding=self.options.cardinality,
                name_prefix=f"card[p,{step}]",
            )
        return first

    def _emit_transition(self, cnf: Cnf, step: int, before: int, after: int) -> None:
        """Emit the move clauses of the transition ``step -> step + 1``.

        ``before`` and ``after`` are the first pebble variables of the two
        configurations.
        """
        dag = self.dag
        options = self.options
        nodes = self._nodes
        index = self._index
        move_first = 0
        if self._moves:
            move_first = cnf.new_block(len(nodes), _node_namer("m", nodes, step))
        move_literals: list[int] = []
        flat: list[int] = []
        for position, node in enumerate(nodes):
            now = before + position
            then = after + position
            for dependency in dag.dependencies(node):
                dep_now = before + index[dependency]
                dep_then = after + index[dependency]
                # (now xor then) -> dep_now  and  (now xor then) -> dep_then
                flat += (
                    -now, then, dep_now, 0,
                    now, -then, dep_now, 0,
                    -now, then, dep_then, 0,
                    now, -then, dep_then, 0,
                )
            if self._moves:
                move = move_first + position
                # move <-> (now xor then)
                flat += (
                    -move, now, then, 0,
                    -move, -now, -then, 0,
                    move, -now, then, 0,
                    move, now, -then, 0,
                )
                move_literals.append(move)
        cnf.add_generated(flat)
        if options.max_moves_per_step is not None:
            at_most_k(
                cnf,
                move_literals,
                options.max_moves_per_step,
                encoding=options.cardinality,
                name_prefix=f"card[m,{step}]",
            )
        if options.forbid_idle_steps:
            cnf.add_generated(move_literals + [0])

    def _build_template(self) -> _FrameTemplate:
        """Emit frame 1 into a scratch formula numbered where it will land."""
        scratch = Cnf(VariablePool(self._require_frames().num_variables + 1))
        first = self._emit_configuration(scratch, 1)
        split = scratch.num_variables + 1 - first
        previous = self._configurations[0]
        self._emit_transition(scratch, 0, previous, first)
        moves = len(self._nodes) if self._moves else 0
        return _FrameTemplate(scratch, first, previous, self._nodes, split, moves)

    def _stamp_frame(self) -> None:
        """Append the next frame, stamped from the template."""
        cnf = self._require_frames()
        template = self._template
        if template is None:
            template = self._template = self._build_template()
        configurations = self._configurations
        # Allocating first refuses a block past MAX_VARIABLE before any
        # lane is written.
        first = cnf.new_block(template.size, template.namer(len(configurations)))
        cnf.add_lanes(
            template.stamp(
                configurations[-1] - configurations[0], first - template.first
            ),
            template.clauses,
        )
        configurations.append(first)

    def extend_to(self, num_steps: int) -> None:
        """Grow the encoding to ``num_steps`` transitions.

        Stamps only the frames between the current frontier and
        ``num_steps``; a bound at or below the frontier is a no-op.
        """
        self._require_frames()
        if num_steps < 0:
            raise PebblingError("num_steps must be >= 0")
        while self._num_steps < num_steps:
            self._stamp_frame()
            self._num_steps += 1

    def _configuration(self, step: int, verb: str) -> int:
        """First pebble variable of an encoded configuration."""
        if not 0 <= step <= self._num_steps:
            raise PebblingError(
                f"cannot {verb} step {step}: only {self._num_steps} frames encoded"
            )
        return self._configurations[step]

    def final_guard(self, step: int) -> int:
        """Return an activation literal for the final clauses of ``step``.

        The guard variable ``final[step]`` implies that at time ``step``
        exactly the outputs are pebbled; assuming it selects that bound in
        an incremental solver without committing to it.  Guards are cached
        per step.
        """
        cnf = self._require_frames()
        first = self._configuration(step, "guard")
        guard = self._guards.get(step)
        if guard is None:
            guard = cnf.new_block(1, lambda offset: f"final[{step}]")
            flat: list[int] = []
            for literal, node in enumerate(self._nodes, first):
                flat += (-guard, literal if node in self._outputs else -literal, 0)
            cnf.add_generated(flat)
            self._guards[step] = guard
        return guard

    def assert_final(self, step: int) -> None:
        """Permanently constrain time ``step`` to the final configuration."""
        cnf = self._require_frames()
        first = self._configuration(step, "finalise")
        flat: list[int] = []
        for literal, node in enumerate(self._nodes, first):
            flat += (literal if node in self._outputs else -literal, 0)
        cnf.add_generated(flat)

    def drain_new_literals(self) -> tuple[array, int]:
        """Return the literal stream emitted since the last drain.

        The slice of :attr:`Cnf.literals <repro.sat.cnf.Cnf.literals>`
        (a copy: the stream keeps growing) and the number of
        zero-terminated clauses in it.
        """
        cnf = self._require_frames()
        fresh = cnf.literals[self._drained_at:]
        count = cnf.num_clauses - self._drained
        self._drained_at = len(cnf.literals)
        self._drained = cnf.num_clauses
        return fresh, count

    def drain_new_clauses(self) -> list[Clause]:
        """The same drain as :meth:`drain_new_literals`, as clause objects."""
        start = self._drained
        self.drain_new_literals()
        return self.cnf.clauses[start:]

    def variable(self, node: NodeId, step: int) -> int:
        """Return the CNF variable of ``p[node, step]``."""
        if node in self._index and 0 <= step < len(self._configurations):
            return self._configurations[step] + self._index[node]
        raise PebblingError(f"no pebble variable for ({node!r}, {step})")

    def configurations_from_model(
        self, model: dict[int, bool], *, num_steps: int | None = None
    ) -> list[set[NodeId]]:
        """Decode a model into configurations ``0 .. num_steps``."""
        bound = self._num_steps if num_steps is None else num_steps
        if bound >= len(self._configurations):
            raise PebblingError(
                f"cannot decode step {bound}: only {self._num_steps} frames encoded"
            )
        get = model.get
        return [
            {node for node, variable in zip(self._nodes, range(first, first + len(self._nodes)))
             if get(variable, False)}
            for first in self._configurations[: bound + 1]
        ]

    def to_encoding(self, *, num_steps: int | None = None) -> PebblingEncoding:
        """Package the current frames as a :class:`PebblingEncoding`."""
        self._require_frames()
        assert self.max_pebbles is not None
        return PebblingEncoding(
            dag=self.dag,
            num_steps=self._num_steps if num_steps is None else num_steps,
            max_pebbles=self.max_pebbles,
            cnf=self._cnf,
            pebble_variables={
                (node, step): first + position
                for step, first in enumerate(self._configurations)
                for position, node in enumerate(self._nodes)
            },
        )

    # -- one-shot (monolithic) path ---------------------------------------
    def encode(
        self, *, num_steps: int, max_pebbles: int | None = None
    ) -> PebblingEncoding:
        """Encode Problem 2 for ``max_pebbles`` pebbles and ``num_steps`` steps.

        Runs ``extend_to(num_steps)`` + ``assert_final(num_steps)`` on a
        fresh frame engine, so the one-shot CNF is frame-for-frame the
        incremental CNF with the guarded final constraint replaced by
        units.
        """
        budget = max_pebbles if max_pebbles is not None else self.max_pebbles
        if budget is None:
            raise PebblingError("encode() needs max_pebbles")
        if num_steps < 1:
            raise PebblingError("num_steps must be >= 1")
        worker = PebblingEncoder(self.dag, max_pebbles=budget, options=self.options)
        worker.extend_to(num_steps)
        worker.assert_final(num_steps)
        worker.cnf.comments[0] += f" steps={num_steps}"
        return worker.to_encoding()
