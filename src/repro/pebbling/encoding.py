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

from array import array
from dataclasses import dataclass, field

from repro.errors import PebblingError
from repro.dag.graph import Dag, NodeId
from repro.sat.cards import CardinalityEncoding, at_most_k, at_most_k_weighted
from repro.sat.cnf import Clause, Cnf


@dataclass(frozen=True)
class EncodingOptions:
    """Tuning knobs of the pebbling encoding.

    ``backend`` is a default incremental-SAT backend spec for searches run
    with these options (see :mod:`repro.sat.backend`); it never changes
    the emitted CNF or the game semantics, so the result store's content
    addresses deliberately ignore it.  An explicit ``backend=`` on the
    solver wins over it; ``None`` means the default (``cdcl``).
    """

    cardinality: CardinalityEncoding = CardinalityEncoding.SEQUENTIAL
    max_moves_per_step: int | None = None
    forbid_idle_steps: bool = False
    weighted: bool = False
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.max_moves_per_step is not None and self.max_moves_per_step < 1:
            raise PebblingError("max_moves_per_step must be >= 1 (or None)")
        if self.backend is not None and not isinstance(self.backend, str):
            raise PebblingError(
                "EncodingOptions.backend must be a registry backend spec "
                f"string or None, got {self.backend!r}"
            )


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


class PebblingEncoder:
    """Stateful frame-based encoder of the bounded pebbling game.

    An encoder constructed with a pebble budget is a *frame engine*: it owns
    one growing :class:`~repro.sat.cnf.Cnf`, whose clauses live in a single
    int32 literal stream, and emits clauses in per-step frames.  Frame
    ``i`` consists of the configuration variables ``p[v, i]``, the
    transition (move) clauses between ``i - 1`` and ``i``, the optional
    move variables ``m[v, i-1]`` with their constraints, and the
    cardinality block of configuration ``i``.  Every clause is over
    variables the encoder allocated itself, so it goes into the stream
    through :meth:`~repro.sat.cnf.Cnf.add_generated`, a whole frame or
    counter at a time, with no per-clause :class:`~repro.sat.cnf.Clause`.
    The public surface:

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
        self._outputs = set(dag.outputs())
        self._weights: dict[NodeId, int] = {}
        if self.options.weighted:
            self._weights = validated_node_weights(dag)
        self.max_pebbles: int | None = None
        self._cnf: Cnf | None = None
        self._variables: dict[tuple[NodeId, int], int] = {}
        self._guards: dict[int, int] = {}
        self._num_steps = 0
        self._drained = 0  # clauses drained so far
        self._drained_at = 0  # their length in the literal stream
        self._new_named: list[int] = []
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
        self._add_configuration(0)
        # Initial clauses: at time 0 nothing is pebbled.
        flat: list[int] = []
        for node in self._nodes:
            flat += (-self._variables[(node, 0)], 0)
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

    def _add_configuration(self, step: int) -> None:
        cnf = self._cnf
        assert cnf is not None and self.max_pebbles is not None
        for node in self._nodes:
            variable = cnf.new_variable(f"p[{node},{step}]")
            self._variables[(node, step)] = variable
            self._new_named.append(variable)
        variables = [self._variables[(node, step)] for node in self._nodes]
        if self.options.weighted:
            weights = [self._weights[node] for node in self._nodes]
            if self.max_pebbles < sum(weights):
                at_most_k_weighted(
                    cnf,
                    variables,
                    weights,
                    self.max_pebbles,
                    encoding=self.options.cardinality,
                    name_prefix=f"card[p,{step}]",
                )
        elif self.max_pebbles < len(self._nodes):
            at_most_k(
                cnf,
                variables,
                self.max_pebbles,
                encoding=self.options.cardinality,
                name_prefix=f"card[p,{step}]",
            )

    def _add_transition(self, step: int) -> None:
        """Emit the move clauses of the transition ``step -> step + 1``."""
        cnf = self._cnf
        assert cnf is not None
        variables = self._variables
        dag = self.dag
        options = self.options
        moves = options.max_moves_per_step is not None or options.forbid_idle_steps
        move_literals: list[int] = []
        flat: list[int] = []
        for node in self._nodes:
            now = variables[(node, step)]
            then = variables[(node, step + 1)]
            for dependency in dag.dependencies(node):
                dep_now = variables[(dependency, step)]
                dep_then = variables[(dependency, step + 1)]
                # (now xor then) -> dep_now  and  (now xor then) -> dep_then
                flat += (
                    -now, then, dep_now, 0,
                    now, -then, dep_now, 0,
                    -now, then, dep_then, 0,
                    now, -then, dep_then, 0,
                )
            if moves:
                move = cnf.new_variable(f"m[{node},{step}]")
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

    def extend_to(self, num_steps: int) -> None:
        """Grow the encoding to ``num_steps`` transitions.

        Emits only the configuration, transition and cardinality frames
        between the current frontier and ``num_steps``; a bound at or below
        the frontier is a no-op.
        """
        self._require_frames()
        if num_steps < 0:
            raise PebblingError("num_steps must be >= 0")
        while self._num_steps < num_steps:
            self._add_configuration(self._num_steps + 1)
            self._add_transition(self._num_steps)
            self._num_steps += 1

    def final_guard(self, step: int) -> int:
        """Return an activation literal for the final clauses of ``step``.

        The guard variable ``final[step]`` implies that at time ``step``
        exactly the outputs are pebbled; assuming it selects that bound in
        an incremental solver without committing to it.  Guards are cached
        per step.
        """
        cnf = self._require_frames()
        if step > self._num_steps:
            raise PebblingError(
                f"cannot guard step {step}: only {self._num_steps} frames encoded"
            )
        guard = self._guards.get(step)
        if guard is None:
            guard = cnf.new_variable(f"final[{step}]")
            self._new_named.append(guard)
            flat: list[int] = []
            for node in self._nodes:
                literal = self._variables[(node, step)]
                flat += (-guard, literal if node in self._outputs else -literal, 0)
            cnf.add_generated(flat)
            self._guards[step] = guard
        return guard

    def assert_final(self, step: int) -> None:
        """Permanently constrain time ``step`` to the final configuration."""
        cnf = self._require_frames()
        if step > self._num_steps:
            raise PebblingError(
                f"cannot finalise step {step}: only {self._num_steps} frames encoded"
            )
        flat: list[int] = []
        for node in self._nodes:
            literal = self._variables[(node, step)]
            flat += (literal if node in self._outputs else -literal, 0)
        cnf.add_generated(flat)

    def drain_new_named_variables(self) -> list[int]:
        """Return the pebble/guard variables created since the last drain.

        These are exactly the variables that future frames and assumption
        ladders will mention again; incremental backends with root-level
        variable elimination freeze them so simplification never touches a
        variable the next bound still needs.  Auxiliary variables (move
        flags, cardinality ladders) are deliberately *not* reported — they
        are internal to their frame and safe to eliminate.
        """
        fresh = self._new_named
        self._new_named = []
        return fresh

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
        try:
            return self._variables[(node, step)]
        except KeyError as exc:
            raise PebblingError(f"no pebble variable for ({node!r}, {step})") from exc

    def configurations_from_model(
        self, model: dict[int, bool], *, num_steps: int | None = None
    ) -> list[set[NodeId]]:
        """Decode a model into configurations ``0 .. num_steps``."""
        bound = self._num_steps if num_steps is None else num_steps
        return [
            {
                node
                for node in self._nodes
                if model.get(self._variables[(node, step)], False)
            }
            for step in range(bound + 1)
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
            pebble_variables=dict(self._variables),
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
