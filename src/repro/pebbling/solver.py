"""SAT-driven reversible pebbling (Problem 1 of the paper and its Table I loop).

:class:`ReversiblePebblingSolver` wraps the encoding of
:mod:`repro.pebbling.encoding` with the search used in the paper's
evaluation:

* :meth:`ReversiblePebblingSolver.solve` — Problem 1: given a pebble budget
  ``P``, find a strategy with the minimum number of steps by asking the SAT
  oracle for ``K, K+1, K+2, ...`` steps until a solution appears (or a time
  budget runs out);
* :meth:`ReversiblePebblingSolver.minimize_pebbles` — the outer loop used
  for Table I: find the smallest ``P`` for which a strategy can be found
  within a per-budget timeout.

Problem 1 is one loop over a small *oracle* that answers "is there a
strategy with this many steps?".  The *live* oracle (the default,
``incremental=True``) keeps one incremental SAT backend (any
:class:`~repro.sat.backend.IncrementalSatBackend`, the C core by default
when it loads) alive across step bounds: the clause frames come from one
stateful :class:`~repro.pebbling.encoding.PebblingEncoder` (``extend_to``
emits only the new frames), the final-configuration constraint of each
bound is guarded by an activation literal from ``final_guard`` and
selected with assumptions, so learned clauses are reused when moving
between bounds.  Core-aware search strategies assume a *ladder* of bound
guards per query and use the backend's failed-assumption core to skip
provably-UNSAT bounds (see :mod:`repro.pebbling.search`).  The *fresh*
oracle (``incremental=False``) re-encodes from scratch for every ``K``
(the paper's plain approach) and is kept for the ablation benchmark.
How the step bound evolves between SAT calls is a pluggable
:class:`~repro.pebbling.search.SearchStrategy`; which engine answers is a
picklable backend spec from the registry (see :mod:`repro.sat.backend`).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import PebblingError
from repro.dag.graph import Dag
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.metrics import merge_counters
from repro.pebbling.bennett import eager_bennett_strategy
from repro.pebbling.encoding import (
    EncodingOptions,
    PebblingEncoder,
    validated_node_weights,
)
from repro.pebbling.search import (
    GeometricRefine,
    SearchCursor,
    SearchStrategy,
    resolve_search_strategy,
)
from repro.pebbling.strategy import (
    PebblingStrategy,
    strategy_from_payload,
    strategy_payload,
)
from repro.sat.backend import (
    DEFAULT_BACKEND,
    IncrementalSatBackend,
    create_backend,
    require_backend,
    resolve_backend,
)
from repro.sat.cnf import split_clauses
from repro.sat.solver import SolveResult, Status


class PebblingOutcome(Enum):
    """Outcome of a pebbling search."""

    SOLUTION = "solution"
    INFEASIBLE = "infeasible"
    STEP_LIMIT = "step-limit"
    TIMEOUT = "timeout"


_REQUIRED = object()
_INTEGER = (int,)
_NUMBER = (int, float)


def _read(
    data: object,
    name: str,
    kinds: tuple[type, ...],
    owner: str,
    default: object = _REQUIRED,
):
    """``data[name]`` when it is one of ``kinds``, else a :class:`PebblingError`.

    ``bool`` passes only where ``kinds`` names it (JSON's ``true`` is no
    count), and a missing key is an error unless it has a ``default``.
    What :meth:`PebblingResult.from_json` decodes goes through here, so a
    malformed payload fails with the field at fault named.
    """
    if not isinstance(data, dict):
        raise PebblingError(f"{owner} must be a JSON object, got {data!r:.60}")
    if name not in data:
        if default is _REQUIRED:
            raise PebblingError(f"{owner} has no {name!r} field")
        return default
    value = data[name]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(
            "null" if kind is type(None) else kind.__name__ for kind in kinds
        )
        raise PebblingError(f"{owner}'s {name!r} must be {names}, got {value!r:.60}")
    return value


def _member(enum: type[Enum], value: str, owner: str):
    try:
        return enum(value)
    except ValueError:
        raise PebblingError(f"{owner} names no {enum.__name__} {value!r:.60}") from None


@dataclass
class AttemptRecord:
    """One SAT call of a search: the only record the call leaves behind.

    ``num_steps`` is the bound the call decided and ``ladder`` how many
    bound guards it assumed.  ``core_size`` is the size of an UNSAT
    answer's failed-assumption core, ``None`` without one.  ``at`` is when
    the call started, in seconds since its search did, and ``runtime`` is
    its wall time, core extraction included.  The search's ``sat.call``
    spans and SAT-call metrics are written from these records when it
    ends.  A payload stored before ``ladder``, ``core_size`` and ``at``
    decodes each of them as ``None``.
    """

    num_steps: int
    status: Status
    conflicts: int
    runtime: float
    ladder: int | None = None
    core_size: int | None = None
    at: float | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the result store)."""
        return {
            "num_steps": self.num_steps,
            "ladder": self.ladder,
            "status": self.status.value,
            "core_size": self.core_size,
            "conflicts": self.conflicts,
            "at": self.at,
            "runtime": self.runtime,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "AttemptRecord":
        """Rebuild a record from :meth:`as_dict` output.

        Raises :class:`~repro.errors.PebblingError` for a missing or
        mistyped field.
        """
        owner = "a stored SAT call"
        optional = (int, type(None))
        return cls(
            num_steps=_read(data, "num_steps", _INTEGER, owner),
            status=_member(Status, _read(data, "status", (str,), owner), owner),
            conflicts=_read(data, "conflicts", _INTEGER, owner),
            runtime=float(_read(data, "runtime", _NUMBER, owner)),
            ladder=_read(data, "ladder", optional, owner, None),
            core_size=_read(data, "core_size", optional, owner, None),
            at=_read(data, "at", _NUMBER + (type(None),), owner, None),
        )


@dataclass
class PebblingResult:
    """Result of a pebbling search.

    ``strategy`` is ``None`` unless ``outcome`` is
    :attr:`PebblingOutcome.SOLUTION`.  ``complete`` records whether the
    search strategy ran to its natural end (linear/geometric stopped at
    their first SAT answer, geometric-refine closed its bracket or proved
    the step budget infeasible); it is ``False`` when a time limit cut the
    search short — in particular a geometric-refine ``SOLUTION`` with
    ``complete=False`` carries a witness whose step count was *not*
    certified minimal.  ``minimal`` is set by the solver when the search
    schedule *does* certify the step count as the minimum for this budget
    (complete linear scans with unit increment from a sound floor, and
    complete geometric-refine searches); the result store only transfers
    step lower bounds between budgets from certified results.
    """

    dag_name: str
    max_pebbles: int
    outcome: PebblingOutcome
    strategy: PebblingStrategy | None = None
    runtime: float = 0.0
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: The engines' counters over the whole search, read once from each
    #: backend it built (see :meth:`IncrementalSatBackend.counters
    #: <repro.sat.backend.IncrementalSatBackend.counters>`).
    counters: dict[str, float] = field(default_factory=dict)
    complete: bool = False
    weighted: bool = False
    minimal: bool = False
    #: Backend spec that produced this result (metadata only: the result
    #: store's content addresses are deliberately backend-invariant, so a
    #: cache hit may report a different producer than the requester).
    backend: str = DEFAULT_BACKEND
    #: Anytime progress snapshot, present only when the search was cut
    #: short (``complete=False``): the cursor's checkpoint (next bound,
    #: largest refuted bound, smallest known-SAT bound) plus the best step
    #: count witnessed and the SAT calls spent.  A preempted request hands
    #: this back instead of nothing.
    partial: dict[str, object] | None = None
    #: ``True`` on a ``step-limit`` answer whose sweep refuted every bound
    #: through the completeness threshold (see :func:`completeness_threshold`):
    #: no strategy exists within this budget for any number of steps.
    proved_infeasible: bool = False
    #: ``True`` when this object was answered from the result store rather
    #: than computed.  Never serialised — a cache hit is byte-identical to
    #: the stored payload by contract, so the flag lives outside
    #: :meth:`to_json` and exists purely so callers can report the hit.
    from_cache: bool = field(default=False, compare=False, repr=False)

    @property
    def found(self) -> bool:
        """``True`` when a valid strategy was found."""
        return self.outcome is PebblingOutcome.SOLUTION and self.strategy is not None

    @property
    def weight_used(self) -> float | None:
        """Peak pebbled weight of the found strategy (None if not found).

        In weighted searches ``max_pebbles`` is the *weight budget* and this
        is the budget the witness actually needs; in unweighted searches it
        is reported too (useful when node weights carry qubit counts that
        the search ignored).
        """
        return self.strategy.max_weight if self.strategy is not None else None

    @property
    def num_steps(self) -> int | None:
        """Number of transitions of the found strategy (None if not found)."""
        return self.strategy.num_steps if self.strategy is not None else None

    @property
    def num_moves(self) -> int | None:
        """Number of pebble moves / gates of the found strategy."""
        return self.strategy.num_moves if self.strategy is not None else None

    def summary(self) -> dict[str, object]:
        """Plain-dictionary summary used by the CLI and benchmark tables."""
        summary: dict[str, object] = {
            "dag": self.dag_name,
            "max_pebbles": self.max_pebbles,
            "outcome": self.outcome.value,
            "pebbles_used": self.strategy.max_pebbles if self.strategy else None,
            "steps": self.num_steps,
            "moves": self.num_moves,
            "runtime": round(self.runtime, 3),
            "sat_calls": len(self.attempts),
            "complete": self.complete,
            "proved_infeasible": self.proved_infeasible,
            "backend": self.backend,
        }
        if self.weighted:
            summary["weighted"] = True
            summary["weight_used"] = self.weight_used
        if self.from_cache:
            summary["cached"] = True
        return summary

    def to_json(self) -> dict[str, object]:
        """Lossless JSON-serialisable form (see :meth:`from_json`).

        Node identifiers are serialised through ``str``, so round-tripping
        requires them to be uniquely stringifiable — true for every bundled
        workload and anything the compilation pipeline accepts.
        """
        strategy = (
            strategy_payload(self.strategy) if self.strategy is not None else None
        )
        return {
            "schema": 5,
            "dag": self.dag_name,
            "max_pebbles": self.max_pebbles,
            "outcome": self.outcome.value,
            "runtime": self.runtime,
            "complete": self.complete,
            "weighted": self.weighted,
            "minimal": self.minimal,
            "backend": self.backend,
            "partial": self.partial,
            "proved_infeasible": self.proved_infeasible,
            "strategy": strategy,
            "attempts": [record.as_dict() for record in self.attempts],
            "counters": dict(self.counters),
        }

    @classmethod
    def from_json(cls, data: dict[str, object], dag: Dag) -> "PebblingResult":
        """Rebuild a result from :meth:`to_json` output.

        ``dag`` must be the graph the result was computed on (the strategy
        is revalidated against it, so a mismatched DAG raises instead of
        producing a silently illegal strategy).  A missing or mistyped
        field raises :class:`~repro.errors.PebblingError`; a payload from
        before ``counters`` decodes them as ``{}``.
        """
        owner = "a stored result"
        payload = _read(data, "strategy", (dict, type(None)), owner, None)
        strategy = (
            strategy_from_payload(payload, dag) if payload is not None else None
        )
        counters = _read(data, "counters", (dict,), owner, {})
        for name in counters:
            _read(counters, name, _NUMBER, "a stored result's counters")
        return cls(
            dag_name=_read(data, "dag", (str,), owner),
            max_pebbles=_read(data, "max_pebbles", _INTEGER, owner),
            outcome=_member(PebblingOutcome, _read(data, "outcome", (str,), owner), owner),
            strategy=strategy,
            runtime=float(_read(data, "runtime", _NUMBER, owner)),
            attempts=[
                AttemptRecord.from_dict(record)
                for record in _read(data, "attempts", (list,), owner, [])
            ],
            counters=dict(counters),
            complete=_read(data, "complete", (bool,), owner),
            weighted=_read(data, "weighted", (bool,), owner, False),
            minimal=_read(data, "minimal", (bool,), owner, False),
            backend=_read(data, "backend", (str,), owner, DEFAULT_BACKEND),
            partial=_read(data, "partial", (dict, type(None)), owner, None),
            proved_infeasible=_read(data, "proved_infeasible", (bool,), owner, False),
        )


def completeness_threshold(nodes: int, budget: int, ceiling: int) -> int | None:
    """The most steps a shortest strategy can take, or ``None`` past ``ceiling``.

    With at most ``budget`` of ``nodes`` nodes pebbled there are
    ``C = sum(binom(nodes, i) for i <= budget)`` configurations, and a
    shortest strategy never repeats one, so it takes at most ``C - 1``
    steps: refuting every bound up to ``C - 1`` proves the budget
    infeasible.  This is the completeness threshold of bounded model
    checking (Biere, Cimatti, Clarke and Zhu, "Symbolic Model Checking
    without BDDs", TACAS 1999).  A weight budget ``W`` pebbles at most
    ``W`` nodes, since every weight is a positive integer, so it is passed
    as ``budget`` unchanged.  The sum stops at the first term that takes
    it past ``ceiling + 1``.
    """
    total = 0
    for size in range(min(budget, nodes) + 1):
        total += math.comb(nodes, size)
        if total - 1 > ceiling:
            return None
    return total - 1


class _FreshOracle:
    """Answers each step bound from a fresh encoding and a fresh backend.

    The paper's plain approach, kept for the ablation benchmark
    (``incremental=False``): a query settles exactly its own bound, so a
    core-guided ladder degrades to probing the ladder's lowest bound.
    """

    def __init__(self, owner: "ReversiblePebblingSolver", max_pebbles: int) -> None:
        self._owner = owner
        self._max_pebbles = max_pebbles
        self._encoder = PebblingEncoder(owner.dag, options=owner.options)
        self._encoding = None
        self.backend: IncrementalSatBackend | None = None
        #: The counters of every backend this oracle built and let go.
        self._spent: dict[str, float] = {}

    def pose(self, ladder: list[int]) -> list[int]:
        """Encode the query for ``ladder``; return the bounds it settles."""
        bound = ladder[0]
        self._encoding = self._encoder.encode(
            max_pebbles=self._max_pebbles, num_steps=bound
        )
        if self.backend is not None:
            merge_counters(self._spent, self.backend.counters())
        self.backend = self._owner._make_solver(self._encoding.cnf)
        return [bound]

    def counters(self) -> dict[str, float]:
        """The counters of every backend built so far, each read once."""
        totals = dict(self._spent)
        if self.backend is not None:
            merge_counters(totals, self.backend.counters())
        return totals

    def solve(self, time_limit: float | None) -> SolveResult:
        return self.backend.solve(
            time_limit=time_limit, conflict_limit=self._owner.conflict_limit
        )

    def core(self) -> list[int] | None:
        return None

    def refuted(self, bound: int, core: list[int] | None) -> int:
        return bound

    def retire(self, refuted: int) -> None:
        pass

    def decode(self, model: dict[int, bool], bound: int) -> list[set]:
        return self._encoding.configurations_from_model(model)


class _LiveOracle:
    """One frame encoder feeding one incremental backend across all bounds.

    ``extend_to`` emits the new frames, ``final_guard`` the per-bound
    activation literal, and each query hands the backend exactly the
    fresh clauses.
    """

    def __init__(self, owner: "ReversiblePebblingSolver", max_pebbles: int) -> None:
        self.encoder = PebblingEncoder(
            owner.dag, max_pebbles=max_pebbles, options=owner.options
        )
        self.backend = owner._make_solver()
        self.conflict_limit = owner.conflict_limit
        self._guards: dict[int, int] = {}
        self._bounds: dict[int, int] = {}
        #: Min-heap of the steps whose guards are not retired yet.
        self._live: list[int] = []
        self._assumptions: list[int] = []

    def pose(self, ladder: list[int]) -> list[int]:
        """Encode ``ladder``'s frames and guards and hand them over."""
        # Refinement queries below the encoded frontier are sound: the
        # later frames stay satisfiable by freezing the final
        # configuration (idle steps are always legal on this path —
        # solve() rejects refining strategies under forbid_idle_steps).
        self.encoder.extend_to(max(ladder))
        for step in ladder:
            if step not in self._guards:
                guard = self.encoder.final_guard(step)
                self._guards[step] = guard
                self._bounds[guard] = step
                heapq.heappush(self._live, step)
        # Highest bound first: the solver places assumptions in order, so
        # the refutation tends to bind at the *loosest* infeasible guard
        # it meets — and a core whose lowest bound is m > bound proves
        # every bound <= m infeasible at once.  (Ascending order almost
        # always binds at the probed bound itself, making the core
        # information-free; measured in EXPERIMENTS.md.)
        self._assumptions = [
            self._guards[step] for step in sorted(ladder, reverse=True)
        ]
        # The frame goes over as the encoder's own int32 literal stream:
        # the C core reads the slice in place in one call; the Python
        # engine and the other backends take its clauses one add_clause
        # each.
        fresh, count = self.encoder.drain_new_literals()
        add_buffer = getattr(self.backend, "add_clause_buffer", None)
        if add_buffer is not None:
            add_buffer(fresh, count)
        else:
            for literals in split_clauses(fresh):
                self.backend.add_clause(literals)
        return ladder

    def solve(self, time_limit: float | None) -> SolveResult:
        return self.backend.solve(
            self._assumptions,
            time_limit=time_limit,
            conflict_limit=self.conflict_limit,
        )

    def core(self) -> list[int] | None:
        """The failed assumptions of an UNSAT answer (``None``: single guard)."""
        if len(self._assumptions) <= 1:
            return None
        return self.backend.failed_assumptions()

    def refuted(self, bound: int, core: list[int] | None) -> int:
        """The largest bound an UNSAT answer refutes.

        The lowest guard surviving in the core is a *harder* bound proven
        infeasible, so by step monotonicity everything up to it is.  An
        empty core means the frames alone are contradictory (impossible
        for this encoding, but a backend bug must fail towards "only the
        probed bound is refuted").
        """
        bounds = [
            self._bounds[literal] for literal in core or () if literal in self._bounds
        ]
        return min(bounds) if bounds else bound

    def retire(self, refuted: int) -> None:
        """Assert the negation of every guard at or below ``refuted``.

        Those guards will never be assumed again; as units they let the
        solver simplify the stale final-configuration clauses away at level
        0 instead of dragging them through every later propagation.  Each
        guard's unit goes over once, in ascending order of its step.
        """
        live = self._live
        while live and live[0] <= refuted:
            self.backend.add_clause([-self._guards[heapq.heappop(live)]])

    def decode(self, model: dict[int, bool], bound: int) -> list[set]:
        return self.encoder.configurations_from_model(model, num_steps=bound)

    def counters(self) -> dict[str, float]:
        """The one backend's counters over the whole search."""
        return self.backend.counters()


class ReversiblePebblingSolver:
    """Finds reversible pebbling strategies for one DAG via SAT."""

    def __init__(
        self,
        dag: Dag,
        *,
        options: EncodingOptions | None = None,
        incremental: bool = True,
        conflict_limit: int | None = None,
        backend: str | None = None,
    ) -> None:
        dag.validate()
        self.dag = dag
        self.options = options or EncodingOptions()
        self.incremental = incremental
        self.conflict_limit = conflict_limit
        # The oracle is named by a registry spec (picklable), resolved
        # once, here, to the engine that will run (bare ``cdcl`` becomes
        # ``cdcl:native=1`` or ``cdcl:native=0``): every solver of the
        # search builds from it and every result records it.
        self.backend = resolve_backend(require_backend(backend or DEFAULT_BACKEND))

    def _make_solver(self, cnf=None) -> IncrementalSatBackend:
        """A fresh engine of the resolved spec, optionally preloaded with a CNF.

        Every engine a search uses is built here.
        """
        solver = create_backend(self.backend, conflict_limit=self.conflict_limit)
        if cnf is not None:
            solver.add_cnf(cnf)
        return solver

    def _result(
        self, max_pebbles: int, outcome: PebblingOutcome, **fields
    ) -> PebblingResult:
        """An empty result of this solver's game and engine."""
        return PebblingResult(
            self.dag.name,
            max_pebbles,
            outcome,
            weighted=self.options.weighted,
            backend=self.backend,
            **fields,
        )

    # ------------------------------------------------------------------
    # feasibility bounds
    # ------------------------------------------------------------------
    def _needed_nodes(self) -> set:
        """The outputs and their ancestors: the only nodes that ever need a
        pebble (a strategy can leave every other node alone)."""
        needed = set(self.dag.outputs())
        for node in reversed(self.dag.topological_order()):
            if node in needed:
                needed.update(self.dag.dependencies(node))
        return needed

    def minimum_pebbles_lower_bound(self) -> int:
        """A cheap lower bound on the budget of any strategy.

        Only the needed nodes (:meth:`_needed_nodes`) are ever pebbled, so
        every term is taken over them.  A needed node must be pebbled with
        all its dependencies pebbled, hence at least ``fanin + 1`` pebbles;
        the final configuration holds all outputs, hence at least ``|O|``
        pebbles; and a needed non-output is pebbled together with its
        needed dependent, hence at least 2.

        In weighted mode the same arguments bound the *weight* budget: the
        moment a node ``v`` is (un)pebbled, ``v`` and all its dependencies
        are pebbled together (``w(v) + sum w(deps)``), and the final
        configuration weighs ``sum w(outputs)``.  Unit weights make both
        terms collapse to the unweighted bound, which stays sound for any
        weights >= 1.
        """
        needed = self._needed_nodes()
        outputs = self.dag.outputs()
        bound = max(
            len(outputs),
            max(len(self.dag.dependencies(node)) + 1 for node in needed),
        )
        if len(needed) > len(outputs):
            bound = max(bound, 2)
        if self.options.weighted:
            weights = validated_node_weights(self.dag)
            closure = max(
                weights[node]
                + sum(weights[dep] for dep in self.dag.dependencies(node))
                for node in needed
            )
            final = sum(weights[output] for output in outputs)
            bound = max(bound, closure, final)
        return bound

    def budget_bounds(self) -> tuple[int, int]:
        """``(lower, upper)``: the budgets a sweep over this game scans.

        ``lower`` is :meth:`minimum_pebbles_lower_bound`; ``upper`` is what
        the eager Bennett strategy consumes (its pebble count, or its peak
        weight in weighted mode), so it is always feasible.  ``upper`` is
        at least ``lower``.
        """
        lower = self.minimum_pebbles_lower_bound()
        upper = self._strategy_budget(eager_bennett_strategy(self.dag))
        return lower, max(lower, upper)

    def default_initial_steps(self, *, max_pebbles: int) -> int:
        """A safe lower bound on the number of transitions.

        Only the outputs and their ancestors ever need a pebble.  With
        several moves allowed per transition, a node at level ``l``
        (sources are level 1) goes on no earlier than transition ``l``,
        and a non-output stays pebbled while each dependent goes on, so
        it comes off at transition ``l + 1`` at the earliest for every
        dependent's level ``l``.  That is one step past the deepest
        output only when one of those outputs reads a non-output: one
        that reads only outputs can go on in the very transition that
        clears the rest.  With single-move transitions every needed node
        must be pebbled once and every needed non-output unpebbled once,
        giving ``2 |needed| - |O|``.
        """
        outputs = set(self.dag.outputs())
        needed = self._needed_nodes()
        if self.options.max_moves_per_step == 1:
            lower = 2 * len(needed) - len(outputs)
        else:
            levels = self.dag.levels()
            lower = max(levels[output] for output in outputs)
            for node in needed - outputs:
                for dependent in self.dag.dependents(node):
                    if dependent in needed:
                        lower = max(lower, levels[dependent] + 1)
        return max(1, lower)

    def _schedule(self, strategy: SearchStrategy | str | None) -> SearchStrategy:
        """Resolve ``strategy`` and check it suits this game."""
        search = resolve_search_strategy(strategy)
        if search.needs_monotone_steps and self.options.forbid_idle_steps:
            # With idle steps forbidden, a K-step strategy cannot always be
            # padded to K+1 steps, so step-satisfiability is not monotone in
            # K (e.g. single-move strategies fix the parity of K): bracket
            # refinement would certify wrong minima and core ladders would
            # return wrong verdicts outright.
            raise PebblingError(
                f"the {search.name!r} schedule requires idle steps to be "
                "allowed (forbid_idle_steps makes step-satisfiability "
                "non-monotone); use the plain linear schedule instead"
            )
        return search

    def _step_range(
        self,
        max_pebbles: int,
        *,
        initial_steps: int | None = None,
        max_steps: int | None = None,
        step_floor: int | None = None,
        warm=None,
    ) -> tuple[int, int, int] | None:
        """``(floor, initial, max_steps)`` of one search.

        ``None`` when ``max_pebbles`` is below the structural minimum.
        ``floor`` is the structural step floor raised by the trusted
        ``step_floor`` and a warm start's certified floor; a warm start's
        witness also caps ``max_steps``.
        """
        if max_pebbles < self.minimum_pebbles_lower_bound():
            return None
        if max_steps is None:
            # 4 |V|^2 is far beyond any minimal strategy we can extract and
            # only acts as a runaway guard.
            max_steps = max(16, 4 * self.dag.num_nodes * self.dag.num_nodes)
        floor = self.default_initial_steps(max_pebbles=max_pebbles)
        if step_floor is not None:
            floor = max(floor, step_floor)
        if warm is not None:
            if warm.step_floor is not None:
                floor = max(floor, warm.step_floor)
            if warm.step_ceiling is not None:
                # A cached witness at this (or a tighter) budget proves
                # ``step_ceiling`` transitions suffice, so the runaway guard
                # can shrink to it — overshooting schedules then jump
                # straight to a known-achievable bound.
                max_steps = min(max_steps, max(warm.step_ceiling, floor))
        return floor, initial_steps or floor, max_steps

    # ------------------------------------------------------------------
    # Problem 1: minimum steps for a pebble budget
    # ------------------------------------------------------------------
    def solve(
        self,
        max_pebbles: int,
        *,
        initial_steps: int | None = None,
        strategy: SearchStrategy | str | None = None,
        max_steps: int | None = None,
        time_limit: float | None = None,
        step_floor: int | None = None,
        store=None,
    ) -> PebblingResult:
        """Find a strategy with at most ``max_pebbles`` pebbles.

        With :attr:`EncodingOptions.weighted` set, ``max_pebbles`` is the
        *weight budget*: every configuration's total pebbled node weight is
        bounded instead of its pebble count, and the returned
        :attr:`PebblingResult.weight_used` reports the witness's peak
        weight.

        The number of steps starts at ``initial_steps`` (default: a structural
        lower bound) and evolves after every oracle answer until the search
        strategy is satisfied, ``max_steps`` is exceeded, or the time budget
        runs out.  A schedule that certifies minimality also stops at the
        completeness threshold (:func:`completeness_threshold`) when that is
        lower; a ``step-limit`` answer that reached it sets
        :attr:`PebblingResult.proved_infeasible`.

        ``strategy`` selects how the step bound evolves — a
        :class:`~repro.pebbling.search.SearchStrategy` object or one of the
        names ``"linear"`` (the paper's Problem 1 loop, step-minimal),
        ``"geometric"`` (×1.5 after every UNSAT answer, fewer SAT calls),
        ``"geometric-refine"`` (geometric overshoot, then binary refinement
        back down to the minimal ``K``) and the core-guided
        ``"linear-core"`` / ``"core-refine"``.  A linear schedule with a
        coarser step is ``strategy_from_name("linear", step_increment=d)``.

        ``step_floor`` is a *trusted* lower bound on the step count: the
        caller asserts no strategy with fewer transitions exists for this
        budget (it is combined with the structural floor, so a loose value
        is harmless, an unsound one breaks minimality certification).  The
        result store's warm-start extraction feeds certified bounds from
        neighbouring budgets through it.

        ``store`` is an opt-in :class:`~repro.store.ResultStore` (or any
        object with its ``get_pebble``/``warm_start``/``put_pebble``
        surface): an exact cache hit is returned without touching a SAT
        solver, a warm hit seeds the step bounds so the search starts near
        the answer, and any complete fresh result is written back.
        """
        if max_pebbles < 1:
            raise PebblingError("max_pebbles must be >= 1")
        search = self._schedule(strategy)
        # The cache key is built from the *requested* parameters, before any
        # defaulting or warm-start tightening mutates them.
        request = {
            "budget": max_pebbles,
            "options": self.options,
            "search": search,
            "incremental": self.incremental,
            "initial_steps": initial_steps,
            "max_steps": max_steps,
            "step_floor": step_floor,
        }
        warm = None
        if store is not None:
            cached = store.get_pebble(self.dag, **request)
            if cached is not None:
                return self._cache_answer(cached)
            # Warm bounds are only safe for schedules whose answer is
            # invariant under a sound floor/ceiling: unit-increment linear
            # scans and geometric-refine converge to the same minimum from
            # any sound bracket, but overshooting schedules (geometric,
            # coarse linear) read their probe grid off the floor — a warm
            # floor would shift the grid and change (worsen) the returned
            # step count for the *same* request, and the ceiling clamp
            # could make their grid jump past the only in-budget bound.
            if search.certifies_minimality:
                warm = store.warm_start(
                    self.dag, budget=max_pebbles, options=self.options
                )
                if warm is not None and _trace.active():
                    _trace.event(
                        "store.warm",
                        dag=self.dag.name,
                        budget=max_pebbles,
                        step_floor=warm.step_floor,
                        step_ceiling=warm.step_ceiling,
                    )
        result = self._search(
            max_pebbles,
            search,
            initial_steps=initial_steps,
            max_steps=max_steps,
            time_limit=time_limit,
            step_floor=step_floor,
            warm=warm,
        )
        if store is not None and result.complete:
            store.put_pebble(self.dag, result, **request)
        return result

    def _search(
        self,
        max_pebbles: int,
        search: SearchStrategy,
        *,
        initial_steps: int | None = None,
        max_steps: int | None = None,
        time_limit: float | None = None,
        step_floor: int | None = None,
        warm=None,
    ) -> PebblingResult:
        """One Problem-1 search without the store: :meth:`solve`'s engine."""
        started = time.monotonic()
        steps = self._step_range(
            max_pebbles,
            initial_steps=initial_steps,
            max_steps=max_steps,
            step_floor=step_floor,
            warm=warm,
        )
        if steps is None:
            result = self._result(
                max_pebbles, PebblingOutcome.INFEASIBLE, complete=True
            )
            result.runtime = time.monotonic() - started
            return result
        floor, initial, max_steps = steps
        # Schedules that refute every bound below their answer stop at the
        # completeness threshold: no shortest strategy is longer.  A
        # forbid-idle scan seeded above the floor keeps its ceiling: the
        # bounds below its seed stay open, and without idle steps a
        # refuted bound says nothing about the ones below it.  A seed past
        # the threshold is still queried; with idle steps allowed, that
        # one answer decides the budget.
        threshold = None
        if search.certifies_minimality and (
            not self.options.forbid_idle_steps or initial <= floor
        ):
            threshold = completeness_threshold(
                self.dag.num_nodes, max_pebbles, max_steps
            )
            if threshold is not None:
                max_steps = max(threshold, min(initial, max_steps))
        cursor = search.start(initial, min(floor, initial), max_steps)
        result = self._result(max_pebbles, PebblingOutcome.TIMEOUT)
        with _trace.span(
            "pebble.solve",
            dag=self.dag.name,
            budget=max_pebbles,
            schedule=search.name,
            backend=self.backend,
            incremental=self.incremental,
        ) as solve_span:
            oracle = (
                _LiveOracle(self, max_pebbles)
                if self.incremental
                else _FreshOracle(self, max_pebbles)
            )
            try:
                result.outcome = self._query_loop(
                    result, cursor, oracle, max_steps, time_limit, started
                )
            finally:
                self._record_calls(result, started)
            result.counters = oracle.counters()
            solve_span.set(
                outcome=result.outcome.value, sat_calls=len(result.attempts)
            )
        if not result.complete:
            # Preempted (time limit / spurious UNKNOWN): hand back the
            # search's progress so the caller gets an anytime answer — a
            # narrowed bound interval plus the best witness seen — instead
            # of a bare timeout.  Complete searches carry their answer in
            # full, so no snapshot is attached.
            result.partial = {
                "checkpoint": cursor.checkpoint(),
                "best_steps": result.num_steps,
                "sat_calls": len(result.attempts),
            }
        # Step-minimality certification: the schedule must close on the
        # minimum AND the scan must have started at (or below) a sound
        # floor.  GeometricRefine brackets from ``min(floor, initial)``, so
        # any starting point is certified; a linear scan seeded above the
        # floor only proves minimality among bounds >= its seed.
        result.minimal = (
            result.found
            and result.complete
            and search.certifies_minimality
            and (initial <= floor or isinstance(search, GeometricRefine))
        )
        if threshold is not None and result.outcome is PebblingOutcome.STEP_LIMIT:
            refuted = cursor.checkpoint()["refuted_through"]
            result.proved_infeasible = refuted is not None and refuted >= threshold
        result.runtime = time.monotonic() - started
        return result

    def _strategy_budget(self, strategy: PebblingStrategy) -> int:
        """The budget a strategy consumes: pebble count, or peak weight."""
        if self.options.weighted:
            return int(strategy.max_weight)
        return strategy.max_pebbles

    def _remaining(self, time_limit: float | None, started: float) -> float | None:
        if time_limit is None:
            return None
        return time_limit - (time.monotonic() - started)

    def _cache_answer(self, cached: PebblingResult) -> PebblingResult:
        """Flag and report a store hit; the payload itself is untouched."""
        cached.from_cache = True
        if _trace.active():
            _trace.event(
                "store.hit",
                dag=cached.dag_name,
                budget=cached.max_pebbles,
                outcome=cached.outcome.value,
                steps=cached.num_steps,
            )
        return cached

    def _query_loop(
        self,
        result: PebblingResult,
        cursor: SearchCursor,
        oracle: "_FreshOracle | _LiveOracle",
        max_steps: int,
        time_limit: float | None,
        started: float,
    ) -> PebblingOutcome:
        """Ask ``oracle`` about the cursor's bounds until the search ends.

        Core-aware cursors publish a *ladder* of bounds per query; the live
        oracle assumes their guards together (sound under step
        monotonicity, which :meth:`_schedule` validated), so the query is
        SAT exactly when the lowest laddered bound is feasible, and an UNSAT
        core fast-forwards the cursor past every bound it refutes.
        """
        best: PebblingStrategy | None = None
        bound: int | None = cursor.bound
        while bound is not None and bound <= max_steps:
            remaining = self._remaining(time_limit, started)
            if remaining is None or remaining > 0:
                ladder = oracle.pose(
                    [step for step in cursor.ladder() if step <= max_steps] or [bound]
                )
                # Encoding the bound spends the same deadline as solving it.
                remaining = self._remaining(time_limit, started)
            if remaining is not None and remaining <= 0:
                result.strategy = best
                return PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
            call_started = time.monotonic()
            core: list[int] | None = None
            try:
                answer = oracle.solve(remaining)
                if answer.is_unsat:
                    # The call's runtime includes core extraction (the
                    # minimising backend probes the solver here).
                    core = oracle.core()
            except BaseException:
                attributes = {
                    "bound": bound, "budget": result.max_pebbles,
                    "backend": self.backend, "ladder": len(ladder),
                }
                _trace.finished("sat.call", [(
                    call_started, time.monotonic() - call_started, "error", attributes,
                )])
                raise
            result.attempts.append(
                AttemptRecord(
                    num_steps=bound,
                    ladder=len(ladder),
                    status=answer.status,
                    core_size=None if core is None else len(core),
                    conflicts=answer.stats.conflicts,
                    at=call_started - started,
                    runtime=time.monotonic() - call_started,
                )
            )
            if answer.is_unknown:
                result.strategy = best
                return PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
            if answer.is_sat:
                best = self._keep_best(
                    best,
                    PebblingStrategy(
                        self.dag,
                        oracle.decode(answer.model, bound),
                        max_moves_per_step=self.options.max_moves_per_step,
                    ),
                )
                bound = cursor.advance_core(True)
            else:
                refuted = oracle.refuted(bound, core)
                oracle.retire(refuted)
                bound = cursor.advance_core(False, refuted)
        result.strategy = best
        result.complete = True
        return PebblingOutcome.SOLUTION if best else PebblingOutcome.STEP_LIMIT

    def _record_calls(self, result: PebblingResult, started: float) -> None:
        """Count a search's SAT calls and write one ``sat.call`` span each.

        Called once, when the search ends, from its attempts: the spans
        are children of the search's ``pebble.solve`` span, timed as the
        calls were (``ts`` is the search's start plus ``at``).
        """
        attempts = result.attempts
        if not attempts:
            return
        if _metrics.enabled():
            _metrics.counter("repro_sat_calls_total").inc(len(attempts))
            observe = _metrics.histogram("repro_sat_call_seconds").observe
            for attempt in attempts:
                observe(attempt.runtime)
        if _trace.active():
            budget, backend = result.max_pebbles, self.backend
            spans = []
            for attempt in attempts:
                attributes = {
                    "bound": attempt.num_steps, "budget": budget,
                    "backend": backend, "ladder": attempt.ladder,
                    "verdict": attempt.status.value, "conflicts": attempt.conflicts,
                }
                if attempt.core_size is not None:
                    attributes["core_size"] = attempt.core_size
                spans.append((started + attempt.at, attempt.runtime, "ok", attributes))
            _trace.finished("sat.call", spans)

    @staticmethod
    def _keep_best(
        best: PebblingStrategy | None, candidate: PebblingStrategy
    ) -> PebblingStrategy:
        if best is None or candidate.num_steps <= best.num_steps:
            return candidate
        return best

    # ------------------------------------------------------------------
    # Table I outer loop: minimise the number of pebbles
    # ------------------------------------------------------------------
    def minimize_pebbles(
        self,
        *,
        upper_bound: int | None = None,
        lower_bound: int | None = None,
        timeout_per_budget: float | None = 120.0,
        max_steps: int | None = None,
        strategy: SearchStrategy | str | None = None,
        stop_after_failures: int = 1,
        warm_start: bool = True,
        store=None,
    ) -> tuple[PebblingResult | None, list[PebblingResult]]:
        """Find the smallest pebble budget solvable within a per-budget timeout.

        Mirrors the paper's Table I methodology: "the number of pebbles
        corresponds to the minimum one for which the solver could find a
        solution within 2 minutes".  Budgets are tried in descending order
        starting just below ``upper_bound`` (default: the peak of the eager
        Bennett baseline, whose strategy also seeds the result so the scan
        never returns empty-handed); the scan stops after
        ``stop_after_failures`` consecutive budgets without a solution.

        With ``warm_start`` (default) each budget starts its step search at
        the step count of the previously found strategy — the minimum step
        count can only grow as the budget shrinks, so this skips provably
        fruitless SAT calls; disable it to obtain step-minimal answers per
        budget with the linear schedule.

        In weighted mode the scan runs over *weight budgets* (the eager
        Bennett baseline's peak weight anchors the upper bound) and returns
        the smallest solvable weight budget instead of pebble count.

        ``store`` (an opt-in :class:`~repro.store.ResultStore`) is threaded
        into every per-budget search, so a repeated scan over the same DAG
        answers from the cache and a partial scan warm-starts its
        neighbours.

        Returns ``(best_result, all_results)``.
        """
        # Resolve the search schedule once for the whole scan.
        search = resolve_search_strategy(strategy)
        baseline = eager_bennett_strategy(self.dag)
        baseline_budget = self._strategy_budget(baseline)
        if upper_bound is None:
            upper_bound = baseline_budget
        if lower_bound is None:
            lower_bound = self.minimum_pebbles_lower_bound()
        if upper_bound < lower_bound:
            upper_bound = lower_bound
        all_results: list[PebblingResult] = []
        best: PebblingResult | None = None
        steps_hint: int | None = None
        first_budget = upper_bound
        if upper_bound >= baseline_budget:
            # The eager Bennett strategy is already a witness for the loosest
            # budget; no SAT call needed for it.
            best = self._result(
                upper_bound, PebblingOutcome.SOLUTION, strategy=baseline
            )
            steps_hint = baseline.num_steps
            first_budget = baseline_budget - 1
        failures = 0
        for budget in range(first_budget, lower_bound - 1, -1):
            outcome = self.solve(
                budget,
                time_limit=timeout_per_budget,
                max_steps=max_steps,
                strategy=search,
                initial_steps=steps_hint if warm_start else None,
                store=store,
            )
            all_results.append(outcome)
            if outcome.found:
                best = outcome
                failures = 0
                if warm_start and outcome.num_steps is not None:
                    steps_hint = max(steps_hint or 1, outcome.num_steps)
            else:
                failures += 1
                if failures >= stop_after_failures:
                    break
        return best, all_results


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------
def pebble_dag(
    dag: Dag,
    max_pebbles: int,
    *,
    options: EncodingOptions | None = None,
    time_limit: float | None = None,
    backend: str | None = None,
    **solve_kwargs,
) -> PebblingResult:
    """One-shot helper: pebble ``dag`` with at most ``max_pebbles`` pebbles.

    ``backend`` selects the incremental-SAT backend by registry spec (see
    :mod:`repro.sat.backend`); the default runs the C core when it loads.
    """
    solver = ReversiblePebblingSolver(dag, options=options, backend=backend)
    return solver.solve(max_pebbles, time_limit=time_limit, **solve_kwargs)


def minimize_pebbles(
    dag: Dag,
    *,
    options: EncodingOptions | None = None,
    timeout_per_budget: float | None = 120.0,
    backend: str | None = None,
    **kwargs,
) -> tuple[PebblingResult | None, list[PebblingResult]]:
    """One-shot helper mirroring the Table I methodology.

    ``backend`` selects the incremental-SAT backend by registry spec (see
    :mod:`repro.sat.backend`) for every per-budget search of the scan.
    """
    solver = ReversiblePebblingSolver(dag, options=options, backend=backend)
    return solver.minimize_pebbles(timeout_per_budget=timeout_per_budget, **kwargs)
