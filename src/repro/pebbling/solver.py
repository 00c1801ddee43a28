"""SAT-driven reversible pebbling (Problems 1 and 2 of the paper).

:class:`ReversiblePebblingSolver` wraps the encoding of
:mod:`repro.pebbling.encoding` with the two search loops used in the
paper's evaluation:

* :meth:`ReversiblePebblingSolver.solve` — Problem 1: given a pebble budget
  ``P``, find a strategy with the minimum number of steps by asking the SAT
  oracle for ``K, K+1, K+2, ...`` steps until a solution appears (or a time
  budget runs out);
* :meth:`ReversiblePebblingSolver.minimize_pebbles` — the outer loop used
  for Table I: find the smallest ``P`` for which a strategy can be found
  within a per-budget timeout.

Both loops support the incremental mode, which keeps a single incremental
SAT backend (any :class:`~repro.sat.backend.IncrementalSatBackend`, the
C core by default when it loads) alive across step bounds: the clause
frames come from one stateful :class:`~repro.pebbling.encoding.PebblingEncoder`
(``extend_to`` emits only the new frames), the final-configuration
constraint of each bound is guarded by an activation literal from
``final_guard`` and selected with assumptions, so learned clauses are
reused when moving between bounds.  Core-aware search strategies assume a
*ladder* of bound guards per query and use the backend's failed-assumption
core to skip provably-UNSAT bounds (see :mod:`repro.pebbling.search`).
The non-incremental mode re-encodes from scratch for every ``K`` (the
paper's plain approach) and is kept for the ablation benchmark.  How the
step bound evolves between SAT calls is a pluggable
:class:`~repro.pebbling.search.SearchStrategy`; which oracle answers is a
pluggable, picklable backend spec (see :mod:`repro.sat.backend`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.errors import PebblingError
from repro.dag.graph import Dag
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pebbling.bennett import eager_bennett_strategy
from repro.pebbling.cancel import resolve_token
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
from repro.sat.solver import Status

#: First time slice of a SAT query issued under a cancellation token or a
#: shared bound board; slices double on every retry, so non-resumable
#: backends waste at most one final slice of rework while the lane keeps
#: reacting to siblings mid-query.
_CANCEL_POLL_SLICE = 0.5


class PebblingOutcome(Enum):
    """Outcome of a pebbling search."""

    SOLUTION = "solution"
    INFEASIBLE = "infeasible"
    STEP_LIMIT = "step-limit"
    TIMEOUT = "timeout"
    #: The search was stopped by a cross-process cancellation token (a
    #: sibling race lane or cube lane already answered); a cancelled
    #: search that found a witness first reports SOLUTION instead, with
    #: ``complete=False`` and ``partial["cancelled"]`` set.
    CANCELLED = "cancelled"


@dataclass
class AttemptRecord:
    """One SAT query issued during the search (for reporting/debugging).

    ``solver_stats`` holds the full counter dictionary of the underlying
    SAT call (see :meth:`repro.sat.solver.SolverStats.as_dict`) so callers
    can aggregate propagation/decision counters across a whole search.
    """

    max_pebbles: int
    num_steps: int
    status: Status
    runtime: float
    conflicts: int
    solver_stats: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the result store)."""
        return {
            "max_pebbles": self.max_pebbles,
            "num_steps": self.num_steps,
            "status": self.status.value,
            "runtime": self.runtime,
            "conflicts": self.conflicts,
            "solver_stats": dict(self.solver_stats),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "AttemptRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        return cls(
            max_pebbles=int(data["max_pebbles"]),
            num_steps=int(data["num_steps"]),
            status=Status(data["status"]),
            runtime=float(data["runtime"]),
            conflicts=int(data["conflicts"]),
            solver_stats=dict(data.get("solver_stats") or {}),
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
    #: How many times a bound published by *another* cube lane moved this
    #: search's cursor (skipped SAT calls it would otherwise have paid
    #: for); aggregated across lanes on a merged cube result.
    shared_bound_hits: int = 0
    #: Cube-and-conquer metadata on merged results (lane summaries, the
    #: winning cube, board traffic); ``None`` for ordinary searches.
    cubes: dict[str, object] | None = None
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
            "backend": self.backend,
        }
        if self.weighted:
            summary["weighted"] = True
            summary["weight_used"] = self.weight_used
        if self.shared_bound_hits:
            summary["shared_bound_hits"] = self.shared_bound_hits
        if self.cubes is not None:
            summary["cubes"] = self.cubes.get("count")
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
            "schema": 3,
            "dag": self.dag_name,
            "max_pebbles": self.max_pebbles,
            "outcome": self.outcome.value,
            "runtime": self.runtime,
            "complete": self.complete,
            "weighted": self.weighted,
            "minimal": self.minimal,
            "backend": self.backend,
            "partial": self.partial,
            "shared_bound_hits": self.shared_bound_hits,
            "cubes": self.cubes,
            "strategy": strategy,
            "attempts": [record.as_dict() for record in self.attempts],
        }

    @classmethod
    def from_json(cls, data: dict[str, object], dag: Dag) -> "PebblingResult":
        """Rebuild a result from :meth:`to_json` output.

        ``dag`` must be the graph the result was computed on (the strategy
        is revalidated against it, so a mismatched DAG raises instead of
        producing a silently illegal strategy).
        """
        payload = data.get("strategy")
        strategy = (
            strategy_from_payload(payload, dag) if payload is not None else None
        )
        return cls(
            dag_name=str(data["dag"]),
            max_pebbles=int(data["max_pebbles"]),
            outcome=PebblingOutcome(data["outcome"]),
            strategy=strategy,
            runtime=float(data["runtime"]),
            attempts=[
                AttemptRecord.from_dict(record) for record in data.get("attempts", [])
            ],
            complete=bool(data["complete"]),
            weighted=bool(data.get("weighted", False)),
            minimal=bool(data.get("minimal", False)),
            backend=str(data.get("backend", DEFAULT_BACKEND)),
            partial=data.get("partial"),  # type: ignore[arg-type]
            shared_bound_hits=int(data.get("shared_bound_hits", 0)),
            cubes=data.get("cubes"),  # type: ignore[arg-type]
        )


class ReversiblePebblingSolver:
    """Finds reversible pebbling strategies for one DAG via SAT."""

    def __init__(
        self,
        dag: Dag,
        *,
        options: EncodingOptions | None = None,
        incremental: bool = True,
        conflict_limit: int | None = None,
        solver_factory: Callable[..., IncrementalSatBackend] | None = None,
        backend: str | None = None,
    ) -> None:
        dag.validate()
        self.dag = dag
        self.options = options or EncodingOptions()
        self.incremental = incremental
        self.conflict_limit = conflict_limit
        # Exactly one way to choose the oracle: a registry ``backend`` spec
        # (picklable, the normal path — explicit argument wins over
        # ``EncodingOptions.backend``), or a raw ``solver_factory`` callable
        # accepting the ``CdclSolver`` constructor signature (the benchmark
        # harness injects the frozen legacy engine here to measure
        # engine-vs-engine speedups on identical searches).  A spec is
        # resolved once, here, to the engine that will run (bare ``cdcl``
        # becomes ``cdcl:native=1`` or ``cdcl:native=0``): every solver of
        # the search, cube lanes included, builds from it and every result
        # records it.
        if solver_factory is not None and (
            backend is not None or self.options.backend is not None
        ):
            raise PebblingError(
                "pass either solver_factory= or a backend spec "
                "(backend= / EncodingOptions.backend), not both"
            )
        self.solver_factory = solver_factory
        if solver_factory is not None:
            factory_name = getattr(solver_factory, "__name__", "custom")
            self.backend = f"factory:{factory_name}"
        else:
            self.backend = resolve_backend(require_backend(
                backend or self.options.backend or DEFAULT_BACKEND
            ))
        self._encoder = PebblingEncoder(dag, options=self.options)

    def _make_solver(self, cnf=None) -> IncrementalSatBackend:
        """A fresh oracle for one search (optionally preloaded with a CNF)."""
        if self.solver_factory is not None:
            if cnf is not None:
                return self.solver_factory(cnf, conflict_limit=self.conflict_limit)
            return self.solver_factory(conflict_limit=self.conflict_limit)
        solver = create_backend(self.backend, conflict_limit=self.conflict_limit)
        if cnf is not None:
            solver.add_cnf(cnf)
        return solver

    @staticmethod
    def _reported_counters(solver, result) -> dict[str, float]:
        """The counter dict a backend reports for one solve call.

        Backends expose :meth:`~repro.sat.backend.IncrementalSatBackend.counters`
        with exactly the statistics they track; raw factories (the frozen
        legacy engine) fall back to the full CDCL counter dict.
        """
        counters = getattr(solver, "counters", None)
        if counters is not None:
            reported = counters()
            if reported:
                return dict(reported)
        return result.stats.as_dict()

    # ------------------------------------------------------------------
    # feasibility bounds
    # ------------------------------------------------------------------
    def minimum_pebbles_lower_bound(self) -> int:
        """A cheap lower bound on the budget of any strategy.

        Any node must be pebbled with all its dependencies pebbled, hence at
        least ``max_fanin + 1`` pebbles; the final configuration holds all
        outputs, hence at least ``|O|`` pebbles; and for a non-output DAG
        node to be cleaned up while an output stays pebbled the bound
        ``|O| + 1`` applies whenever some non-output node remains to be
        unpebbled after the last output is computed.

        In weighted mode the same arguments bound the *weight* budget: the
        moment a node ``v`` is (un)pebbled, ``v`` and all its dependencies
        are pebbled together (``w(v) + sum w(deps)``), and the final
        configuration weighs ``sum w(outputs)``.  Unit weights make both
        terms collapse to the unweighted bound, which stays sound for any
        weights >= 1.
        """
        stats = self.dag.statistics()
        bound = max(stats.max_fanin + 1, stats.num_outputs)
        if stats.num_nodes > stats.num_outputs:
            bound = max(bound, 2)
        if self.options.weighted:
            weights = validated_node_weights(self.dag)
            closure = max(
                weights[node]
                + sum(weights[dep] for dep in self.dag.dependencies(node))
                for node in self.dag.nodes()
            )
            final = sum(weights[output] for output in self.dag.outputs())
            bound = max(bound, closure, final)
        return bound

    def default_initial_steps(self, *, max_pebbles: int) -> int:
        """A safe lower bound on the number of transitions.

        With several moves allowed per transition, reaching the deepest
        output still needs at least ``depth`` transitions; with single-move
        transitions every node must be pebbled once and every non-output
        unpebbled once, giving ``2 |V| - |O|``.
        """
        stats = self.dag.statistics()
        if self.options.max_moves_per_step == 1:
            lower = 2 * stats.num_nodes - stats.num_outputs
        else:
            lower = stats.depth + (1 if stats.num_nodes > stats.num_outputs else 0)
        return max(1, lower)

    # ------------------------------------------------------------------
    # Problem 2: fixed number of steps
    # ------------------------------------------------------------------
    def solve_fixed(
        self,
        *,
        max_pebbles: int,
        num_steps: int,
        time_limit: float | None = None,
    ) -> tuple[Status, PebblingStrategy | None, AttemptRecord]:
        """Ask the SAT oracle whether a ``num_steps``-step strategy exists."""
        encoding = self._encoder.encode(max_pebbles=max_pebbles, num_steps=num_steps)
        solver = self._make_solver(encoding.cnf)
        started = time.monotonic()
        result = solver.solve(time_limit=time_limit, conflict_limit=self.conflict_limit)
        elapsed = time.monotonic() - started
        record = AttemptRecord(
            max_pebbles=max_pebbles,
            num_steps=num_steps,
            status=result.status,
            runtime=elapsed,
            conflicts=result.stats.conflicts,
            solver_stats=self._reported_counters(solver, result),
        )
        if not result.is_sat:
            return result.status, None, record
        assert result.model is not None
        configurations = encoding.configurations_from_model(result.model)
        strategy = PebblingStrategy(
            self.dag,
            configurations,
            max_moves_per_step=self.options.max_moves_per_step,
        )
        return result.status, strategy, record

    # ------------------------------------------------------------------
    # Problem 1: minimum steps for a pebble budget
    # ------------------------------------------------------------------
    def solve(
        self,
        max_pebbles: int,
        *,
        initial_steps: int | None = None,
        step_increment: int | None = None,
        step_schedule: str | None = None,
        strategy: SearchStrategy | str | None = None,
        max_steps: int | None = None,
        time_limit: float | None = None,
        step_floor: int | None = None,
        store=None,
        cubes=None,
        cube_jobs: int = 1,
        cube=None,
        board=None,
        cancel=None,
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
        runs out.

        ``strategy`` selects how the step bound evolves — a
        :class:`~repro.pebbling.search.SearchStrategy` object or one of the
        names ``"linear"`` (the paper's Problem 1 loop, step-minimal),
        ``"geometric"`` (×1.5 after every UNSAT answer, fewer SAT calls) and
        ``"geometric-refine"`` (geometric overshoot, then binary refinement
        back down to the minimal ``K``).  The legacy ``step_schedule`` /
        ``step_increment`` keywords are still accepted; meaningless
        combinations (a non-linear schedule with ``step_increment``, or both
        ``strategy`` and ``step_schedule``) now raise instead of being
        silently ignored.

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

        ``cubes`` (an int or a pre-built
        :class:`~repro.pebbling.cubes.CubeSet`) switches the search to
        cube-and-conquer: the instance is split into an exhaustive cube
        cover and the lanes race across ``cube_jobs`` processes, sharing
        bounds through the cross-process board (see
        :func:`~repro.pebbling.cubes.run_cube_search`).  ``cubes`` is
        deliberately *not* part of the store's cache key — a merged cube
        result answers the same question as a sequential search, so the
        two are interchangeable cache entries.

        ``cube`` / ``board`` / ``cancel`` are the lane-side half of that
        machinery (one cube's assumptions, this lane's board channel, and
        the first-winner cancellation token); callers other than
        :func:`run_cube_search` and the portfolio race normally only pass
        ``cancel``.
        """
        if max_pebbles < 1:
            raise PebblingError("max_pebbles must be >= 1")
        search = resolve_search_strategy(
            strategy, step_schedule=step_schedule, step_increment=step_increment
        )
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
        # The cache key is built from the *requested* parameters, before any
        # defaulting or warm-start tightening below mutates them.
        request = {
            "budget": max_pebbles,
            "options": self.options,
            "search": search,
            "incremental": self.incremental,
            "initial_steps": initial_steps,
            "max_steps": max_steps,
            "step_floor": step_floor,
        }
        if (cube is not None or board is not None) and not self.incremental:
            raise PebblingError(
                "cube assumptions and the bound board need the incremental "
                "engine (they ride the assumption interface)"
            )
        if cube is not None and store is not None:
            # A lane's answer is conditioned on its cube — caching it under
            # the unsplit request key would poison the store.
            store = None
        if cubes is not None:
            from repro.pebbling.cubes import run_cube_search

            if store is not None:
                cached = store.get_pebble(self.dag, **request)
                if cached is not None:
                    return self._cache_answer(cached)
            with _trace.span(
                "cubes.run",
                dag=self.dag.name,
                budget=max_pebbles,
                backend=self.backend,
                schedule=search.name,
            ) as cube_span:
                merged = run_cube_search(
                    self,
                    max_pebbles,
                    cubes=cubes,
                    jobs=cube_jobs,
                    search=search,
                    initial_steps=initial_steps,
                    max_steps=max_steps,
                    time_limit=time_limit,
                    step_floor=step_floor,
                    cancel=cancel,
                )
                cube_span.set(
                    outcome=merged.outcome.value,
                    sat_calls=len(merged.attempts),
                    certified=merged.minimal,
                    shared_bound_hits=merged.shared_bound_hits,
                )
            if store is not None and merged.complete:
                store.put_pebble(self.dag, merged, **request)
            return merged
        token = resolve_token(cancel)
        warm = None
        if store is not None:
            cached = store.get_pebble(self.dag, **request)
            if cached is not None:
                return self._cache_answer(cached)
            _metrics.counter("repro_store_misses_total").inc()
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
        started = time.monotonic()
        result = PebblingResult(
            self.dag.name,
            max_pebbles,
            PebblingOutcome.TIMEOUT,
            weighted=self.options.weighted,
            backend=self.backend,
        )

        if max_pebbles < self.minimum_pebbles_lower_bound():
            result.outcome = PebblingOutcome.INFEASIBLE
            result.complete = True
            result.runtime = time.monotonic() - started
            if store is not None:
                store.put_pebble(self.dag, result, **request)
            return result

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
        initial = initial_steps or floor
        cursor = search.start(initial, min(floor, initial), max_steps)

        with _trace.span(
            "pebble.solve",
            dag=self.dag.name,
            budget=max_pebbles,
            schedule=search.name,
            backend=self.backend,
            incremental=self.incremental,
            cube=cube is not None,
        ) as solve_span:
            if self.incremental:
                outcome = self._solve_incremental(
                    result,
                    max_pebbles,
                    cursor,
                    max_steps,
                    time_limit,
                    started,
                    cube=cube,
                    board=board,
                    token=token,
                )
            else:
                outcome = self._solve_monolithic(
                    result, max_pebbles, cursor, max_steps, time_limit, started, token
                )
            solve_span.set(
                outcome=outcome.value,
                sat_calls=len(result.attempts),
                shared_bound_hits=result.shared_bound_hits,
            )
        result.outcome = outcome
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
            if token is not None and token.cancelled():
                result.partial["cancelled"] = True
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
        result.runtime = time.monotonic() - started
        if store is not None and result.complete:
            store.put_pebble(self.dag, result, **request)
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
        _metrics.counter("repro_store_hits_total").inc()
        if _trace.active():
            _trace.event(
                "store.hit",
                dag=cached.dag_name,
                budget=cached.max_pebbles,
                outcome=cached.outcome.value,
                steps=cached.num_steps,
            )
        return cached

    @staticmethod
    def _keep_best(
        best: PebblingStrategy | None, candidate: PebblingStrategy
    ) -> PebblingStrategy:
        if best is None or candidate.num_steps <= best.num_steps:
            return candidate
        return best

    def _solve_monolithic(
        self,
        result: PebblingResult,
        max_pebbles: int,
        cursor: SearchCursor,
        max_steps: int,
        time_limit: float | None,
        started: float,
        token=None,
    ) -> PebblingOutcome:
        best: PebblingStrategy | None = None
        bound: int | None = cursor.bound
        while bound is not None and bound <= max_steps:
            if token is not None and token.cancelled():
                if _trace.active():
                    _trace.event("solve.cancelled", bound=bound, witness=best is not None)
                _metrics.counter("repro_cancellations_total").inc()
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.CANCELLED
                )
            remaining = self._remaining(time_limit, started)
            if remaining is not None and remaining <= 0:
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
                )
            with _trace.span(
                "sat.call", bound=bound, budget=max_pebbles, backend=self.backend
            ) as call_span:
                status, strategy, record = self.solve_fixed(
                    max_pebbles=max_pebbles, num_steps=bound, time_limit=remaining
                )
                call_span.set(verdict=status.value, conflicts=record.conflicts)
            result.attempts.append(record)
            _metrics.counter("repro_sat_calls_total").inc()
            _metrics.histogram("repro_sat_call_seconds").observe(record.runtime)
            if status is Status.SATISFIABLE and strategy is not None:
                best = self._keep_best(best, strategy)
                bound = cursor.advance(True)
            elif status is Status.UNKNOWN:
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
                )
            else:
                bound = cursor.advance(False)
        result.strategy = best
        result.complete = True
        if best is not None:
            return PebblingOutcome.SOLUTION
        return PebblingOutcome.STEP_LIMIT

    # -- incremental engine ------------------------------------------------
    def _solve_incremental(
        self,
        result: PebblingResult,
        max_pebbles: int,
        cursor: SearchCursor,
        max_steps: int,
        time_limit: float | None,
        started: float,
        *,
        cube=None,
        board=None,
        token=None,
    ) -> PebblingOutcome:
        """Drive the search over one live solver fed by the frame encoder.

        All pebbling clauses come from a single stateful
        :class:`PebblingEncoder`: ``extend_to`` emits the new frames,
        ``final_guard`` the per-bound activation literal, and
        ``drain_new_clauses`` hands exactly the fresh clauses to the
        incremental SAT backend.

        Core-aware cursors publish a *ladder* of bounds per query; their
        guards are assumed together (sound under step monotonicity, which
        ``solve()`` validated).  The query is then SAT exactly when the
        lowest laddered bound is feasible, and on UNSAT the backend's
        failed-assumption core names the guards its refutation used — the
        lowest surviving guard is a *harder* bound proven infeasible, so
        the cursor fast-forwards past everything up to it.

        In a cube-and-conquer lane, ``cube`` fixes early-frame pebble
        variables via extra assumptions, ``board`` is the lane's channel
        onto the shared bound board (polled before every query through
        :meth:`~repro.pebbling.search.SearchCursor.observe`, published to
        after every verdict), and ``token`` stops the lane once a sibling
        has certified the global answer.
        """
        encoder = PebblingEncoder(
            self.dag, max_pebbles=max_pebbles, options=self.options
        )
        solver = self._make_solver()
        guard_of_bound: dict[int, int] = {}
        bound_of_guard: dict[int, int] = {}
        negated: set[int] = set()
        cube_literals: list[int] = []
        cube_frame = 0
        if cube is not None and cube.assignments:
            cube_frame = max(step for _, step, _ in cube.assignments)
        best: PebblingStrategy | None = None
        bound: int | None = cursor.bound
        while bound is not None and bound <= max_steps:
            if token is not None and token.cancelled():
                if _trace.active():
                    _trace.event("solve.cancelled", bound=bound, witness=best is not None)
                _metrics.counter("repro_cancellations_total").inc()
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.CANCELLED
                )
            if board is not None:
                view = board.poll()
                if view.refuted is not None or view.known_sat is not None:
                    observed = cursor.observe(
                        refuted=view.refuted, known_sat=view.known_sat
                    )
                    if observed != bound:
                        # A sibling lane killed (or answered) this bound;
                        # observe() is idempotent, so one skip per fact.
                        result.shared_bound_hits += 1
                        _trace.event("board.hit", bound=bound, observed=observed)
                        bound = observed
                        continue
            remaining = self._remaining(time_limit, started)
            if remaining is not None and remaining <= 0:
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
                )
            # Refinement queries below the encoded frontier are sound here:
            # the later frames stay satisfiable by freezing the final
            # configuration (idle steps are always legal on this path —
            # solve() rejects refining strategies under forbid_idle_steps).
            ladder = [step for step in cursor.ladder() if step <= max_steps]
            if not ladder:
                ladder = [bound]
            encoder.extend_to(max(max(ladder), cube_frame))
            if cube_frame and not cube_literals:
                cube_literals = [
                    encoder.variable(node, step) * (1 if value else -1)
                    for node, step, value in cube.assignments
                ]
            for step in ladder:
                if step not in guard_of_bound:
                    guard = encoder.final_guard(step)
                    guard_of_bound[step] = guard
                    bound_of_guard[guard] = step
            # Highest bound first: the solver places assumptions in order,
            # so the refutation tends to bind at the *loosest* infeasible
            # guard it meets — and a core whose lowest bound is m > bound
            # proves every bound <= m infeasible at once.  (Ascending order
            # almost always binds at the probed bound itself, making the
            # core information-free; measured in EXPERIMENTS.md.)  Cube
            # literals ride along in every query of the lane.
            assumptions = cube_literals + [
                guard_of_bound[step] for step in sorted(ladder, reverse=True)
            ]
            # One batch per frame where the backend takes one (the C core:
            # a single call instead of one per clause); the Python engine
            # keeps its per-clause path.
            fresh = [clause.literals for clause in encoder.drain_new_clauses()]
            add_clauses = getattr(solver, "add_clauses", None)
            if add_clauses is not None:
                add_clauses(fresh)
            else:
                for literals in fresh:
                    solver.add_clause(literals)
            # Pebble and guard variables are re-mentioned by every later
            # frame and assumption ladder; backends with root-level variable
            # elimination must never eliminate them.  The loop deliberately
            # does NOT call solver.simplify() between bounds: explicit
            # inter-bound passes measured a net slowdown on this suite —
            # BVE trades the encoder's short structured clauses for fatter
            # resolvents over the (frozen) pebble variables, and the
            # per-bound queries are too short to amortise the swap (see
            # EXPERIMENTS.md, schema v10).  The solver's own
            # conflict-counted inprocessing trigger still fires on long
            # queries, which is why the freeze discipline matters here.
            freeze = getattr(solver, "freeze", None)
            if freeze is not None:
                fresh_variables = encoder.drain_new_named_variables()
                if fresh_variables:
                    freeze(fresh_variables)
            call_started = time.monotonic()
            # With a shared board or a cancellation token, long queries run
            # in growing time slices so the lane reacts mid-call: a slice
            # that expires polls the token and the board, then re-issues
            # the same query.  The native incremental engine resumes from
            # its learned clauses, so a retry costs almost nothing; for
            # backends that restart from scratch the doubling bounds the
            # total rework by the cost of the final slice.
            chunked = (
                (board is not None or token is not None)
                and self.conflict_limit is None
            )
            slice_budget = _CANCEL_POLL_SLICE
            interrupted = False
            probed = bound
            core: list[int] | None = None
            with _trace.span(
                "sat.call",
                bound=probed,
                budget=max_pebbles,
                backend=self.backend,
                ladder=len(ladder),
            ) as call_span:
                while True:
                    call_limit = remaining
                    if chunked:
                        call_limit = (
                            slice_budget
                            if remaining is None
                            else min(remaining, slice_budget)
                        )
                    sat_result = solver.solve(
                        assumptions,
                        time_limit=call_limit,
                        conflict_limit=self.conflict_limit,
                    )
                    if not chunked or not sat_result.is_unknown:
                        break
                    remaining = self._remaining(time_limit, started)
                    if remaining is not None and remaining <= 0:
                        break  # genuine timeout, handled as UNKNOWN below
                    if token is not None and token.cancelled():
                        interrupted = True
                        break
                    if board is not None:
                        view = board.poll()
                        if view.refuted is not None or view.known_sat is not None:
                            observed = cursor.observe(
                                refuted=view.refuted, known_sat=view.known_sat
                            )
                            if observed != bound:
                                # A sibling settled this bound while we were
                                # inside the query: abandon the call.
                                result.shared_bound_hits += 1
                                _trace.event(
                                    "board.hit", bound=probed, observed=observed
                                )
                                bound = observed
                                interrupted = True
                                break
                    slice_budget *= 2
                elapsed = time.monotonic() - call_started
                if (
                    not interrupted
                    and sat_result.status is Status.UNSATISFIABLE
                    and len(assumptions) > 1
                ):
                    # The span charges core extraction to the call that paid
                    # for it (the minimising backend probes the solver here).
                    extract = getattr(solver, "failed_assumptions", None)
                    core = extract() if extract is not None else list(assumptions)
                    call_span.set(core_size=len(core))
                call_span.set(
                    verdict=sat_result.status.value,
                    conflicts=sat_result.stats.conflicts,
                    interrupted=interrupted,
                )
                result.attempts.append(
                    AttemptRecord(
                        max_pebbles=max_pebbles,
                        num_steps=probed,
                        status=sat_result.status,
                        runtime=elapsed,
                        conflicts=sat_result.stats.conflicts,
                        solver_stats=self._reported_counters(solver, sat_result),
                    )
                )
            _metrics.counter("repro_sat_calls_total").inc()
            _metrics.histogram("repro_sat_call_seconds").observe(elapsed)
            if interrupted:
                continue
            if sat_result.is_sat:
                assert sat_result.model is not None
                configurations = encoder.configurations_from_model(
                    sat_result.model, num_steps=bound
                )
                best = self._keep_best(
                    best,
                    PebblingStrategy(
                        self.dag,
                        configurations,
                        max_moves_per_step=self.options.max_moves_per_step,
                    ),
                )
                if board is not None and best is not None:
                    # A witness under cube assumptions is a witness for
                    # the whole instance (the cube only *restricts* it).
                    board.publish_sat(best.num_steps)
                    if token is not None:
                        view = board.poll()
                        if (
                            view.known_sat is not None
                            and view.refuted is not None
                            and view.refuted >= view.known_sat - 1
                        ):
                            # Pooled refutations meet the shared witness:
                            # the global minimum is pinned, stop every
                            # sibling lane still probing.
                            token.cancel()
                bound = cursor.advance_core(True)
            elif sat_result.is_unknown:
                result.strategy = best
                return (
                    PebblingOutcome.SOLUTION if best else PebblingOutcome.TIMEOUT
                )
            else:
                refuted = bound
                # Until the core proves otherwise, a cube lane's refutation
                # is only valid under its cube assumptions.
                core_used_cube = bool(cube_literals)
                if core is not None:
                    # Backends without real core extraction (the external
                    # DIMACS path, raw factories) degrade to the trivial
                    # full-assumption core — sound, never faster.  The core
                    # itself was extracted inside the ``sat.call`` span.
                    core_bounds = [
                        bound_of_guard[literal]
                        for literal in core
                        if literal in bound_of_guard
                    ]
                    if cube_literals:
                        lane_literals = set(cube_literals)
                        core_used_cube = any(
                            literal in lane_literals for literal in core
                        )
                    if cube_literals and not core_bounds and core:
                        # The refutation used no final-configuration guard:
                        # the cube itself is contradictory at every bound.
                        # Close the lane for its whole range so the board's
                        # min-over-cubes aggregation never waits on it.
                        if board is not None:
                            board.publish_refuted(max_steps)
                        result.strategy = best
                        result.complete = True
                        return PebblingOutcome.STEP_LIMIT
                    # An empty core means the frames alone are contradictory
                    # (impossible for this encoding, but a backend bug must
                    # fail towards "only the probed bound is refuted").
                    refuted = min(core_bounds) if core_bounds else bound
                if board is not None and cube_literals and core_used_cube:
                    # The core leaned on the cube, but the refutation is
                    # often cube-free anyway: re-ask the same bound without
                    # the cube literals.  The incremental engine answers
                    # from its learned clauses (measured at milliseconds),
                    # and the slice cap bounds the rare unlucky recheck.
                    # UNSAT promotes the bound to the instance-global row;
                    # SAT hands this lane a witness for the whole instance
                    # that its own cube excludes.
                    recheck_limit = max(_CANCEL_POLL_SLICE, 0.5 * elapsed)
                    remaining = self._remaining(time_limit, started)
                    if remaining is not None:
                        recheck_limit = min(recheck_limit, remaining)
                    if recheck_limit > 0:
                        recheck = solver.solve(
                            [guard_of_bound[refuted]],
                            time_limit=recheck_limit,
                            conflict_limit=self.conflict_limit,
                        )
                        if recheck.is_sat:
                            assert recheck.model is not None
                            configurations = encoder.configurations_from_model(
                                recheck.model, num_steps=refuted
                            )
                            best = self._keep_best(
                                best,
                                PebblingStrategy(
                                    self.dag,
                                    configurations,
                                    max_moves_per_step=(
                                        self.options.max_moves_per_step
                                    ),
                                ),
                            )
                            board.publish_refuted(refuted)
                            if best is not None:
                                board.publish_sat(best.num_steps)
                                if token is not None:
                                    view = board.poll()
                                    if (
                                        view.known_sat is not None
                                        and view.refuted is not None
                                        and view.refuted >= view.known_sat - 1
                                    ):
                                        token.cancel()
                            # The lane's own cube stays refuted through
                            # ``refuted``; with the adopted witness there
                            # too, the cursor closes unless the bracket
                            # still has room below.
                            bound = cursor.advance_core(False, refuted)
                            if bound is not None:
                                bound = cursor.observe(known_sat=refuted)
                            continue
                        if not recheck.is_unknown:
                            core_used_cube = False
                # Every guard at or below the refuted bound will never be
                # assumed again.  Asserting the negations as units lets the
                # solver simplify the stale final-configuration clauses away
                # at level 0 instead of dragging them through every later
                # propagation.
                for step in sorted(guard_of_bound):
                    if step <= refuted and step not in negated:
                        solver.add_clause([-guard_of_bound[step]])
                        negated.add(step)
                if board is not None:
                    # Valid under this lane's assumptions; the channel
                    # routes it to the per-cube row — or straight to the
                    # global row when the UNSAT core used no cube literal
                    # (the proof never touched the split, so it holds for
                    # the unsplit instance and every sibling can skip the
                    # bound instead of re-proving it).
                    board.publish_refuted(
                        refuted, assumption_free=not core_used_cube
                    )
                bound = cursor.advance_core(False, refuted)
        result.strategy = best
        result.complete = True
        if best is not None:
            return PebblingOutcome.SOLUTION
        return PebblingOutcome.STEP_LIMIT

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
        step_increment: int | None = None,
        step_schedule: str | None = None,
        strategy: SearchStrategy | str | None = None,
        stop_after_failures: int = 1,
        warm_start: bool = True,
        store=None,
        cubes=None,
        cube_jobs: int = 1,
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

        ``cubes`` / ``cube_jobs`` switch every per-budget step search to
        cube-and-conquer (see :meth:`solve`); the scan itself stays
        sequential over budgets, so the parallelism lands exactly on the
        hard per-budget searches the Table I methodology times out on.

        Returns ``(best_result, all_results)``.
        """
        # Resolve (and validate) the search schedule once for the whole scan.
        search = resolve_search_strategy(
            strategy, step_schedule=step_schedule, step_increment=step_increment
        )
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
            best = PebblingResult(
                self.dag.name,
                upper_bound,
                PebblingOutcome.SOLUTION,
                strategy=baseline,
                weighted=self.options.weighted,
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
                cubes=cubes,
                cube_jobs=cube_jobs,
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
