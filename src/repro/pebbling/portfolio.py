"""Parallel portfolio orchestration of pebbling searches.

The paper's evaluation is dominated by *sweeps*: Table I scans pebble
budgets per workload, Fig. 5 scans budgets per program, and any serious
batch run scans many workloads.  Every point of such a sweep is an
independent SAT search, so this module fans them out across a
:class:`concurrent.futures.ProcessPoolExecutor` (pure-Python SAT solving is
CPU-bound, so processes — not threads — are required to actually use more
than one core).

Design rules:

* **Tasks are plain data.**  A :class:`PortfolioTask` is a frozen,
  picklable description (workload *name*, not a DAG object); each worker
  rebuilds its DAG from the registry, which keeps inter-process traffic to
  a few hundred bytes per task.
* **Per-worker time budgets.**  Every task carries its own ``time_limit``
  which bounds the SAT search inside the worker, mirroring the paper's
  per-instance 2-minute budget.
* **Deterministic merging.**  Results are returned in task-submission
  order regardless of completion order, and a worker crash is captured as
  an ``error`` record instead of poisoning the whole sweep, so ``--jobs 1``
  and ``--jobs N`` produce identical reports (modulo runtimes).
"""

from __future__ import annotations

import os
import random
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import PebblingError
from repro.fields import check_fields
from repro.obs import metrics as _metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import merge_counters
from repro.obs.trace import TraceContext
from repro.pebbling.encoding import DEFAULT_CARDINALITY, EncodingOptions
from repro.pebbling.search import strategy_from_name
from repro.pebbling.solver import ReversiblePebblingSolver
from repro.sat.backend import DEFAULT_BACKEND, set_chaos_scope
from repro.sat.cards import CardinalityEncoding
from repro.workloads.registry import (
    BatchEntry,
    format_task_name,
    load_workload_or_path,
    suite_entries,
)

if TYPE_CHECKING:
    from repro.store import ResultStore


@dataclass(frozen=True)
class PortfolioTask:
    """One pebbling search of a sweep, as picklable plain data.

    ``backend`` is an incremental-SAT backend *spec string* from the
    registry in :mod:`repro.sat.backend` — never a class or factory
    callable.  Specs survive pickling into pool workers unchanged; an
    unknown or host-unavailable spec surfaces as an ``error`` record from
    the worker, it never silently falls back to the default engine.
    """

    workload: str
    pebbles: int
    scale: float = 1.0
    single_move: bool = False
    cardinality: str = DEFAULT_CARDINALITY.value
    schedule: str = "linear"
    step_increment: int = 1
    incremental: bool = True
    time_limit: float | None = 60.0
    max_steps: int | None = None
    initial_steps: int | None = None
    weighted: bool = False
    backend: str = DEFAULT_BACKEND
    #: Trace context shipped into the worker (see :mod:`repro.obs.trace`):
    #: the worker re-activates it so its spans parent under the portfolio
    #: run that submitted the task.  Excluded from equality/hash/repr, so
    #: tracing never changes task identity, dedup, or merge keys.
    trace: TraceContext | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str):
            # The historical trap: a callable solver factory pickles (or
            # fails to) into workers that then quietly solve with the
            # default engine.  Reject it loudly at construction time.
            raise PebblingError(
                "PortfolioTask.backend must be a registry backend spec "
                f"string (e.g. 'cdcl', 'dpll', 'external:<command>'), got "
                f"{self.backend!r}; solver classes/factories do not cross "
                "process boundaries"
            )
        # Every other field too: a mistyped one would otherwise raise
        # outside the per-attempt containment (formatting the task's name)
        # and fail every task of the run.
        check_fields(
            self, PebblingError, "a portfolio task's",
            strings=("workload", "cardinality", "schedule"),
            flags=("single_move", "incremental", "weighted"),
            counts=("pebbles", "step_increment", "max_steps", "initial_steps"),
            amounts=("scale", "time_limit"),
            nullable=("time_limit", "max_steps", "initial_steps"),
        )

    @property
    def name(self) -> str:
        """Stable display/merge key of the task (shared with BatchEntry).

        Deliberately backend-free, like the result store's addresses.
        """
        return format_task_name(
            self.workload,
            self.pebbles,
            single_move=self.single_move,
            scale=self.scale,
            weighted=self.weighted,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How a portfolio worker retries one failing task.

    Attempts are numbered from 0; before retry attempt ``n >= 1`` the
    worker sleeps :meth:`delay_before` seconds — exponential backoff with
    *deterministic* jitter (seeded by the task name and attempt number, so
    two runs of the same sweep replay the same delays and the test-suite
    can assert on them).  ``attempt_time_limit`` clamps each attempt's SAT
    budget; ``total_time_limit`` bounds the whole attempt sequence
    including backoff sleeps.  With ``retry_incomplete`` (default) a
    preempted search (timeout / spurious UNKNOWN) is retried too, not just
    hard errors — the best record across attempts is kept either way, so a
    partial answer is never *lost* to a later failed attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    attempt_time_limit: float | None = None
    total_time_limit: float | None = None
    retry_incomplete: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PebblingError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise PebblingError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise PebblingError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise PebblingError("jitter must be in [0, 1]")
        for name in ("attempt_time_limit", "total_time_limit"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise PebblingError(f"{name} must be > 0 (or None)")

    def delay_before(self, attempt: int, key: str = "") -> float:
        """Backoff sleep (seconds) before retry ``attempt`` (``>= 1``).

        Deterministic in ``(key, attempt)`` and monotone non-decreasing in
        ``attempt`` *by construction*: each attempt's jittered exponential
        delay is folded through a running maximum, so the clamp to
        ``max_delay`` plus an unlucky jitter draw can never make attempt
        ``n + 1`` wait less than attempt ``n``.
        """
        if attempt <= 0:
            return 0.0
        delay = 0.0
        for step in range(1, attempt + 1):
            raw = min(
                self.max_delay,
                self.base_delay * self.backoff_factor ** (step - 1),
            )
            draw = random.Random(f"retry|{key}|{step}").random()
            delay = max(delay, raw * (1.0 + self.jitter * draw))
        return delay


@dataclass
class PortfolioHealth:
    """Mutable fault-tolerance counters of one :func:`run_portfolio` call.

    Pass an instance via ``run_portfolio(..., health=...)`` to collect how
    hard the run had to fight: how often the process pool broke and was
    rebuilt, how many tasks needed retries, and the total retry attempts
    spent.  The service layer aggregates these into its health snapshot.
    """

    pool_rebuilds: int = 0
    retried_tasks: int = 0
    retry_attempts: int = 0

    def absorb_records(self, records: "Sequence[PortfolioRecord]") -> None:
        for record in records:
            if record.retries:
                self.retried_tasks += 1
                self.retry_attempts += record.retries

    def as_dict(self) -> dict[str, int]:
        return {
            "pool_rebuilds": self.pool_rebuilds,
            "retried_tasks": self.retried_tasks,
            "retry_attempts": self.retry_attempts,
        }


@dataclass
class PortfolioRecord:
    """The merged result of one portfolio task.

    ``backend`` names the engine that *produced* the payload, resolved
    (bare ``cdcl`` reads ``cdcl:native=1`` or ``cdcl:native=0``; for a
    cache-served task: the original producer).
    """

    task: PortfolioTask
    outcome: str
    steps: int | None = None
    moves: int | None = None
    pebbles_used: int | None = None
    weight_used: float | None = None
    runtime: float = 0.0
    sat_calls: int = 0
    configurations: list[list[str]] | None = None
    error: str | None = None
    complete: bool = False
    backend: str | None = None
    #: Full worker-side traceback of an ``error`` record (``None`` for
    #: successful tasks) — without it a remote failure is one opaque line.
    traceback: str | None = None
    #: Anytime snapshot of an incomplete search (see
    #: :attr:`repro.pebbling.solver.PebblingResult.partial`).
    partial: dict[str, object] | None = None
    #: A ``step-limit`` answer that proves the budget infeasible (see
    #: :attr:`repro.pebbling.solver.PebblingResult.proved_infeasible`).
    proved_infeasible: bool = False
    #: Retry attempts this record consumed beyond the first try.
    retries: int = 0
    #: Solver counters aggregated across *every* SAT call this record paid
    #: for, over all retry attempts (``None`` when no attempt reported
    #: counters).
    counters: dict[str, float] | None = None
    #: Per-attempt breakdown ``[{attempt, outcome, sat_calls, counters},
    #: ...]`` preserved when a task needed more than one attempt.
    attempt_stats: list[dict[str, object]] | None = None

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def found(self) -> bool:
        return self.outcome == "solution"

    def as_dict(self) -> dict[str, object]:
        """Plain-dictionary row used by the CLI table and benchmark report."""
        row: dict[str, object] = {
            "name": self.name,
            "workload": self.task.workload,
            "pebbles": self.task.pebbles,
            "outcome": self.outcome,
            "steps": self.steps,
            "moves": self.moves,
            "pebbles_used": self.pebbles_used,
            "weight_used": self.weight_used,
            "runtime": round(self.runtime, 3),
            "sat_calls": self.sat_calls,
            "error": self.error,
            "complete": self.complete,
            "backend": self.backend,
            "traceback": self.traceback,
            "partial": self.partial,
            "proved_infeasible": self.proved_infeasible,
            "retries": self.retries,
        }
        if self.counters is not None:
            row["counters"] = self.counters
        if self.attempt_stats is not None:
            row["attempt_stats"] = self.attempt_stats
        return row


#: Per-process cache of open result stores, keyed by database path: a pool
#: worker executes many tasks, and reopening SQLite (plus re-fingerprinting
#: through a cold connection) per task would waste the cache's win.
_WORKER_STORES: dict[str, object] = {}
_WORKER_STORES_PID: int | None = None


def _resolve_store(store: object):
    """Accept ``None``, a database path, or an open ``ResultStore``.

    Paths are what crosses process boundaries (stores do not pickle); each
    worker process opens its own connection once and reuses it.  The cache
    is owned by one PID: a forked pool worker inherits the parent's dict,
    and using an SQLite connection across ``fork`` is forbidden (shared
    file descriptors break the WAL locking protocol), so a PID change
    drops the inherited entries and opens fresh connections.
    """
    if store is None or not isinstance(store, str):
        return store
    global _WORKER_STORES_PID
    pid = os.getpid()
    if pid != _WORKER_STORES_PID:
        _WORKER_STORES.clear()
        _WORKER_STORES_PID = pid
    opened = _WORKER_STORES.get(store)
    if opened is None:
        from repro.store import ResultStore

        opened = _WORKER_STORES[store] = ResultStore(store)
    return opened


def _usable_cores() -> int:
    """Cores this process may actually schedule on (affinity-aware)."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:  # pragma: no cover — macOS/Windows fallback
        count = os.cpu_count()
    return count or 1


def task_solve_parameters(task: PortfolioTask) -> dict[str, object]:
    """The exact keyword surface a task hands to ``solve`` (minus store).

    Shared with the async service layer so a service-side cache probe for
    a task builds the *same* content address the worker would.
    """
    options = EncodingOptions(
        cardinality=CardinalityEncoding.from_name(task.cardinality),
        max_moves_per_step=1 if task.single_move else None,
        weighted=task.weighted,
    )
    # strategy_from_name validates the combination — a non-linear
    # schedule with a non-default step_increment becomes an error
    # record, never a silently ignored parameter.
    search = strategy_from_name(task.schedule, step_increment=task.step_increment)
    return {
        "budget": task.pebbles,
        "options": options,
        "search": search,
        "incremental": task.incremental,
        "initial_steps": task.initial_steps,
        "max_steps": task.max_steps,
        "step_floor": None,
    }


#: Counter keys derived from the wall clock rather than from solver work.
#: Records must stay byte-identical for identical (task, chaos seed, policy)
#: triples modulo the stripped ``runtime`` field, so timing floats never
#: enter ``PortfolioRecord.counters``; wall time is reported via ``runtime``.
_WALL_CLOCK_COUNTERS = frozenset({"solve_time"})


def _deterministic_counters(stats) -> dict[str, float]:
    """``stats`` without wall-clock keys (incl. ``time_<phase>`` profiles)."""
    if not stats:
        return {}
    return {
        key: value
        for key, value in stats.items()
        if key not in _WALL_CLOCK_COUNTERS and not key.startswith("time_")
    }


def record_from_result(task: PortfolioTask, result) -> PortfolioRecord:
    """Fold a :class:`~repro.pebbling.solver.PebblingResult` into a record."""
    counters: dict[str, float] = {}
    for attempt in result.attempts:
        merge_counters(counters, _deterministic_counters(attempt.solver_stats))
    record = PortfolioRecord(
        task=task,
        outcome=result.outcome.value,
        steps=result.num_steps,
        moves=result.num_moves,
        runtime=result.runtime,
        sat_calls=len(result.attempts),
        complete=result.complete,
        backend=result.backend,
        partial=result.partial,
        proved_infeasible=result.proved_infeasible,
        counters=counters or None,
    )
    if result.strategy is not None:
        record.pebbles_used = result.strategy.max_pebbles
        record.weight_used = result.strategy.max_weight
        record.configurations = [
            sorted(str(node) for node in configuration)
            for configuration in result.strategy.configurations
        ]
    return record


def _attempt_task(
    task: PortfolioTask,
    store: object,
    attempt: int,
    epoch: int,
    time_limit: float | None,
) -> PortfolioRecord:
    """One attempt of one task; never raises, always returns a record."""
    set_chaos_scope(task.name, attempt=attempt, epoch=epoch)
    try:
        dag = load_workload_or_path(task.workload, scale=task.scale)
        parameters = task_solve_parameters(task)
        solver = ReversiblePebblingSolver(
            dag,
            options=parameters["options"],
            incremental=task.incremental,
            backend=task.backend,
        )
        result = solver.solve(
            task.pebbles,
            strategy=parameters["search"],
            time_limit=time_limit,
            max_steps=task.max_steps,
            initial_steps=task.initial_steps,
            store=_resolve_store(store),
        )
    except Exception as error:  # noqa: BLE001 — a crashed task must not kill the sweep
        return PortfolioRecord(
            task=task,
            outcome="error",
            error=str(error),
            traceback=traceback_module.format_exc(),
        )
    return record_from_result(task, result)


def _record_rank(record: PortfolioRecord) -> tuple[int, int, int]:
    """Lower is better: errors < incomplete < no-solution, in that order."""
    return (
        1 if record.outcome == "error" else 0,
        0 if record.complete else 1,
        0 if record.found else 1,
    )


def _execute_task(
    task: PortfolioTask,
    store: object = None,
    retry: "RetryPolicy | None" = None,
    epoch: int = 0,
) -> PortfolioRecord:
    """Run one task — retrying per ``retry`` — inside a worker process.

    ``store`` is ``None``, a database path (what the process pool ships) or
    an open :class:`~repro.store.ResultStore` (inline execution).  ``epoch``
    counts pool rebuilds; it feeds the chaos scope so resubmitted work does
    not replay the fault that killed its first pool.

    The *best* record across attempts wins (complete beats incomplete
    beats error, latest on ties), and it reports the retries consumed —
    a transient failure is healed invisibly, a persistent one still ends
    as an ``error`` record with the last traceback attached.  Counters of
    *every* attempt (not just the winning one) are merged into the
    returned record, with the per-attempt breakdown in ``attempt_stats``
    when more than one attempt ran.
    """
    with obs_trace.activated(task.trace):
        record = _execute_attempts(task, store, retry, epoch)
    if isinstance(store, str):
        # A worker's store stays open for the process's life, so the uses
        # its reads noted are written before the task hands back.
        _resolve_store(store).write_uses()
    return record


def _execute_attempts(
    task: PortfolioTask,
    store: object,
    retry: "RetryPolicy | None",
    epoch: int,
) -> PortfolioRecord:
    policy = retry if retry is not None else RetryPolicy(max_attempts=1)
    started = time.monotonic()
    best: PortfolioRecord | None = None
    attempted: list[PortfolioRecord] = []
    attempts_used = 0
    for attempt in range(policy.max_attempts):
        if attempt:
            delay = policy.delay_before(attempt, key=task.name)
            if policy.total_time_limit is not None:
                budget_left = policy.total_time_limit - (time.monotonic() - started)
                if budget_left <= delay:
                    break  # the sleep alone would blow the total budget
            obs_trace.event(
                "task.retry", task=task.name, attempt=attempt, delay=round(delay, 4)
            )
            _metrics.counter("repro_retries_total").inc()
            time.sleep(delay)
        time_limit = task.time_limit
        if policy.attempt_time_limit is not None:
            time_limit = (
                policy.attempt_time_limit
                if time_limit is None
                else min(time_limit, policy.attempt_time_limit)
            )
        if policy.total_time_limit is not None:
            remaining = policy.total_time_limit - (time.monotonic() - started)
            if remaining <= 0:
                break
            time_limit = remaining if time_limit is None else min(time_limit, remaining)
        with obs_trace.span(
            "task.attempt",
            task=task.name,
            attempt=attempt,
            backend=task.backend,
            epoch=epoch,
        ) as attempt_span:
            record = _attempt_task(task, store, attempt, epoch, time_limit)
            attempt_span.set(outcome=record.outcome, sat_calls=record.sat_calls)
        attempted.append(record)
        attempts_used = attempt + 1
        if best is None or _record_rank(record) <= _record_rank(best):
            best = record
        if record.outcome != "error" and (
            record.complete or not policy.retry_incomplete
        ):
            break
    if best is None:  # total_time_limit left no room for even one attempt
        best = PortfolioRecord(
            task=task,
            outcome="error",
            error="retry policy's total_time_limit expired before any attempt",
        )
    best.retries = max(0, attempts_used - 1)
    if len(attempted) > 1:
        # The losing attempts' solver work used to vanish with their
        # records; fold every attempt's counters into the survivor and
        # keep the per-attempt breakdown alongside.
        merged: dict[str, float] = {}
        for record in attempted:
            merge_counters(merged, record.counters)
        best.counters = merged or None
        best.attempt_stats = [
            {
                "attempt": index,
                "outcome": record.outcome,
                "sat_calls": record.sat_calls,
                "counters": record.counters,
            }
            for index, record in enumerate(attempted)
        ]
    return best


def run_portfolio(
    tasks: Iterable[PortfolioTask],
    *,
    jobs: int = 1,
    store_path: str | None = None,
    store: "ResultStore | None" = None,
    force_pool: bool = False,
    retry: "RetryPolicy | None" = None,
    health: "PortfolioHealth | None" = None,
    pool_rebuild_limit: int = 2,
) -> list[PortfolioRecord]:
    """Run every task, ``jobs`` at a time, and merge deterministically.

    The process pool is only spun up when it can actually help: with
    ``jobs == 1``, a single task, or a host that exposes **one usable
    core** (CPU affinity included), the tasks run inline — CPU-bound SAT
    searches cannot overlap on one core, so the pool would only add its
    pickling/fork overhead (the ``x0.87`` jobs-1 regression recorded in
    BENCH_2).  ``force_pool`` overrides the fallback for parity tests and
    pool-overhead measurements.  Either way the returned list is ordered
    like ``tasks``.

    ``store_path`` opts every task into a shared
    :class:`~repro.store.ResultStore` at that database path; each worker
    process opens its own connection (SQLite WAL handles the concurrency),
    answers exact repeats from the cache and warm-starts neighbouring
    budgets.  ``store`` passes an open store instead: inline tasks use it
    directly, so its owner holds the process's only connection and closes
    it, and pool workers open their own to its file (an in-memory store is
    invisible to them, so they run uncached).

    ``retry`` applies a :class:`RetryPolicy` inside every worker (transient
    faults heal without resubmission traffic); ``health`` collects
    fault-tolerance counters into a caller-owned :class:`PortfolioHealth`.
    A worker process dying outright (OOM-kill, segfault, a chaos ``exit``
    fault) breaks the *whole* pool — every unfinished task is resubmitted
    to a fresh pool, at most ``pool_rebuild_limit`` times, before the
    remainder degrades to ``error`` records; finished results are never
    recomputed.
    """
    task_list = list(tasks)
    if jobs < 1:
        raise PebblingError("jobs must be >= 1")
    if pool_rebuild_limit < 0:
        raise PebblingError("pool_rebuild_limit must be >= 0")
    if store is not None and store_path is not None:
        raise PebblingError("pass an open store or a store_path, not both")
    if not task_list:
        return []
    with obs_trace.span("portfolio.run", tasks=len(task_list), jobs=jobs) as run_span:
        records = _run_portfolio_tasks(
            task_list,
            jobs=jobs,
            store_path=store_path,
            store=store,
            force_pool=force_pool,
            retry=retry,
            health=health,
            pool_rebuild_limit=pool_rebuild_limit,
        )
        run_span.set(
            solved=sum(1 for record in records if record.found),
            errors=sum(1 for record in records if record.outcome == "error"),
        )
    _metrics.counter("repro_portfolio_tasks_total").inc(len(records))
    for record in records:
        if record.outcome == "error":
            _metrics.counter("repro_portfolio_errors_total").inc()
        if record.retries:
            _metrics.counter("repro_portfolio_retried_tasks_total").inc()
        _metrics.counter("repro_portfolio_sat_calls_total").inc(record.sat_calls)
        _metrics.registry().absorb_counters(record.counters)
    return records


def _run_portfolio_tasks(
    task_list: list[PortfolioTask],
    *,
    jobs: int,
    store_path: str | None,
    store: "ResultStore | None",
    force_pool: bool,
    retry: "RetryPolicy | None",
    health: "PortfolioHealth | None",
    pool_rebuild_limit: int,
) -> list[PortfolioRecord]:
    """Validated body of :func:`run_portfolio` (runs inside its span)."""
    ctx = obs_trace.current_context()
    if ctx is not None:
        # Every task carries the trace context so worker-side spans parent
        # under this portfolio run regardless of process boundaries.  A
        # task that already has one (the service stamps its own request
        # span) keeps it — per-request parentage beats per-batch.
        task_list = [
            task if task.trace is not None else replace(task, trace=ctx)
            for task in task_list
        ]
    inline = jobs == 1 or len(task_list) <= 1 or _usable_cores() <= 1
    if inline and not force_pool:
        local = store if store is not None else store_path
        records = [_execute_task(task, local, retry, 0) for task in task_list]
        if health is not None:
            health.absorb_records(records)
        return records
    if store is not None and store.path != ":memory:":
        store_path = store.path
    results: dict[int, PortfolioRecord] = {}
    pending = list(enumerate(task_list))
    epoch = 0
    while pending:
        unfinished: list[tuple[int, PortfolioTask]] = []
        pool_broke = False
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            submitted = {
                pool.submit(_execute_task, task, store_path, retry, epoch): (index, task)
                for index, task in pending
            }
            for future, (index, task) in submitted.items():
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    # The pool is gone; this task (and every sibling that
                    # had not finished) must be resubmitted to a new one.
                    pool_broke = True
                    unfinished.append((index, task))
                except Exception as error:  # noqa: BLE001 — e.g. an unpicklable result
                    results[index] = PortfolioRecord(
                        task=task,
                        outcome="error",
                        error=str(error),
                        traceback=traceback_module.format_exc(),
                    )
        if pool_broke:
            if epoch >= pool_rebuild_limit:
                for index, task in unfinished:
                    results[index] = PortfolioRecord(
                        task=task,
                        outcome="error",
                        error=(
                            "worker process pool broke "
                            f"{epoch + 1} times (rebuild limit "
                            f"{pool_rebuild_limit}); task abandoned"
                        ),
                    )
                unfinished = []
            else:
                epoch += 1
                obs_trace.event(
                    "pool.rebuild", epoch=epoch, resubmitted=len(unfinished)
                )
                _metrics.counter("repro_pool_rebuilds_total").inc()
                if health is not None:
                    health.pool_rebuilds += 1
        pending = unfinished
    records = [results[index] for index in range(len(task_list))]
    if health is not None:
        health.absorb_records(records)
    return records


def tasks_from_suite(
    suite: str | Sequence[BatchEntry],
    *,
    time_limit: float | None = 60.0,
    schedule: str = "linear",
    cardinality: str = DEFAULT_CARDINALITY.value,
    step_increment: int = 1,
    incremental: bool = True,
    backend: str = DEFAULT_BACKEND,
) -> list[PortfolioTask]:
    """Turn a named batch suite (or explicit entries) into portfolio tasks."""
    entries = suite_entries(suite) if isinstance(suite, str) else list(suite)
    return [
        PortfolioTask(
            workload=entry.workload,
            pebbles=entry.pebbles,
            scale=entry.scale,
            single_move=entry.single_move,
            time_limit=time_limit,
            schedule=schedule,
            cardinality=cardinality,
            step_increment=step_increment,
            incremental=incremental,
            backend=backend,
        )
        for entry in entries
    ]


def budget_sweep_tasks(
    workload: str,
    budgets: Iterable[int],
    *,
    scale: float = 1.0,
    time_limit: float | None = 120.0,
    schedule: str = "linear",
    **task_kwargs,
) -> list[PortfolioTask]:
    """Tasks for a Table-I style budget sweep over one workload."""
    return [
        PortfolioTask(
            workload=workload,
            pebbles=budget,
            scale=scale,
            time_limit=time_limit,
            schedule=schedule,
            **task_kwargs,
        )
        for budget in budgets
    ]


@dataclass
class SweepResult:
    """Outcome of a parallel Table-I budget sweep."""

    workload: str
    best: PortfolioRecord | None
    records: list[PortfolioRecord] = field(default_factory=list)

    @property
    def minimum_pebbles(self) -> int | None:
        return self.best.task.pebbles if self.best is not None else None


def minimize_pebbles_portfolio(
    workload: str,
    *,
    scale: float = 1.0,
    jobs: int = 1,
    timeout_per_budget: float | None = 120.0,
    lower_bound: int | None = None,
    upper_bound: int | None = None,
    schedule: str = "linear",
    store_path: str | None = None,
    **task_kwargs,
) -> SweepResult:
    """Parallel version of the Table-I outer loop.

    Instead of scanning budgets one at a time (stopping after the first
    failure), every budget of ``[lower_bound, upper_bound]`` (inclusive —
    the eager-Bennett upper bound is the guaranteed-feasible anchor) becomes
    an independent task with its own per-budget timeout, the tasks run
    ``jobs``-wide, and the smallest budget with a solution wins.  The
    sequential scan's early-exit saves *work*; the portfolio saves
    *wall-clock* — the right trade once cores are available.
    """
    dag = load_workload_or_path(workload, scale=scale)
    probe = ReversiblePebblingSolver(dag)
    if lower_bound is None:
        lower_bound = probe.minimum_pebbles_lower_bound()
    if upper_bound is None:
        from repro.pebbling.bennett import eager_bennett_strategy

        upper_bound = eager_bennett_strategy(dag).max_pebbles
    if upper_bound < lower_bound:
        upper_bound = lower_bound
    tasks = budget_sweep_tasks(
        workload,
        range(lower_bound, upper_bound + 1),
        scale=scale,
        time_limit=timeout_per_budget,
        schedule=schedule,
        **task_kwargs,
    )
    records = run_portfolio(tasks, jobs=jobs, store_path=store_path)
    best = None
    for record in records:  # ascending budgets: first solution is minimal
        if record.found:
            best = record
            break
    return SweepResult(workload=workload, best=best, records=records)
