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
* **One time budget per task.**  Every task carries its own
  ``time_limit``, mirroring the paper's per-instance 2-minute budget; it
  bounds the task's whole run inside the worker, retries and the backoff
  sleeps between them included.
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
    time_limit: float | None = 60.0
    max_steps: int | None = None
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
            flags=("single_move", "weighted"),
            counts=("pebbles", "step_increment", "max_steps"),
            amounts=("scale", "time_limit"),
            nullable=("time_limit", "max_steps"),
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


#: Growth of the backoff delay from one retry to the next.
BACKOFF_FACTOR = 2.0
#: The largest share of a delay that its keyed jitter draw adds.
JITTER = 0.1
#: Times a broken process pool is rebuilt for the unfinished tasks of one
#: :func:`run_portfolio` call before they are abandoned as errors.
POOL_REBUILD_LIMIT = 2


@dataclass(frozen=True)
class RetryPolicy:
    """How a portfolio worker retries one failing task.

    A task gets up to ``max_attempts`` attempts, all within its own
    ``time_limit``: each attempt is given what is left of it, and retrying
    stops when the next backoff sleep would not fit in what is left.  A
    failed attempt (an error) or a preempted one (a spurious UNKNOWN) is
    retried; a search that used its whole time limit is not, since a
    retry would start with no time left.  The best record across attempts
    is kept, so a partial answer is never *lost* to a later failed attempt.

    Attempts are numbered from 0; before retry attempt ``n >= 1`` the
    worker sleeps :meth:`delay_before` seconds — exponential backoff from
    ``base_delay``, capped at ``max_delay``, with *deterministic* jitter
    (seeded by the task name and attempt number, so two runs of the same
    sweep replay the same delays and the test-suite can assert on them).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PebblingError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise PebblingError("backoff delays must be >= 0")

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
            raw = min(self.max_delay, self.base_delay * BACKOFF_FACTOR ** (step - 1))
            draw = random.Random(f"retry|{key}|{step}").random()
            delay = max(delay, raw * (1.0 + JITTER * draw))
        return delay


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
    #: ``True`` when the result store answered the task.  ``sat_calls`` and
    #: ``counters`` then repeat the stored run's work, which this run did
    #: not do; left out of :meth:`as_dict`, so a hit's row is unchanged.
    from_cache: bool = False

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
    a task builds the *same* content address the worker would.  A task
    always runs the incremental oracle from the structural step floor.
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
        "incremental": True,
        "initial_steps": None,
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
    counters = _deterministic_counters(result.counters)
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
        from_cache=result.from_cache,
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
            dag, options=parameters["options"], backend=task.backend
        )
        result = solver.solve(
            task.pebbles,
            strategy=parameters["search"],
            time_limit=time_limit,
            max_steps=task.max_steps,
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

    Every attempt, and every backoff sleep between two, comes out of the
    task's one ``time_limit`` (see :class:`RetryPolicy`).  The *best*
    record across attempts wins (complete beats incomplete beats error,
    latest on ties), and it reports the retries consumed — a transient
    failure is healed invisibly, a persistent one still ends as an
    ``error`` record with the last traceback attached.  Counters of
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
    attempted: list[PortfolioRecord] = []
    for attempt in range(policy.max_attempts):
        time_limit = task.time_limit
        if attempt:
            delay = policy.delay_before(attempt, key=task.name)
            if time_limit is not None:
                # What the task's limit leaves once the sleep is over.
                time_limit -= time.monotonic() - started + delay
                if time_limit <= 0:
                    break
            obs_trace.event(
                "task.retry", task=task.name, attempt=attempt, delay=round(delay, 4)
            )
            time.sleep(delay)
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
        if record.outcome != "error" and record.complete:
            break
    # The latest of the best-ranked attempts wins.
    best = min(reversed(attempted), key=_record_rank)
    best.retries = len(attempted) - 1
    if len(attempted) > 1:
        # Keep each attempt's own counters in the breakdown, then fold
        # every attempt's work into the survivor's.
        best.attempt_stats = [
            {
                "attempt": index,
                "outcome": record.outcome,
                "sat_calls": record.sat_calls,
                "counters": record.counters,
            }
            for index, record in enumerate(attempted)
        ]
        merged: dict[str, float] = {}
        for record in attempted:
            merge_counters(merged, record.counters)
        best.counters = merged or None
    return best


def run_portfolio(
    tasks: Iterable[PortfolioTask],
    *,
    jobs: int = 1,
    store: "ResultStore | str | None" = None,
    force_pool: bool = False,
    retry: "RetryPolicy | None" = None,
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

    ``store`` opts every task into a shared
    :class:`~repro.store.ResultStore`: ``None`` (no caching), a database
    path, or an open store.  Tasks answer exact repeats from the cache and
    warm-start neighbouring budgets.  Inline tasks use an open store
    directly, so its owner holds the process's only connection and closes
    it; pool workers open their own connection to the store's file (SQLite
    WAL handles the concurrency; an in-memory store is invisible to them,
    so they run uncached).

    ``retry`` applies a :class:`RetryPolicy` inside every worker (transient
    faults heal without resubmission traffic), within each task's own
    ``time_limit``; each record's retries are counted in the calling
    process, as ``repro_retries_total``, whichever process ran its task.
    So are a pool worker's SAT calls, as ``repro_sat_calls_total``, which
    an inline search counts itself; ``repro_sat_call_seconds`` stays with
    the process that made the calls.
    A task the store answered adds nothing to the SAT-call and solver
    counters: its record repeats the stored run's work.
    A worker process dying outright (OOM-kill, segfault, a chaos ``exit``
    fault) breaks the *whole* pool — every unfinished task is resubmitted
    to a fresh pool, at most :data:`POOL_REBUILD_LIMIT` times, before the
    remainder degrades to ``error`` records; finished results are never
    recomputed.
    """
    task_list = list(tasks)
    if jobs < 1:
        raise PebblingError("jobs must be >= 1")
    if not task_list:
        return []
    with obs_trace.span("portfolio.run", tasks=len(task_list), jobs=jobs) as run_span:
        records = _run_portfolio_tasks(
            task_list, jobs=jobs, store=store, force_pool=force_pool, retry=retry
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
            _metrics.counter("repro_retries_total").inc(record.retries)
        if not record.from_cache:
            _metrics.counter("repro_portfolio_sat_calls_total").inc(record.sat_calls)
            _metrics.registry().absorb_counters(record.counters)
    return records


def _run_portfolio_tasks(
    task_list: list[PortfolioTask],
    *,
    jobs: int,
    store: "ResultStore | str | None",
    force_pool: bool,
    retry: "RetryPolicy | None",
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
        return [_execute_task(task, store, retry, 0) for task in task_list]
    store_path = store if store is None or isinstance(store, str) else store.path
    if store_path == ":memory:":
        store_path = None  # pool workers cannot see an in-memory store
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
                else:
                    _metrics.counter("repro_sat_calls_total").inc(
                        _worker_sat_calls(results[index])
                    )
        if pool_broke:
            if epoch >= POOL_REBUILD_LIMIT:
                for index, task in unfinished:
                    results[index] = PortfolioRecord(
                        task=task,
                        outcome="error",
                        error=(
                            "worker process pool broke "
                            f"{epoch + 1} times (rebuild limit "
                            f"{POOL_REBUILD_LIMIT}); task abandoned"
                        ),
                    )
                unfinished = []
            else:
                epoch += 1
                obs_trace.event(
                    "pool.rebuild", epoch=epoch, resubmitted=len(unfinished)
                )
                _metrics.counter("repro_pool_rebuilds_total").inc()
        pending = unfinished
    return [results[index] for index in range(len(task_list))]


def _worker_sat_calls(record: PortfolioRecord) -> int:
    """The SAT calls a pool worker made for ``record``, retries included.

    A store answer made none.
    """
    if record.from_cache:
        return 0
    if record.attempt_stats is None:
        return record.sat_calls
    return sum(int(attempt["sat_calls"]) for attempt in record.attempt_stats)


def tasks_from_suite(
    suite: str | Sequence[BatchEntry],
    *,
    time_limit: float | None = 60.0,
    schedule: str = "linear",
    cardinality: str = DEFAULT_CARDINALITY.value,
    step_increment: int = 1,
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
            backend=backend,
        )
        for entry in entries
    ]
