"""Asynchronous pebbling service: dedup, batching, cache-first answering.

:class:`PebblingService` is the serving layer the ROADMAP's north star
asks for: an :mod:`asyncio` front door that accepts pebble / compile /
sweep requests and drives them through the existing layers with three
amortisation tricks stacked on top of each other:

* **in-flight deduplication** — two identical requests submitted while the
  first is still running share one future (and therefore one solve);
* **cache-first answering** — with a :class:`~repro.store.ResultStore`
  attached, an exact repeat of a previously *completed* request is
  answered straight from the database without touching a SAT solver;
* **request batching** — when the dispatcher wakes it takes everything
  already queued as one batch, without waiting for more, answers its
  hits from the store and runs its misses inline, in the batch thread
  (:func:`repro.pebbling.portfolio.run_portfolio`); requests that arrive
  while a batch runs form the next one, so a lone request never waits
  on a timer.

Requests are plain frozen dataclasses (:class:`JobRequest`), so the whole
service is drivable from JSON: :func:`run_request_file` powers the CLI's
``serve --json requests.json`` mode and doubles as the programmatic batch
entry point.  A ``sweep`` request expands into per-budget ``pebble``
sub-requests *through the same submit path*, which means two overlapping
sweeps deduplicate their shared budgets and fill the same cache.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.fields import check_fields
from repro.circuits.pipeline import compile_dag
from repro.obs import metrics as _metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext
from repro.pebbling.portfolio import (
    PortfolioTask,
    RetryPolicy,
    record_from_result,
    run_portfolio,
    task_solve_parameters,
)
from repro.pebbling.encoding import DEFAULT_CARDINALITY, EncodingOptions
from repro.pebbling.solver import ReversiblePebblingSolver
from repro.sat.backend import DEFAULT_BACKEND, backend_fallback_reason, resolve_backend
from repro.store.store import ResultStore
from repro.workloads.registry import load_workload_network, load_workload_or_path


class ServiceError(ReproError):
    """Raised for malformed service requests or misuse of the scheduler."""


class ServiceOverloadError(ServiceError):
    """Raised by :meth:`PebblingService.submit` when admission control sheds.

    A bounded service under overload must fail *fast and loud* at the
    door, not queue unboundedly and time every request out; callers can
    catch exactly this class to retry elsewhere/later.
    :meth:`PebblingService.run` converts sheds into per-request error
    results so a gathered batch degrades instead of raising.
    """


#: Request fields by JSON type, checked by :meth:`JobRequest.validate`
#: (:func:`~repro.fields.check_fields`): counts are integers >= 1, amounts
#: finite numbers > 0, and only the fields in ``_NULLABLE_FIELDS`` may be
#: null.
_STRING_FIELDS = ("kind", "workload", "cardinality", "schedule", "backend")
_BOOL_FIELDS = ("single_move", "weighted", "decompose", "verify")
_COUNT_FIELDS = ("budget", "min_budget", "max_budget", "step_increment", "max_steps")
_AMOUNT_FIELDS = ("scale", "time_limit", "deadline")
_NULLABLE_FIELDS = frozenset(
    {"budget", "min_budget", "max_budget", "max_steps", "time_limit", "deadline"}
)


@dataclass(frozen=True)
class JobRequest:
    """One unit of service traffic, as hashable plain data.

    ``kind`` selects the pipeline: ``"pebble"`` (SAT pebbling search,
    needs ``budget``), ``"compile"`` (end-to-end compilation, needs
    ``budget``) or ``"sweep"`` (one pebble search per budget of
    ``[min_budget, max_budget]``; both default to the workload's feasible
    range).  Identical requests — field-for-field — deduplicate in flight
    and share cache entries.
    """

    kind: str = "pebble"
    workload: str = ""
    budget: int | None = None
    min_budget: int | None = None
    max_budget: int | None = None
    scale: float = 1.0
    single_move: bool = False
    weighted: bool = False
    cardinality: str = DEFAULT_CARDINALITY.value
    schedule: str = "linear"
    step_increment: int = 1
    time_limit: float | None = 60.0
    max_steps: int | None = None
    decompose: bool = False
    verify: bool = True
    #: Incremental-SAT backend spec (see :mod:`repro.sat.backend`).  Part
    #: of request identity for dedup, but NOT of the store's content
    #: address — cached results transfer across backends and record their
    #: producer in metadata.
    backend: str = DEFAULT_BACKEND
    #: Per-request wall-clock budget in seconds, measured from submission.
    #: When it runs out the search is preempted *gracefully*: the SAT time
    #: limit is clamped to what is left, so the answer degrades to an
    #: anytime partial (checkpointed bounds + best witness) instead of an
    #: error.  ``None`` means no deadline.  Not part of the store's content
    #: address (a deadline is about the caller's patience, not the
    #: instance).
    deadline: float | None = None
    #: Trace context stamped by :meth:`PebblingService.submit` when tracing
    #: is active, so solver spans from the batch thread parent under this
    #: request's ``service.request`` span.  Excluded from equality/hash
    #: (dedup ignores it), from :meth:`as_dict` and from the JSON fields
    #: :meth:`from_dict` accepts — it is runtime plumbing, not request data.
    trace: TraceContext | None = field(default=None, compare=False, repr=False)

    def validate(self) -> None:
        """Check every field's type and range; raise :class:`ServiceError`.

        Requests arrive as parsed JSON, so a budget may be a string or a
        boolean; such a request must be refused here, at the door, rather
        than fail inside the solver (or worse, inside the batch it shares
        with well-formed siblings).
        """
        check_fields(
            self, ServiceError, "a request's",
            strings=_STRING_FIELDS, flags=_BOOL_FIELDS, counts=_COUNT_FIELDS,
            amounts=_AMOUNT_FIELDS, nullable=_NULLABLE_FIELDS,
        )
        if self.kind not in ("pebble", "compile", "sweep"):
            raise ServiceError(
                f"unknown request kind {self.kind!r}; "
                "expected 'pebble', 'compile' or 'sweep'"
            )
        if not self.backend.strip():
            raise ServiceError(
                "a request's backend must be a registry backend spec "
                f"string, got {self.backend!r}"
            )
        if not self.workload:
            raise ServiceError("a request needs a workload")
        if self.kind in ("pebble", "compile") and self.budget is None:
            raise ServiceError(f"a {self.kind!r} request needs a budget")
        if self.kind == "sweep" and self.budget is not None:
            raise ServiceError(
                "a 'sweep' request takes min_budget/max_budget, not budget"
            )
        if (
            self.min_budget is not None
            and self.max_budget is not None
            and self.max_budget < self.min_budget
        ):
            raise ServiceError("max_budget must be >= min_budget")

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "JobRequest":
        """Build a request from parsed JSON, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ServiceError(
                f"a request must be a JSON object, got {type(data).__name__}"
            )
        known = {entry.name for entry in fields(cls)} - {"trace"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown request fields {unknown}; valid fields: {sorted(known)}"
            )
        request = cls(**data)  # type: ignore[arg-type]
        request.validate()
        return request

    def as_dict(self) -> dict[str, object]:
        data = asdict(self)
        data.pop("trace", None)
        return data

    def to_task(self) -> PortfolioTask:
        """The portfolio task equivalent of a ``pebble`` request."""
        assert self.budget is not None
        return PortfolioTask(
            workload=self.workload,
            pebbles=self.budget,
            scale=self.scale,
            single_move=self.single_move,
            cardinality=self.cardinality,
            schedule=self.schedule,
            step_increment=self.step_increment,
            time_limit=self.time_limit,
            max_steps=self.max_steps,
            weighted=self.weighted,
            backend=self.backend,
            trace=self.trace,
        )


@dataclass
class JobResult:
    """The service's answer to one request."""

    request: JobRequest
    status: str  # "ok" | "error"
    source: str  # "cache" | "solver" | "aggregate"
    payload: dict[str, object] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, object]:
        return {
            "request": self.request.as_dict(),
            "status": self.status,
            "source": self.source,
            "payload": self.payload,
            "error": self.error,
        }


@dataclass
class ServiceStats:
    """Traffic counters of one service instance.

    :meth:`PebblingService._count` is the only writer: it adds to a field
    and to the field's process-wide counter in :data:`SERVICE_COUNTERS`
    at once.  The fields stay per service because the registry is per
    process: a second service in the same process starts from zero here
    while the registry keeps counting.
    """

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    solver_jobs: int = 0
    batches: int = 0
    expanded: int = 0  # sweep sub-requests spawned
    sheds: int = 0  # requests rejected by admission control
    preempted: int = 0  # deadline cut a search short (anytime answer)
    partial_answers: int = 0  # answers carrying an anytime partial snapshot
    retries: int = 0  # retry attempts its misses spent (via RetryPolicy)

    def as_dict(self) -> dict[str, int]:
        return dict(asdict(self))


#: The process-wide counter, and its help text, of each
#: :class:`ServiceStats` field.  ``retries`` has none of its own:
#: ``run_portfolio`` counts every retry as ``repro_retries_total``.
SERVICE_COUNTERS: dict[str, tuple[str, str]] = {
    "submitted": ("repro_service_requests_total", "Requests submitted to the service"),
    "completed": ("repro_service_completed_total", "Requests answered ok"),
    "errors": ("repro_service_errors_total", "Requests answered with an error"),
    "deduplicated": ("repro_service_dedup_total", "Requests served by in-flight dedup"),
    "cache_hits": ("repro_service_cache_hits_total", "Requests answered from the store"),
    "solver_jobs": ("repro_service_solver_jobs_total", "Batched misses sent to solvers"),
    "batches": ("repro_service_batches_total", "Dispatch rounds executed"),
    "expanded": ("repro_service_expanded_total", "Sweep sub-requests spawned"),
    "sheds": ("repro_service_sheds_total", "Requests shed by admission control"),
    "preempted": (
        "repro_service_preempted_total", "Searches cut short by a request deadline"
    ),
    "partial_answers": (
        "repro_service_partial_answers_total",
        "Answers carrying an anytime partial snapshot",
    ),
}


class PebblingService:
    """Async scheduler over the pebbling/compile stack (see module doc).

    ``store`` may be ``None`` (no caching), a database path, or an open
    :class:`~repro.store.ResultStore`.  Each dispatch round batches what
    is queued when it starts and runs the batch's misses inline, in its
    batch thread, so a crash in native solver code takes the service down
    with it; requests submitted while a round runs wait for the next
    round, never for a timer.  ``max_queue`` bounds the dispatch queue —
    admission control sheds excess submissions with
    :class:`ServiceOverloadError` instead of queueing them to time out.
    ``retry`` applies a :class:`~repro.pebbling.portfolio.RetryPolicy`
    inside every solver job; ``stats.retries`` sums the retries spent.

    Use as an async context manager, or call :meth:`close` when done —
    results are awaited through :meth:`submit`.  The service itself is
    single-loop; the blocking work runs in the default executor, so the
    event loop stays responsive for new submissions (which is what makes
    dedup-while-in-flight and batching observable at all).
    """

    def __init__(
        self,
        *,
        store: "ResultStore | str | None" = None,
        max_queue: int | None = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if max_queue is not None and max_queue < 1:
            raise ServiceError("max_queue must be >= 1 (or None for unbounded)")
        if isinstance(store, str):
            store = ResultStore(store)
            self._owns_store = True
        else:
            self._owns_store = False
        self.store = store
        self.max_queue = max_queue
        self.retry = retry
        self.stats = ServiceStats()
        # Settled once, here (it may build the C core), so health() stays
        # cheap; the engine cannot change within one process.
        self._engine = {
            "default": DEFAULT_BACKEND,
            "resolves_to": resolve_backend(DEFAULT_BACKEND),
            "fallback": backend_fallback_reason(DEFAULT_BACKEND),
        }
        self._queue: asyncio.Queue[tuple[JobRequest, asyncio.Future, float]] = (
            asyncio.Queue()
        )
        self._inflight: dict[JobRequest, asyncio.Future] = {}
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        # A running service turns the process-wide metrics registry on:
        # health() is the service's observability surface and an empty
        # snapshot would defeat it.  Enabling is idempotent and sticky.
        _metrics.enable()

    def _count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one ``stats`` field and to its counter."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        counter = SERVICE_COUNTERS.get(name)
        if counter is not None:
            _metrics.counter(*counter).inc(amount)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "PebblingService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Stop the dispatcher and (if owned) close the store.

        Requests still queued or mid-flight have their futures failed with
        :class:`ServiceError` — a concurrent ``submit`` must raise, not
        await a result that will never arrive.
        """
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while not self._queue.empty():
            self._queue.get_nowait()
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(
                    ServiceError("the service was closed with requests pending")
                )
        self._inflight.clear()
        if self._owns_store and self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: JobRequest) -> JobResult:
        """Schedule one request and await its result.

        Identical in-flight requests share a single execution; errors come
        back as ``status="error"`` results, never as raised exceptions
        (one poisoned request must not break a gathered batch) — with one
        deliberate exception: when ``max_queue`` is set and the queue is
        full, admission control raises :class:`ServiceOverloadError`
        *before* enqueueing (load shedding must be distinguishable from a
        request that ran and failed).  Deduplicated requests piggyback on
        in-flight work and are never shed.
        """
        if self._closed:
            raise ServiceError("the service is closed")
        self._count("submitted")
        try:
            request.validate()
        except ServiceError as error:
            self._count("errors")
            return JobResult(request, "error", "aggregate", error=str(error))
        if request.kind == "sweep":
            return await self._submit_sweep(request)
        shared = self._inflight.get(request)
        if shared is not None:
            self._count("deduplicated")
            obs_trace.event(
                "service.dedup",
                kind=request.kind,
                workload=request.workload,
                budget=request.budget,
            )
            return await shared
        if self.max_queue is not None and self._queue.qsize() >= self.max_queue:
            self._count("sheds")
            obs_trace.event(
                "service.shed",
                kind=request.kind,
                workload=request.workload,
                queue_depth=self._queue.qsize(),
                max_queue=self.max_queue,
            )
            raise ServiceOverloadError(
                f"service queue is full ({self._queue.qsize()} >= "
                f"max_queue={self.max_queue}); request shed"
            )
        # One span per admitted request, covering queueing + solving.  The
        # trace context snapshotted *inside* the span is stamped onto the
        # request, so solver spans from the batch thread parent under it.
        # Concurrent submits interleave save/restore of the tracer's
        # current-span slot; that can momentarily misattribute parentage of
        # records emitted between switches, but every parent id still
        # resolves because parent span records are always written.
        with obs_trace.span(
            "service.request",
            kind=request.kind,
            workload=request.workload,
            budget=request.budget,
            backend=request.backend,
        ) as req_span:
            if request.trace is None:
                ctx = obs_trace.current_context()
                if ctx is not None:
                    request = replace(request, trace=ctx)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._inflight[request] = future
            self._queue.put_nowait((request, future, time.monotonic()))
            if self._dispatcher is None:
                self._dispatcher = asyncio.create_task(self._dispatch_loop())
            result = await future
            req_span.set(status=result.status, source=result.source)
            return result

    async def run(self, requests: Iterable[JobRequest]) -> list[JobResult]:
        """Submit many requests concurrently; results in request order.

        Load sheds surface here as ``status="error"`` results with source
        ``"shed"`` — a gathered batch degrades per-request instead of
        raising out of the whole gather.
        """

        async def _guarded(request: JobRequest) -> JobResult:
            try:
                return await self.submit(request)
            except ServiceOverloadError as error:
                return JobResult(request, "error", "shed", error=str(error))

        return list(await asyncio.gather(*(_guarded(r) for r in requests)))

    def health(self) -> dict[str, object]:
        """Structured liveness/saturation snapshot of this service.

        Cheap to call at any time (no locks, no solver work): the queue
        depth and in-flight count, read at the same moment, the admission
        bound, this service's counters (under ``stats``), and — under
        ``metrics`` — the process-wide :mod:`repro.obs.metrics` snapshot
        covering every layer (``repro_service_*``, ``repro_portfolio_*``,
        ``repro_sat_*``, ``repro_solver_*``).  ``engine`` names the SAT
        engine a request without its own backend runs (``resolves_to``)
        and, when that is the Python fallback, why (``fallback``).
        """
        return {
            "queue_depth": self._queue.qsize(),
            "in_flight": len(self._inflight),
            "max_queue": self.max_queue,
            "engine": dict(self._engine),
            "stats": self.stats.as_dict(),
            "metrics": _metrics.snapshot(),
        }

    # ------------------------------------------------------------------
    # sweep expansion
    # ------------------------------------------------------------------
    async def _submit_sweep(self, request: JobRequest) -> JobResult:
        try:
            low, high = await asyncio.get_running_loop().run_in_executor(
                None, self._sweep_bounds, request
            )
        except Exception as error:  # noqa: BLE001 — unknown workload and friends
            self._count("errors")
            return JobResult(request, "error", "aggregate", error=str(error))
        obs_trace.event(
            "service.sweep",
            workload=request.workload,
            min_budget=low,
            max_budget=high,
        )
        children = [
            JobRequest(
                kind="pebble",
                workload=request.workload,
                budget=budget,
                scale=request.scale,
                single_move=request.single_move,
                weighted=request.weighted,
                cardinality=request.cardinality,
                schedule=request.schedule,
                step_increment=request.step_increment,
                time_limit=request.time_limit,
                max_steps=request.max_steps,
                backend=request.backend,
                deadline=request.deadline,
                trace=request.trace,
            )
            for budget in range(low, high + 1)
        ]
        self._count("expanded", len(children))
        results = await self.run(children)
        minimum = None
        for child, result in zip(children, results):
            if result.ok and result.payload and result.payload.get("outcome") == "solution":
                if minimum is None or child.budget < minimum:
                    minimum = child.budget
        payload = {
            "min_budget": low,
            "max_budget": high,
            "minimum_feasible_budget": minimum,
            "points": [result.as_dict() for result in results],
        }
        failed = sum(1 for result in results if not result.ok)
        if failed:
            # Infeasible budgets are ordinary sweep points; a child that
            # *errored* (crashed worker, bad workload) is a failed sweep —
            # mirror pebble-batch, whose exit code flags any error record.
            self._count("errors")
            return JobResult(
                request,
                "error",
                "aggregate",
                payload=payload,
                error=f"{failed} of {len(results)} budget searches failed",
            )
        self._count("completed")
        return JobResult(request, "ok", "aggregate", payload=payload)

    def _sweep_bounds(self, request: JobRequest) -> tuple[int, int]:
        if request.min_budget is not None and request.max_budget is not None:
            return request.min_budget, request.max_budget
        dag = load_workload_or_path(request.workload, scale=request.scale)
        lower, upper = ReversiblePebblingSolver(
            dag, options=EncodingOptions(weighted=request.weighted)
        ).budget_bounds()
        low = lower if request.min_budget is None else request.min_budget
        high = upper if request.max_budget is None else request.max_budget
        return low, max(low, high)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._count("batches")
            batch_started = time.monotonic()
            try:
                outcomes = await asyncio.get_running_loop().run_in_executor(
                    None,
                    self._process_batch,
                    [(request, enqueued) for request, _, enqueued in batch],
                )
            except Exception as error:  # noqa: BLE001 — defensive: never kill the loop
                outcomes = [
                    JobResult(request, "error", "solver", error=str(error))
                    for request, _, _ in batch
                ]
            _metrics.histogram(
                "repro_service_batch_seconds", "Wall time of one dispatch round"
            ).observe(time.monotonic() - batch_started)
            for (request, future, _), outcome in zip(batch, outcomes):
                if outcome.source == "cache":
                    # Pebble and compile hits alike, counted once here.
                    self._count("cache_hits")
                self._count("completed" if outcome.ok else "errors")
                self._inflight.pop(request, None)
                if not future.cancelled():
                    future.set_result(outcome)

    # -- blocking section (runs in the default executor) -------------------
    def _deadline_task(
        self, request: JobRequest, enqueued: float
    ) -> PortfolioTask:
        """The portfolio task of a request, with its deadline folded in.

        The time the request spent *queued* counts against its deadline;
        whatever remains clamps the task's SAT time budget (floored at a
        token 50 ms so an already-expired request still returns a
        checkpointed partial instead of an instant empty timeout).  This is
        graceful preemption: the search is bounded, never cancelled, so
        the anytime machinery always gets to report progress.
        """
        task = request.to_task()
        if request.deadline is None:
            return task
        remaining = max(request.deadline - (time.monotonic() - enqueued), 0.05)
        if task.time_limit is None or remaining < task.time_limit:
            task = replace(task, time_limit=remaining)
        return task

    def _process_batch(
        self, items: Sequence[tuple[JobRequest, float]]
    ) -> list[JobResult]:
        """Answer a batch: cache first, then its misses inline."""
        outcomes: dict[int, JobResult] = {}
        pebble_misses: list[tuple[int, JobRequest, float]] = []
        for index, (request, enqueued) in enumerate(items):
            try:
                if request.kind == "compile":
                    outcomes[index] = self._run_compile(request)
                else:
                    hit = self._cached_pebble(request)
                    if hit is not None:
                        outcomes[index] = hit
                    else:
                        pebble_misses.append((index, request, enqueued))
            except Exception as error:  # noqa: BLE001 — per-request containment
                outcomes[index] = JobResult(request, "error", "solver", error=str(error))
        if pebble_misses:
            tasks = [
                self._deadline_task(request, enqueued)
                for _, request, enqueued in pebble_misses
            ]
            self._count("solver_jobs", len(tasks))
            records = run_portfolio(tasks, store=self.store, retry=self.retry)
            self._count("retries", sum(record.retries for record in records))
            for (index, request, _), record in zip(pebble_misses, records):
                if record.partial is not None:
                    self._count("partial_answers")
                if (
                    request.deadline is not None
                    and record.outcome != "error"
                    and not record.complete
                ):
                    self._count("preempted")
                    obs_trace.event(
                        "service.preempt",
                        workload=request.workload,
                        budget=request.budget,
                        deadline=request.deadline,
                    )
                if record.outcome == "error":
                    outcomes[index] = JobResult(
                        request, "error", "solver", error=record.error
                    )
                else:
                    outcomes[index] = JobResult(
                        request, "ok", "solver", payload=record.as_dict()
                    )
        return [outcomes[index] for index in range(len(items))]

    def _cached_pebble(self, request: JobRequest) -> "JobResult | None":
        """Answer a pebble request from the store without touching a solver."""
        if self.store is None:
            return None
        task = request.to_task()
        dag = load_workload_or_path(task.workload, scale=task.scale)
        parameters = task_solve_parameters(task)
        result = self.store.get_pebble(dag, **parameters)
        if result is None:
            return None
        _trace_cache_hit(request, result.outcome.value)
        payload = record_from_result(task, result).as_dict()
        return JobResult(request, "ok", "cache", payload=payload)

    def _run_compile(self, request: JobRequest) -> JobResult:
        """Run (or cache-answer) one compile request in the batch thread.

        ``compile_dag`` looks the request up in the store first, so a
        repeat compiles nothing and solves nothing, and the report's
        ``from_cache`` flag attributes the answer's source.
        """
        network = load_workload_network(request.workload, scale=request.scale)
        dag = load_workload_or_path(
            request.workload, scale=request.scale, network=network
        )
        report = compile_dag(
            dag,
            pebbles=request.budget,
            network=network,
            workload=request.workload,
            weighted=request.weighted,
            decompose=request.decompose,
            single_move=request.single_move,
            cardinality=request.cardinality,
            schedule=request.schedule,
            step_increment=(
                request.step_increment if request.step_increment != 1 else None
            ),
            time_limit=request.time_limit,
            max_steps=request.max_steps,
            verify=request.verify,
            backend=request.backend,
            store=self.store,
        )
        if report.from_cache:
            _trace_cache_hit(request, report.outcome)
        source = "cache" if report.from_cache else "solver"
        return JobResult(request, "ok", source, payload=report.as_dict())


def _trace_cache_hit(request: JobRequest, outcome: str) -> None:
    """Record a store answer, pebble or compile, as a trace event."""
    obs_trace.event(
        "service.cache_hit",
        kind=request.kind,
        workload=request.workload,
        budget=request.budget,
        outcome=outcome,
    )


# ---------------------------------------------------------------------------
# request-file mode (the CLI's ``serve --json``)
# ---------------------------------------------------------------------------
def _request_file_entries(
    path: "str | Path",
    *,
    default_backend: str | None = None,
    default_deadline: float | None = None,
) -> list[object]:
    """Raw entries of a request file; file-level problems always raise.

    An unreadable file, invalid JSON, or a top-level shape that is neither
    ``{"requests": [...]}`` nor a bare list is a caller error no matter how
    lenient entry handling is; *per-entry* strictness is the caller's
    choice (:func:`parse_request_file` raises, :func:`run_request_file`
    degrades to structured error records).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ServiceError(f"cannot read request file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"request file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        entries = data.get("requests")
        if not isinstance(entries, list):
            raise ServiceError(
                'a request file object needs a "requests" list '
                '(or use a bare JSON list of requests)'
            )
    elif isinstance(data, list):
        entries = data
    else:
        raise ServiceError("a request file must hold a JSON object or list")
    defaults: dict[str, object] = {}
    if default_backend is not None:
        defaults["backend"] = default_backend
    if default_deadline is not None:
        defaults["deadline"] = default_deadline
    if defaults:
        entries = [
            {**{k: v for k, v in defaults.items() if k not in entry}, **entry}
            if isinstance(entry, dict)
            else entry
            for entry in entries
        ]
    return entries


def parse_request_file(
    path: "str | Path", *, default_backend: str | None = None
) -> list[JobRequest]:
    """Parse a JSON request file: ``{"requests": [...]}`` or a bare list.

    ``default_backend`` (the CLI's ``serve --backend``) applies to every
    request that does not name its own ``backend`` field; explicit
    per-request backends always win.  Strict: any malformed entry raises
    (:func:`run_request_file` offers the lenient per-entry behaviour).
    """
    entries = _request_file_entries(path, default_backend=default_backend)
    return [JobRequest.from_dict(entry) for entry in entries]  # type: ignore[arg-type]


def run_request_file(
    path: "str | Path",
    *,
    store: "ResultStore | str | None" = None,
    default_backend: str | None = None,
    retry: "RetryPolicy | None" = None,
    deadline: float | None = None,
    max_queue: int | None = None,
) -> dict[str, object]:
    """Drive a request file through a fresh service; return the JSON report.

    All requests are submitted concurrently, so the file as a whole enjoys
    deduplication, batching and cache service exactly like live traffic.
    ``default_backend`` and ``deadline`` fill the corresponding fields of
    requests that omit them; ``retry`` /
    ``max_queue`` configure the service's fault tolerance and admission
    control.

    A *malformed entry* does not abort the file: it is skipped with a
    structured error record at its position (``"source": "request-file"``,
    carrying the raw entry) while every well-formed sibling still runs.
    The report's ``"health"`` key holds the service's final health
    snapshot.
    """
    entries = _request_file_entries(
        path,
        default_backend=default_backend,
        default_deadline=deadline,
    )
    requests: list[tuple[int, JobRequest]] = []
    placed: dict[int, dict[str, object]] = {}
    for position, entry in enumerate(entries):
        try:
            requests.append((position, JobRequest.from_dict(entry)))  # type: ignore[arg-type]
        except ServiceError as error:
            placed[position] = {
                "request": entry,
                "status": "error",
                "source": "request-file",
                "payload": None,
                "error": str(error),
            }

    async def _run() -> dict[str, object]:
        async with PebblingService(
            store=store,
            max_queue=max_queue,
            retry=retry,
        ) as service:
            results = await service.run([request for _, request in requests])
            for (position, _), result in zip(requests, results):
                placed[position] = result.as_dict()
            report: dict[str, object] = {
                "results": [placed[position] for position in range(len(entries))],
                "stats": service.stats.as_dict(),
                "health": service.health(),
            }
            if service.store is not None:
                report["store"] = service.store.stats().as_dict()
            return report

    return asyncio.run(_run())
