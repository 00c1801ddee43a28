"""In-memory span recorder wrapped around the program's layer boundaries.

The benchmark traces from the outside: :func:`install` replaces each
layer's public calls with a wrapper that records one span (layer, call,
start, end, parent span, request id), patching every name where a
``repro`` module imported it.  Spans stay in memory until the run ends.

Two details keep the recorder cheap enough to leave the layer split
honest:

* engine ``add_clause`` calls arrive tens of thousands per request, so
  consecutive calls under the same parent fold into one span that keeps
  the call count and the summed busy time (its self time is that sum);
* the service runs its blocking work in an executor thread, so spans
  there get their request id from the request the service is currently
  handling (set by thin markers on the service's per-request internals),
  and a top-level span in that thread counts as a child of the request's
  ``service.submit`` span.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time

#: Span tuple fields.
LAYER, CALL, START, END, PARENT, REQUEST, THREAD, COUNT, BUSY = range(9)

#: Request id of the client call in progress (one per asyncio task).
CURRENT_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar(
    "request", default=-1
)

#: Layer names in report order.
LAYERS = (
    "workloads", "encoding", "transfer", "solve", "decode",
    "store", "portfolio", "service", "circuits",
)


class Recorder:
    """Collects spans and per-layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {
            "encoding.clauses": 0, "solve.calls": 0, "solve.conflicts": 0,
            "workloads.calls": 0, "store.gets": 0, "store.hits": 0,
        }
        self._local = threading.local()
        #: (kind, workload, budget) -> request id of the submit that owns it.
        self.owners: dict[tuple, int] = {}

    # -- per-thread state --------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.fold = None
            local.request = None
        return local

    @staticmethod
    def _request_of(local) -> int:
        return CURRENT_REQUEST.get() if local.request is None else local.request

    def begin(self, layer: str, call: str) -> list:
        local = self._state()
        parent = local.stack[-1][0] if local.stack else -1
        span = [layer, call, time.perf_counter(), 0.0, parent,
                self._request_of(local), threading.get_ident(), 1, 0.0]
        index = len(self.spans)
        self.spans.append(span)
        local.stack.append((index, span))
        local.fold = None
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        local = self._local
        local.stack.pop()
        local.fold = None

    def fold(self, layer: str, call: str, started: float, ended: float) -> None:
        """Add one leaf call to the open folded span, or start a new one."""
        local = self._state()
        span = local.fold
        if span is None:
            parent = local.stack[-1][0] if local.stack else -1
            span = [layer, call, started, ended, parent,
                    self._request_of(local), threading.get_ident(), 0, 0.0]
            self.spans.append(span)
            local.fold = span
        span[END] = ended
        span[COUNT] += 1
        span[BUSY] += ended - started

    def set_thread_request(self, request: int | None) -> None:
        self._state().request = request


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
def _span_wrapper(recorder: Recorder, layer: str, call: str, original, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.begin(layer, call)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _clause_wrapper(recorder: Recorder, original):
    clock = time.perf_counter

    @functools.wraps(original)
    def wrapper(self, literals):
        started = clock()
        result = original(self, literals)
        recorder.fold("transfer", "add_clause", started, clock())
        return result

    return wrapper


def _encoder_wrapper(recorder: Recorder, call: str, original):
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        before = len(self.cnf.clauses)
        span = recorder.begin("encoding", call)
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.end(span)
            recorder.counts["encoding.clauses"] += len(self.cnf.clauses) - before

    return wrapper


def _marker(recorder: Recorder, key_of, original):
    """Tag the executor thread with the request a service internal serves."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        request = recorder.owners.get(key_of(*args, **kwargs))
        recorder.set_thread_request(request)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.set_thread_request(None)

    return wrapper


def _submit_wrapper(recorder: Recorder, original):
    @functools.wraps(original)
    async def wrapper(self, request):
        rid = CURRENT_REQUEST.get()
        key = (request.kind, request.workload, request.budget)
        owner = recorder.owners.setdefault(key, rid)
        span = ["service", "submit", time.perf_counter(), 0.0, -1, rid,
                threading.get_ident(), 1, 0.0]
        recorder.spans.append(span)
        try:
            return await original(self, request)
        finally:
            span[END] = time.perf_counter()
            span[BUSY] = span[END] - span[START]
            if owner == rid:
                recorder.owners.pop(key, None)

    return wrapper


class Patches:
    """Installed wrappers, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def undo(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.circuits import pipeline
    from repro.pebbling import portfolio
    from repro.pebbling.encoding import PebblingEncoder
    from repro.pebbling.strategy import PebblingStrategy
    from repro.sat.native import NativeCdclSolver
    from repro.sat.solver import CdclSolver
    from repro.service.scheduler import PebblingService
    from repro.store import fingerprint
    from repro.store.store import ResultStore
    from repro.workloads import registry

    patches = Patches()
    counts = recorder.counts

    def count_load(args, result):
        counts["workloads.calls"] += 1

    for name in ("load_workload_or_path", "load_workload_network"):
        original = getattr(registry, name)
        patches.everywhere(
            original, _span_wrapper(recorder, "workloads", name, original, count_load)
        )

    for call in ("extend_to", "final_guard"):
        patches.set(PebblingEncoder, call, _encoder_wrapper(
            recorder, call, getattr(PebblingEncoder, call)))

    def count_solve(args, result):
        counts["solve.calls"] += 1
        counts["solve.conflicts"] += int(result.stats.conflicts)

    for engine in (CdclSolver, NativeCdclSolver):
        patches.set(engine, "add_clause", _clause_wrapper(recorder, engine.add_clause))
        patches.set(engine, "solve", _span_wrapper(
            recorder, "solve", "solve", engine.solve, count_solve))

    patches.set(PebblingEncoder, "configurations_from_model", _span_wrapper(
        recorder, "decode", "configurations_from_model",
        PebblingEncoder.configurations_from_model))
    patches.set(PebblingStrategy, "__init__", _span_wrapper(
        recorder, "decode", "PebblingStrategy", PebblingStrategy.__init__))

    def count_get(args, result):
        counts["store.gets"] += 1
        counts["store.hits"] += result is not None

    for call in ("get_pebble", "get_compile"):
        patches.set(ResultStore, call, _span_wrapper(
            recorder, "store", call, getattr(ResultStore, call), count_get))
    for call in ("put_pebble", "put_compile", "warm_start"):
        patches.set(ResultStore, call, _span_wrapper(
            recorder, "store", call, getattr(ResultStore, call)))
    for name in ("dag_fingerprint", "exact_dag_digest"):
        original = getattr(fingerprint, name)
        patches.everywhere(original, _span_wrapper(recorder, "store", name, original))

    original = portfolio.run_portfolio
    patches.everywhere(
        original, _span_wrapper(recorder, "portfolio", "run_portfolio", original))
    original = pipeline.compile_dag
    patches.everywhere(
        original, _span_wrapper(recorder, "circuits", "compile_dag", original))

    patches.set(PebblingService, "submit",
                _submit_wrapper(recorder, PebblingService.submit))
    patches.set(PebblingService, "_cached_pebble", _marker(
        recorder, lambda self, r: (r.kind, r.workload, r.budget),
        PebblingService._cached_pebble))
    patches.set(PebblingService, "_run_compile", _marker(
        recorder, lambda self, r: (r.kind, r.workload, r.budget),
        PebblingService._run_compile))
    original = portfolio._execute_task
    patches.everywhere(original, _marker(
        recorder, lambda task, *a, **k: ("pebble", task.workload, task.pebbles),
        original))
    return patches


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def summarize(recorder: Recorder, wall: float, answers: int,
              cache_requests: set[int]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    Every metric is reported on every workload; a layer the workload
    bypasses records no span and reads 0.  ``cache_requests`` holds the
    ids of service requests answered from the store; their summed
    latency is split by layer separately.  Every span the service's
    executor thread records serves some request, so the summed
    ``service.submit`` time minus that thread's top-level spans is the
    time requests spent waiting in the service (queue, batch window,
    waiting behind a batched miss).
    """
    spans = recorder.spans
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    self_time = dict.fromkeys(LAYERS, 0.0)
    hit_split = dict.fromkeys(LAYERS, 0.0)
    fingerprint_s = submitted = inner = hit_latency = hit_inner = top_folded = 0.0
    top_intervals: list[tuple[float, float]] = []
    for index, span in enumerate(spans):
        layer = span[LAYER]
        own = span[BUSY] - child_busy[index]
        hit = span[REQUEST] in cache_requests
        if layer == "service":
            submitted += span[BUSY]
            if hit:
                hit_latency += span[BUSY]
        else:
            self_time[layer] += own
            if hit:
                hit_split[layer] += own
        if span[CALL] in ("dag_fingerprint", "exact_dag_digest"):
            fingerprint_s += span[BUSY]
        if span[PARENT] < 0:
            if layer == "transfer":
                top_folded += span[BUSY]
            else:
                top_intervals.append((span[START], span[END]))
            if layer != "service":
                inner += span[BUSY]
                if hit:
                    hit_inner += span[BUSY]
    # Without the service, the top-level spans are the client's own calls.
    self_time["service"] = submitted - inner if submitted else 0.0
    hit_split["service"] = hit_latency - hit_inner
    counts = recorder.counts
    return {
        "wall_s": wall,
        "unattributed_s": max(0.0, wall - _union_length(top_intervals) - top_folded),
        "workloads.self_s": self_time["workloads"],
        "workloads.calls": counts["workloads.calls"],
        "encoding.self_s": self_time["encoding"],
        "encoding.clauses": counts["encoding.clauses"],
        "transfer.self_s": self_time["transfer"],
        "transfer.clauses": sum(s[COUNT] for s in spans if s[LAYER] == "transfer"),
        "solve.self_s": self_time["solve"],
        "solve.calls": counts["solve.calls"],
        "solve.calls_per_answer": counts["solve.calls"] / max(1, answers),
        "solve.conflicts": counts["solve.conflicts"],
        "decode.self_s": self_time["decode"],
        "store.self_s": self_time["store"],
        "store.fingerprint_s": fingerprint_s,
        "store.hit_ratio": counts["store.hits"] / max(1, counts["store.gets"]),
        "portfolio.self_s": self_time["portfolio"],
        "service.wait_s": self_time["service"],
        "circuits.self_s": self_time["circuits"],
        "cache_hits.latency_s": hit_latency,
        "cache_hits.service_s": hit_split["service"],
        "cache_hits.store_s": hit_split["store"],
        "cache_hits.workloads_s": hit_split["workloads"],
    }
