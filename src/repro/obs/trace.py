"""JSONL tracing with deterministic cross-process merge.

The tracer writes *span* and *event* records as JSON lines.  Every record
carries a trace id (one per top-level request), a span id, the parent span
id, a monotonic timestamp, and the emitting pid plus a per-process sequence
number.  Processes never share a file handle: each pid appends to its own
``part-<pid>.jsonl`` inside a spool directory, and the owning process merges
the parts into one file at the end, sorted by ``(ts, pid, seq)``.  On Linux
``time.monotonic`` is ``CLOCK_MONOTONIC``, which is system-wide, so
timestamps from pool workers are directly comparable and the
merge order is causal on a single host.

The module-level API is no-op safe: ``span``/``event`` cost one global read
when no tracer is active, so library code can instrument unconditionally.
Context crosses process boundaries as a :class:`TraceContext` — a picklable
triple of spool directory, trace id, and parent span id — shipped inside
task payloads and re-activated in the worker via :func:`activated`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "TRACE_SCHEMA",
    "TraceContext",
    "Span",
    "Tracer",
    "tracer",
    "active",
    "current_context",
    "activated",
    "span",
    "event",
]

#: Version stamped into the ``meta`` record of every merged trace file.
TRACE_SCHEMA = 1


@dataclass(frozen=True)
class TraceContext:
    """Picklable handle that carries a trace across a process boundary."""

    spool: str
    trace_id: str
    span_id: str | None


class _Sink:
    """Per-process buffered writer appending to one part file in the spool."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.seq = 0
        self._ids = 0
        self._buffer: list[str] = []
        self._path = Path(spool) / f"part-{self.pid}.jsonl"

    def write(self, record: dict[str, Any]) -> None:
        record["pid"] = self.pid
        record["seq"] = self.seq
        self.seq += 1
        self._buffer.append(json.dumps(record, sort_keys=True))

    def next_id(self, kind: str) -> str:
        ident = f"{kind}{self.pid:x}.{self._ids}"
        self._ids += 1
        return ident

    def flush(self) -> None:
        if not self._buffer:
            return
        # One appending write per flush; the file is owned by this pid so
        # lines never interleave with another process.
        with self._path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()


# Process-local tracing state.  Sinks are cached per ``(pid, spool)`` so a
# pool worker reused across tasks keeps one monotone id/seq counter, and a
# forked child never appends through the parent's buffer (its pid misses the
# cache and it gets a sink of its own).
_SINKS: dict[tuple[int, str], _Sink] = {}
_ACTIVE_SPOOL: str | None = None
_OWNER_PID: int | None = None
_CURRENT: tuple[str, str | None] | None = None  # (trace_id, span_id)


def active() -> bool:
    """True when this process currently has a live trace sink."""

    return _ACTIVE_SPOOL is not None


def _sink() -> _Sink | None:
    if _ACTIVE_SPOOL is None:
        return None
    key = (os.getpid(), _ACTIVE_SPOOL)
    sink = _SINKS.get(key)
    if sink is None:
        sink = _SINKS[key] = _Sink(_ACTIVE_SPOOL)
    return sink


def current_context() -> TraceContext | None:
    """Snapshot of the active trace for shipping to another process.

    Returns ``None`` when tracing is off, so payload builders can attach it
    unconditionally.
    """

    sink = _sink()
    if sink is None:
        return None
    trace_id, span_id = _CURRENT if _CURRENT is not None else (None, None)
    if trace_id is None:
        return TraceContext(sink.spool, _new_trace_id(sink), None)
    return TraceContext(sink.spool, trace_id, span_id)


def _new_trace_id(sink: _Sink) -> str:
    return sink.next_id("t")


class Span:
    """Live span handle; ``set`` adds attributes before the span closes."""

    __slots__ = ("name", "trace_id", "span_id", "parent", "attrs", "t0", "status")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.attrs = attrs
        self.t0 = time.monotonic()
        self.status = "ok"

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    """Shared do-nothing span returned when tracing is inactive."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent = None

    def set(self, **attrs: Any) -> None:  # pragma: no cover - trivial
        return None


_NULL_SPAN = _NullSpan()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | _NullSpan]:
    """Open a span under the current context; a no-op when tracing is off.

    A span opened with no current trace starts a fresh trace id, so every
    top-level unit of work (a CLI run, a service request) roots its own
    trace inside the shared file.
    """

    global _CURRENT
    sink = _sink()
    if sink is None:
        yield _NULL_SPAN
        return
    parent_state = _CURRENT
    if parent_state is None:
        trace_id = _new_trace_id(sink)
        parent: str | None = None
    else:
        trace_id, parent = parent_state
    span_id = sink.next_id("s")
    live = Span(name, trace_id, span_id, parent, dict(attrs))
    _CURRENT = (trace_id, span_id)
    try:
        yield live
    except BaseException:
        live.status = "error"
        raise
    finally:
        _CURRENT = parent_state
        t1 = time.monotonic()
        sink.write(
            {
                "type": "span",
                "name": live.name,
                "trace": live.trace_id,
                "span": live.span_id,
                "parent": live.parent,
                "ts": live.t0,
                "dur": t1 - live.t0,
                "status": live.status,
                "attrs": live.attrs,
            }
        )


def event(name: str, **attrs: Any) -> None:
    """Emit a point event attached to the current span (no-op when off)."""

    sink = _sink()
    if sink is None:
        return
    trace_id, span_id = _CURRENT if _CURRENT is not None else (None, None)
    sink.write(
        {
            "type": "event",
            "name": name,
            "trace": trace_id,
            "span": span_id,
            "ts": time.monotonic(),
            "attrs": attrs,
        }
    )


@contextmanager
def activated(ctx: TraceContext | None) -> Iterator[None]:
    """Adopt a shipped :class:`TraceContext` in this process.

    Used by pool workers: opens (or reuses) this process's
    part file in the originating spool and parents subsequent spans under
    ``ctx.span_id``.  Worker processes (anything that is not the tracer's
    owner) flush their buffer on exit so short-lived or pool-recycled
    workers never lose records; the owner defers to the final merge.
    ``activated(None)`` is a no-op.
    """

    global _ACTIVE_SPOOL, _CURRENT
    if ctx is None:
        yield
        return
    prev = (_ACTIVE_SPOOL, _CURRENT)
    _ACTIVE_SPOOL = ctx.spool
    _CURRENT = (ctx.trace_id, ctx.span_id)
    try:
        yield
    finally:
        if _OWNER_PID != os.getpid():
            sink = _sink()
            if sink is not None:
                sink.flush()
        _ACTIVE_SPOOL, _CURRENT = prev


class Tracer:
    """Owns a trace file: spool directory, root sink, and the final merge."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.spool = Path(f"{self.path}.spool-{os.getpid()}")
        self.spool.mkdir(parents=True, exist_ok=True)
        self._t0_monotonic = time.monotonic()
        self._t0_wall = time.time()

    def close(self) -> Path:
        """Merge every part file into ``path`` and remove the spool."""

        records: list[dict[str, Any]] = []
        for part in sorted(self.spool.glob("part-*.jsonl")):
            for line in part.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A worker killed mid-write can truncate its last line;
                    # drop it rather than lose the whole trace.
                    continue
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0), r.get("seq", 0)))
        meta = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "monotonic_origin": self._t0_monotonic,
            "wall_origin": self._t0_wall,
            "records": len(records),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        for part in self.spool.glob("part-*.jsonl"):
            part.unlink(missing_ok=True)
        try:
            self.spool.rmdir()
        except OSError:  # pragma: no cover - leftover foreign file
            pass
        return self.path


@contextmanager
def tracer(path: str | os.PathLike[str] | None) -> Iterator[Tracer | None]:
    """Activate tracing for this process, merging to ``path`` on exit.

    ``tracer(None)`` yields ``None`` and does nothing, so call sites can
    wrap unconditionally::

        with tracer(args.trace):
            run()
    """

    global _ACTIVE_SPOOL, _OWNER_PID, _CURRENT
    if path is None:
        yield None
        return
    owner = Tracer(path)
    prev = (_ACTIVE_SPOOL, _OWNER_PID, _CURRENT)
    _ACTIVE_SPOOL = str(owner.spool)
    _OWNER_PID = os.getpid()
    _CURRENT = None
    try:
        yield owner
    finally:
        sink = _sink()
        if sink is not None:
            sink.flush()
        _SINKS.pop((os.getpid(), str(owner.spool)), None)
        _ACTIVE_SPOOL, _OWNER_PID, _CURRENT = prev
        owner.close()
