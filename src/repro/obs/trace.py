"""JSONL tracing with deterministic cross-process merge.

The tracer writes *span* and *event* records as JSON lines.  Every record
carries a trace id (one per top-level request), a span id, the parent span
id, a monotonic timestamp, and the emitting pid plus a per-process sequence
number.  Processes never share a file handle: each worker pid appends to
its own ``part-<pid>.jsonl`` inside a spool directory, and the owning
process merges the parts with its own records, which it keeps in memory,
into one file at the end, sorted by ``(ts, pid, seq)``.  Records stay
dicts until they are written, and each is encoded once.  On Linux
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
from typing import Any, Iterable, Iterator

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
    "finished",
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
    """Per-process buffer of records, appended to one part file in the spool.

    Records are kept as dicts and encoded only when :meth:`flush` writes
    them; the owner's sink is never flushed, its records go to
    :meth:`Tracer.close` as they are.
    """

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.seq = 0
        self._ids = 0
        self.records: list[dict[str, Any]] = []
        self._path = Path(spool) / f"part-{self.pid}.jsonl"

    def write(self, record: dict[str, Any]) -> None:
        record["pid"] = self.pid
        record["seq"] = self.seq
        self.seq += 1
        self.records.append(record)

    def next_id(self, kind: str) -> str:
        ident = f"{kind}{self.pid:x}.{self._ids}"
        self._ids += 1
        return ident

    def flush(self) -> None:
        if not self.records:
            return
        # One appending write per flush; the file is owned by this pid so
        # lines never interleave with another process.
        lines = [json.dumps(record, sort_keys=True) for record in self.records]
        with self._path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self.records.clear()


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


def finished(name: str, spans: Iterable[tuple[float, float, str, dict[str, Any]]]) -> None:
    """Record spans that already ran, as children of the current span.

    Each item is ``(ts, dur, status, attrs)``: the monotonic start, the
    duration in seconds, ``"ok"`` or ``"error"``, and the attributes.  A
    search times its SAT calls itself and hands their spans over in one
    batch when it ends, so a call opens no span while it runs.  A no-op
    when tracing is off.
    """

    sink = _sink()
    if sink is None:
        return
    if _CURRENT is None:
        trace_id, parent = _new_trace_id(sink), None
    else:
        trace_id, parent = _CURRENT
    for ts, dur, status, attrs in spans:
        sink.write(
            {
                "type": "span",
                "name": name,
                "trace": trace_id,
                "span": sink.next_id("s"),
                "parent": parent,
                "ts": ts,
                "dur": dur,
                "status": status,
                "attrs": attrs,
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

    def close(self, records: Iterable[dict[str, Any]] = ()) -> Path:
        """Merge ``records`` and every part file into ``path``; remove the spool.

        ``records`` are the owner's own, handed over in memory.  A part
        file's lines are decoded only to be sorted and are written back
        as they were read, so no record is encoded twice.
        """

        merged: list[tuple[tuple[float, int, int], dict[str, Any] | str]] = [
            (_merge_key(record), record) for record in records
        ]
        for part in sorted(self.spool.glob("part-*.jsonl")):
            for line in part.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                try:
                    merged.append((_merge_key(json.loads(line)), line))
                except json.JSONDecodeError:
                    # A worker killed mid-write can truncate its last line;
                    # drop it rather than lose the whole trace.
                    continue
        merged.sort(key=lambda item: item[0])
        meta = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "monotonic_origin": self._t0_monotonic,
            "wall_origin": self._t0_wall,
            "records": len(merged),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for _, record in merged:
                if not isinstance(record, str):
                    record = json.dumps(record, sort_keys=True)
                handle.write(record + "\n")
        for part in self.spool.glob("part-*.jsonl"):
            part.unlink(missing_ok=True)
        try:
            self.spool.rmdir()
        except OSError:  # pragma: no cover - leftover foreign file
            pass
        return self.path


def _merge_key(record: dict[str, Any]) -> tuple[float, int, int]:
    return (record.get("ts", 0.0), record.get("pid", 0), record.get("seq", 0))


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
        sink = _SINKS.pop((os.getpid(), str(owner.spool)), None)
        _ACTIVE_SPOOL, _OWNER_PID, _CURRENT = prev
        owner.close(sink.records if sink is not None else ())
