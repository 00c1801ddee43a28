"""Named counters/gauges/histograms with a no-op disabled mode.

One process-wide :class:`MetricsRegistry` holds every layer's counters
in one flat namespace, and a single :func:`snapshot` (or Prometheus-style
:func:`exposition`) reads them all back.  The service keeps its own
per-instance ``ServiceStats`` beside it, written at the same site as the
matching ``repro_service_*`` counter.  The registry is disabled by
default; a disabled registry hands out shared null instruments whose
methods are empty, so instrumented library code costs one attribute
call when observability is off.

Naming follows Prometheus conventions: ``repro_<layer>_<what>_total`` for
counters, ``repro_<layer>_<what>`` for gauges, ``repro_<what>_seconds``
for histograms.  Solver backend counters (``backend.counters()`` dicts)
are folded in via :func:`absorb_counters` under ``repro_solver_<name>``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_registry",
    "enable",
    "disable",
    "enabled",
    "counter",
    "gauge",
    "histogram",
    "absorb_counters",
    "merge_counters",
    "snapshot",
    "exposition",
]

#: Default histogram bucket upper bounds, in seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

#: Counter names where a merge keeps the max instead of summing — these are
#: high-water marks, not additive totals.
_MAX_COUNTERS = frozenset({"max_decision_level"})


def merge_counters(
    into: dict[str, float], counters: Mapping[str, Any] | None
) -> dict[str, float]:
    """Accumulate one backend ``counters()`` dict into ``into`` (in place).

    Numeric values sum, except high-water marks (``max_decision_level``)
    which keep the maximum; non-numeric values are dropped.  Returns
    ``into`` for chaining.
    """

    if not counters:
        return into
    for name, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name in _MAX_COUNTERS:
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value
    return into


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> float:
        return self._value


class Gauge:
    """Instantaneous value that can move both ways."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def sample(self) -> dict[str, Any]:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, bucket in zip(self.buckets, self._counts):
            running += bucket
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = self._count
        return {"count": self._count, "sum": self._sum, "buckets": cumulative}


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    name = ""
    help = ""
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def sample(self) -> float:
        return 0.0


_NULL = _NullInstrument()


class MetricsRegistry:
    """Thread-safe home for named instruments.

    While disabled, ``counter``/``gauge``/``histogram`` return the shared
    null instrument so call sites stay branch-free.  Enabling is sticky
    for instruments created afterwards; callers should fetch instruments
    at use time (they are cached by name) rather than caching a null.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        if not self._enabled:
            return _NULL
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def absorb_counters(self, counters: Mapping[str, Any] | None, prefix: str = "solver") -> None:
        """Fold one backend ``counters()`` dict into prefixed counters."""

        if not self._enabled or not counters:
            return
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metric = f"repro_{prefix}_{name}"
            if name in _MAX_COUNTERS:
                gauge = self.gauge(metric)
                if value > gauge.value:
                    gauge.set(value)
            else:
                self.counter(metric + "_total").inc(value)

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one JSON-ready dict, sorted by name."""

        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: inst.sample() for name, inst in instruments}

    def exposition(self) -> str:
        """Prometheus text-format rendering of the registry."""

        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: list[str] = []
        for name, inst in instruments:
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, Histogram):
                running = 0
                for bound, bucket in zip(inst.buckets, inst._counts):
                    running += bucket
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {running}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {inst.count}')
                lines.append(f"{name}_sum {inst.sum:g}")
                lines.append(f"{name}_count {inst.count}")
            else:
                lines.append(f"{name} {inst.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


# The process-global registry, disabled until a CLI flag, the service, or a
# test turns it on.
_REGISTRY = MetricsRegistry(enabled=False)


def registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""

    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = new
    return previous


def enable() -> MetricsRegistry:
    _REGISTRY.enable()
    return _REGISTRY


def disable() -> None:
    _REGISTRY.disable()


def enabled() -> bool:
    return _REGISTRY.enabled


def counter(name: str, help: str = "") -> Counter:
    return _REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _REGISTRY.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
) -> Histogram:
    return _REGISTRY.histogram(name, help, buckets=buckets)


def absorb_counters(counters: Mapping[str, Any] | None, prefix: str = "solver") -> None:
    _REGISTRY.absorb_counters(counters, prefix=prefix)


def snapshot() -> dict[str, Any]:
    return _REGISTRY.snapshot()


def exposition() -> str:
    return _REGISTRY.exposition()
