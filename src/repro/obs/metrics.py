"""Process-wide metrics registry: counters, gauges, bounded histograms.

One registry replaces the stack's scattered snapshot shapes.  Metrics
come in two flavours:

* **instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` objects handed out by the registry and updated
  directly from hot paths.  Each instrument takes its own small lock on
  update and on read, so a snapshot never observes a torn value (e.g. a
  histogram whose ``count`` and ``sum`` disagree) and counters are
  monotone across successive snapshots.
* **collectors** — callables registered by subsystems that keep their
  own counters (executor pools, cache tiers, the cost model, circuit
  breakers).  A collector returns samples on demand; it is only invoked
  at snapshot/exposition time, so registering one costs nothing on the
  hot path.  Collectors registered under the same name replace each
  other, and a collector that raises is dropped from that snapshot
  rather than poisoning the scrape.
* **mounts** — child registries shown as part of this one, held weakly
  and replaced by slot name.  Each scheduler and service keeps its
  instruments in a registry it owns; :data:`DEFAULT_REGISTRY` mounts the
  newest one under the ``scheduler`` / ``service`` slot.

:meth:`MetricsRegistry.snapshot` returns plain JSON-safe dicts (the
``--runtime-stats-json`` shape); :meth:`MetricsRegistry.render_prometheus`
renders the text exposition format served at ``GET /v1/metrics``.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_REGISTRY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
]

#: A collector sample: ``(name, labels-or-None, value)`` with an optional
#: fourth element giving the exposition type (``"gauge"`` by default).
Sample = Tuple  # (name, Optional[Dict[str, Any]], float[, str])

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_name(name: str) -> str:
    name = _NAME_RE.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _label_key(labels: Optional[Dict[str, Any]]) -> Tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(label_key: Tuple) -> str:
    if not label_key:
        return ""
    escaped = (
        (k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in label_key
    )
    return "{" + ",".join(f'{_LABEL_RE.sub("_", k)}="{v}"' for k, v in escaped) + "}"


class _Metric:
    """Shared identity plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, labels: Optional[Dict[str, Any]], help: str) -> None:
        self.name = _sanitize_name(name)
        self.label_key = _label_key(labels)
        self.help = help
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return self.name + _render_labels(self.label_key)


class Counter(_Metric):
    """Monotonically increasing count; ``inc()`` rejects negative steps."""

    kind = "counter"

    def __init__(self, name: str, labels=None, help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """Point-in-time value, either ``set()`` directly or read from ``fn``."""

    kind = "gauge"

    def __init__(self, name: str, labels=None, help: str = "", fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, labels, help)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return math.nan
        with self._lock:
            return self._value


class Histogram(_Metric):
    """Count/sum/min/max plus a bounded reservoir for percentiles.

    The reservoir is a ``deque(maxlen=...)`` keeping the most recent
    observations, so memory stays bounded under storms while
    ``count``/``sum``/``min``/``max`` remain exact lifetime totals and the
    percentiles describe the ``window`` most recent samples.
    ``snapshot()`` copies state under the instrument lock: never torn,
    even mid-storm.
    """

    kind = "histogram"

    def __init__(self, name: str, labels=None, help: str = "", reservoir: int = 1024) -> None:
        super().__init__(name, labels, help)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._reservoir = deque(maxlen=max(1, int(reservoir)))

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._reservoir.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            count = self._count
            total = self._sum
            lo, hi = self._min, self._max
            window = sorted(self._reservoir)
        stats: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": (total / count) if count else None,
            "window": len(window),
        }
        for q in (0.5, 0.9, 0.99):
            stats[f"p{int(q * 100)}"] = _nearest_rank(window, q)
        return stats


def _nearest_rank(ordered: List[float], quantile: float) -> Optional[float]:
    if not ordered:
        return None
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


class MetricsRegistry:
    """Get-or-create instrument factory, collectors and mounts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple], _Metric] = {}
        self._collectors: Dict[str, Callable[[], Iterable[Sample]]] = {}
        self._mounts: Dict[str, "weakref.ref[MetricsRegistry]"] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def _get_or_create(self, cls, name: str, labels, **kwargs) -> _Metric:
        key = (_sanitize_name(name), _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {key[0]} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, labels, help=help)

    def gauge(self, name: str, labels=None, help: str = "", fn=None) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, help=help)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(self, name: str, labels=None, help: str = "", reservoir: int = 1024) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help=help, reservoir=reservoir)

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------

    def register_collector(self, name: str, fn: Callable[[], Iterable[Sample]]) -> None:
        """Register (or replace) a named on-demand sample source."""
        with self._lock:
            self._collectors[str(name)] = fn

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(str(name), None)

    # ------------------------------------------------------------------
    # Mounts
    # ------------------------------------------------------------------

    def mount(self, slot: str, registry: "MetricsRegistry") -> None:
        """Show ``registry``'s metrics under ``slot`` while its owner keeps
        it alive; a later mount under the same slot replaces it."""
        with self._lock:
            self._mounts[str(slot)] = weakref.ref(registry)

    def _registries(self) -> List["MetricsRegistry"]:
        """This registry followed by every live mounted one (recursively)."""
        with self._lock:
            mounted = [ref() for ref in self._mounts.values()]
        found = [self]
        for child in mounted:
            if child is not None:
                found.extend(child._registries())
        return found

    def _instruments(self) -> List[_Metric]:
        metrics: List[_Metric] = []
        for registry in self._registries():
            with registry._lock:
                metrics.extend(registry._metrics.values())
        return metrics

    def _collect(self) -> List[Tuple[str, Tuple, float, str]]:
        collectors = []
        for registry in self._registries():
            with registry._lock:
                collectors.extend(registry._collectors.items())
        samples: List[Tuple[str, Tuple, float, str]] = []
        for _name, fn in collectors:
            try:
                produced = list(fn())
            except Exception:
                continue
            for sample in produced:
                name, labels, value = sample[0], sample[1], sample[2]
                kind = sample[3] if len(sample) > 3 else "gauge"
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue
                samples.append((_sanitize_name(name), _label_key(labels), value, kind))
        return samples

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Return the full registry as JSON-safe dicts.

        Each instrument is read under its own lock (no torn histograms);
        collector samples land under ``gauges``/``counters`` keyed by
        their rendered name.
        """
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._instruments():
            if isinstance(metric, Counter):
                out["counters"][metric.full_name] = metric.value
            elif isinstance(metric, Histogram):
                out["histograms"][metric.full_name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                value = metric.value
                out["gauges"][metric.full_name] = None if math.isnan(value) else value
        for name, label_key, value, kind in self._collect():
            bucket = "counters" if kind == "counter" else "gauges"
            out[bucket][name + _render_labels(label_key)] = value
        return out

    def render_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4)."""
        families: Dict[str, Dict[str, Any]] = {}

        def family(name: str, kind: str, help: str = "") -> List[str]:
            entry = families.setdefault(name, {"kind": kind, "help": help, "lines": []})
            return entry["lines"]

        for metric in self._instruments():
            labels = _render_labels(metric.label_key)
            if isinstance(metric, Counter):
                family(metric.name, "counter", metric.help).append(
                    f"{metric.name}{labels} {_fmt(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                stats = metric.snapshot()
                lines = family(metric.name, "summary", metric.help)
                for q in ("p50", "p90", "p99"):
                    if stats[q] is not None:
                        quantile = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}[q]
                        pairs = metric.label_key + (("quantile", quantile),)
                        lines.append(f"{metric.name}{_render_labels(pairs)} {_fmt(stats[q])}")
                lines.append(f"{metric.name}_sum{labels} {_fmt(stats['sum'])}")
                lines.append(f"{metric.name}_count{labels} {_fmt(stats['count'])}")
            elif isinstance(metric, Gauge):
                value = metric.value
                if not math.isnan(value):
                    family(metric.name, "gauge", metric.help).append(
                        f"{metric.name}{labels} {_fmt(value)}"
                    )
        for name, label_key, value, kind in self._collect():
            kind = "counter" if kind == "counter" else "gauge"
            family(name, kind).append(f"{name}{_render_labels(label_key)} {_fmt(value)}")

        chunks: List[str] = []
        for name in sorted(families):
            entry = families[name]
            if entry["help"]:
                chunks.append(f"# HELP {name} {entry['help']}")
            chunks.append(f"# TYPE {name} {entry['kind']}")
            chunks.extend(entry["lines"])
        return "\n".join(chunks) + "\n" if chunks else ""


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every subsystem registers into.
DEFAULT_REGISTRY = MetricsRegistry()
