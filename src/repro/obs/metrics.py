"""The metrics registry: counters, gauges, exponential histograms.

One :class:`MetricsRegistry` per federation (plus a process-wide
:func:`global_registry` for module-level instrumentation).  Three
instrument kinds, all label-dimensioned and thread-safe:

- :class:`Counter` — monotone totals (``polygen_queries_total{status=
  "completed"}``, ``polygen_source_consulted_total{source="DB1"}``),
- :class:`Gauge` — point-in-time values (``polygen_queries_active``,
  pool occupancy),
- :class:`Histogram` — **exponential-bucket** latency distributions:
  bucket *k* has upper bound ``start * factor**k``, so five decades of
  query latency (sub-millisecond cache hits to multi-second federated
  scans) fit in ~18 buckets instead of hundreds of linear ones.

Families are created idempotently by name; series materialise on first
use of a label combination.  A family's updates take its own lock —
``inc``/``observe`` are a dict lookup and a float add, cheap enough for
per-chunk call sites.

**Collectors** bridge pull-style components (cache, transports, worker
pool) without making them depend on this module: a
collector is a callable invoked with the registry at scrape time, which
``set()``\\ s gauges from the component's own snapshot.  ``render()``
runs the collectors and emits the Prometheus text exposition format
(``# HELP``/``# TYPE``, ``_bucket{le=...}``/``_sum``/``_count``) that
:mod:`repro.obs.export` serves over TCP.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_buckets",
    "global_registry",
]

_LabelKey = Tuple[Tuple[str, str], ...]


def default_buckets(
    start: float = 0.0005, factor: float = 2.0, count: int = 18
) -> Tuple[float, ...]:
    """Exponential bucket bounds: ``start * factor**k`` for k < count.

    The defaults span 0.5ms .. ~65s — cache hits to pathological
    federated scans — in 18 buckets.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**k for k in range(count))


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + inner + "}"


class _Family:
    """Shared machinery: a named, typed family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def _render_header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Family):
    """A monotonically increasing total, per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self._render_header()
        samples = self.samples() or [((), 0.0)]
        for key, value in samples:
            lines.append(f"{self.name}{_labels_text(key)} {_fmt(value)}")
        return lines


class Gauge(_Family):
    """A point-in-time value, per label combination."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self._render_header()
        samples = self.samples() or [((), 0.0)]
        for key, value in samples:
            lines.append(f"{self.name}{_labels_text(key)} {_fmt(value)}")
        return lines


class Histogram(_Family):
    """An exponential-bucket distribution, per label combination.

    Each series keeps cumulative bucket counts plus running sum/count;
    rendering emits the Prometheus ``_bucket{le=...}`` / ``_sum`` /
    ``_count`` triple with a trailing ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else default_buckets()
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.bounds = bounds
        #: key -> (per-bucket counts [len(bounds)+1, last is +Inf], sum, count)
        self._series: Dict[_LabelKey, Tuple[List[int], List[float]]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = ([0] * (len(self.bounds) + 1), [0.0, 0.0])
                self._series[key] = series
            counts, sums = series
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            counts[index] += 1
            sums[0] += value
            sums[1] += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return int(series[1][1]) if series else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1][0] if series else 0.0

    def render(self) -> List[str]:
        lines = self._render_header()
        with self._lock:
            items = sorted(
                (key, list(counts), list(sums))
                for key, (counts, sums) in self._series.items()
            )
        for key, counts, sums in items:
            cumulative = 0
            for bound, bucket in zip(self.bounds, counts):
                cumulative += bucket
                lines.append(
                    f"{self.name}_bucket"
                    f"{_labels_text(key, [('le', _fmt(bound))])}"
                    f" {cumulative}"
                )
            cumulative += counts[-1]
            lines.append(
                f"{self.name}_bucket{_labels_text(key, [('le', '+Inf')])}"
                f" {cumulative}"
            )
            lines.append(f"{self.name}_sum{_labels_text(key)} {_fmt(sums[0])}")
            lines.append(
                f"{self.name}_count{_labels_text(key)} {int(sums[1])}"
            )
        return lines


class MetricsRegistry:
    """A named collection of metric families plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- family creation (idempotent by name) ------------------------

    def _family(self, cls, name: str, help: str, **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, **kwargs)
                self._families[name] = family
            elif not isinstance(family, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {cls.kind}"
                )
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._family(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    # -- collectors --------------------------------------------------

    def add_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a scrape-time callable; it receives the registry and
        ``set()``\\ s gauges from its component's current snapshot."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # -- exposition --------------------------------------------------

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render(self) -> str:
        """The Prometheus text exposition of every family, collectors
        refreshed first; ends with a newline."""
        self.collect()
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[_LabelKey, float]]:
        """``{family: {label-key: value}}`` for counters and gauges
        (histograms are omitted — use the family object directly)."""
        out: Dict[str, Dict[_LabelKey, float]] = {}
        for family in self.families():
            if isinstance(family, (Counter, Gauge)):
                out[family.name] = dict(family.samples())
        return out


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry, for module-level instrumentation that
    has no federation to hand it one."""
    return _GLOBAL
