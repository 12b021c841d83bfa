"""A process-level metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` (owned by the engine, created in
``InVerDa.__init__``) collects every instrumented number in the system —
statement latencies, plan-cache events, pool lease waits, catalog-lock
write waits, transition durations, the catalog generation — as **labeled
series**: a metric family (name + type + label names) holds one series
per distinct label-value combination, exactly the Prometheus data model.

Design constraints, in order:

1. **Hot-path cheap.** A counter increment or histogram observation is
   one lock acquisition, one dict lookup, and one add.  A *disabled*
   registry (``enabled=False``) reduces every write to a single
   attribute check (the fig16 smoke bench's baseline).  An event a
   component counts anyway (plan-cache hits, pool leases) is not
   counted twice: its family reads the component's count
   (:meth:`MetricFamily.collect_from`).
2. **Stdlib only.** No prometheus_client dependency: the registry
   renders the text exposition format
   (``text/plain; version=0.0.4``) itself, and :meth:`snapshot`
   returns plain JSON-serializable dicts for the wire protocol.
3. **Idempotent registration.** ``registry.counter(name, ...)`` returns
   the existing family when already registered (components bind lazily
   and in any order); re-registering with a different type or label set
   is a programming error and raises.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial

#: Default latency buckets (seconds): sub-millisecond through 10s, tuned
#: for statement/lock/lease timings on the reproduction's workloads.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_value(value: float) -> str:
    """Prometheus number formatting: integral values without the ``.0``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class MetricFamily:
    """Base of the three family kinds: a name, label names, and one
    series per label-value tuple.  Thread-safe via a per-family lock."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...]):
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}
        self._collectors: list = []

    def _key(self, labels: dict) -> tuple:
        if len(labels) != len(self.labelnames) or any(
            name not in labels for name in self.labelnames
        ):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def bound(self, **labels) -> "BoundSeries":
        """A handle on the one series ``labels`` name, for a caller that
        updates it per statement: the label check and ``str()`` are paid
        here, once."""
        return BoundSeries(self, self._key(labels))

    def collect_from(self, read) -> None:
        """Also serve the series ``read()`` returns (label tuple -> value):
        a count its component keeps anyway.  It is read, not written, so
        it shows while the registry is disabled too; sources add up."""
        self._collectors.append(read)

    def _update(self, key: tuple, amount: float = 1) -> None:
        if self._registry.enabled:
            with self._lock:
                self._series[key] = self._series.get(key, 0) + amount

    def reset(self) -> None:
        """Drop every series (test/advisor-window helper; a scraped
        production registry should never be reset mid-flight)."""
        with self._lock:
            self._series.clear()

    # -- introspection ---------------------------------------------------

    def value(self, **labels) -> float:
        return self._series_snapshot().get(self._key(labels), 0)

    def _series_snapshot(self) -> dict[tuple, object]:
        with self._lock:
            series = dict(self._series)
        for read in self._collectors:
            for key, value in read().items():
                series[key] = series.get(key, 0) + value
        return series

    def snapshot(self) -> dict:
        series = []
        for key, value in sorted(self._series_snapshot().items()):
            series.append(
                {"labels": dict(zip(self.labelnames, key)),
                 **self._series_payload(value)}
            )
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames), "series": series}

    def _series_payload(self, value: object) -> dict:
        return {"value": value}

    def _label_text(self, key: tuple, extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key, value in sorted(self._series_snapshot().items()):
            lines.extend(self._render_series(key, value))
        return lines

    def _render_series(self, key: tuple, value: object) -> list[str]:
        return [f"{self.name}{self._label_text(key)} {_format_value(value)}"]


class BoundSeries:
    """One series of a family, its label tuple already resolved:
    ``inc`` / ``observe`` are the family's update with the key bound."""

    __slots__ = ("inc", "observe")

    def __init__(self, family: MetricFamily, key: tuple):
        self.inc = self.observe = partial(family._update, key)


class Counter(MetricFamily):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        self._update(self._key(labels), amount)

    def _update(self, key: tuple, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        super()._update(key, amount)

    def values(self) -> dict[tuple, float]:
        """Label tuple -> accumulated value (consumed by the workload
        recorder's per-version aggregation)."""
        return self._series_snapshot()  # type: ignore[return-value]


class Gauge(MetricFamily):
    """A point-in-time value per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = value

    def inc(self, amount: float = 1, **labels) -> None:
        self._update(self._key(labels), amount)

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(MetricFamily):
    """A bucketed distribution (fixed upper bounds) per label combination."""

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")

    def observe(self, value: float, **labels) -> None:
        self._update(self._key(labels), value)

    def _update(self, key: tuple, value: float = 1) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def series_stats(self, **labels) -> dict:
        """``{"count", "sum"}`` for one label combination (zeros when the
        series was never observed)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return {"count": 0, "sum": 0.0}
            return {"count": series.count, "sum": series.sum}

    def _series_payload(self, value: object) -> dict:
        assert isinstance(value, _HistogramSeries)
        cumulative, buckets = 0, []
        for bound, count in zip(self.buckets, value.counts):
            cumulative += count
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", value.count])
        return {"count": value.count, "sum": value.sum, "buckets": buckets}

    def _render_series(self, key: tuple, value: object) -> list[str]:
        assert isinstance(value, _HistogramSeries)
        lines, cumulative = [], 0
        for bound, count in zip(self.buckets, value.counts):
            cumulative += count
            extra = f'le="{_format_value(bound)}"'
            lines.append(
                f"{self.name}_bucket{self._label_text(key, extra)} {cumulative}"
            )
        inf_label = 'le="+Inf"'
        lines.append(
            f"{self.name}_bucket{self._label_text(key, inf_label)} {value.count}"
        )
        lines.append(f"{self.name}_sum{self._label_text(key)} {_format_value(value.sum)}")
        lines.append(f"{self.name}_count{self._label_text(key)} {value.count}")
        return lines


class MetricsRegistry:
    """The one place every instrumented number lands.

    ``enabled=False`` turns every write into a no-op attribute check —
    the uninstrumented baseline the overhead bench compares against.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    # -- registration (get-or-create) -----------------------------------

    def _register(self, cls, name: str, help: str,
                  labelnames: tuple[str, ...], **kwargs) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if type(family) is not cls or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{family.kind} with labels {list(family.labelnames)}"
                    )
                return family
            family = cls(self, name, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    # -- exposition ------------------------------------------------------

    def snapshot(self) -> dict:
        """Every family's series as plain JSON-serializable dicts (the
        ``metrics`` key of the unified stats snapshot)."""
        with self._lock:
            families = list(self._families.items())
        return {name: family.snapshot() for name, family in sorted(families)}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4), served
        by ``GET /metrics`` and the server's ``metrics`` op."""
        with self._lock:
            families = [f for _, f in sorted(self._families.items())]
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")
