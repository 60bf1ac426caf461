"""A lightweight metrics registry: counters, gauges, fixed-bound histograms.

No runtime dependencies — the registry is a plain-Python miniature of the
Prometheus client model, sufficient for the scheduler stack's
observables.  Two export formats:

* :meth:`MetricsRegistry.to_json` / :meth:`render_json` — a stable JSON
  document for programmatic consumers;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples), so a scrape of a
  long-running simulation needs nothing beyond an HTTP handler that
  returns this string.

Counters of the runtime live in plain dataclasses on the hot path
(``stats.x += 1``); :func:`publish_counters` is the one bridge that
exports such a dataclass into a registry.

Histograms use *fixed* bucket bounds chosen at registration: observation
is O(#buckets) with no allocation, and cumulative ``le`` buckets are
computed at export time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from repro.errors import SchedulerError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "publish_counters",
]


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a dot)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    help: str = ""
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SchedulerError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down."""

    name: str
    help: str = ""
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Observations bucketed against fixed upper bounds.

    ``bounds`` are the finite bucket upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the tail.  Export produces the usual
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    """

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...],
        help: str = "",
        labels: dict[str, str] | None = None,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise SchedulerError(
                f"histogram {name} needs increasing finite bucket bounds"
            )
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = tuple(float(bound) for bound in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def accumulate(self, value: float, count: int) -> None:
        """Record ``count`` observations of ``value`` in one step.

        Bulk bridge for pre-bucketed sources (e.g. the log₂ latency
        histograms): ``sum`` accrues ``value * count``, which callers
        holding an exact sum may overwrite afterwards.
        """
        self.sum += value * count
        self.count += count
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._counts[index] += count
                return
        self._counts[-1] += count

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts keyed by upper bound (``inf`` for the tail)."""
        cumulative: dict[float, int] = {}
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            cumulative[bound] = running
        cumulative[math.inf] = running + self._counts[-1]
        return cumulative


class MetricsRegistry:
    """Get-or-create home of the process's instruments.

    Instruments are keyed by ``(name, frozen labels)``; re-registration
    with a different kind is an error, re-registration with the same kind
    returns the existing instrument (so instrumented code never needs a
    module-level singleton dance).
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get_or_create(self, kind: type, key_name: str, labels: dict[str, str] | None, factory):
        key = (key_name, tuple(sorted((labels or {}).items())))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, kind):
                raise SchedulerError(
                    f"metric {key_name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[key] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(
            Counter, name, labels,
            lambda: Counter(name=name, help=help, labels=dict(labels or {})),
        )

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, labels,
            lambda: Gauge(name=name, help=help, labels=dict(labels or {})),
        )

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...],
        help: str = "",
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels,
            lambda: Histogram(name=name, bounds=bounds, help=help, labels=labels),
        )

    def instruments(self) -> list[object]:
        """All registered instruments in registration order."""
        return list(self._instruments.values())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """A stable JSON document of every instrument's current value."""
        counters, gauges, histograms = {}, {}, {}
        for instrument in self._instruments.values():
            label_suffix = _format_labels(getattr(instrument, "labels", {}))
            key = f"{instrument.name}{label_suffix}"
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            else:
                assert isinstance(instrument, Histogram)
                histograms[key] = {
                    "sum": instrument.sum,
                    "count": instrument.count,
                    "buckets": {
                        _format_value(bound): count
                        for bound, count in instrument.bucket_counts().items()
                    },
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for instrument in self._instruments.values():
            full = f"{self.prefix}_{instrument.name}"
            kind = (
                "counter" if isinstance(instrument, Counter)
                else "gauge" if isinstance(instrument, Gauge)
                else "histogram"
            )
            if full not in seen_headers:
                seen_headers.add(full)
                if instrument.help:
                    lines.append(f"# HELP {full} {instrument.help}")
                lines.append(f"# TYPE {full} {kind}")
            labels = dict(getattr(instrument, "labels", {}))
            if isinstance(instrument, (Counter, Gauge)):
                suffix = "_total" if isinstance(instrument, Counter) else ""
                lines.append(
                    f"{full}{suffix}{_format_labels(labels)} "
                    f"{_format_value(instrument.value)}"
                )
            else:
                assert isinstance(instrument, Histogram)
                for bound, count in instrument.bucket_counts().items():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{full}_bucket{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(
                    f"{full}_sum{_format_labels(labels)} "
                    f"{_format_value(instrument.sum)}"
                )
                lines.append(
                    f"{full}_count{_format_labels(labels)} {instrument.count}"
                )
        return "\n".join(lines) + "\n"


def publish_counters(registry: MetricsRegistry, prefix: str, stats) -> None:
    """Export every counter field of the dataclass ``stats`` into ``registry``.

    An ``int`` field ``x`` becomes the counter ``<prefix>_x``.  A
    ``dict[str, int]`` field named ``<name>_by_<label>`` becomes one
    counter ``<prefix>_<name>`` with a ``<label>`` label per key, over
    the field's ``metadata["keys"]`` when it declares them (so a key
    that never counted still exports its zero), else over the dict's own
    keys.  A field whose metadata sets ``"counter": False`` is a level,
    not a count, and is left to the caller.  Fields export in
    declaration order.
    """
    for spec in fields(stats):
        if not spec.metadata.get("counter", True):
            continue
        value = getattr(stats, spec.name)
        text = f"{spec.name.replace('_', ' ')} ({type(stats).__name__})."
        if isinstance(value, dict):
            name, _, label = spec.name.partition("_by_")
            for key in spec.metadata.get("keys", value):
                registry.counter(
                    f"{prefix}_{name}", text, labels={label: key}
                ).inc(value.get(key, 0))
        else:
            registry.counter(f"{prefix}_{spec.name}", text).inc(value)
