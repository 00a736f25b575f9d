"""Counters, gauges and histograms with well-defined merge semantics.

The harness runs many exchanges (threads, repeats, schemes) and wants one
aggregate view; services running in worker threads each hold a registry
that the host merges on shutdown.  Merge rules:

* counter + counter — values add;
* gauge + gauge — values add (in-flight counts across shards sum);
* histogram + histogram — per-bucket counts add; count/total add;
  min/max combine; **bucket bounds must match** (merging differently
  bucketed histograms silently mixing scales is exactly the measurement
  bug this layer exists to prevent — it raises instead);
* labelled family + labelled family — per-series merge; **label names
  must match** (same reasoning: two families disagreeing on their label
  set are different metrics wearing one name);
* name collisions across kinds (a counter merged onto a histogram) raise.

Lock ordering
-------------
Instruments are individually locked; a merge involves two of them.  To
stay deadlock-free the rule is: **never hold two instrument locks at
once** — ``merge`` snapshots the source under the source's lock, releases
it, then applies the snapshot under the destination's lock.  A concurrent
``observe``/``add`` on either side lands wholly before or wholly after the
snapshot, so merged state never tears (count/total/buckets always agree).

Labels
------
A *family* is one metric name carrying many series distinguished by label
values (``soap_requests_total{operation,encoding,binding,status}``).
Families guard their cardinality: label *names* are fixed at creation and
the number of distinct label-value combinations is capped (default
:data:`DEFAULT_MAX_SERIES`) — an unbounded label value (a request id, a
timestamp) raises :class:`LabelCardinalityError` instead of silently
eating memory on a live server.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Default histogram bounds: log-spaced from 1 µs to ~100 s, suitable for
#: the latency ranges the harness observes (seconds as floats).
DEFAULT_BOUNDS = tuple([10.0 ** (e / 2.0) for e in range(-12, 5)])

#: Ceiling on distinct label-value combinations per family.
DEFAULT_MAX_SERIES = 64


class LabelCardinalityError(ValueError):
    """A family was asked for more distinct label sets than its cap."""


def series_key(name: str, labels) -> str:
    """Flat string identity of one labelled series (snapshot/export key)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing (well, signed-add) scalar."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels=None) -> None:
        self.name = name
        #: ``((label, value), ...)`` for a family series, ``()`` otherwise.
        self.labels = tuple(labels or ())
        self.value = 0
        self._lock = threading.Lock()

    def add(self, n=1) -> None:
        with self._lock:
            self.value += n

    def merge(self, other: "Counter") -> None:
        if not isinstance(other, Counter):
            raise TypeError(f"cannot merge {type(other).__name__} into Counter {self.name!r}")
        with other._lock:  # snapshot source; see module lock-ordering note
            value = other.value
        self.add(value)

    def snapshot(self):
        return self.value


class Gauge:
    """A settable scalar (in-flight requests, open connections).

    Merging gauges *adds* them: the registries being merged are shards of
    one logical server, and "how many are in flight" sums across shards.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels=None) -> None:
        self.name = name
        self.labels = tuple(labels or ())
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def add(self, n=1) -> None:
        with self._lock:
            self.value += n

    def inc(self, n=1) -> None:
        self.add(n)

    def dec(self, n=1) -> None:
        self.add(-n)

    def merge(self, other: "Gauge") -> None:
        if not isinstance(other, Gauge):
            raise TypeError(f"cannot merge {type(other).__name__} into Gauge {self.name!r}")
        with other._lock:
            value = other.value
        self.add(value)

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bound bucketed distribution of observed values.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final bucket
    is the overflow.  Tracks count/total/min/max exactly regardless of
    bucketing.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "counts",
        "count",
        "total",
        "min",
        "max",
        "exemplar",
        "_lock",
    )

    def __init__(self, name: str, bounds=None, labels=None) -> None:
        self.name = name
        self.labels = tuple(labels or ())
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Trace reference for the worst observation so far:
        #: ``{"trace_id": ..., "value": ...}`` or None.  Links the metric
        #: system back to the trace system ("which request was the slow one").
        self.exemplar: dict | None = None
        self._lock = threading.Lock()

    def observe(self, value, exemplar: str | None = None) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if exemplar is not None and value >= self.max:
                self.exemplar = {"trace_id": exemplar, "value": value}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """The q-quantile (``q`` in [0, 1]) interpolated over the buckets.

        Within the bucket holding the target rank the value is linearly
        interpolated between the bucket's bounds; the open-ended first and
        overflow buckets use the exactly-tracked min/max as their missing
        edge, and the result is clamped to [min, max] — so a one-bucket
        histogram still answers with real observed values, and ``q`` of 0
        or 1 are exact.  Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            count = self.count
            counts = list(self.counts)
            lo, hi = self.min, self.max
        if count == 0:
            return None
        if q == 0.0:
            return lo
        if q == 1.0:
            return hi
        target = q * count
        cumulative = 0.0
        for index, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower = self.bounds[index - 1] if index > 0 else lo
                upper = self.bounds[index] if index < len(self.bounds) else hi
                lower = min(max(lower, lo), hi)
                upper = min(max(upper, lo), hi)
                if upper < lower:
                    upper = lower
                fraction = (target - cumulative) / n
                return lower + (upper - lower) * fraction
            cumulative += n
        return hi  # pragma: no cover - cumulative == count handled above

    def merge(self, other: "Histogram") -> None:
        if not isinstance(other, Histogram):
            raise TypeError(f"cannot merge {type(other).__name__} into Histogram {self.name!r}")
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ "
                f"({len(self.bounds)} vs {len(other.bounds)} bounds) — refusing to mix scales"
            )
        # snapshot the source under its own lock so a concurrent observe()
        # cannot tear count/total/buckets; then apply under ours (the two
        # locks are never held together — see the module lock-ordering note)
        with other._lock:
            counts = list(other.counts)
            count = other.count
            total = other.total
            other_min = other.min
            other_max = other.max
            other_exemplar = other.exemplar
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.total += total
            self.min = min(self.min, other_min)
            # the exemplar follows the larger max: it references the
            # worst observation across both series
            if other_max > self.max:
                if other_exemplar is not None:
                    self.exemplar = other_exemplar
            self.max = max(self.max, other_max)

    def snapshot(self) -> dict:
        with self._lock:
            count = self.count
            counts = list(self.counts)
            total = self.total
            lo, hi = self.min, self.max
            exemplar = self.exemplar
        out = {
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            "min": None if count == 0 else lo,
            "max": None if count == 0 else hi,
            "bounds": list(self.bounds),
            "counts": counts,
        }
        if exemplar is not None:
            out["exemplar"] = dict(exemplar)
        return out


# ---------------------------------------------------------------------------
# labelled families


class _Family:
    """One metric name fanned out over label values (cardinality-guarded)."""

    #: Subclasses bind the series type (Counter/Gauge/Histogram).
    instrument_kind: type = Counter

    def __init__(self, name: str, label_names, *, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.name = name
        self.label_names = tuple(label_names)
        if not self.label_names:
            raise ValueError(f"family {name!r} needs at least one label name")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"family {name!r} has duplicate label names {self.label_names}")
        self.max_series = max_series
        self._series: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _make(self, label_pairs):
        raise NotImplementedError

    def labels(self, **values):
        """The series for one label-value set (created on first use).

        A hit takes no lock: ``_series`` only gains entries, each put in
        whole under the lock.  Label names are checked on every call, hit
        or miss: as many values as names, each name present, is the exact
        set.  The key is built from a list, so it is a tuple of its final
        size (``tuple(<generator>)`` would park one on a free list per call).
        """
        names = self.label_names
        if len(values) == len(names):
            try:
                key = tuple([str(values[n]) for n in names])
            except KeyError:
                pass
            else:
                series = self._series.get(key)
                return series if series is not None else self._add(key)
        raise ValueError(
            f"family {self.name!r} takes labels {list(names)}, got {sorted(values)}"
        )

    def _add(self, key: tuple):
        """The series for ``key``, made under the lock and the cap."""
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    raise LabelCardinalityError(
                        f"family {self.name!r} at its cap of {self.max_series} series; "
                        f"refusing new label set {dict(zip(self.label_names, key))} — "
                        "label values must come from a bounded set"
                    )
                series = self._make(tuple(zip(self.label_names, key)))
                self._series[key] = series
            return series

    def merge(self, other: "_Family") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__} {self.name!r}"
            )
        if other.label_names != self.label_names:
            raise ValueError(
                f"family {self.name!r}: label names differ "
                f"({self.label_names} vs {other.label_names}) — refusing to mix metrics"
            )
        with other._lock:
            items = list(other._series.items())
        for key, series in items:
            with self._lock:
                mine = self._series.get(key)
                if mine is None:
                    # merge may exceed the live-write cap: folding shard
                    # registries must be lossless (the guard polices call
                    # sites creating series, not aggregation)
                    mine = self._series[key] = self._make(tuple(zip(self.label_names, key)))
            mine.merge(series)

    def series(self) -> list:
        with self._lock:
            return list(self._series.values())


class CounterFamily(_Family):
    instrument_kind = Counter

    def _make(self, label_pairs):
        return Counter(self.name, labels=label_pairs)


class GaugeFamily(_Family):
    instrument_kind = Gauge

    def _make(self, label_pairs):
        return Gauge(self.name, labels=label_pairs)


class HistogramFamily(_Family):
    instrument_kind = Histogram

    def __init__(
        self, name, label_names, bounds=None, *, max_series: int = DEFAULT_MAX_SERIES
    ) -> None:
        super().__init__(name, label_names, max_series=max_series)
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS

    def _make(self, label_pairs):
        return Histogram(self.name, bounds=self.bounds, labels=label_pairs)


def _labels_as_names(labels: dict) -> tuple:
    """Stable label-name order for the ``labels={...}`` convenience API."""
    return tuple(sorted(labels))


class MetricsRegistry:
    """Name → instrument/family map with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    # -- unlabelled / convenience accessors -----------------------------

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        """The counter ``name`` — one series of a family when ``labels``
        is given (label names are the dict's keys, sorted)."""
        if labels:
            return self.counter_family(name, _labels_as_names(labels)).labels(**labels)
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        if labels:
            return self.gauge_family(name, _labels_as_names(labels)).labels(**labels)
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds=None, labels: dict | None = None) -> Histogram:
        if labels:
            return self.histogram_family(
                name, _labels_as_names(labels), bounds
            ).labels(**labels)
        return self._get_or_create(name, Histogram, lambda: Histogram(name, bounds))

    # -- family accessors ------------------------------------------------

    def counter_family(
        self, name: str, label_names, *, max_series: int = DEFAULT_MAX_SERIES
    ) -> CounterFamily:
        family = self._get_or_create(
            name, CounterFamily, lambda: CounterFamily(name, label_names, max_series=max_series)
        )
        if family.label_names != tuple(label_names):
            raise ValueError(
                f"family {name!r} already registered with labels {family.label_names}"
            )
        return family

    def gauge_family(
        self, name: str, label_names, *, max_series: int = DEFAULT_MAX_SERIES
    ) -> GaugeFamily:
        family = self._get_or_create(
            name, GaugeFamily, lambda: GaugeFamily(name, label_names, max_series=max_series)
        )
        if family.label_names != tuple(label_names):
            raise ValueError(
                f"family {name!r} already registered with labels {family.label_names}"
            )
        return family

    def histogram_family(
        self, name: str, label_names, bounds=None, *, max_series: int = DEFAULT_MAX_SERIES
    ) -> HistogramFamily:
        family = self._get_or_create(
            name,
            HistogramFamily,
            lambda: HistogramFamily(name, label_names, bounds, max_series=max_series),
        )
        if family.label_names != tuple(label_names):
            raise ValueError(
                f"family {name!r} already registered with labels {family.label_names}"
            )
        return family

    # --------------------------------------------------------------------

    def _get_or_create(self, name, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind) or type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {type(instrument).__name__}"
                )
            return instrument

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (same-name instruments merge)."""
        with other._lock:
            items = list(other._instruments.items())
        for name, instrument in items:
            if isinstance(instrument, CounterFamily):
                self.counter_family(
                    name, instrument.label_names, max_series=instrument.max_series
                ).merge(instrument)
            elif isinstance(instrument, GaugeFamily):
                self.gauge_family(
                    name, instrument.label_names, max_series=instrument.max_series
                ).merge(instrument)
            elif isinstance(instrument, HistogramFamily):
                self.histogram_family(
                    name,
                    instrument.label_names,
                    instrument.bounds,
                    max_series=instrument.max_series,
                ).merge(instrument)
            elif isinstance(instrument, Counter):
                self.counter(name).merge(instrument)
            elif isinstance(instrument, Gauge):
                self.gauge(name).merge(instrument)
            else:
                self.histogram(name, instrument.bounds).merge(instrument)

    def collect(self):
        """Structured dump for renderers: ``(kind, name, series list)``.

        ``kind`` is ``"counter" | "gauge" | "histogram"``; each series is
        the live instrument (has ``.labels`` and ``.snapshot()``), so one
        family contributes one entry carrying all its series.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        out = []
        for name, instrument in items:
            if isinstance(instrument, _Family):
                kind = instrument.instrument_kind.__name__.lower()
                out.append((kind, name, instrument.series()))
            else:
                kind = type(instrument).__name__.lower()
                out.append((kind, name, [instrument]))
        return out

    def snapshot(self) -> dict:
        """``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
        (JSON-ready); labelled series appear under flattened
        ``name{label="value",...}`` keys."""
        counters = {}
        gauges = {}
        histograms = {}
        sinks = {"counter": counters, "gauge": gauges, "histogram": histograms}
        for kind, name, series in self.collect():
            sink = sinks[kind]
            for instrument in sorted(series, key=lambda s: s.labels):
                sink[series_key(name, instrument.labels)] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
