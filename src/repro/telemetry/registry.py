"""The platform metrics registry: typed instruments with a hardware face.

OSNT (the paper's ref [1]) treats measurement as a first-class platform
subsystem; this registry is the host-side half of that idea.  It holds
typed instruments — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
— addressed by name plus label values, cheap enough that a probe may
bump one per simulated cycle, and exports the whole set three ways:

* :meth:`MetricsRegistry.snapshot` — a flat ``{series: value}`` dict
  (the form the unified test environment compares across targets);
* :meth:`MetricsRegistry.to_prometheus` / :meth:`to_json` — text
  exposition for scraping and archival;
* :meth:`MetricsRegistry.register_file` — a
  :func:`~repro.cores.stats.counters_register_file`-backed AXI4-Lite
  block, so ``rwaxi``-style register readout keeps working for every
  telemetry series exactly as it does for the datapath statistics.

Instruments carry a ``cycle_dependent`` flag.  Series whose values
depend on kernel scheduling (stall cycles, queue watermarks, grant
interleaving) are marked cycle-dependent and excluded from the
``sim``/``hw`` parity check; packet and byte totals are not, and must
agree between the two targets.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: Default histogram bucket upper bounds (in whatever unit the series
#: declares — cycles for the kernel probes, ns for the event-driven side).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class TelemetryError(RuntimeError):
    """Registry misuse: duplicate series, bad labels, unknown metric."""


def _format_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{k}="{v}"' for k, v in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count.  ``inc`` is the hot-loop path."""

    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value = 0
        self._fn: Optional[Callable[[], int]] = None

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def bind(self, fn: Callable[[], int]) -> None:
        """Back this series by a callback read at snapshot time.

        The zero-hot-cost way to mirror an existing live counter (a
        channel's ``packets_transferred``, an OPL's ``drops``) into the
        registry: nothing happens per cycle, the getter runs on export.
        """
        self._fn = fn

    def get(self) -> int:
        return self._fn() if self._fn is not None else self.value


class Gauge:
    """A value that goes up and down (occupancy, ring depth)."""

    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value = 0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def bind(self, fn: Callable[[], float]) -> None:
        """Back this series by a callback read at snapshot time."""
        self._fn = fn

    def get(self) -> float:
        return self._fn() if self._fn is not None else self.value


class Histogram:
    """Bucketed distribution with sum and count (latency, occupancy)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """``count`` observations of ``value`` (the sum moves by their
        product)."""
        self.counts[bisect_left(self.buckets, value)] += count
        self.sum += value * count
        self.count += count

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")


@dataclass(frozen=True)
class _FamilyMeta:
    name: str
    help: str
    kind: str
    labelnames: tuple[str, ...]
    cycle_dependent: bool


class _Family:
    """One named metric family: children keyed by label values."""

    def __init__(self, meta: _FamilyMeta, make_child: Callable[[], object]):
        self.meta = meta
        self._make_child = make_child
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, *values: object, **kv: object):
        """The child instrument for one label-value combination (cached)."""
        meta = self.meta
        if kv:
            if values:
                raise TelemetryError("pass label values positionally or by name")
            try:
                values = tuple(kv[name] for name in meta.labelnames)
            except KeyError as exc:
                raise TelemetryError(
                    f"metric {meta.name!r} has labels {meta.labelnames}, not {exc}"
                ) from None
        key = tuple(str(v) for v in values)
        if len(key) != len(meta.labelnames):
            raise TelemetryError(
                f"metric {meta.name!r} expects {len(meta.labelnames)} "
                f"label values, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # Unlabeled families act as their own single child.
    def _solo(self):
        return self.labels()

    def inc(self, amount: int = 1) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def dec(self, amount: float = 1) -> None:
        self._solo().dec(amount)

    def observe(self, value: float, count: int = 1) -> None:
        self._solo().observe(value, count)

    def bind(self, fn: Callable[[], float]) -> None:
        self._solo().bind(fn)

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        yield from sorted(self._children.items())


class MetricsRegistry:
    """A session-scoped bag of metric families."""

    def __init__(self, namespace: str = "nf"):
        self.namespace = namespace
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...],
        cycle_dependent: bool,
        make_child: Callable[[], object],
    ) -> _Family:
        existing = self._families.get(name)
        if existing is not None:
            if existing.meta.kind != kind or existing.meta.labelnames != tuple(labelnames):
                raise TelemetryError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{tuple(labelnames)}; was {existing.meta.kind} "
                    f"{existing.meta.labelnames}"
                )
            return existing
        meta = _FamilyMeta(name, help, kind, tuple(labelnames), cycle_dependent)
        family = _Family(meta, make_child)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        cycle_dependent: bool = False,
    ) -> _Family:
        return self._family(name, help, "counter", labelnames, cycle_dependent, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        cycle_dependent: bool = True,
    ) -> _Family:
        # Gauges default cycle-dependent: instantaneous state rarely
        # survives the sim/hw comparison.
        return self._family(name, help, "gauge", labelnames, cycle_dependent, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        cycle_dependent: bool = True,
    ) -> _Family:
        return self._family(
            name, help, "histogram", labelnames, cycle_dependent,
            lambda: Histogram(buckets),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def families(self) -> Iterator[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    def samples(
        self, cycle_independent_only: bool = False
    ) -> Iterator[tuple[str, str, float]]:
        """Flat series: ``(name, label_suffix, value)``.

        Histograms expand Prometheus-style into ``_bucket`` (cumulative,
        by ``le``), ``_sum`` and ``_count`` series.
        """
        for family in self.families():
            meta = family.meta
            if cycle_independent_only and meta.cycle_dependent:
                continue
            for labelvalues, child in family.children():
                suffix = _format_labels(meta.labelnames, labelvalues)
                if meta.kind == "histogram":
                    assert isinstance(child, Histogram)
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.counts):
                        cumulative += n
                        le = _format_labels(
                            meta.labelnames + ("le",), labelvalues + (str(bound),)
                        )
                        yield f"{meta.name}_bucket", le, cumulative
                    le = _format_labels(
                        meta.labelnames + ("le",), labelvalues + ("+Inf",)
                    )
                    yield f"{meta.name}_bucket", le, child.count
                    yield f"{meta.name}_sum", suffix, child.sum
                    yield f"{meta.name}_count", suffix, child.count
                else:
                    yield meta.name, suffix, child.get()  # type: ignore[union-attr]

    def snapshot(self, cycle_independent_only: bool = False) -> dict[str, float]:
        """``{'name{label="v"}': value}`` for every series."""
        return {
            name + suffix: value
            for name, suffix, value in self.samples(cycle_independent_only)
        }

    def to_json(self, indent: Optional[int] = None, **extra: object) -> str:
        payload: dict[str, object] = {
            "namespace": self.namespace,
            **extra,
            "metrics": self.snapshot(),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, one block per family."""
        lines: list[str] = []
        for family in self.families():
            meta = family.meta
            full = f"{self.namespace}_{meta.name}"
            if meta.help:
                lines.append(f"# HELP {full} {meta.help}")
            lines.append(f"# TYPE {full} {meta.kind}")
            for name, suffix, value in _family_samples(family):
                rendered = int(value) if float(value).is_integer() else value
                lines.append(f"{self.namespace}_{name}{suffix} {rendered}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Hardware-style readout
    # ------------------------------------------------------------------
    def register_file(self, name: str = "telemetry"):
        """The registry as a read-only AXI4-Lite counter block.

        Counters and gauges become live-backed registers (histograms
        contribute their ``_sum``/``_count``); the block carries the
        paired ``_hi``/``_lo`` 64-bit face of
        :func:`~repro.cores.stats.counters_register_file`, so wide
        counters survive register-width truncation.
        """
        from repro.cores.stats import counters_register_file

        getters: dict[str, Callable[[], int]] = {}
        for family in self.families():
            meta = family.meta
            for labelvalues, child in family.children():
                reg = _register_name(meta.name, meta.labelnames, labelvalues)
                if meta.kind == "histogram":
                    assert isinstance(child, Histogram)
                    getters[f"{reg}_sum"] = lambda c=child: int(c.sum)
                    getters[f"{reg}_count"] = lambda c=child: c.count
                else:
                    getters[reg] = lambda c=child: int(c.get())  # type: ignore[union-attr]
        return counters_register_file(name, getters)


def _family_samples(family: _Family) -> Iterator[tuple[str, str, float]]:
    # Reuse the registry sample expansion for a single family.
    registry = MetricsRegistry()
    registry._families[family.meta.name] = family
    yield from registry.samples()


def _register_name(
    name: str, labelnames: tuple[str, ...], labelvalues: tuple[str, ...]
) -> str:
    parts = [name]
    for k, v in zip(labelnames, labelvalues):
        parts.append(f"{k}_{v}")
    safe = "_".join(parts)
    return "".join(c if c.isalnum() or c == "_" else "_" for c in safe)
