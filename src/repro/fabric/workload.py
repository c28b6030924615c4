"""Seeded workload generators: flow descriptions over fabric hosts.

A workload is a *description*, not traffic: :func:`generate_flows`
expands a picklable :class:`WorkloadSpec` into a list of :class:`Flow`
records — host pairs, frame sizes, packet counts, start ticks and
inter-arrival gaps — using only RNG streams derived from the spec's
seed (one independent stream per flow, via
:func:`repro.faults.derive_seed`).  That makes the expansion a pure
function of ``(hosts, spec)`` flow by flow: every shard worker expands
exactly the flows whose ``flow_id`` falls in its slice, as any other
process would, with no flow state shipped between processes.

Three inter-arrival patterns cover the paper's evaluation shapes:

``uniform``
    Flows start evenly spread across the run window; sources and
    destinations drawn uniformly at random.  The steady-state baseline.

``bursty``
    Flows arrive in synchronized waves (every ``burst_gap`` ticks a
    burst of flows starts at once) — the on/off traffic that stresses
    output queues.

``incast``
    Many senders converge on one rotating sink host per wave — the
    classic partition/aggregate datacenter pattern and the worst case
    for the sink's edge link.

Request/response: flows with ``response_packets > 0`` send a reverse
flow (sink back to source) after the request finishes, modelling RPC
semantics rather than one-way streams.
"""

from __future__ import annotations

import _random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional

from repro.faults import seed_stream

PATTERNS = ("uniform", "bursty", "incast")

#: Frame sizes drawn for flows, IMIX-flavoured (small-heavy).
_SIZE_CHOICES = (64, 128, 256, 576, 1024, 1518)
_SIZE_WEIGHTS = (7, 4, 3, 3, 2, 1)
_SIZE_CUM_WEIGHTS = tuple(accumulate(_SIZE_WEIGHTS))


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable, seeded workload description.

    ``flows`` request flows are generated over the run window of
    ``window_ticks`` virtual ticks.  ``packets_per_flow`` bounds the
    request length (drawn 1..bound per flow); ``response_ratio`` is the
    fraction of flows that get a reverse response flow.
    """

    pattern: str = "uniform"
    flows: int = 100
    seed: int = 0
    packets_per_flow: int = 4
    window_ticks: int = 256
    burst_gap: int = 32
    response_ratio: float = 0.5
    #: Fraction of flows carrying an in-band-telemetry trailer
    #: (:mod:`repro.int`); 0.0 keeps the workload byte-identical to
    #: pre-INT specs.
    int_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown workload pattern {self.pattern!r}; "
                f"available: {PATTERNS}"
            )
        if self.flows < 1:
            raise ValueError("workload needs at least one flow")
        if self.packets_per_flow < 1:
            raise ValueError("packets_per_flow must be >= 1")
        if self.window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        if self.burst_gap < 1:
            raise ValueError("burst_gap must be >= 1")
        if not 0.0 <= self.response_ratio <= 1.0:
            raise ValueError("response_ratio must be in [0, 1]")
        if not 0.0 <= self.int_ratio <= 1.0:
            raise ValueError("int_ratio must be in [0, 1]")

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return WorkloadSpec(
            self.pattern, self.flows, seed, self.packets_per_flow,
            self.window_ticks, self.burst_gap, self.response_ratio,
            self.int_ratio,
        )

    @property
    def key(self) -> str:
        """Canonical identity string, part of every run fingerprint."""
        # The int marker appears only when set, so every pre-INT spec's
        # key (and with it every recorded fingerprint input) is stable.
        int_part = f",int={self.int_ratio}" if self.int_ratio else ""
        return (
            f"{self.pattern}(flows={self.flows},ppf={self.packets_per_flow},"
            f"window={self.window_ticks},burst={self.burst_gap},"
            f"resp={self.response_ratio}{int_part})"
        )


@dataclass(frozen=True)
class Flow:
    """One generated flow: who talks to whom, how much, and when."""

    flow_id: int
    src: str
    dst: str
    frame_size: int
    packets: int
    response_packets: int
    start_tick: int
    gap_ticks: int
    #: Whether this flow's frames carry an INT trailer (stamped per hop,
    #: collected at the receiving edge).
    int_enabled: bool = False

    @property
    def request_bytes(self) -> int:
        return self.frame_size * self.packets


def generate_flows(
    hosts: list[str], spec: WorkloadSpec,
    ids: Optional[Iterable[int]] = None,
) -> list[Flow]:
    """Expand a spec into flows over ``hosts`` — pure in (hosts, spec).

    Each flow draws from its own RNG stream seeded by
    ``derive_seed(spec.seed, "flow", i)``, so the description of flow
    ``i`` never depends on how many flows came before it or on which
    shard regenerates it — so ``ids`` (default: all ``spec.flows``)
    expands just the flows named, each as the full expansion has it.
    What does not vary with the flow (the seed's rendered prefix, the
    generator object, each host's peers) is set up once; every draw is
    the one a fresh ``random.Random(derive_seed(...))`` would make,
    made without its Python layers: ``choice`` / ``randint`` /
    ``randrange`` are ``below`` (CPython's ``_randbelow``), ``choices``
    a bisect of ``random() * total``.
    """
    if len(hosts) < 2:
        raise ValueError("workload needs at least two hosts")
    flow_seed = seed_stream(spec.seed, "flow")
    rng = _random.Random()
    seed, bits, uniform = rng.seed, rng.getrandbits, rng.random

    def below(n: int) -> int:
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    peers = {host: [h for h in hosts if h != host] for host in hosts}
    n_hosts, n_peers = len(hosts), len(hosts) - 1
    # bursty and incast: synchronized waves every burst_gap ticks.
    waves = max(1, spec.window_ticks // spec.burst_gap)
    size_total, size_hi = float(_SIZE_CUM_WEIGHTS[-1]), len(_SIZE_CHOICES) - 1
    flows: list[Flow] = []
    for i in range(spec.flows) if ids is None else ids:
        seed(flow_seed(i))
        if spec.pattern == "incast":
            # One rotating sink per wave; everyone else fans in.
            dst = hosts[i % waves % n_hosts]
            src = peers[dst][below(n_peers)]
        else:
            src = hosts[below(n_hosts)]
            dst = peers[src][below(n_peers)]
        packets = 1 + below(spec.packets_per_flow)
        responds = uniform() < spec.response_ratio
        frame_size = _SIZE_CHOICES[bisect(
            _SIZE_CUM_WEIGHTS, uniform() * size_total, 0, size_hi)]
        response_packets = 1 + below(packets) if responds else 0
        start_tick = (below(spec.window_ticks) if spec.pattern == "uniform"
                      else i % waves * spec.burst_gap)
        gap_ticks = 1 + below(4)
        # Drawn last so int_ratio == 0 consumes no RNG and every
        # pre-INT flow list is regenerated bit-for-bit.
        int_enabled = bool(spec.int_ratio) and uniform() < spec.int_ratio
        flows.append(Flow(i, src, dst, frame_size, packets, response_packets,
                          start_tick, gap_ticks, int_enabled))
    return flows


#: Named workload presets (`nf-mon fabric --workload <name>`).
WORKLOADS: dict[str, WorkloadSpec] = {
    "uniform-small": WorkloadSpec("uniform", flows=64, packets_per_flow=2,
                                  window_ticks=128),
    "uniform-1k": WorkloadSpec("uniform", flows=1000, packets_per_flow=4,
                               window_ticks=1024),
    "bursty-256": WorkloadSpec("bursty", flows=256, packets_per_flow=4,
                               window_ticks=256, burst_gap=32),
    "incast-64": WorkloadSpec("incast", flows=64, packets_per_flow=3,
                              window_ticks=128, burst_gap=16,
                              response_ratio=0.25),
    "uniform-int": WorkloadSpec("uniform", flows=64, packets_per_flow=2,
                                window_ticks=128, int_ratio=1.0),
}


def get_workload(name: str) -> WorkloadSpec:
    """Resolve a preset name, with the registry's friendly error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric workload {name!r}; "
            f"available: {tuple(sorted(WORKLOADS))}"
        ) from None
