"""Seeded, reproducible fault plans.

A :class:`FaultPlan` is a *description*: which sites fault, at what
rates, with what burst bounds.  Opening a :class:`FaultSession` turns it
into deterministic per-site decision streams — each site gets its own
``random.Random`` seeded from ``sha256(seed, site)``, so the schedule
depends only on ``(seed, spec)`` and never on Python's salted ``hash()``
or on how other sites interleave.  Two sessions from the same plan
produce bit-identical schedules; that is what lets the unified test
environment run the *same* fault plan against the ``sim`` and ``hw``
targets and demand identical recovery counters.

The four sites mirror how real boards fail:

``link``  bit flips (FCS failures at the peer MAC) and link flaps on the
          wire — recoverable by retransmission;
``dma``   descriptor-fetch stalls, dropped RX completion write-backs
          (the classic wedged-ring symptom) and lost TX doorbells —
          recoverable by the driver watchdog;
``mmio``  AXI4-Lite register reads timing out on the PCIe round trip —
          recoverable by bounded retry with backoff;
``oq``    output-queue pressure spikes (phantom occupancy) — absorbed as
          counted drops / early ECN marks, never a wedge.

Burst bounds make recovery *provable*: a spec's ``max_burst`` caps how
many consecutive faults a site may emit, so any retry budget larger than
the burst is guaranteed to succeed — unless the plan explicitly allows
permanent loss (``lose_rate``), which the harness then accounts as clean,
counted loss.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

SITES = (
    "link", "dma_rx", "dma_tx", "dma_db", "mmio", "oq",
    # Control-plane sites (the resilience subsystem's fault surface):
    # posted register writes, soft device resets, per-port link flaps.
    "ctrl_wr", "ctrl_rst", "ctrl_flap",
    # Data-plane link-state sites (the fast-reroute subsystem's fault
    # surface): whether a fabric cable loses light this epoch, and for
    # how many epochs it stays dark.
    "link_down", "link_up",
    # Shard-executor sites (the supervised fabric executor's fault
    # surface): whether a worker process crashes, wedges, or returns a
    # corrupted result.  Drawn once per (shard, attempt) launch.
    "shard_crash", "shard_hang", "shard_corrupt",
)


def derive_seed(seed: int, *parts: object) -> int:
    """A process-stable sub-seed (built-in ``hash`` is salted; sha256 is not).

    Any decision stream that must be independent of draw *order* — the
    fabric engine's per-flow wire faults, per-(host, epoch) link flaps —
    derives its own seed from the plan seed plus an identity tuple, so
    the outcome is a pure function of ``(seed, parts)`` no matter how
    work is interleaved or sharded across processes.
    """
    text = ":".join([str(seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seed_stream(seed: int, *parts: object) -> Callable[[object], int]:
    """``derive_seed(seed, *parts, last)`` as a function of ``last``:
    the prefix a loop over one stream shares (``"<seed>:flow:"`` under
    every flow id) is rendered and hashed once, here."""
    prefix = hashlib.sha256(
        ":".join([str(seed), *map(str, parts), ""]).encode())

    def derive(last: object) -> int:
        digest = prefix.copy()
        digest.update(str(last).encode())
        return int.from_bytes(digest.digest()[:8], "big")

    return derive


def _check_rates(*rates: float) -> None:
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate {rate} outside [0, 1]")
    if sum(rates) > 1.0:
        raise ValueError(f"fault rates sum to {sum(rates)} > 1")


@dataclass(frozen=True)
class LinkFaultSpec:
    """Wire-level faults applied per transfer attempt."""

    drop_rate: float = 0.0  # link flap: the frame vanishes on the wire
    corrupt_rate: float = 0.0  # bit flip: the frame fails FCS at the peer
    lose_rate: float = 0.0  # permanent loss: retransmission cannot rescue it
    max_burst: int = 3  # consecutive recoverable faults before forced delivery
    max_attempts: int = 8  # per-frame retransmit budget at the harness

    def __post_init__(self) -> None:
        _check_rates(self.drop_rate, self.corrupt_rate, self.lose_rate)
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")
        if self.max_attempts <= self.max_burst:
            raise ValueError("max_attempts must exceed max_burst or no retry can win")

    @cached_property
    def bands(self) -> tuple[float, float, float]:
        """Upper edges of a draw's 'lose', 'drop' and 'corrupt' bands
        ('deliver' from the last one up).  Summed once, in one order:
        every classifier of a draw compares against these floats."""
        lose_drop = self.lose_rate + self.drop_rate
        return self.lose_rate, lose_drop, lose_drop + self.corrupt_rate


@dataclass(frozen=True)
class DmaFaultSpec:
    """DMA-engine faults: stalls, dropped completions, lost doorbells."""

    stall_rate: float = 0.0
    stall_ns: float = 20_000.0
    drop_completion_rate: float = 0.0  # RX write-back lost -> head-of-line wedge
    drop_doorbell_rate: float = 0.0  # TX doorbell MMIO lost -> engine never kicks
    max_burst: int = 1

    def __post_init__(self) -> None:
        _check_rates(self.stall_rate, self.drop_completion_rate)
        _check_rates(self.drop_doorbell_rate)
        if self.stall_ns < 0:
            raise ValueError("stall_ns must be non-negative")
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")


@dataclass(frozen=True)
class MmioFaultSpec:
    """AXI4-Lite read timeouts, burst-bounded so bounded retry succeeds."""

    timeout_rate: float = 0.0
    max_burst: int = 2

    def __post_init__(self) -> None:
        _check_rates(self.timeout_rate)
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")


@dataclass(frozen=True)
class OqFaultSpec:
    """Output-queue pressure spikes: phantom occupancy on enqueue."""

    spike_rate: float = 0.0
    spike_bytes: int = 48 * 1024

    def __post_init__(self) -> None:
        _check_rates(self.spike_rate)
        if self.spike_bytes <= 0:
            raise ValueError("spike_bytes must be positive")


@dataclass(frozen=True)
class CtrlFaultSpec:
    """Control-plane faults: the ways management software loses the device.

    ``write_drop_rate`` / ``write_corrupt_rate`` fault *posted* register
    and table writes — the write completes from the host's point of view
    but never lands (or lands mangled) in hardware.  Burst-bounded, so a
    verified-write retry budget larger than ``max_burst`` always wins.
    ``reset_rate`` is drawn once per soak epoch: a soft device reset that
    wipes the volatile tables while software state survives.
    ``flap_rate`` is drawn per (epoch, port): the port's link goes down
    for the epoch and its traffic is counted as flap loss, never
    silently blackholed.
    """

    write_drop_rate: float = 0.0
    write_corrupt_rate: float = 0.0
    reset_rate: float = 0.0
    flap_rate: float = 0.0
    max_burst: int = 2

    def __post_init__(self) -> None:
        _check_rates(self.write_drop_rate, self.write_corrupt_rate)
        _check_rates(self.reset_rate)
        _check_rates(self.flap_rate)
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")


@dataclass(frozen=True)
class LinkStateSpec:
    """Fabric cable failures: link goes dark for whole epochs.

    Unlike :class:`CtrlFaultSpec`'s per-(host, epoch) edge flaps, these
    cut *switch-switch* cables — the failure fast reroute protects
    against.  ``down_rate`` is drawn once per (link, epoch) from the
    ``link_down`` site; a firing link stays dark for a duration drawn
    from the ``link_up`` site in ``[min_down_epochs, max_down_epochs]``.
    """

    down_rate: float = 0.0
    min_down_epochs: int = 1
    max_down_epochs: int = 4

    def __post_init__(self) -> None:
        _check_rates(self.down_rate)
        if self.min_down_epochs < 1:
            raise ValueError("min_down_epochs must be >= 1")
        if self.max_down_epochs < self.min_down_epochs:
            raise ValueError("max_down_epochs must be >= min_down_epochs")


@dataclass(frozen=True)
class ShardFaultSpec:
    """Shard-executor faults: the ways a worker process loses a shard.

    These sites perturb *how* a sharded fabric run executes, never
    *what* it computes: the supervised executor retries, falls back
    inline, or re-runs corrupted shards, so the merged report is
    byte-identical to a clean run's.  One action is drawn per
    ``(shard, attempt)`` launch from derived sub-seeds —
    ``plan.derived("shard", index, attempt)`` — so the crash schedule
    is a pure function of the chaos seed, independent of timing.

    ``crash_rate``   the worker exits without a result (OOM-kill, segv);
    ``hang_rate``    the worker wedges — heartbeats stop, work never
                     finishes — until the supervisor kills it;
    ``corrupt_rate`` the worker's result is mangled in the result
                     channel (detected at the merge boundary by the
                     fingerprint/partition integrity checks).
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rates(self.crash_rate)
        _check_rates(self.hang_rate)
        _check_rates(self.corrupt_rate)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of faults across the platform's sites."""

    name: str
    seed: int = 0
    link: Optional[LinkFaultSpec] = None
    dma: Optional[DmaFaultSpec] = None
    mmio: Optional[MmioFaultSpec] = None
    oq: Optional[OqFaultSpec] = None
    ctrl: Optional[CtrlFaultSpec] = None
    link_state: Optional[LinkStateSpec] = None
    shard: Optional[ShardFaultSpec] = None

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def derived(self, *parts: object) -> "FaultPlan":
        """The same specs under a sub-seed bound to ``parts``.

        ``plan.derived("fabric", flow_id).session()`` gives every flow
        its own deterministic decision stream: draws for one flow never
        perturb another's, which is what keeps a sharded fabric run's
        fault schedule identical to the single-process one.
        """
        return self.with_seed(derive_seed(self.seed, *parts))

    def sessions(self, *parts: object) -> Callable[[object], "FaultSession"]:
        """``last -> self.derived(*parts, last).session()``, draw for
        draw, with the shared seed prefix hashed once (see
        :func:`seed_stream`): the fabric engine opens one per flow."""
        derive = seed_stream(self.seed, *parts)
        return lambda last: FaultSession(self, derive(last))

    def session(self) -> "FaultSession":
        """Open a fresh deterministic decision stream for one run."""
        return FaultSession(self)


@dataclass(frozen=True)
class FaultReport:
    """Snapshot of one session: what fired, what was recovered, what was lost."""

    plan: str
    seed: int
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def frames_lost(self) -> int:
        return self.counters.get("link_lost", 0)

    @property
    def retransmits(self) -> int:
        return self.counters.get("link_retransmits", 0)


class _SiteRngs(dict):
    """``site -> random.Random``, each seeded on its first draw.

    A site's stream depends only on ``(seed, site)``, so which site is
    consulted first cannot matter — and a session whose plan arms one
    site (or none: the fabric engine opens one per flow) never pays
    for the other thirteen generators' seeding and state.
    """

    def __init__(self, seed: int):
        super().__init__()
        self._seed = seed

    def __missing__(self, site: str) -> random.Random:
        rng = self[site] = random.Random(derive_seed(self._seed, site))
        return rng


class FaultSession:
    """Runtime state of one plan execution: per-site RNGs, bursts, counters.

    All draws are deterministic functions of ``(seed, site, draw
    index)``; consulting one site never perturbs another.  The wire's
    entry is :meth:`link_transfers` (a run of transfers, retransmission
    included, in one call); :meth:`link_attempt` is one attempt of one.
    """

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None):
        self.plan = plan
        #: The stream's seed: the plan's unless one is given (a
        #: :meth:`FaultPlan.sessions` opener's derived seed).
        self.seed = plan.seed if seed is None else seed
        self._rng = _SiteRngs(self.seed)
        self._burst = dict.fromkeys(SITES, 0)
        self.counters: Counter[str] = Counter()
        #: Telemetry hook: ``hook(site, outcome)`` called for every fault
        #: decision that actually fires.  Observation only — it must not
        #: (and cannot) perturb the decision streams.
        self.on_fault: Optional[Callable[[str, str], None]] = None

    def _notify(self, site: str, outcome: str) -> None:
        if self.on_fault is not None:
            self.on_fault(site, outcome)

    # -- shared draw machinery -----------------------------------------
    def _draw(self, site: str, fault_rate: float, max_burst: int) -> bool:
        """One burst-bounded biased coin for ``site``; True means fault."""
        fault = self._rng[site].random() < fault_rate
        if fault and self._burst[site] >= max_burst:
            fault = False  # burst cap: force the site to behave
        self._burst[site] = self._burst[site] + 1 if fault else 0
        return fault

    # -- link ----------------------------------------------------------
    def link_attempt(self) -> str:
        """One wire transfer attempt: 'deliver' | 'drop' | 'corrupt' | 'lose'.

        The single-attempt entry, for :meth:`mangle_wire`; transfers
        (attempts until settled) go through :meth:`link_transfers`."""
        spec = self.plan.link
        if spec is None:
            return "deliver"
        lose_below, drop_below, corrupt_below = spec.bands
        r = self._rng["link"].random()
        if r < lose_below:  # leaves the burst count standing
            outcome = "lose"
        elif r >= corrupt_below or self._burst["link"] >= spec.max_burst:
            outcome = "deliver"  # by the draw, or forced by the burst cap
            self._burst["link"] = 0
        else:
            outcome = "drop" if r < drop_below else "corrupt"
            self._burst["link"] += 1
        self.counters[f"link_{outcome}"] += 1
        if outcome != "deliver":
            self._notify("link", outcome)
        return outcome

    def link_transfers(self, n: int) -> list[int]:
        """``n`` transfers with retransmission; returns the indices lost.

        Models the harness contract: up to ``max_attempts`` tries each,
        every drop/corrupt answered by a counted retransmit; lost only
        to 'lose' (or an exhausted budget — which the burst cap makes
        impossible).  Draw for draw it is :meth:`link_attempt` in that
        loop, the burst count and counters held in locals and written
        back once: however a run is cut into calls, same session.
        """
        spec = self.plan.link
        if spec is None:
            return []
        random = self._rng["link"].random
        lose_below, drop_below, corrupt_below = spec.bands
        max_burst, attempts = spec.max_burst, range(spec.max_attempts)
        burst, notify = self._burst["link"], self.on_fault
        drops = corrupts = loses = retransmits = 0
        lost: list[int] = []
        for index in range(n):
            for attempt in attempts:
                r = random()
                if r < lose_below:
                    loses += 1
                    lost.append(index)
                    if notify is not None:
                        notify("link", "lose")
                    break
                if r >= corrupt_below or burst >= max_burst:
                    burst = 0
                    retransmits += attempt
                    break
                burst += 1
                if r < drop_below:
                    drops += 1
                    outcome = "drop"
                else:
                    corrupts += 1
                    outcome = "corrupt"
                if notify is not None:
                    notify("link", outcome)
            else:
                lost.append(index)
        self._burst["link"] = burst
        counters, lost_count = self.counters, len(lost)
        if lost_count < n:  # a first-try delivery still creates the key
            counters["link_deliver"] += n - lost_count
            counters["link_retransmits"] += retransmits
        for key, count in (("link_drop", drops), ("link_corrupt", corrupts),
                           ("link_lose", loses), ("link_lost", lost_count)):
            if count:
                counters[key] += count
        return lost

    def link_transfer(self) -> bool:
        """One transfer: True iff eventually delivered."""
        return not self.link_transfers(1)

    def mangle_wire(self, on_wire: bytes) -> Optional[bytes]:
        """MAC tx-mangle hook: corrupt (bit flip) or drop (None) a frame."""
        spec = self.plan.link
        if spec is None:
            return on_wire
        outcome = self.link_attempt()
        if outcome in ("drop", "lose"):
            return None
        if outcome == "corrupt" and on_wire:
            at = self._rng["link"].randrange(len(on_wire))
            flipped = bytearray(on_wire)
            flipped[at] ^= 0x01
            return bytes(flipped)
        return on_wire

    # -- dma -----------------------------------------------------------
    def dma_fault(self, site: str) -> tuple[str, float]:
        """Decision for a :class:`~repro.board.pcie.DmaEngine` site.

        ``site`` is 'rx_completion' | 'tx_fetch' | 'doorbell'; returns
        ``(outcome, stall_ns)`` with outcome 'ok' | 'drop' | 'stall'.
        """
        spec = self.plan.dma
        if spec is None:
            return ("ok", 0.0)
        if site == "rx_completion":
            r = self._rng["dma_rx"].random()
            if r < spec.drop_completion_rate:
                if self._capped("dma_rx", spec.max_burst):
                    return ("ok", 0.0)  # burst cap forced this one through
                self.counters["dma_completion_dropped"] += 1
                self._notify("dma_rx", "drop")
                return ("drop", 0.0)
            if r < spec.drop_completion_rate + spec.stall_rate:
                self.counters["dma_stalls"] += 1
                self._notify("dma_rx", "stall")
                return ("stall", spec.stall_ns)
            return ("ok", 0.0)
        if site == "tx_fetch":
            if self._draw("dma_tx", spec.stall_rate, spec.max_burst):
                self.counters["dma_stalls"] += 1
                self._notify("dma_tx", "stall")
                return ("stall", spec.stall_ns)
            return ("ok", 0.0)
        if site == "doorbell":
            if self._draw("dma_db", spec.drop_doorbell_rate, spec.max_burst):
                self.counters["dma_doorbell_dropped"] += 1
                self._notify("dma_db", "drop")
                return ("drop", 0.0)
            return ("ok", 0.0)
        raise ValueError(f"unknown DMA fault site {site!r}")

    def _capped(self, site: str, max_burst: int) -> bool:
        """Track a burst; True when the cap forces this fault off."""
        if self._burst[site] >= max_burst:
            self._burst[site] = 0
            return True
        self._burst[site] += 1
        return False

    # -- mmio ----------------------------------------------------------
    def mmio_read_faults(self) -> bool:
        """True when this MMIO read should time out."""
        spec = self.plan.mmio
        if spec is None:
            return False
        fault = self._draw("mmio", spec.timeout_rate, spec.max_burst)
        if fault:
            self.counters["mmio_timeouts"] += 1
            self._notify("mmio", "timeout")
        return fault

    # -- control plane ---------------------------------------------------
    def ctrl_write(self) -> str:
        """One posted control-register write: 'ok' | 'drop' | 'corrupt'.

        Burst-bounded like the wire: after ``max_burst`` consecutive
        faulted writes the next one is forced through, so any verified-
        write retry budget exceeding the burst is guaranteed to land.
        """
        spec = self.plan.ctrl
        if spec is None:
            return "ok"
        r = self._rng["ctrl_wr"].random()
        if r < spec.write_drop_rate:
            outcome = "drop"
        elif r < spec.write_drop_rate + spec.write_corrupt_rate:
            outcome = "corrupt"
        else:
            outcome = "ok"
        if outcome != "ok":
            if self._burst["ctrl_wr"] >= spec.max_burst:
                outcome = "ok"
            else:
                self._burst["ctrl_wr"] += 1
        if outcome == "ok":
            self._burst["ctrl_wr"] = 0
        else:
            self.counters[f"ctrl_write_{outcome}"] += 1
            self._notify("ctrl_wr", outcome)
        return outcome

    def device_reset_faults(self) -> bool:
        """True when this epoch suffers a soft device reset (tables wiped)."""
        spec = self.plan.ctrl
        if spec is None:
            return False
        fault = self._rng["ctrl_rst"].random() < spec.reset_rate
        if fault:
            self.counters["ctrl_resets"] += 1
            self._notify("ctrl_rst", "reset")
        return fault

    def link_flap_faults(self) -> bool:
        """True when this (epoch, port) draw flaps the link down."""
        spec = self.plan.ctrl
        if spec is None:
            return False
        fault = self._rng["ctrl_flap"].random() < spec.flap_rate
        if fault:
            self.counters["ctrl_flaps"] += 1
            self._notify("ctrl_flap", "flap")
        return fault

    # -- data-plane link state -------------------------------------------
    def link_down_faults(self) -> bool:
        """True when this (link, epoch) draw cuts the cable."""
        spec = self.plan.link_state
        if spec is None:
            return False
        fault = self._rng["link_down"].random() < spec.down_rate
        if fault:
            self.counters["link_down_events"] += 1
            self._notify("link_down", "down")
        return fault

    def link_down_epochs(self) -> int:
        """How many epochs a cut cable stays dark (>= 1)."""
        spec = self.plan.link_state
        if spec is None:
            return 0
        return self._rng["link_up"].randint(
            spec.min_down_epochs, spec.max_down_epochs
        )

    # -- shard executor ---------------------------------------------------
    def shard_fault(self) -> Optional[str]:
        """The chaos action for one ``(shard, attempt)`` worker launch.

        Returns ``None`` (healthy launch) or one of ``'crash'``,
        ``'hang'``, ``'corrupt'``.  Each action draws from its own
        site stream, checked in severity order, so the schedule for
        one action never perturbs another's.  The supervisor opens a
        fresh derived session per launch, making the whole chaos
        schedule a pure function of ``(seed, shard, attempt)``.
        """
        spec = self.plan.shard
        if spec is None:
            return None
        if self._rng["shard_crash"].random() < spec.crash_rate:
            self.counters["shard_crashes"] += 1
            self._notify("shard_crash", "crash")
            return "crash"
        if self._rng["shard_hang"].random() < spec.hang_rate:
            self.counters["shard_hangs"] += 1
            self._notify("shard_hang", "hang")
            return "hang"
        if self._rng["shard_corrupt"].random() < spec.corrupt_rate:
            self.counters["shard_corrupt_results"] += 1
            self._notify("shard_corrupt", "corrupt")
            return "corrupt"
        return None

    # -- output queues --------------------------------------------------
    def oq_pressure(self) -> int:
        """Phantom backlog bytes to add to this enqueue decision."""
        spec = self.plan.oq
        if spec is None:
            return 0
        if self._rng["oq"].random() < spec.spike_rate:
            self.counters["oq_spikes"] += 1
            self._notify("oq", "spike")
            return spec.spike_bytes
        return 0

    # -- reporting -------------------------------------------------------
    def report(self) -> FaultReport:
        return FaultReport(self.plan.name, self.seed, dict(self.counters))


# ----------------------------------------------------------------------
# Named plan registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[int], FaultPlan]] = {}


def register_plan(name: str, factory: Callable[[int], FaultPlan]) -> None:
    """Register ``factory(seed) -> FaultPlan`` under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"fault plan {name!r} already registered")
    _REGISTRY[name] = factory


def get_plan(name: str, seed: int = 0) -> FaultPlan:
    """Instantiate a named plan with the given seed."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; available: {available_plans()}"
        ) from None
    return factory(seed)


def available_plans() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


register_plan(
    "lossy-link",
    lambda seed: FaultPlan(
        "lossy-link", seed,
        link=LinkFaultSpec(drop_rate=0.20, corrupt_rate=0.15, max_burst=3, max_attempts=8),
    ),
)
register_plan(
    "black-hole",
    lambda seed: FaultPlan(
        "black-hole", seed,
        link=LinkFaultSpec(drop_rate=0.10, lose_rate=0.25, max_burst=2, max_attempts=6),
    ),
)
register_plan(
    "wedged-ring",
    lambda seed: FaultPlan(
        "wedged-ring", seed,
        dma=DmaFaultSpec(drop_completion_rate=1.0, max_burst=1),
    ),
)
register_plan(
    "stalled-dma",
    lambda seed: FaultPlan(
        "stalled-dma", seed,
        dma=DmaFaultSpec(stall_rate=0.30, stall_ns=25_000.0, max_burst=4),
    ),
)
register_plan(
    "flaky-mmio",
    lambda seed: FaultPlan(
        "flaky-mmio", seed, mmio=MmioFaultSpec(timeout_rate=0.5, max_burst=2)
    ),
)
register_plan(
    "oq-pressure",
    lambda seed: FaultPlan(
        "oq-pressure", seed, oq=OqFaultSpec(spike_rate=0.3, spike_bytes=48 * 1024)
    ),
)
register_plan(
    "flaky-writes",
    lambda seed: FaultPlan(
        "flaky-writes", seed,
        ctrl=CtrlFaultSpec(write_drop_rate=0.25, write_corrupt_rate=0.15,
                           max_burst=2),
    ),
)
register_plan(
    "amnesiac",
    lambda seed: FaultPlan(
        "amnesiac", seed,
        ctrl=CtrlFaultSpec(reset_rate=0.4, write_drop_rate=0.10, max_burst=2),
    ),
)
register_plan(
    "ctrl-chaos",
    lambda seed: FaultPlan(
        "ctrl-chaos", seed,
        ctrl=CtrlFaultSpec(write_drop_rate=0.20, write_corrupt_rate=0.10,
                           reset_rate=0.25, flap_rate=0.15, max_burst=2),
    ),
)
register_plan(
    "flaky-fabric",
    lambda seed: FaultPlan(
        "flaky-fabric", seed,
        link=LinkFaultSpec(drop_rate=0.08, corrupt_rate=0.04, lose_rate=0.03,
                           max_burst=2, max_attempts=6),
        ctrl=CtrlFaultSpec(flap_rate=0.10, max_burst=2),
    ),
)
register_plan(
    "frr-chaos",
    lambda seed: FaultPlan(
        "frr-chaos", seed,
        link_state=LinkStateSpec(down_rate=0.05, min_down_epochs=1,
                                 max_down_epochs=3),
    ),
)
register_plan(
    "shard-chaos",
    lambda seed: FaultPlan(
        "shard-chaos", seed,
        shard=ShardFaultSpec(crash_rate=0.30, hang_rate=0.10,
                             corrupt_rate=0.20),
    ),
)
register_plan(
    "shard-killer",
    lambda seed: FaultPlan(
        "shard-killer", seed,
        shard=ShardFaultSpec(crash_rate=1.0),
    ),
)
register_plan(
    "chaos",
    lambda seed: FaultPlan(
        "chaos", seed,
        link=LinkFaultSpec(drop_rate=0.10, corrupt_rate=0.05, max_burst=2, max_attempts=8),
        dma=DmaFaultSpec(stall_rate=0.10, drop_completion_rate=0.05,
                         drop_doorbell_rate=0.05, max_burst=1),
        mmio=MmioFaultSpec(timeout_rate=0.2, max_burst=2),
        oq=OqFaultSpec(spike_rate=0.1),
    ),
)
