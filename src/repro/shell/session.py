"""The shell session: every REPL command as a plain Python API.

A :class:`ShellSession` owns one live fabric — a built
:class:`~repro.fabric.topo.FabricTopology`, an optional running
:class:`~repro.fabric.scheduler.FlowEngine`, and the
:class:`~repro.shell.clock.VirtualClock` that paces it.  The
line-oriented REPL (:mod:`repro.shell.repl`) is a thin front end: it
parses words and calls these methods; everything it prints is rendered
from the structured values returned here, so tests (and any other
tool) can drive a session without a terminal.

The determinism contract this module is built around: a session that
does ``build → start → run → finish`` produces a
:class:`~repro.fabric.scheduler.FabricReport` whose fingerprint is
**byte-identical** to the equivalent batch
:func:`~repro.fabric.scheduler.run_flows` call — stepping, pausing and
warping in between changes nothing, and observation commands
(``pingall``, ``tables``, ``status``, ``int paths``, ``metrics``) are
non-perturbing (``pingall`` probes run inside
:meth:`~repro.testenv.topology.Network.sandbox`).  Mutation commands
(``link down|up``, ``inject``) *do* move observables — that is their
point — and are exactly as deterministic as the script that issues
them.

Error taxonomy, mirrored into exit codes by the REPL's script mode:
:class:`ShellError` (and registry ``ValueError``\\ s) are operator
errors → exit 2; :class:`ExpectFailed` is a failed ``expect``
assertion → exit 1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.fabric.scheduler import FabricReport, FlowEngine, RunConfig
from repro.fabric.topo import get_topology
from repro.fabric.workload import get_workload
from repro.faults import FaultPlan, available_plans, get_plan
from repro.packet.addresses import MacAddr
from repro.shell.clock import VirtualClock


class ShellError(ValueError):
    """An operator error: bad argument, wrong phase, unknown name."""


class ExpectFailed(AssertionError):
    """A scripted ``expect`` assertion did not hold."""


def _one_hot_port(value: int) -> int:
    """CAM values are SUME one-hot port bytes (phys port *i* is bit
    ``2i``, odd bits are DMA queues); recover the physical index."""
    return (value.bit_length() - 1) // 2


class ShellSession:
    """One interactive emulation session over a live fabric."""

    def __init__(
        self,
        topo: str = "leaf-spine",
        workload: str = "uniform-small",
        seed: int = 0,
        plan: Optional[str] = None,
        frr: bool = False,
        int_all: bool = False,
        fastpath: bool = True,
        warp: bool = True,
    ):
        self.clock = VirtualClock(warp=warp)
        self.engine: Optional[FlowEngine] = None
        self._report: Optional[FabricReport] = None
        self.topology = None
        self.topo_name = topo
        self.workload_name = workload
        self.seed = seed
        self.plan: Optional[FaultPlan] = None
        self.config = RunConfig(frr=frr, int_all=int_all, fastpath=fastpath)
        self.build(topo, workload, seed)
        if plan is not None:
            self.faults_arm(plan)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def build(
        self,
        topo: Optional[str] = None,
        workload: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> dict:
        """(Re)build the fabric; discards any previous run.

        A fresh build is required before a second ``start``: device
        counters are cumulative, so re-running a workload over a used
        fabric would fingerprint differently from the batch run it is
        supposed to mirror.
        """
        if topo is not None:
            self.topo_name = topo
        if workload is not None:
            self.workload_name = workload
        if seed is not None:
            self.seed = seed
        self.spec = get_topology(self.topo_name)
        self.workload = get_workload(self.workload_name).with_seed(self.seed)
        self.topology = self.spec.build()
        self.topology.learn()
        if self.config.frr:
            self.topology.install_backups()
        self.engine = None
        self._report = None
        return {
            "topology": self.topology.key,
            "workload": self.workload.key,
            "seed": self.seed,
            "devices": len(self.topology.network.device_names()),
            "hosts": len(self.topology.hosts),
        }

    def start(self) -> dict:
        """Admit the workload and hand the cycle domain to the clock.

        No event dispatches yet — follow with ``run`` / ``step`` /
        ``run-until``.  One run per build (see :meth:`build`).
        """
        if self.engine is not None and not self.engine.finished:
            raise ShellError("a run is already active; `finish` it first")
        if self._report is not None or self.engine is not None:
            raise ShellError(
                "this fabric already carried a run; `build` a fresh one first"
            )
        self.engine = FlowEngine(
            self.topology, self.workload, self.plan, clock=self.clock,
            **vars(self.config),
        )
        return self.status()

    def finish(self) -> dict:
        """Drain whatever is left and close the run's report."""
        engine = self._need_engine()
        self._report = engine.report()
        return self.stats()

    @property
    def report(self) -> Optional[FabricReport]:
        return self._report

    def fingerprint(self) -> str:
        """The finished run's fingerprint (finishing it if needed)."""
        if self._report is None:
            self.finish()
        return self._report.fingerprint()

    def _need_engine(self) -> FlowEngine:
        if self.engine is None:
            raise ShellError("no active run; `start` one first")
        return self.engine

    # ------------------------------------------------------------------
    # Virtual-time control
    # ------------------------------------------------------------------
    def pause(self) -> dict:
        self.clock.pause()
        return self.clock.stats()

    def resume(self) -> dict:
        self.clock.resume()
        return self.clock.stats()

    def warp(self, enabled: bool) -> dict:
        self.clock.set_warp(enabled)
        return self.clock.stats()

    def step(self, events: int = 1) -> dict:
        """Dispatch up to ``events`` heap events, pause or not."""
        if events < 1:
            raise ShellError("step count must be >= 1")
        engine = self._need_engine()
        dispatched = engine.step(events)
        return {"dispatched": dispatched, **self.status()}

    def run(self) -> dict:
        """Dispatch until the run finishes or the clock is paused."""
        engine = self._need_engine()
        self.clock.resume()
        dispatched = engine.run()
        return {"dispatched": dispatched, **self.status()}

    def run_until(self, tick: int) -> dict:
        """Dispatch everything scheduled up to ``tick``, then idle to it."""
        if tick < 0:
            raise ShellError("run-until cycle must be >= 0")
        engine = self._need_engine()
        dispatched = engine.run_until(tick=tick)
        return {"dispatched": dispatched, **self.status()}

    # ------------------------------------------------------------------
    # Observation (non-perturbing)
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Where the session stands: clock ledger + engine progress."""
        out = {
            "topology": self.topology.key,
            "workload": self.workload.key,
            "seed": self.seed,
            "plan": self.plan.name if self.plan is not None else None,
            "frr": self.config.frr,
            "int_all": self.config.int_all,
            "fastpath": self.config.fastpath,
            "clock": self.clock.stats(),
            "finished": self._report is not None,
        }
        if self.engine is not None:
            out["engine"] = self.engine.snapshot()
            out["finished"] = self.engine.finished
        return out

    def devices(self) -> list[str]:
        return self.topology.network.device_names()

    def describe(self) -> str:
        return self.topology.describe()

    def pingall(self) -> dict:
        """Data-plane reachability of every host pair, sandboxed."""
        pings = self.topology.pingall()
        unreachable = sorted(
            pair for pair, ping in pings.items() if not ping.delivered
        )
        duplicated = sorted(
            pair for pair, ping in pings.items() if ping.copies > 1
        )
        return {
            "pairs": len(pings),
            "delivered": sum(1 for p in pings.values() if p.delivered),
            "unreachable": unreachable,
            "duplicated": duplicated,
            "max_hops": max((p.hops for p in pings.values()), default=0),
            "pings": pings,
        }

    def reach(self) -> dict:
        """Graph-level reachability (wiring only) for every host pair."""
        matrix = self.topology.reachability_matrix()
        partitioned = sorted(pair for pair, ok in matrix.items() if not ok)
        return {
            "pairs": len(matrix),
            "connected": sum(1 for ok in matrix.values() if ok),
            "partitioned": partitioned,
            "matrix": matrix,
        }

    def tables(self, device: str) -> dict:
        """One device's CAM/backup/cache state, software-readable."""
        project = self.topology.network.device(device)  # raises on unknown
        out: dict = {"device": device, "counters": dict(project.opl.counters)}
        mac_table = getattr(project, "mac_table", None)
        if mac_table is not None:
            out["mac_table"] = [
                (str(MacAddr(key)), _one_hot_port(value))
                for key, value in mac_table
            ]
        backup = getattr(project, "backup_table", None)
        if backup is not None:
            out["backup_table"] = [
                (str(MacAddr(key)), _one_hot_port(value))
                for key, value in backup
            ]
        cache = getattr(project, "fastpath", None)
        if cache is not None:
            out["flow_cache"] = {
                "entries": len(cache.entries),
                "hits": cache.hits,
                "misses": cache.misses,
            }
        return out

    def int_paths(self) -> dict:
        """Receiver-side INT view of the active run, live."""
        engine = self._need_engine()
        if engine.collector is None:
            raise ShellError(
                "no INT flows in this run; start with int_all or an "
                "INT-carrying workload"
            )
        summary = engine.collector.summary()
        return {
            "paths": summary["paths"],
            "reroutes": summary["reroutes"],
            "reroute_links": summary["reroute_links"],
            "stamps": summary["stamps"],
        }

    def frr_status(self) -> dict:
        """Backup coverage and live reroute/blackhole counters."""
        from repro.frr.backup import backup_coverage

        down = sorted(
            (a.device, b.device)
            for a, b in self.topology.network.links()
            if not self.topology.network.link_is_up(a.device, b.device)
        )
        return {
            "installed": self.config.frr,
            "coverage": (backup_coverage(self.topology)
                         if self.config.frr else 0.0),
            "links_down": down,
            "reroutes": self.topology.device_counters("frr_reroute"),
            "blackholed": self.topology.device_counters("frr_blackhole"),
        }

    def metrics(self) -> dict[str, float]:
        """The run's telemetry series, as a registry snapshot.

        A finished run feeds its full report; an active run publishes
        its live progress counters under the same namespace.
        """
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        if self._report is not None:
            self._report.feed(registry)
        elif self.engine is not None:
            snap = self.engine.snapshot()
            progress = registry.counter(
                "fabric_progress", "Live fabric run progress",
                labelnames=("stage",),
            )
            for stage in ("attempted", "delivered", "lost",
                          "events_dispatched", "pending_events"):
                progress.labels(stage).inc(snap.get(stage, 0))
        return registry.snapshot()

    def stats(self) -> dict:
        """The flat key space ``expect`` asserts against."""
        clock = self.clock.stats()
        out = {
            "now": clock["now"],
            "warp": clock["warp"],
            "paused": clock["paused"],
            "ticks_warped": clock["ticks_warped"],
            "frr": self.config.frr,
            "finished": self._report is not None,
        }
        if self._report is not None:
            report = self._report
            out.update(
                attempted=report.attempted,
                delivered=report.delivered,
                lost=report.lost,
                blackholed=sum(
                    r.blackholed for r in report.records
                ),
                misdelivered=report.misdelivered,
                reroutes=sum(report.device_reroutes.values()),
                healthy=report.healthy(),
                fingerprint=report.fingerprint(),
            )
        elif self.engine is not None:
            snap = self.engine.snapshot()
            out.update(
                attempted=snap.get("attempted", 0),
                delivered=snap.get("delivered", 0),
                lost=snap.get("lost", 0),
                blackholed=snap.get("blackholed", 0),
                misdelivered=snap.get("misdelivered", 0),
                reroutes=sum(
                    self.topology.device_counters("frr_reroute").values()
                ),
                pending=snap["pending_events"],
                finished=snap["finished"],
            )
        return out

    # ------------------------------------------------------------------
    # Mutation (the live-fault surface — these DO move observables)
    # ------------------------------------------------------------------
    def link(self, a: str, b: str, up: bool) -> dict:
        """Pull or re-seat the cable between two devices, mid-run."""
        changed = self.topology.network.set_link_state(a, b, up)
        return {"link": (a, b), "up": up, "changed": changed}

    def inject(self, src: str, dst: str, count: int = 1) -> dict:
        """Send ``count`` probe frames from one host to another, live.

        Unlike :meth:`pingall` this is *real* traffic: device counters
        move, so a session that injects no longer mirrors the pure
        batch run.  That is the point — it is the shell's packet gun.
        """
        if count < 1:
            raise ShellError("inject count must be >= 1")
        hosts = self.topology.hosts
        for name in (src, dst):
            if name not in hosts:
                raise ShellError(
                    f"unknown host {name!r}; "
                    f"hosts: {tuple(self.topology.host_names())}"
                )
        if src == dst:
            raise ShellError("source and destination host must differ")
        frame = self.topology.probe_frame(src, dst)
        s, d = hosts[src], hosts[dst]
        delivered = 0
        hops = 0
        for _ in range(count):
            result = self.topology.network.inject(s.device, s.port, frame)
            for delivery in result:
                if (delivery.at.device == d.device
                        and delivery.at.port.index == d.port):
                    delivered += 1
                    hops = max(hops, delivery.hops)
        return {"sent": count, "delivered": delivered, "max_hops": hops}

    def faults_arm(self, preset: str) -> dict:
        """Arm a fault plan for the *next* start.

        Plans parameterize the whole run's derived fault streams, so
        they arm between builds and starts — the live mid-run fault
        surface is ``link down|up`` and ``inject``.
        """
        if self.engine is not None:
            raise ShellError(
                "faults arm applies to the next start; this fabric already "
                "has a run (use `link down` for live faults, or `build` "
                "fresh)"
            )
        try:
            self.plan = get_plan(preset, seed=self.seed)
        except ValueError:
            raise ShellError(
                f"unknown fault plan {preset!r}; "
                f"available: {tuple(available_plans())}"
            ) from None
        return {"plan": self.plan.name, "seed": self.seed}

    def frr_on(self) -> dict:
        """Install loop-free backup next-hops for the next start."""
        if self.engine is not None:
            raise ShellError(
                "frr on applies to the next start; `build` a fresh fabric"
            )
        self.config = replace(self.config, frr=True)
        self.topology.install_backups()
        return self.frr_status()

    # ------------------------------------------------------------------
    # Assertions (script mode's teeth)
    # ------------------------------------------------------------------
    _OPS = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        ">=": lambda a, b: a >= b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        "<": lambda a, b: a < b,
    }

    @staticmethod
    def _parse_value(text: str):
        if text in ("True", "true"):
            return True
        if text in ("False", "false"):
            return False
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    def expect(self, key: str, op: str, value: str) -> dict:
        """Assert ``stats()[key] <op> value``; raise on miss."""
        if op not in self._OPS:
            raise ShellError(
                f"unknown operator {op!r}; one of {tuple(self._OPS)}"
            )
        stats = self.stats()
        if key not in stats:
            raise ShellError(
                f"unknown stat {key!r}; available: {tuple(sorted(stats))}"
            )
        actual = stats[key]
        if not self._OPS[op](actual, self._parse_value(value)):
            raise ExpectFailed(
                f"expect {key} {op} {value} failed: actual {actual!r}"
            )
        return {"key": key, "op": op, "value": value, "actual": actual}
