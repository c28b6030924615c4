"""Topology builders: mininet-style factories over the device network.

The paper's §1 pitch is evaluation at datacenter scale — *networks* of
NetFPGA devices, not single boards.  These builders wire reference
switches into the classic evaluation shapes (``linear``, ``star``,
``leaf_spine``, ``fat_tree``) around the 4-physical-port constraint of
the SUME pipeline, attach named edge hosts with deterministic MAC/IP
identities, and check the wiring invariants at build time.

Fabric switches are *statically programmed*: multipath shapes
(leaf-spine, fat-tree) contain loops, where flood-based MAC learning is
order-dependent and broadcast storms only stop at the hop limit.  So
:meth:`FabricTopology.learn` runs the learning phase explicitly — a
deterministic BFS from every host over the device graph (ties broken by
sorted port order) installs one pinned FDB entry per (switch, host),
and the switches are built with dynamic learning frozen.  Forwarding is
then a pure function of the programmed state, which is exactly what
lets the workload engine shard flows across processes and still merge
to a byte-identical fingerprint.

A :class:`FabricSpec` is the picklable *description* of a topology
(kind + parameters); shard workers rebuild their own replica from it.
Named presets live in :data:`TOPOLOGIES` (``get_topology`` resolves,
with the same friendly unknown-name error the fault-plan registry
gives).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame
from repro.projects.base import PortRef
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import Attachment, Network, Ping, TopologyError

#: Physical ports per device (the SUME pipeline's nf0..nf3).
PORTS_PER_DEVICE = 4

#: Host identity bases: locally administered MACs, a dedicated /16.
_HOST_MAC_BASE = 0x02_FA_00_00_00_00
_HOST_IP_BASE = 0x0A_FA_00_00  # 10.250.0.0


class FabricError(TopologyError):
    """Impossible fabric parameters (port budget, shape constraints)."""


@dataclass(frozen=True)
class Host:
    """A named edge host: where flows start and terminate."""

    name: str
    device: str
    port: int
    mac: MacAddr
    ip: Ipv4Addr


def bfs_tree(
    net: Network, root: str, skip_pair: Optional[frozenset] = None
) -> tuple[dict[str, int], dict[str, Optional[str]], dict[str, int]]:
    """The forwarding tree toward ``root``: FIFO BFS over the device
    graph, neighbors in sorted port order.

    Returns ``(dist, parent, port)`` over every device reached:
    ``dist`` counts hops to ``root``, ``parent`` is the next device
    toward it (``None`` at ``root``) and ``port`` is the device's own
    port toward its parent (``root`` has none).  ``skip_pair`` is an
    unordered device pair whose cable(s) count as cut.  This is the one
    walk :meth:`FabricTopology.learn` programs from, so fast reroute
    and the E19 sweep reason about exactly the paths the FDBs pin.
    """
    dist: dict[str, int] = {root: 0}
    parent: dict[str, Optional[str]] = {root: None}
    port: dict[str, int] = {}
    frontier = deque([root])
    while frontier:
        device = frontier.popleft()
        for _, (peer, peer_port) in sorted(net.neighbors(device).items()):
            if peer in dist or (skip_pair is not None
                                and frozenset((device, peer)) == skip_pair):
                continue
            dist[peer] = dist[device] + 1
            parent[peer] = device
            port[peer] = peer_port
            frontier.append(peer)
    return dist, parent, port


def _host(index: int, device: str, port: int) -> Host:
    return Host(
        name=f"h{index}",
        device=device,
        port=port,
        mac=MacAddr(_HOST_MAC_BASE + index),
        ip=Ipv4Addr(_HOST_IP_BASE + index),
    )


class FabricTopology:
    """A built fabric: the network, its named hosts, and its metadata."""

    def __init__(
        self,
        kind: str,
        params: dict[str, int],
        network: Network,
        hosts: list[Host],
    ):
        self.kind = kind
        self.params = dict(params)
        self.network = network
        self.hosts: dict[str, Host] = {h.name: h for h in hosts}
        #: :func:`~repro.fabric.scheduler.flow_frame`'s memo: one packed
        #: frame per (src host, dst host, size), gone with the instance.
        self.frame_templates: dict[tuple[str, str, int], bytes] = {}
        self._learned = False
        self._backups_installed = False
        self.validate()

    # ------------------------------------------------------------------
    @property
    def key(self) -> str:
        """Canonical identity string, part of every run fingerprint."""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"

    def host_names(self) -> list[str]:
        return sorted(self.hosts, key=lambda n: self.hosts[n].mac.value)

    # ------------------------------------------------------------------
    # Link enumeration (what the E19 sweep driver iterates)
    # ------------------------------------------------------------------
    def links(self) -> list[tuple[str, int, str, int]]:
        """Every switch-switch cable once, sorted.

        Each entry is ``(device_a, port_a, device_b, port_b)`` with the
        ends ordered by (device, port) — the fabric's internal link set,
        exactly what a single-link-failure sweep iterates.
        """
        return sorted(
            (a.device, a.port.index, b.device, b.port.index)
            for a, b in self.network.links()
        )

    def edge_links(self) -> list[tuple[str, str, int]]:
        """Host attachment points as ``(host, device, port)``.

        In canonical host order — the edge side of the fabric, disjoint
        from :meth:`links` (hosts attach to un-cabled ports).
        """
        return [
            (name, self.hosts[name].device, self.hosts[name].port)
            for name in self.host_names()
        ]

    # ------------------------------------------------------------------
    # Build-time invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Wiring invariants every fabric must satisfy.

        Port-range and port-reuse violations already raise inside
        :meth:`Network.link`; this re-checks the fabric-level contract:
        host attachment points are distinct un-cabled ports on known
        devices, and the device graph is connected (no partitioned
        fabric can carry all-pairs traffic).
        """
        net = self.network
        taken: set[tuple[str, int]] = set()
        for host in self.hosts.values():
            spot = (host.device, host.port)
            if spot in taken:
                raise FabricError(f"two hosts share attachment {spot}")
            taken.add(spot)
            free = {p.index for p in net.edge_ports(host.device)}
            if host.port not in free:
                raise FabricError(
                    f"host {host.name} attached to cabled port {spot}"
                )
        devices = net.device_names()
        if not devices:
            raise FabricError("fabric has no devices")
        missing = sorted(set(devices) - bfs_tree(net, devices[0])[0].keys())
        if missing:
            raise FabricError(f"fabric is partitioned; unreachable: {missing}")

    # ------------------------------------------------------------------
    # The deterministic learning phase
    # ------------------------------------------------------------------
    def learn(self) -> int:
        """Install the pinned FDB entries every switch needs.

        For each host: the :func:`bfs_tree` rooted at its edge switch;
        every other switch learns "host is via my port toward my
        parent".  FIFO BFS with neighbors visited in sorted port order
        makes the chosen path the deterministic shortest one, so the
        programmed state — and therefore every forwarding decision — is
        a pure function of the topology.

        Idempotent; returns the number of entries installed.
        """
        if self._learned:
            return 0
        net = self.network
        installed = 0
        for name in self.host_names():
            host = self.hosts[name]
            edge = net.device(host.device)
            if not edge.install_static_mac(host.mac, host.port):
                raise FabricError(f"FDB full installing {name} on {host.device}")
            installed += 1
            for peer, peer_port in bfs_tree(net, host.device)[2].items():
                if not net.device(peer).install_static_mac(host.mac, peer_port):
                    raise FabricError(f"FDB full installing {name} on {peer}")
                installed += 1
        self._learned = True
        return installed

    def install_backups(self) -> int:
        """Install loop-free backup next-hops next to the FDB entries.

        Runs the fast-reroute computation (:mod:`repro.frr.backup`) over
        the same BFS trees :meth:`learn` programmed from and writes the
        backup-port column on every switch.  Requires :meth:`learn`
        first; idempotent.  Returns the number of entries installed.
        """
        if self._backups_installed:
            return 0
        if not self._learned:
            raise FabricError("install_backups() requires learn() first")
        from repro.frr.backup import install_backups

        installed = install_backups(self)
        self._backups_installed = True
        return installed

    # ------------------------------------------------------------------
    def device_forwarded(self) -> dict[str, int]:
        """Packets each device's lookup stage has forwarded so far."""
        net = self.network
        return {
            name: net.device(name).opl.packets - net.device(name).opl.drops
            for name in net.device_names()
        }

    def device_counters(self, counter: str) -> dict[str, int]:
        """One OPL counter across the fabric; zero-count devices omitted.

        The omission keeps the dict merge-friendly (summing shard
        replicas never has to reconcile explicit zeros) and the report
        signature compact.
        """
        net = self.network
        out: dict[str, int] = {}
        for name in net.device_names():
            count = net.device(name).opl.counters.get(counter, 0)
            if count:
                out[name] = count
        return out

    # ------------------------------------------------------------------
    # Reachability probes (the shell's pingall, sandboxed)
    # ------------------------------------------------------------------
    def probe_frame(self, src: str, dst: str) -> bytes:
        """A minimal unicast probe frame between two named hosts."""
        s, d = self.hosts[src], self.hosts[dst]
        return make_udp_frame(s.mac, d.mac, s.ip, d.ip, 7, 7, size=64).pack()

    def pingall(self) -> dict[tuple[str, str], Ping]:
        """Data-plane reachability of every ordered host pair.

        Runs :meth:`learn` if needed, then sends one probe frame per
        ordered pair through the real forwarding tables inside
        :meth:`Network.sandbox` — the fabric's fingerprinted counters
        are byte-identical before and after, so a mid-run ``pingall``
        never perturbs the run it is observing.
        """
        self.learn()
        endpoints = {
            name: Attachment(h.device, PortRef("phys", h.port))
            for name, h in self.hosts.items()
        }
        return self.network.pingall(endpoints, self.probe_frame)

    def reachability_matrix(self) -> dict[tuple[str, str], bool]:
        """Graph-level host-pair reachability over cables with link up.

        BFS connectivity between each pair's edge switches — *potential*
        reachability from the wiring alone, against which
        :meth:`pingall` (the data-plane truth) can be diffed: a pair
        reachable here but not delivering there is a table bug or an
        un-rerouted failure, not a partition.
        """
        components = self.network.reachability_matrix()
        out: dict[tuple[str, str], bool] = {}
        for src in self.host_names():
            for dst in self.host_names():
                if src == dst:
                    continue
                out[(src, dst)] = (
                    self.hosts[dst].device
                    in components[self.hosts[src].device]
                )
        return out

    def describe(self) -> str:
        lines = [f"fabric {self.key}: {len(self.hosts)} hosts"]
        lines.append(self.network.describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _switch(net: Network, name: str) -> ReferenceSwitch:
    return net.add_device(name, ReferenceSwitch(name=name, learning=False))


def linear(length: int = 4, hosts_per_switch: int = 1,
           hop_limit: int = 64) -> FabricTopology:
    """A chain ``s0—s1—…—s{n-1}`` with hosts on each switch's free ports."""
    if length < 1:
        raise FabricError("linear fabric needs at least one switch")
    if hosts_per_switch < 1:
        raise FabricError("hosts_per_switch must be >= 1")
    net = Network(hop_limit=hop_limit)
    for i in range(length):
        _switch(net, f"s{i}")
    for i in range(length - 1):
        net.link(f"s{i}", PORTS_PER_DEVICE - 1, f"s{i + 1}", 0)
    hosts: list[Host] = []
    for i in range(length):
        free = [p.index for p in net.edge_ports(f"s{i}")]
        if hosts_per_switch > len(free):
            raise FabricError(
                f"switch s{i} has {len(free)} free ports, "
                f"cannot attach {hosts_per_switch} hosts"
            )
        for j in range(hosts_per_switch):
            hosts.append(_host(len(hosts), f"s{i}", free[j]))
    return FabricTopology(
        "linear", {"length": length, "hosts_per_switch": hosts_per_switch},
        net, hosts,
    )


def star(leaves: int = 3, hosts_per_leaf: int = 2,
         hop_limit: int = 64) -> FabricTopology:
    """A hub switch with ``leaves`` leaf switches, hosts on the leaves."""
    if not 1 <= leaves <= PORTS_PER_DEVICE:
        raise FabricError(f"star supports 1..{PORTS_PER_DEVICE} leaves")
    if not 1 <= hosts_per_leaf <= PORTS_PER_DEVICE - 1:
        raise FabricError(
            f"hosts_per_leaf must be 1..{PORTS_PER_DEVICE - 1} "
            f"(one leaf port feeds the hub)"
        )
    net = Network(hop_limit=hop_limit)
    _switch(net, "hub")
    hosts: list[Host] = []
    for i in range(leaves):
        leaf = f"leaf{i}"
        _switch(net, leaf)
        net.link("hub", i, leaf, 0)
        for j in range(hosts_per_leaf):
            hosts.append(_host(len(hosts), leaf, 1 + j))
    return FabricTopology(
        "star", {"leaves": leaves, "hosts_per_leaf": hosts_per_leaf}, net, hosts,
    )


def leaf_spine(leaves: int = 3, spines: int = 2,
               hosts_per_leaf: int | None = None,
               hop_limit: int = 64) -> FabricTopology:
    """A folded-Clos leaf-spine: every leaf uplinks to every spine.

    Leaf port budget: ports ``0..spines-1`` are uplinks, the rest host
    ports — so ``spines + hosts_per_leaf <= 4`` and ``leaves <= 4``
    (spine port budget).  The fabric's oversubscription ratio is
    ``hosts_per_leaf / spines`` (edge capacity over fabric capacity),
    exposed as ``params["hosts_per_leaf"] / params["spines"]`` and via
    :func:`oversubscription`.
    """
    if not 1 <= spines < PORTS_PER_DEVICE:
        raise FabricError(f"spines must be 1..{PORTS_PER_DEVICE - 1}")
    if not 1 <= leaves <= PORTS_PER_DEVICE:
        raise FabricError(f"leaves must be 1..{PORTS_PER_DEVICE} (spine ports)")
    if hosts_per_leaf is None:
        hosts_per_leaf = PORTS_PER_DEVICE - spines
    if hosts_per_leaf < 1 or spines + hosts_per_leaf > PORTS_PER_DEVICE:
        raise FabricError(
            f"leaf port budget exceeded: {spines} uplinks + "
            f"{hosts_per_leaf} hosts > {PORTS_PER_DEVICE}"
        )
    net = Network(hop_limit=hop_limit)
    for s in range(spines):
        _switch(net, f"spine{s}")
    hosts: list[Host] = []
    for l in range(leaves):
        leaf = f"leaf{l}"
        _switch(net, leaf)
        for s in range(spines):
            net.link(leaf, s, f"spine{s}", l)
        for j in range(hosts_per_leaf):
            hosts.append(_host(len(hosts), leaf, spines + j))
    return FabricTopology(
        "leaf_spine",
        {"leaves": leaves, "spines": spines, "hosts_per_leaf": hosts_per_leaf},
        net, hosts,
    )


#: The Abilene research backbone (11 PoPs, 14 links) — the classic
#: wide-area evaluation topology for fast-reroute studies.  Max node
#: degree is 3, so it fits the 4-port SUME constraint with one free
#: port per PoP for its host.
_ABILENE_NODES = (
    "atl", "chi", "dc", "den", "hou", "ind", "kc", "lax", "ny", "sea", "svl",
)
_ABILENE_EDGES = (
    ("sea", "svl"), ("sea", "den"), ("svl", "lax"), ("svl", "den"),
    ("lax", "hou"), ("den", "kc"), ("kc", "hou"), ("kc", "ind"),
    ("hou", "atl"), ("ind", "chi"), ("ind", "atl"), ("chi", "ny"),
    ("atl", "dc"), ("dc", "ny"),
)


def abilene(hop_limit: int = 64) -> FabricTopology:
    """The Abilene backbone with one host per PoP.

    Link ports are assigned in fixed edge-list order (each node's next
    free port), so the wiring — and everything learned over it — is
    deterministic.  This is the E19 single-link-failure sweep's
    wide-area topology: rich in alternate paths (every link sits on a
    cycle), which is what gives fast reroute full backup coverage.
    """
    net = Network(hop_limit=hop_limit)
    for node in _ABILENE_NODES:
        _switch(net, node)
    next_port = {node: 0 for node in _ABILENE_NODES}
    for a, b in _ABILENE_EDGES:
        net.link(a, next_port[a], b, next_port[b])
        next_port[a] += 1
        next_port[b] += 1
    hosts: list[Host] = []
    for node in _ABILENE_NODES:
        free = [p.index for p in net.edge_ports(node)]
        if not free:
            raise FabricError(f"PoP {node} has no free port for its host")
        hosts.append(_host(len(hosts), node, free[0]))
    return FabricTopology("abilene", {}, net, hosts)


def oversubscription(topology: FabricTopology) -> float:
    """Edge-to-fabric capacity ratio of a leaf-spine fabric."""
    if topology.kind != "leaf_spine":
        raise FabricError(f"oversubscription is a leaf-spine property, "
                          f"not {topology.kind}")
    return topology.params["hosts_per_leaf"] / topology.params["spines"]


def fat_tree(k: int = 4, hop_limit: int = 64) -> FabricTopology:
    """The canonical k-ary fat-tree (Al-Fares et al.) from k-port switches.

    With 4-port devices, ``k`` must be 2 or 4.  For ``k=4``: 4 pods of
    2 edge + 2 aggregation switches, 4 core switches, 16 hosts; every
    switch uses all 4 ports.  Wiring: edge ``e`` in pod ``p`` puts hosts
    on ports ``0..k/2-1`` and its pod's aggs on ``k/2..k-1``; agg ``a``
    puts its pod's edges on ``0..k/2-1`` and core group ``a`` on
    ``k/2..k-1``; core ``(g, j)`` dedicates port ``p`` to pod ``p``.
    """
    if k not in (2, PORTS_PER_DEVICE):
        raise FabricError(
            f"fat_tree(k) needs k-port switches: k in (2, {PORTS_PER_DEVICE})"
        )
    half = k // 2
    net = Network(hop_limit=hop_limit)
    for g in range(half):
        for j in range(half):
            _switch(net, f"core{g}_{j}")
    hosts: list[Host] = []
    for p in range(k):
        for a in range(half):
            _switch(net, f"agg{p}_{a}")
        for e in range(half):
            _switch(net, f"edge{p}_{e}")
        for a in range(half):
            # Pod-internal bipartite mesh: agg a ↔ every edge.
            for e in range(half):
                net.link(f"agg{p}_{a}", e, f"edge{p}_{e}", half + a)
            # Uplinks: agg a serves core group a.
            for j in range(half):
                net.link(f"agg{p}_{a}", half + j, f"core{a}_{j}", p)
        for e in range(half):
            for j in range(half):
                hosts.append(_host(len(hosts), f"edge{p}_{e}", j))
    return FabricTopology("fat_tree", {"k": k}, net, hosts)


# ----------------------------------------------------------------------
# Picklable descriptions + the preset registry
# ----------------------------------------------------------------------
_BUILDERS: dict[str, Callable[..., FabricTopology]] = {
    "linear": linear,
    "star": star,
    "leaf_spine": leaf_spine,
    "fat_tree": fat_tree,
    "abilene": abilene,
}


@dataclass(frozen=True)
class FabricSpec:
    """A picklable topology description shard workers rebuild from.

    ``params`` is a sorted ``(name, value)`` tuple so the spec hashes,
    pickles and compares structurally.
    """

    kind: str
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise FabricError(
                f"unknown fabric kind {self.kind!r}; "
                f"available: {tuple(sorted(_BUILDERS))}"
            )
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def of(cls, kind: str, **params: int) -> "FabricSpec":
        return cls(kind, tuple(sorted(params.items())))

    def build(self) -> FabricTopology:
        return _BUILDERS[self.kind](**dict(self.params))

    @property
    def key(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


#: Named topology presets (`nf-mon fabric --topo <name>`).
TOPOLOGIES: dict[str, FabricSpec] = {
    "linear-4": FabricSpec.of("linear", length=4, hosts_per_switch=1),
    "star-3": FabricSpec.of("star", leaves=3, hosts_per_leaf=2),
    "leaf-spine": FabricSpec.of("leaf_spine", leaves=3, spines=2),
    "leaf-spine-wide": FabricSpec.of(
        "leaf_spine", leaves=4, spines=2, hosts_per_leaf=2
    ),
    "fat-tree-4": FabricSpec.of("fat_tree", k=4),
    "abilene": FabricSpec.of("abilene"),
}


def get_topology(name: str) -> FabricSpec:
    """Resolve a preset name, with the registry's friendly error."""
    try:
        return TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric topology {name!r}; "
            f"available: {tuple(sorted(TOPOLOGIES))}"
        ) from None
