"""Fabric topology builders: wiring invariants and reachability.

The fat-tree and leaf-spine checks here are the ISSUE's named
acceptance tests: pod/core wiring (port counts, no port reuse,
all-pairs reachability after the learning phase) and the leaf-spine
oversubscription ratio.
"""

from __future__ import annotations

import pytest

from repro.fabric import (
    FabricError,
    FabricSpec,
    TOPOLOGIES,
    fat_tree,
    get_topology,
    leaf_spine,
    linear,
    oversubscription,
    star,
)
from repro.core.metadata import phys_port_bit
from repro.fabric.topo import bfs_tree
from repro.packet.generator import make_udp_frame

pytestmark = pytest.mark.fabric


def _frame(src, dst) -> bytes:
    return make_udp_frame(
        src.mac, dst.mac, src.ip, dst.ip, 1000, 2000, size=64
    ).pack()


def _deliveries(topology, src_name: str, dst_name: str):
    src = topology.hosts[src_name]
    dst = topology.hosts[dst_name]
    return topology.network.inject(src.device, src.port,
                                   _frame(src, dst)), dst


class TestBuilders:
    def test_linear_shape(self):
        topo = linear(length=4, hosts_per_switch=1)
        assert topo.network.device_names() == ["s0", "s1", "s2", "s3"]
        assert len(list(topo.network.links())) == 3
        assert len(topo.hosts) == 4

    def test_star_shape(self):
        topo = star(leaves=3, hosts_per_leaf=2)
        names = topo.network.device_names()
        assert "hub" in names and len(names) == 4
        # Hub uses one port per leaf, nothing else.
        assert len(topo.network.neighbors("hub")) == 3
        assert len(topo.hosts) == 6

    def test_hosts_have_unique_identities(self):
        topo = fat_tree(k=4)
        macs = [h.mac.value for h in topo.hosts.values()]
        ips = [h.ip.value for h in topo.hosts.values()]
        spots = [(h.device, h.port) for h in topo.hosts.values()]
        assert len(set(macs)) == len(macs)
        assert len(set(ips)) == len(ips)
        assert len(set(spots)) == len(spots)

    def test_impossible_parameters_rejected(self):
        with pytest.raises(FabricError):
            linear(length=0)
        with pytest.raises(FabricError):
            linear(length=2, hosts_per_switch=4)  # only 3 free ports inside
        with pytest.raises(FabricError):
            star(leaves=5)  # hub has 4 ports
        with pytest.raises(FabricError):
            leaf_spine(leaves=2, spines=3, hosts_per_leaf=2)  # 5 > 4 ports
        with pytest.raises(FabricError):
            fat_tree(k=6)  # devices only have 4 ports

    def test_spec_roundtrip_and_registry(self):
        spec = get_topology("fat-tree-4")
        assert spec == FabricSpec.of("fat_tree", k=4)
        assert spec.build().kind == "fat_tree"
        with pytest.raises(ValueError, match="available"):
            get_topology("mobius-strip")
        for name in TOPOLOGIES:
            assert TOPOLOGIES[name].build().hosts


class TestLeafSpine:
    def test_every_leaf_uplinks_to_every_spine(self):
        topo = leaf_spine(leaves=3, spines=2)
        net = topo.network
        for leaf in ("leaf0", "leaf1", "leaf2"):
            peers = {peer for _, (peer, _) in net.neighbors(leaf).items()}
            assert {"spine0", "spine1"} <= peers

    def test_oversubscription_ratio(self):
        assert oversubscription(leaf_spine(leaves=3, spines=2)) == 1.0
        assert oversubscription(
            leaf_spine(leaves=2, spines=1, hosts_per_leaf=3)
        ) == 3.0
        with pytest.raises(FabricError):
            oversubscription(linear(2))

    def test_cross_leaf_delivery_is_three_hops(self):
        topo = leaf_spine(leaves=3, spines=2)
        topo.learn()
        names = topo.host_names()
        # h0 is on leaf0, the last host on leaf2.
        result, dst = _deliveries(topo, names[0], names[-1])
        assert len(result) == 1
        assert result[0].at.device == dst.device
        assert result[0].at.port.index == dst.port
        assert result[0].hops == 3
        assert result.dropped_hop_limit == 0


class TestFatTreeWiring:
    """The k=4 fat-tree invariants from the ISSUE checklist."""

    def test_device_and_host_census(self):
        topo = fat_tree(k=4)
        names = topo.network.device_names()
        assert sum(n.startswith("core") for n in names) == 4
        assert sum(n.startswith("agg") for n in names) == 8
        assert sum(n.startswith("edge") for n in names) == 8
        assert len(topo.hosts) == 16

    def test_every_switch_port_is_used_exactly_once(self):
        """k-port switches use all k ports: hosts + cables, no reuse."""
        topo = fat_tree(k=4)
        net = topo.network
        used: dict[tuple[str, int], str] = {}
        for a, b in net.links():
            for end in (a, b):
                spot = (end.device, end.port.index)
                assert spot not in used, f"port reused: {spot}"
                used[spot] = "cable"
        for host in topo.hosts.values():
            spot = (host.device, host.port)
            assert spot not in used, f"host on cabled port: {spot}"
            used[spot] = host.name
        # Census: every (device, port) pair accounted for.
        assert len(used) == len(net.device_names()) * 4

    def test_layer_port_counts(self):
        topo = fat_tree(k=4)
        net = topo.network
        for name in net.device_names():
            cabled = len(net.neighbors(name))
            if name.startswith("core"):
                assert cabled == 4  # one port per pod
            elif name.startswith("agg"):
                assert cabled == 4  # 2 edges down + 2 cores up
            else:
                assert cabled == 2  # 2 aggs up; 2 host ports free

    def test_core_reaches_every_pod(self):
        topo = fat_tree(k=4)
        net = topo.network
        for g in range(2):
            for j in range(2):
                pods = {peer.split("_")[0].removeprefix("agg")
                        for _, (peer, _) in net.neighbors(f"core{g}_{j}").items()}
                assert pods == {"0", "1", "2", "3"}

    def test_all_pairs_reachability_after_learning(self):
        """Every host pair: exactly one delivery, at the right port, with
        the canonical hop count (1 same-edge, 3 intra-pod, 5 cross-pod)."""
        topo = fat_tree(k=4)
        pings = topo.pingall()
        assert len(pings) == 16 * 15
        hop_census: dict[int, int] = {}
        for pair, ping in pings.items():
            assert ping.delivered, pair
            assert ping.copies == 1, pair     # exactly one, at the right port
            assert ping.stray == 0, pair      # nowhere else
            assert ping.hops in (1, 3, 5), pair
            hop_census[ping.hops] = hop_census.get(ping.hops, 0) + 1
        # 16 hosts: 1 same-edge peer, 2 intra-pod, 12 cross-pod each.
        assert hop_census == {1: 16, 3: 32, 5: 192}

    def test_learning_is_idempotent(self):
        topo = fat_tree(k=4)
        assert topo.learn() > 0
        assert topo.learn() == 0

    @pytest.mark.parametrize("preset", sorted(TOPOLOGIES))
    def test_every_fdb_port_is_the_bfs_tree_port(self, preset):
        """FRR and the E19 sweep reason about ``bfs_tree``; the FDBs
        must pin exactly its ports, on every switch for every host."""
        topo = get_topology(preset).build()
        topo.learn()
        net = topo.network
        tables = {d: dict(net.device(d).mac_table) for d in net.device_names()}
        for host in topo.hosts.values():
            _, parent, port = bfs_tree(net, host.device)
            assert sorted(port) == sorted(set(tables) - {host.device})
            for device, local in port.items():  # the port faces the parent
                assert net.neighbors(device)[local][0] == parent[device]
            for device, table in tables.items():
                want = host.port if device == host.device else port[device]
                assert table[host.mac.value] == phys_port_bit(want)


class TestValidation:
    def test_partitioned_fabric_rejected(self):
        from repro.fabric.topo import FabricTopology, _host, _switch
        from repro.testenv.topology import Network

        net = Network()
        _switch(net, "a")
        _switch(net, "b")  # no cable between them
        with pytest.raises(FabricError, match="partitioned"):
            FabricTopology("linear", {}, net,
                           [_host(0, "a", 0), _host(1, "b", 0)])

    def test_duplicate_host_attachment_rejected(self):
        from repro.fabric.topo import FabricTopology, _host, _switch
        from repro.testenv.topology import Network

        net = Network()
        _switch(net, "a")
        with pytest.raises(FabricError, match="share attachment"):
            FabricTopology("linear", {}, net,
                           [_host(0, "a", 0), _host(1, "a", 0)])

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(FabricError, match="unknown fabric kind"):
            FabricSpec.of("torus", k=3)


class TestLinkCensus:
    """The links()/edge_links() helpers the FRR sweep iterates over."""

    def test_fat_tree_4_switch_link_census(self):
        topo = fat_tree(k=4)
        links = topo.links()
        # k=4: 16 edge-aggregation cables + 16 aggregation-core cables.
        assert len(links) == 32
        assert links == sorted(links)
        spots = [(a, pa) for a, pa, _, _ in links] + \
            [(b, pb) for _, _, b, pb in links]
        assert len(set(spots)) == len(spots)  # no port carries two cables

    def test_fat_tree_4_edge_link_census(self):
        topo = fat_tree(k=4)
        edges = topo.edge_links()
        assert len(edges) == 16
        assert [host for host, _, _ in edges] == list(topo.hosts)
        # Host attachments and switch-switch cables never share a port.
        cable_spots = {(a, pa) for a, pa, _, _ in topo.links()} | \
            {(b, pb) for _, _, b, pb in topo.links()}
        for _, device, port in edges:
            assert (device, port) not in cable_spots

    def test_abilene_census_matches_the_map(self):
        from repro.fabric import abilene

        topo = abilene()
        assert len(topo.links()) == 14   # the 14 Abilene cables
        assert len(topo.edge_links()) == 11  # one host per PoP
        assert len(topo.network.device_names()) == 11
        assert topo.learn() > 0

    def test_abilene_is_registered(self):
        spec = get_topology("abilene")
        assert "abilene" in TOPOLOGIES
        topo = spec.build()
        assert len(topo.hosts) == 11  # one host per PoP
        assert "sea" in topo.network.device_names()
