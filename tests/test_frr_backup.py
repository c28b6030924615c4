"""Backup next-hop computation: loop-free alternates over the learned
BFS forwarding trees, installation into the backup CAM column, and the
end-to-end delivery guarantee under any single link failure."""

from __future__ import annotations

import pytest

from repro.fabric import FabricError, abilene, fat_tree
from repro.fabric.topo import bfs_tree
from repro.frr import backup_coverage, compute_backups, install_backups
from repro.frr.sweep import _crossing_pairs, _forwarding_trees
from repro.packet.generator import make_udp_frame

pytestmark = pytest.mark.frr


def _frame(src, dst) -> bytes:
    return make_udp_frame(
        src.mac, dst.mac, src.ip, dst.ip, 1000, 2000, size=64
    ).pack()


@pytest.fixture(scope="module")
def abilene_topo():
    topo = abilene()
    topo.learn()
    return topo


class TestComputeBackups:
    def test_requires_learning_first(self):
        with pytest.raises(FabricError):
            install_backups(abilene())

    def test_install_is_idempotent(self, abilene_topo):
        abilene_topo.install_backups()
        sizes = {
            name: len(abilene_topo.network.device(name).backup_table)
            for name in abilene_topo.network.device_names()
        }
        abilene_topo.install_backups()
        assert sizes == {
            name: len(abilene_topo.network.device(name).backup_table)
            for name in abilene_topo.network.device_names()
        }
        assert sum(sizes.values()) > 0

    def test_coverage_is_a_meaningful_fraction(self, abilene_topo):
        coverage = backup_coverage(abilene_topo)
        assert 0.5 < coverage <= 1.0

    def test_abilene_protected_fraction_is_pinned(self, abilene_topo):
        # Abilene's sparse ring-like graph protects exactly 78 of the
        # 110 protectable (switch, host) pairs — ~71%.  The value is a
        # pure function of the topology and the BFS trees, so any drift
        # means the backup computation changed behaviour.
        assert len(compute_backups(abilene_topo)) == 78
        assert backup_coverage(abilene_topo) == pytest.approx(78 / 110)

    def test_fat_tree_coverage(self):
        topo = fat_tree(k=4)
        topo.learn()
        assert backup_coverage(topo) > 0.0

    def test_backup_avoids_primary_port_and_peer(self, abilene_topo):
        """A backup must leave by a different port than the primary and
        must not point at the primary next-hop (the far side of the
        link being protected against)."""
        topo = abilene_topo
        backups = compute_backups(topo)
        assert backups
        trees = _forwarding_trees(topo)
        for (device, dst), backup_port in backups.items():
            parent = trees[dst][device]
            assert parent is not None  # the root edge switch has no backup
            neighbors = topo.network.neighbors(device)
            primary_ports = [p for p, (peer, _) in neighbors.items()
                             if peer == parent]
            assert backup_port not in primary_ports
            peer, _ = neighbors[backup_port]
            assert peer != parent

    def test_backup_neighbor_is_loop_free(self, abilene_topo):
        """The LFA condition, checked against independently recomputed
        distances: the backup neighbor's distance to the destination
        never exceeds the rerouting node's by more than one, and at +1
        its own primary parent is not the rerouting node."""
        topo = abilene_topo
        backups = compute_backups(topo)
        for (device, dst), backup_port in backups.items():
            root = topo.hosts[dst].device
            dist, parent, _ = bfs_tree(topo.network, root)
            peer, _ = topo.network.neighbors(device)[backup_port]
            assert dist[peer] <= dist[device] + 1
            if dist[peer] == dist[device] + 1:
                assert parent[peer] != device


class TestSingleFailureDelivery:
    def test_every_abilene_link_survivable_for_protected_pairs(self):
        """Kill each link in turn: every protected crossing pair still
        delivers, exactly once, with no hop-limit storm — the loop
        freedom proof, executed."""
        topo = abilene()
        topo.learn()
        topo.install_backups()
        net = topo.network
        trees = _forwarding_trees(topo)
        backups = compute_backups(topo)
        exercised = 0
        for a_dev, _, b_dev, _ in topo.links():
            _, protected = _crossing_pairs(topo, trees, backups,
                                           a_dev, b_dev)
            net.set_link_state(a_dev, b_dev, up=False)
            for src_name, dst_name, _ in protected[:2]:
                src = topo.hosts[src_name]
                dst = topo.hosts[dst_name]
                before = len(net.deliveries)
                net.inject(src.device, src.port, _frame(src, dst))
                landed = net.deliveries[before:]
                assert [(d.at.device, d.at.port.index) for d in landed] \
                    == [(dst.device, dst.port)]
                exercised += 1
            net.set_link_state(a_dev, b_dev, up=True)
        assert net.dropped_hop_limit == 0
        assert exercised >= len(topo.links())  # every link was swept

    def test_fat_tree_spot_check(self):
        topo = fat_tree(k=4)
        topo.learn()
        topo.install_backups()
        net = topo.network
        trees = _forwarding_trees(topo)
        backups = compute_backups(topo)
        for a_dev, _, b_dev, _ in topo.links():
            _, protected = _crossing_pairs(topo, trees, backups,
                                           a_dev, b_dev)
            if not protected:
                continue
            src_name, dst_name, _ = protected[0]
            src = topo.hosts[src_name]
            dst = topo.hosts[dst_name]
            net.set_link_state(a_dev, b_dev, up=False)
            before = len(net.deliveries)
            net.inject(src.device, src.port, _frame(src, dst))
            landed = net.deliveries[before:]
            assert [(d.at.device, d.at.port.index) for d in landed] \
                == [(dst.device, dst.port)]
            net.set_link_state(a_dev, b_dev, up=True)
            break
        else:  # pragma: no cover - fat-tree(4) always has protected pairs
            pytest.fail("no protected crossing pair found")
        assert net.dropped_hop_limit == 0
