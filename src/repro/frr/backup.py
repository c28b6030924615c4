"""Loop-free backup next-hop computation (fast reroute, S23).

For every (switch, destination host) pair the fabric's :meth:`learn`
phase pinned a primary FDB port, this module picks — where one exists —
a *backup* port that is provably loop-free under the single failure it
protects against: the switch's primary link toward that host.

The candidate rules mirror IP fast-reroute's loop-free alternates,
specialised to the unit-cost BFS trees ``learn()`` programs from
(:func:`~repro.fabric.topo.bfs_tree`).  Let
``v`` be the protecting switch, ``e`` the destination's edge switch,
``d(x)`` the BFS distance from ``x`` to ``e``, and ``w`` a neighbor of
``v`` reachable over a port other than the primary:

- **LFA** — ``d(w) <= d(v)``: ``w``'s own BFS-tree path to ``e`` visits
  exactly one node per distance level and never reaches level ``d(v)``
  below ``w``, so it cannot pass through ``v`` (or cross ``v``'s failed
  primary link).
- **U-turn** — ``d(w) == d(v) + 1`` and ``parent(w) != v``: the packet
  steps one level *away* from the destination, but ``w``'s tree path
  comes back down through ``parent(w)``, the only node it visits at
  level ``d(v)`` — which is not ``v``, so again no loop.  U-turn
  candidates are ranked by a second BFS rooted at ``e`` in the graph
  with the failed link removed (the true post-failure distance).

A neighbor with ``parent(w) == v`` routes *through* ``v`` and would
ping-pong on the dead link; it is never installed.  Where no candidate
survives, no backup is installed and the lookup reports an honest
``frr_blackhole`` — the same partial-coverage reality hardware LFA
deployments live with.
"""

from __future__ import annotations

from typing import Optional

from repro.fabric.topo import FabricError, FabricTopology, bfs_tree


def compute_backups(topology: FabricTopology) -> dict[tuple[str, str], int]:
    """Pick a loop-free backup port per (switch, host) where one exists.

    Returns ``{(switch, host_name): backup_port_index}``.  Pure function
    of the topology graph — deterministic across reruns and shards.
    """
    net = topology.network
    backups: dict[tuple[str, str], int] = {}
    for name in topology.host_names():
        host = topology.hosts[name]
        root = host.device
        dist, parent, _ = bfs_tree(net, root)
        for v in net.device_names():
            if v == root:
                # The edge switch forwards onto the host's own edge
                # port; that is not a fabric cable, so nothing the
                # sweep can cut and nothing to protect.
                continue
            primary_peer = parent[v]
            second_dist: Optional[dict[str, int]] = None
            candidates: list[tuple[int, int, int]] = []
            for local, (w, _) in sorted(net.neighbors(v).items()):
                if w == primary_peer:
                    # The primary port — and any parallel cable to the
                    # same peer, which the failure model cuts together.
                    continue
                if dist[w] <= dist[v]:
                    candidates.append((0, dist[w], local))
                elif parent.get(w) != v:
                    if second_dist is None:
                        second_dist = bfs_tree(
                            net, root, frozenset((v, primary_peer))
                        )[0]
                    if w in second_dist:
                        candidates.append((1, second_dist[w], local))
            if candidates:
                backups[(v, name)] = min(candidates)[2]
    return backups


def install_backups(topology: FabricTopology) -> int:
    """Write the computed backup column onto every switch.

    Returns the number of entries installed.  Raises if any switch's
    backup table rejects an entry (table full).
    """
    if not getattr(topology, "_learned", False):
        raise FabricError("install_backups() requires a learned topology")
    net = topology.network
    installed = 0
    for (device, name), port in sorted(compute_backups(topology).items()):
        host = topology.hosts[name]
        if not net.device(device).install_backup_mac(host.mac, port):
            raise FabricError(
                f"backup table full installing {name} on {device}"
            )
        installed += 1
    return installed


def backup_coverage(topology: FabricTopology) -> float:
    """Fraction of protectable (switch, host) pairs that got a backup.

    The denominator is every pair where the switch is not the host's
    own edge switch (those forward onto an uncuttable edge port).
    """
    net = topology.network
    protectable = sum(
        1
        for name in topology.host_names()
        for device in net.device_names()
        if device != topology.hosts[name].device
    )
    if protectable == 0:
        return 1.0
    return len(compute_backups(topology)) / protectable
