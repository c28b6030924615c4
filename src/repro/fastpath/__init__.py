"""Flow-cache fast path: cached forwarding that is byte-identical.

Two caches make repeated traffic cheap without changing a single
observable:

* :class:`MicroflowCache` — per-device exact-match decision cache
  consulted by behavioural forwarding, invalidated by the generation
  of the device's :class:`~repro.core.module.StateCell`, which every
  table mutation bumps (see :mod:`repro.fastpath.cache` for the
  invariants).
* the **path cache** inside :class:`repro.testenv.topology.Network` —
  memoizes whole hop walks per (entry attachment, frame) for as long
  as what the walk read holds: the same bump marks the device dirty
  on the network, the next lookup marks the walks through dirty
  devices *suspect*, and a suspect walk is re-checked against what it
  read when next found — kept if nothing moved, else retired into its
  class until a repair makes it hold again.  One lookup
  (``Network._lookup``), three entry points: per-packet
  :meth:`Network.inject`, counted :meth:`Network.inject_batch`, which
  replays a stored walk for *N packets in one pass* with counter
  deltas applied as ``n * delta``, and set-up :meth:`Network.warm_paths`.
  A class with no walk that holds declines the counted entry, so a
  counted run splits exactly where a per-packet run would re-walk.
  The one table keys each flow by its **class**, which shares one cold
  walk among all frames that agree on the header bits the fabric's
  lookups declare they read
  (:meth:`~repro.cores.output_port_lookup.OutputPortLookup.header_reads`)
  — on a switched fabric, every flow of a host pair.  The device cache
  key stays exact; whether and when to fill it at all is the ROADMAP's
  device-cache item.

Telemetry lives in :func:`repro.telemetry.probes.probe_fastpath`;
``nf-mon fabric`` prints the same stats (and ``--no-fastpath`` turns
the whole subsystem off for A/B runs — the ``-m fastpath`` suite
asserts the fingerprints agree; ``--no-batch`` keeps the caches but
sends every packet through the per-packet entry).
"""

from repro.fastpath.cache import (
    DEFAULT_CAPACITY,
    MicroflowCache,
    session_has_datapath_sites,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "MicroflowCache",
    "session_has_datapath_sites",
]
