"""In-band telemetry (S24): packet-carried path and failure evidence.

The device-centric ledgers (S19 telemetry, S23 FRR counters) answer
"what did each device do?"; this package answers "what happened to each
*packet*?" — the receiver-centric observability plane a cluster-sharded
fabric needs, where no single process holds the global counter view.

- :mod:`repro.int.codec` — the trailer format: a bounded per-hop stamp
  stack (device id, ingress/egress port, cycle timestamp, FRR flag)
  carved into the tail of the UDP payload with zero length change, plus
  the flow id / sequence / direction header the receiver keys on.
- :mod:`repro.int.collector` — the receiver: parses stamps on delivery,
  reconstructs per-flow paths, attributes reroutes to the failed link,
  detects blackholes from sequence gaps, and folds per-hop latency and
  loss curves into a Counter-mergeable summary.

Stamping itself lives in the data-plane walk
(:meth:`repro.projects.base.ReferencePipeline.forward_behavioural`) and
is path-cache-compatible by construction: stamps are a pure function of
(device, ingress, egress, decision note, frame), so the network path
cache stores sequence-zero templates with the per-packet sequence
substituted into deliveries after the walk.
"""

from repro.int.codec import (
    INT_MIN_FRAME_SIZE,
    IntError,
    IntHop,
    IntStack,
    MAX_INT_HOPS,
    encode_template,
    is_int_frame,
    parse,
    set_seq,
    stamp,
    trailer_bytes,
)
from repro.int.collector import (
    FLAP_EPOCH_TICKS,
    IntCollector,
    epoch_chunks,
    merge_int_summaries,
)

__all__ = [
    "FLAP_EPOCH_TICKS",
    "INT_MIN_FRAME_SIZE",
    "IntCollector",
    "IntError",
    "IntHop",
    "IntStack",
    "MAX_INT_HOPS",
    "encode_template",
    "epoch_chunks",
    "is_int_frame",
    "merge_int_summaries",
    "parse",
    "set_seq",
    "stamp",
    "trailer_bytes",
]
