"""Workload generators: seeded expansion, pattern shapes, validation."""

from __future__ import annotations

from hashlib import sha256

import pytest

from repro.fabric import (
    WORKLOADS,
    WorkloadSpec,
    generate_flows,
    get_workload,
)

pytestmark = pytest.mark.fabric

HOSTS = [f"h{i}" for i in range(8)]


class TestGeneration:
    def test_same_spec_same_flows(self):
        spec = WorkloadSpec("uniform", flows=50, seed=42)
        assert generate_flows(HOSTS, spec) == generate_flows(HOSTS, spec)

    def test_different_seed_different_flows(self):
        a = generate_flows(HOSTS, WorkloadSpec("uniform", flows=50, seed=1))
        b = generate_flows(HOSTS, WorkloadSpec("uniform", flows=50, seed=2))
        assert a != b

    def test_flow_fields_are_sane(self):
        spec = WorkloadSpec("uniform", flows=100, seed=7,
                            packets_per_flow=4, window_ticks=128)
        for flow in generate_flows(HOSTS, spec):
            assert flow.src != flow.dst
            assert flow.src in HOSTS and flow.dst in HOSTS
            assert 1 <= flow.packets <= 4
            assert 0 <= flow.response_packets <= flow.packets
            assert 0 <= flow.start_tick < 128
            assert flow.gap_ticks >= 1
            assert flow.frame_size >= 64
            assert flow.request_bytes == flow.frame_size * flow.packets

    def test_flow_identity_is_positional(self):
        """Flow i is the same no matter how many flows are generated —
        the property sharding by ``flow_id % shards`` rests on."""
        spec10 = WorkloadSpec("uniform", flows=10, seed=9)
        spec100 = WorkloadSpec("uniform", flows=100, seed=9)
        first10 = generate_flows(HOSTS, spec100)[:10]
        assert generate_flows(HOSTS, spec10) == first10


class TestExpansionIsPinned:
    """Hoisting set-up out of the per-flow loop may not move a draw."""

    #: sha256 of ``repr(generate_flows(...))`` over 16 hosts, taken
    #: while every flow built its own ``random.Random(derive_seed(...))``.
    PINNED = {
        ("bursty-256", 0): "0dbee852c142544a99133c9d1d44fb7f1058510e5f4ceaaac73848e2f9d0ebfa",
        ("bursty-256", 1): "946d9f01fc594428678ee0b86c425aeb9513948526fa91a4f9392b08d1253abe",
        ("bursty-256", 7): "82dcb79ecd639933c9c8c0fcbc9c2219771bbb8c0629d85a5a323f0dc4a6e560",
        ("incast-64", 0): "30be22e2bb4377d26d3853a3aed052b1764c1a83d822ee0ba48a25cacf5d48ff",
        ("incast-64", 1): "7f3ad41e6855f74931d2cd07b28ea80205dc379a57e68dda680781f9794b51c3",
        ("incast-64", 7): "4643ed1da6535843e6646dfcb9548ae062a2bfd222653626fe50e7f2e4ebc30e",
        ("uniform-1k", 0): "217f41a150e3fa5e8e792a03aaba3b44553c546e6be45aefac3ddb23d8964ac6",
        ("uniform-1k", 1): "eb6d07f5ee1a459ea0d11c0300cd4d5b9127cb8bd699de8423f3cb3722caf491",
        ("uniform-1k", 7): "374bbd320d95d71d256dc7d9f851cfad17a24010cf88003b70e2f583a6116e8f",
        ("uniform-int", 0): "0a6db9d57186610ca0f086e92829448d6d058de4052ae232b69c60a92ceaa249",
        ("uniform-int", 1): "fe0460a5f08d15c4cf5c3f5464b9c9138718b86a64d107d952761fc1b544c899",
        ("uniform-int", 7): "34e633a85714f9f99fe0fbeb3fc031b565e83478a7df530653946c51ccd2cec9",
        ("uniform-small", 0): "9f366756c8160eae9976e45009703d1b3056ab4b07ab4bd099b40d842f2e229c",
        ("uniform-small", 1): "e61b77d22787f3b5a2ba0df6184788c141c8acaca768a1e8932b9db6f5475a88",
        ("uniform-small", 7): "1ec634bfceb2efd0ddbd4f422250d1ddfa4bf57973dec02830c07861ba47302d",
    }
    HOSTS = [f"h{i}" for i in range(16)]

    @pytest.mark.parametrize("name,seed", sorted(PINNED))
    def test_presets_expand_as_recorded(self, name, seed):
        assert set(name for name, _ in self.PINNED) == set(WORKLOADS)
        flows = generate_flows(self.HOSTS, WORKLOADS[name].with_seed(seed))
        assert sha256(repr(flows).encode()).hexdigest() \
            == self.PINNED[name, seed]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_a_slice_expands_as_the_whole_has_it(self, name):
        """``ids`` names the flows to expand; each comes out as the
        full expansion's — what lets a shard expand only its own."""
        spec = WORKLOADS[name].with_seed(3)
        whole = generate_flows(self.HOSTS, spec)
        for shards in (1, 3, 4):
            for index in range(shards):
                assert generate_flows(
                    self.HOSTS, spec, range(index, spec.flows, shards),
                ) == [f for f in whole if f.flow_id % shards == index]
        assert generate_flows(self.HOSTS, spec, [5, 2]) == [whole[5], whole[2]]
        assert generate_flows(self.HOSTS, spec, []) == []


class TestPatterns:
    def test_bursty_starts_are_wave_aligned(self):
        spec = WorkloadSpec("bursty", flows=64, seed=3,
                            window_ticks=128, burst_gap=32)
        starts = {f.start_tick for f in generate_flows(HOSTS, spec)}
        assert starts <= {0, 32, 64, 96}

    def test_incast_converges_on_one_sink_per_wave(self):
        spec = WorkloadSpec("incast", flows=32, seed=5,
                            window_ticks=64, burst_gap=16)
        flows = generate_flows(HOSTS, spec)
        by_wave: dict[int, set[str]] = {}
        for flow in flows:
            by_wave.setdefault(flow.start_tick, set()).add(flow.dst)
        for sinks in by_wave.values():
            assert len(sinks) == 1  # everyone in a wave hits the same host
        for flow in flows:
            assert flow.src != flow.dst

    def test_uniform_spreads_sources(self):
        spec = WorkloadSpec("uniform", flows=200, seed=11)
        sources = {f.src for f in generate_flows(HOSTS, spec)}
        assert len(sources) > len(HOSTS) // 2


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="unknown workload pattern"):
            WorkloadSpec("fractal")
        with pytest.raises(ValueError):
            WorkloadSpec("uniform", flows=0)
        with pytest.raises(ValueError):
            WorkloadSpec("uniform", packets_per_flow=0)
        with pytest.raises(ValueError):
            WorkloadSpec("uniform", response_ratio=1.5)

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError, match="two hosts"):
            generate_flows(["h0"], WorkloadSpec("uniform"))

    def test_preset_registry(self):
        for name, spec in WORKLOADS.items():
            assert get_workload(name) is spec
        with pytest.raises(ValueError, match="available"):
            get_workload("elephant-mice")

    def test_with_seed_rebinds_only_the_seed(self):
        spec = get_workload("incast-64").with_seed(99)
        assert spec.seed == 99
        assert spec.pattern == "incast"
        assert spec.key == get_workload("incast-64").key
