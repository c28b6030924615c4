"""The fault layer itself: seeded determinism, burst bounds, the registry."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.faults import (
    DmaFaultSpec,
    FaultInjector,
    FaultPlan,
    LinkFaultSpec,
    MmioFaultSpec,
    OqFaultSpec,
    available_plans,
    derive_seed,
    get_plan,
    seed_stream,
)
from repro.faults.plan import SITES

pytestmark = pytest.mark.faults


class TestDeterminism:
    def test_same_seed_identical_schedule(self):
        plan = get_plan("lossy-link", seed=42)
        first = [plan.session().link_attempt() for _ in range(1)]  # warm check
        a, b = plan.session(), plan.session()
        schedule_a = [a.link_attempt() for _ in range(200)]
        schedule_b = [b.link_attempt() for _ in range(200)]
        assert schedule_a == schedule_b
        assert a.counters == b.counters
        assert first[0] == schedule_a[0]

    def test_same_seed_identical_counters_across_runs(self):
        def run():
            session = get_plan("chaos", seed=7).session()
            for _ in range(50):
                session.link_transfer()
                session.dma_fault("rx_completion")
                session.dma_fault("doorbell")
                session.mmio_read_faults()
                session.oq_pressure()
            return session.report()

        assert run() == run()

    def test_different_seeds_differ(self):
        a = get_plan("lossy-link", seed=0).session()
        b = get_plan("lossy-link", seed=1).session()
        assert [a.link_attempt() for _ in range(200)] != [
            b.link_attempt() for _ in range(200)
        ]

    def test_sites_independent(self):
        """Consulting one site must not perturb another's stream."""
        plan = get_plan("chaos", seed=3)
        pure = plan.session()
        link_only = [pure.link_attempt() for _ in range(50)]
        mixed = plan.session()
        interleaved = []
        for _ in range(50):
            interleaved.append(mixed.link_attempt())
            mixed.mmio_read_faults()
            mixed.dma_fault("rx_completion")
        assert link_only == interleaved

    @given(st.integers(), st.lists(st.one_of(st.integers(), st.text()),
                                   max_size=3),
           st.one_of(st.integers(), st.text()))
    def test_a_seed_stream_is_derive_seed_with_its_prefix_bound(
            self, seed, parts, last):
        assert seed_stream(seed, *parts)(last) \
            == derive_seed(seed, *parts, last)

    def test_lazy_site_rngs_match_eager_ones_in_any_first_use_order(self):
        """Per-site generators are seeded on first draw; the streams
        must be the ones seeded all up front, whichever site goes
        first."""
        plan = FaultPlan("lazy", seed=0xC0FFEE)
        eager = {site: random.Random(derive_seed(plan.seed, site))
                 for site in SITES}
        expected = {site: [eager[site].random() for _ in range(8)]
                    for site in SITES}
        for shuffle_seed in range(5):
            order = list(SITES)
            random.Random(shuffle_seed).shuffle(order)
            session = plan.session()
            assert not session._rng  # nothing seeded until drawn from
            drawn = {site: [] for site in SITES}
            for _ in range(8):
                for site in order:
                    drawn[site].append(session._rng[site].random())
            assert drawn == expected

    def test_unused_sites_cost_nothing(self):
        session = get_plan("lossy-link", seed=4).session()
        for _ in range(20):
            session.link_transfer()
        session.mmio_read_faults()  # no mmio spec: answers without a draw
        assert set(session._rng) == {"link"}


class TestBurstBounds:
    def test_link_burst_cap_forces_delivery(self):
        plan = FaultPlan(
            "all-drop", seed=0,
            link=LinkFaultSpec(drop_rate=1.0, max_burst=3, max_attempts=8),
        )
        session = plan.session()
        outcomes = [session.link_attempt() for _ in range(8)]
        # With certainty-drop, the burst cap yields 3 drops then delivery.
        assert outcomes == ["drop"] * 3 + ["deliver"] + ["drop"] * 3 + ["deliver"]

    def test_link_transfer_always_delivers_without_lose(self):
        plan = FaultPlan(
            "all-drop", seed=0,
            link=LinkFaultSpec(drop_rate=1.0, max_burst=3, max_attempts=8),
        )
        session = plan.session()
        assert all(session.link_transfer() for _ in range(50))
        assert session.counters["link_retransmits"] > 0
        assert session.counters["link_lost"] == 0

    def test_lose_is_permanent(self):
        plan = FaultPlan(
            "void", seed=0, link=LinkFaultSpec(lose_rate=1.0, max_attempts=4)
        )
        session = plan.session()
        assert not session.link_transfer()
        assert session.counters["link_lost"] == 1

    def test_mmio_burst_bounded(self):
        plan = FaultPlan("mmio", seed=0, mmio=MmioFaultSpec(timeout_rate=1.0, max_burst=2))
        session = plan.session()
        draws = [session.mmio_read_faults() for _ in range(6)]
        assert draws == [True, True, False, True, True, False]

    def test_wedged_ring_alternates(self):
        session = get_plan("wedged-ring").session()
        outcomes = [session.dma_fault("rx_completion")[0] for _ in range(4)]
        assert outcomes == ["drop", "ok", "drop", "ok"]


class TestSpecs:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaultSpec(drop_rate=0.6, corrupt_rate=0.6)
        with pytest.raises(ValueError):
            LinkFaultSpec(max_burst=0)
        with pytest.raises(ValueError):
            LinkFaultSpec(max_burst=4, max_attempts=4)
        with pytest.raises(ValueError):
            DmaFaultSpec(stall_ns=-1.0)
        with pytest.raises(ValueError):
            OqFaultSpec(spike_bytes=0)

    def test_with_seed(self):
        plan = get_plan("lossy-link")
        assert plan.with_seed(9).seed == 9
        assert plan.with_seed(9).link == plan.link


class TestRegistry:
    def test_known_plans(self):
        names = available_plans()
        for expected in ("lossy-link", "black-hole", "wedged-ring", "flaky-mmio", "chaos"):
            assert expected in names

    def test_unknown_plan(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            get_plan("does-not-exist")


class TestInjectorDisarm:
    def test_hooks_restored(self):
        from repro.board.sume import NetFpgaSume

        board = NetFpgaSume()
        with FaultInjector(get_plan("chaos").session()) as injector:
            injector.arm_board(board)
            assert board.dma.fault_hook is not None
            assert all(mac.corrupt is not None for mac in board.macs)
        assert board.dma.fault_hook is None
        assert all(mac.corrupt is None for mac in board.macs)


class TestLinkStateSite:
    """The data-plane link_down/link_up sites fast reroute draws from."""

    def _plan(self, seed=0):
        from repro.faults import LinkStateSpec

        return FaultPlan(
            "cable-cuts", seed=seed,
            link_state=LinkStateSpec(down_rate=0.2, min_down_epochs=1,
                                     max_down_epochs=3),
        )

    def test_same_seed_identical_stream(self):
        a, b = self._plan().session(), self._plan().session()
        draws_a = [(a.link_down_faults(), a.link_down_epochs())
                   for _ in range(200)]
        draws_b = [(b.link_down_faults(), b.link_down_epochs())
                   for _ in range(200)]
        assert draws_a == draws_b
        assert a.counters == b.counters
        assert a.counters["link_down_events"] > 0

    def test_different_seeds_differ(self):
        a = self._plan(seed=0).session()
        b = self._plan(seed=1).session()
        assert [a.link_down_faults() for _ in range(200)] != \
            [b.link_down_faults() for _ in range(200)]

    def test_derived_per_link_streams_are_stable_and_independent(self):
        """The sweep keys a sub-plan on ("fabric-link", a, b, epoch):
        the draw for one link must be reproducible across runs and
        never perturbed by draws for other links — the property that
        keeps sharded fabric runs fingerprint-identical."""
        plan = self._plan(seed=7)

        def draw(a, b, epoch):
            session = plan.derived("fabric-link", a, b, epoch).session()
            return session.link_down_faults(), session.link_down_epochs()

        solo = draw("sea", "svl", 3)
        for _ in range(3):
            draw("chi", "ny", 3)   # unrelated links
            draw("sea", "svl", 9)  # same link, other epoch
            assert draw("sea", "svl", 3) == solo

    def test_derived_seed_depends_on_every_part(self):
        plan = self._plan(seed=7)
        seeds = {
            plan.derived("fabric-link", a, b, e).seed
            for a, b, e in (("sea", "svl", 3), ("svl", "sea", 3),
                            ("sea", "svl", 4), ("sea", "den", 3))
        }
        assert len(seeds) == 4

    def test_durations_honor_bounds(self):
        session = self._plan().session()
        durations = [session.link_down_epochs() for _ in range(200)]
        assert all(1 <= d <= 3 for d in durations)
        assert len(set(durations)) > 1

    def test_no_spec_means_no_faults(self):
        session = FaultPlan("quiet", seed=0).session()
        assert not session.link_down_faults()
        assert session.link_down_epochs() == 0

    def test_spec_validated(self):
        from repro.faults import LinkStateSpec

        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=1.5)
        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=0.1, min_down_epochs=0)
        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=0.1, min_down_epochs=3,
                          max_down_epochs=2)

    def test_frr_chaos_plan_registered(self):
        plan = get_plan("frr-chaos", seed=11)
        assert plan.link_state is not None
        assert plan.link_state.down_rate > 0
        assert plan.seed == 11
