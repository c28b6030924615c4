"""The fault layer itself: seeded determinism, burst bounds, the registry."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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


# ----------------------------------------------------------------------
# The per-attempt reference.  ``FaultSession.link_attempt`` and
# ``link_transfer`` as they stood before ``link_transfers(n)`` became
# the one retransmit loop in ``src/`` — bodies verbatim (hence ``self``),
# kept here so that neither these tests nor
# ``test_fabric_wire_runs.PerPacketOracle`` come to rest on the kernel
# they check.
# ----------------------------------------------------------------------
def reference_link_attempt(self) -> str:
    """One wire transfer attempt: 'deliver' | 'drop' | 'corrupt' | 'lose'."""
    spec = self.plan.link
    if spec is None:
        return "deliver"
    r = self._rng["link"].random()
    if r < spec.lose_rate:
        outcome = "lose"
    elif r < spec.lose_rate + spec.drop_rate:
        outcome = "drop"
    elif r < spec.lose_rate + spec.drop_rate + spec.corrupt_rate:
        outcome = "corrupt"
    else:
        outcome = "deliver"
    if outcome in ("drop", "corrupt"):
        if self._burst["link"] >= spec.max_burst:
            outcome = "deliver"
        else:
            self._burst["link"] += 1
    if outcome == "deliver":
        self._burst["link"] = 0
    self.counters[f"link_{outcome}"] += 1
    if outcome != "deliver":
        self._notify("link", outcome)
    return outcome


def reference_link_transfer(self) -> bool:
    """A full transfer with retransmission: True iff eventually delivered."""
    spec = self.plan.link
    if spec is None:
        return True
    for attempt in range(spec.max_attempts):
        outcome = reference_link_attempt(self)
        if outcome == "deliver":
            self.counters["link_retransmits"] += attempt
            return True
        if outcome == "lose":
            break
    self.counters["link_lost"] += 1
    return False


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


# ----------------------------------------------------------------------
# link_transfers(n): the counted entry against the per-attempt reference
# ----------------------------------------------------------------------
class Scripted:
    """A link RNG that plays back the draws a test wrote down."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self) -> float:
        return self.draws.pop(0)

    def getstate(self):
        return tuple(self.draws)


def wire_state(session, fired) -> dict:
    """Everything a wire draw can leave behind on a session."""
    return {"counters": dict(session.counters),  # zero-valued keys included
            "burst": session._burst["link"],
            "rng": session._rng["link"].getstate(),
            "fired": fired}


def settle(plan, ops, draws=None, reference=False):
    """Run ``ops`` — an int ``n``: settle ``n`` transfers; ``None``: one
    ``mangle_wire`` — on a fresh session, through ``link_transfers`` or
    (``reference``) one per-attempt transfer at a time.  Returns the
    transfers lost, numbered across the whole run, and the wire state."""
    session = plan.session()
    if draws is not None:
        session._rng["link"] = Scripted(draws)
    if reference:  # mangle_wire draws its attempt from the reference too
        session.link_attempt = lambda: reference_link_attempt(session)
    fired = []
    session.on_fault = lambda site, outcome: fired.append((site, outcome))
    lost, done = [], 0
    for n in ops:
        if n is None:
            session.mangle_wire(bytes(64))
        elif reference:
            lost += [done + j for j in range(n)
                     if not reference_link_transfer(session)]
        else:
            lost += [done + j for j in session.link_transfers(n)]
        done += n or 0
    return lost, wire_state(session, fired)


@st.composite
def link_specs(draw) -> LinkFaultSpec:
    """All three rates (``lose_rate > 0`` among them), up to certainty."""
    rates = draw(st.one_of(
        st.tuples(*[st.sampled_from((0.0, 0.05, 0.2, 0.33))] * 3),
        st.sampled_from(((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.4, 0.3, 0.3),
                         (0.0, 0.0, 1.0), (0.45, 0.0, 0.55)))))
    max_burst = draw(st.integers(1, 5))
    return LinkFaultSpec(*rates, max_burst=max_burst,
                         max_attempts=draw(st.integers(max_burst + 1, 9)))


class TestCountedEntryEqualsPerAttempt:
    @settings(max_examples=300, deadline=None)
    @given(spec=link_specs(), seed=st.integers(0, 2**32),
           chunks=st.lists(st.integers(0, 12), max_size=12))
    def test_any_spec_any_chunking(self, spec, seed, chunks):
        """However a run's transfers are cut into ``link_transfers``
        calls (1s and 0s included), the session ends where one
        per-attempt transfer at a time leaves it."""
        plan = FaultPlan("drawn", seed, link=spec)
        expected = settle(plan, chunks, reference=True)
        assert settle(plan, chunks) == expected
        assert settle(plan, [sum(chunks)]) == expected
        assert settle(plan, [1] * sum(chunks)) == expected

    @settings(max_examples=200, deadline=None)
    @given(spec=link_specs(), seed=st.integers(0, 2**32),
           ops=st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=16))
    def test_interleaved_with_mangle_wire_keeps_the_stream(
            self, spec, seed, ops):
        """A MAC hook and a retransmit loop on one session share the
        burst count and the stream: ``link_attempt`` between two calls
        sees, and leaves, what the reference does."""
        plan = FaultPlan("drawn", seed, link=spec)
        assert settle(plan, ops) == settle(plan, ops, reference=True)

    @settings(max_examples=200, deadline=None)
    @given(spec=link_specs(), seed=st.integers(0, 2**32),
           attempts=st.integers(0, 60))
    def test_the_single_attempt_entry_is_the_reference_attempt(
            self, spec, seed, attempts):
        """``link_attempt`` reads its bands off the spec, as the kernel
        does; outcome for outcome it is still the reference."""
        plan = FaultPlan("drawn", seed, link=spec)
        session, reference = plan.session(), plan.session()
        assert [session.link_attempt() for _ in range(attempts)] == [
            reference_link_attempt(reference) for _ in range(attempts)]
        assert wire_state(session, None) == wire_state(reference, None)

    def test_link_transfer_is_the_run_of_one(self):
        plan = get_plan("black-hole", seed=3)
        session, reference = plan.session(), plan.session()
        assert [session.link_transfer() for _ in range(200)] == [
            reference_link_transfer(reference) for _ in range(200)]
        assert wire_state(session, None) == wire_state(reference, None)

    def test_no_link_spec_no_draws(self):
        session = FaultPlan("quiet").session()
        assert session.link_transfers(5) == []
        assert session.link_transfer()
        assert not session._rng and not session.counters


#: One draw from each band of :data:`BANDED`, by name.
LOSE, DROP, CORRUPT, OK = 0.1, 0.3, 0.6, 0.9
BANDED = FaultPlan("banded", link=LinkFaultSpec(
    drop_rate=0.3, corrupt_rate=0.3, lose_rate=0.2,
    max_burst=2, max_attempts=4))


class TestNamedKernelMutants:
    """Each test names the wrong ``link_transfers`` it is there to
    catch, on the shortest scripted draw sequence that tells it from
    the reference."""

    def check(self, draws, chunks):
        run = settle(BANDED, chunks, draws)
        assert run == settle(BANDED, chunks, draws, reference=True)
        assert run[1]["rng"] == ()  # the script was exactly enough
        return run

    def test_the_burst_count_is_carried_into_the_next_call(self):
        """Mutant: ``burst = 0`` at kernel entry.  Only a transfer that
        ends in 'lose' leaves a burst standing (a delivery resets it),
        so this one is invisible to every plan with ``lose_rate == 0``
        — ``lossy-link``, ``chaos`` — and to single-call runs.  Two
        faults then a loss end the first call at the cap; the second
        call's drop-band draw is forced through at attempt 0."""
        lost, state = self.check([DROP, CORRUPT, LOSE, DROP], [1, 1])
        assert lost == [0]
        assert state["counters"]["link_drop"] == 1  # not the forced one
        assert state["counters"]["link_retransmits"] == 0

    def test_a_forced_delivery_resets_the_burst_count(self):
        """Mutant: the cap forces delivery but leaves the count at the
        cap, so every later fault is forced through as well."""
        lost, state = self.check([DROP, CORRUPT, DROP, DROP, OK], [2])
        assert lost == [] and state["burst"] == 0
        assert state["counters"]["link_drop"] == 2  # 1st and 4th draw
        assert state["counters"]["link_retransmits"] == 2 + 1

    def test_a_lost_transfers_attempts_are_not_retransmits(self):
        """Mutant: the attempts before a 'lose' leak into
        ``link_retransmits`` (the reference adds them on delivery
        only)."""
        lost, state = self.check([DROP, LOSE, OK], [2])
        assert lost == [0]
        assert state["counters"]["link_retransmits"] == 0

    def test_the_lose_band_lies_below_the_drop_band(self):
        """Mutant: bands permuted — 'drop' tested first, 'lose' after
        it.  A draw under ``lose_rate`` is a permanent loss, not a
        retransmittable drop."""
        lost, state = self.check([LOSE, DROP, OK], [2])
        assert lost == [0]
        assert state["counters"] == {
            "link_lose": 1, "link_lost": 1, "link_drop": 1,
            "link_deliver": 1, "link_retransmits": 1}

    def test_the_hook_fires_per_fault_that_fired_in_draw_order(self):
        """Mutants: ``on_fault`` fired for the forced delivery (it is a
        delivery: nothing fired), or skipped for 'lose'."""
        _, state = self.check([DROP, CORRUPT, DROP, LOSE, OK], [1, 2])
        assert state["fired"] == [
            ("link", "drop"), ("link", "corrupt"), ("link", "lose")]

    def test_a_first_try_delivery_creates_the_retransmits_key(self):
        """Mutant: ``link_retransmits`` flushed only when non-zero.
        The reference adds ``attempt == 0`` to the Counter, which
        creates the key — and ``fault_counters`` is fingerprint
        payload — while a run with no delivery must not create it."""
        _, state = self.check([OK], [1])
        assert state["counters"] == {"link_deliver": 1, "link_retransmits": 0}
        _, state = self.check([LOSE], [1])
        assert state["counters"] == {"link_lose": 1, "link_lost": 1}

    def test_an_exhausted_budget_loses_the_transfer(self):
        """No mutant is drawn here: ``LinkFaultSpec`` insists on
        ``max_attempts > max_burst``, and a burst count never exceeds
        the cap, so some attempt of every transfer is forced through
        (or 'lose' ends it first) — the branch is unreachable from any
        spec that validates.  It is kept equal to the reference all
        the same; only a forged spec gets there."""
        spec = LinkFaultSpec(drop_rate=1.0, max_burst=3, max_attempts=4)
        object.__setattr__(spec, "max_attempts", 2)
        plan = FaultPlan("forged", seed=5, link=spec)
        lost, state = settle(plan, [3, 2])
        assert (lost, state) == settle(plan, [3, 2], reference=True)
        assert lost == [0, 2, 4]  # drop drop | drop forced | drop drop | ...
        assert state["counters"]["link_lost"] == 3
        assert state["counters"]["link_retransmits"] == 1 + 1
