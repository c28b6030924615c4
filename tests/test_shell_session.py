"""ShellSession: the S26 determinism contract and command API.

The load-bearing tests here are the fingerprint-identity ones: an
interactive session — however it is paced (pause/step/warp/run-until at
arbitrary seeded points) — must close with a FabricReport fingerprint
byte-identical to the equivalent batch :func:`run_flows` call.
"""

from __future__ import annotations

import random

import pytest

from repro.fabric import get_topology, get_workload, run_flows
from repro.shell import ExpectFailed, ShellError, ShellSession

pytestmark = pytest.mark.shell


def batch_fingerprint(topo: str = "leaf-spine", workload: str = "uniform-small",
                      seed: int = 0, plan=None, **kwargs) -> str:
    """The reference batch run the session must mirror."""
    topology = get_topology(topo).build()
    spec = get_workload(workload).with_seed(seed)
    return run_flows(topology, spec, plan, **kwargs).fingerprint()


class TestFingerprintIdentity:
    def test_plain_session_mirrors_batch(self):
        session = ShellSession("leaf-spine", "uniform-small", seed=0)
        session.start()
        session.run()
        assert session.fingerprint() == batch_fingerprint()

    def test_session_with_frr_and_int_mirrors_batch(self):
        topology = get_topology("abilene").build()
        spec = get_workload("uniform-small").with_seed(3)
        want = run_flows(topology, spec, frr=True, int_all=True).fingerprint()
        session = ShellSession("abilene", "uniform-small", seed=3,
                               frr=True, int_all=True)
        session.start()
        session.run()
        assert session.fingerprint() == want

    def test_warp_off_matches_warp_on(self):
        walked = ShellSession(seed=1, warp=False)
        walked.start()
        walked.run()
        warped = ShellSession(seed=1, warp=True)
        warped.start()
        warped.run()
        assert walked.fingerprint() == warped.fingerprint()
        assert walked.clock.ticks_warped == 0
        assert warped.clock.ticks_walked == 0
        # Both clocks end on the same cycle regardless of pacing mode.
        assert walked.clock.now == warped.clock.now

    def test_a_pausing_tick_hook_stops_run_after_that_cycles_event(self):
        probe = ShellSession(seed=1, warp=False)
        probe.start()
        probe.run_until(40)
        pause_at = probe.engine.next_tick  # the first event after cycle 40
        session = ShellSession(seed=1, warp=False)

        @session.clock.on_tick
        def pause_there(cycle):
            if cycle == pause_at:
                session.pause()

        session.start()
        stopped = session.run()
        assert stopped["dispatched"] == probe.engine.events_dispatched + 1
        assert stopped["clock"]["now"] == pause_at
        assert stopped["clock"]["paused"] and not stopped["finished"]
        session.run()
        assert session.engine.finished
        assert session.fingerprint() == batch_fingerprint(seed=1)

    @pytest.mark.parametrize("warp", (True, False), ids=("warped", "walked"))
    def test_a_clocked_lossy_run_replays_through_the_batch_tier(self, warp):
        """The shell paces the batch engine itself: under wire faults,
        warped or walked, a session mirrors the batch run and replays
        nearly every packet through the counted entry."""
        from repro.faults import get_plan

        want = batch_fingerprint(workload="bursty-256", seed=1,
                                 plan=get_plan("lossy-link", seed=1))
        session = ShellSession(workload="bursty-256", seed=1,
                               plan="lossy-link", warp=warp)
        session.start()
        session.finish()
        report = session.report
        assert report.fingerprint() == want
        assert report.fault_counters.get("link_retransmits", 0) > 0
        assert report.batch["replayed_packets"] >= 0.9 * report.attempted

    def test_finish_mid_run_drains_the_rest(self):
        session = ShellSession(seed=0)
        session.start()
        session.step(3)
        assert session.fingerprint() == batch_fingerprint()

    @pytest.mark.parametrize("fastpath", (True, False), ids=("fp", "nofp"))
    @pytest.mark.parametrize("chaos_seed", range(4))
    def test_random_interleavings_never_change_the_fingerprint(
        self, chaos_seed, fastpath
    ):
        """The property the ISSUE pins: pause/step/warp at random seeded
        points produce the same fingerprint as a free run."""
        want = batch_fingerprint(seed=7, fastpath=fastpath)
        rng = random.Random(chaos_seed)
        session = ShellSession(seed=7, fastpath=fastpath,
                               warp=bool(chaos_seed % 2))
        session.start()
        while not session.engine.finished:
            move = rng.choice(("step", "burst", "pause", "warp", "until", "run"))
            if move == "step":
                session.step(1)
            elif move == "burst":
                session.step(rng.randint(2, 9))
            elif move == "pause":
                session.pause()
                session.step(1)  # explicit motion while paused still works
                session.resume()
            elif move == "warp":
                session.warp(rng.choice((True, False)))
                session.step(1)
            elif move == "until":
                session.run_until(session.clock.now + rng.randint(1, 40))
            else:
                session.pause()  # a paused run() must not spin forever
                session.run()
                session.resume()
                session.run()
        assert session.fingerprint() == want

    def test_pingall_mid_run_is_non_perturbing(self):
        want = batch_fingerprint()
        session = ShellSession(seed=0)
        session.start()
        session.step(5)
        sweep = session.pingall()
        assert sweep["delivered"] == sweep["pairs"] > 0
        session.run()
        assert session.fingerprint() == want

    def test_observation_commands_are_non_perturbing(self):
        want = batch_fingerprint()
        session = ShellSession(seed=0)
        session.start()
        session.step(4)
        session.status()
        session.stats()
        session.metrics()
        session.reach()
        session.frr_status()
        for device in session.devices():
            session.tables(device)
        session.run()
        assert session.fingerprint() == want

    def test_inject_perturbs_on_purpose(self):
        session = ShellSession(seed=0)
        session.start()
        hosts = session.topology.host_names()
        shot = session.inject(hosts[0], hosts[-1], count=2)
        assert shot == {"sent": 2, "delivered": 2, "max_hops": shot["max_hops"]}
        session.run()
        assert session.fingerprint() != batch_fingerprint()


class TestLifecycle:
    def test_one_run_per_build(self):
        session = ShellSession(seed=0)
        session.start()
        with pytest.raises(ShellError, match="already active"):
            session.start()
        session.run()
        session.finish()
        with pytest.raises(ShellError, match="build"):
            session.start()
        session.build()
        session.start()
        session.run()
        assert session.fingerprint() == batch_fingerprint()

    def test_a_rebuild_restarts_the_clock_with_the_run(self):
        """A second run's clock starts where its engine does, at cycle
        0, keeping warp mode and hooks: no event of it lies behind the
        clock."""
        session = ShellSession(seed=0, warp=False)
        seen = []
        session.clock.on_tick(seen.append)
        session.start()
        session.run()
        assert session.clock.now > 0
        session.build(seed=3)
        session.start()
        assert session.clock.now <= session.engine.next_tick
        assert session.clock.stats() == {
            "now": 0, "warp": False, "paused": False,
            "ticks_walked": 0, "ticks_warped": 0}
        del seen[:]
        session.step(1)
        assert seen == list(range(1, session.engine.last_tick + 1))
        session.run()
        assert session.fingerprint() == batch_fingerprint(seed=3)

    def test_build_swaps_topology_and_seed(self):
        session = ShellSession()
        info = session.build("abilene", "uniform-small", 5)
        assert info["topology"].startswith("abilene")
        assert info["seed"] == 5
        assert info["devices"] == 11 and info["hosts"] == 11

    def test_motion_requires_a_started_run(self):
        session = ShellSession()
        for move in (session.run, lambda: session.step(1),
                     lambda: session.run_until(10), session.finish):
            with pytest.raises(ShellError, match="no active run"):
                move()

    def test_step_and_run_until_validation(self):
        session = ShellSession()
        session.start()
        with pytest.raises(ShellError, match=">= 1"):
            session.step(0)
        with pytest.raises(ShellError, match=">= 0"):
            session.run_until(-1)

    def test_run_until_advances_idle_tail(self):
        session = ShellSession(seed=0)
        session.start()
        session.run()
        horizon = session.clock.now + 500
        session.run_until(horizon)  # no events left: pure idle advance
        assert session.clock.now == horizon


class TestFaultSurface:
    def test_faults_arm_matches_batch_plan_run(self):
        topology = get_topology("leaf-spine").build()
        spec = get_workload("uniform-small").with_seed(2)
        from repro.faults import get_plan

        want = run_flows(topology, spec,
                         get_plan("flaky-fabric", seed=2)).fingerprint()
        session = ShellSession(seed=2, plan="flaky-fabric")
        session.start()
        session.run()
        assert session.fingerprint() == want

    def test_unknown_plan_is_an_operator_error(self):
        session = ShellSession()
        with pytest.raises(ShellError, match="available"):
            session.faults_arm("gremlins")

    def test_arming_mid_run_is_rejected(self):
        session = ShellSession()
        session.start()
        with pytest.raises(ShellError, match="next start"):
            session.faults_arm("flaky-fabric")
        with pytest.raises(ShellError, match="next start"):
            session.frr_on()

    def test_link_down_shows_in_frr_status_and_reach(self):
        session = ShellSession("abilene", frr=True)
        assert session.frr_status()["coverage"] > 0.5
        session.link("sea", "den", up=False)
        status = session.frr_status()
        assert status["links_down"] == [("den", "sea")]
        session.link("sea", "den", up=True)
        assert session.frr_status()["links_down"] == []

    def test_inject_validation(self):
        session = ShellSession()
        hosts = session.topology.host_names()
        with pytest.raises(ShellError, match="unknown host"):
            session.inject("nobody", hosts[0])
        with pytest.raises(ShellError, match="differ"):
            session.inject(hosts[0], hosts[0])
        with pytest.raises(ShellError, match=">= 1"):
            session.inject(hosts[0], hosts[1], count=0)


class TestObservation:
    def test_tables_decode_one_hot_ports(self):
        session = ShellSession("leaf-spine")
        table = session.tables("leaf0")
        ports = [port for _, port in table["mac_table"]]
        assert ports and all(0 <= p < 4 for p in ports)

    def test_int_paths_requires_int_flows(self):
        session = ShellSession(seed=0)
        session.start()
        with pytest.raises(ShellError, match="INT"):
            session.int_paths()

    def test_int_paths_live_view(self):
        session = ShellSession(seed=0, int_all=True)
        session.start()
        session.run()
        view = session.int_paths()
        assert view["stamps"] > 0
        assert view["paths"]

    def test_metrics_live_then_final(self):
        session = ShellSession(seed=0)
        session.start()
        session.step(2)
        live = session.metrics()
        assert any("fabric_progress" in key for key in live)
        session.run()
        session.finish()
        final = session.metrics()
        assert any("fabric" in key for key in final)
        assert not any("fabric_progress" in key for key in final)


class TestExpect:
    def test_expect_pass_and_fail(self):
        session = ShellSession(seed=0)
        session.start()
        session.run()
        session.finish()
        assert session.expect("lost", "==", "0")["actual"] == 0
        assert session.expect("healthy", "==", "True")
        with pytest.raises(ExpectFailed, match="actual"):
            session.expect("delivered", "<", "1")

    def test_expect_operator_and_key_errors(self):
        session = ShellSession()
        with pytest.raises(ShellError, match="operator"):
            session.expect("now", "~=", "0")
        with pytest.raises(ShellError, match="unknown stat"):
            session.expect("vibes", "==", "good")
