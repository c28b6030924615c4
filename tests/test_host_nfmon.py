"""``nf-mon``, the telemetry subsystem's command-line face."""

import json

import pytest

from repro.fabric import FabricReport, FlowRecord
from repro.host import cli
from repro.host.nfmon import main

pytestmark = pytest.mark.telemetry


class TestScenarios:
    def test_lists_the_standard_regression_set(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "nic_port_host_bridge",
            "switch_learn_and_forward",
            "switch_lite_static_pairs",
            "router_forward_connected",
        ):
            assert name in out


class TestDump:
    def test_table_marks_parity_series(self, capsys):
        assert main(["dump", "--scenario", "switch_learn_and_forward"]) == 0
        out = capsys.readouterr().out
        assert "switch_learn_and_forward [sim]" in out
        assert "port_packets_in" in out
        assert "chan_packets_total" in out
        # Parity series carry the * marker; kernel series don't.
        parity_line = next(
            l for l in out.splitlines() if 'port_packets_in{port="nf0"}' in l
        )
        assert parity_line.rstrip().endswith("*")
        kernel_line = next(
            l for l in out.splitlines() if 'chan_packets_total{chan="rx_nf0"}' in l
        )
        assert not kernel_line.rstrip().endswith("*")

    def test_json_format_is_loadable(self, capsys):
        assert main(["dump", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "sim"
        assert payload["scenario"] == "switch_learn_and_forward"
        assert any(
            s.startswith("port_packets_out") for s in payload["metrics"]
        )

    def test_prom_format_has_type_lines(self, capsys):
        assert main(["dump", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE nf_port_packets_in counter" in out
        assert "# TYPE nf_oq_occupancy_bytes gauge" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "dump.prom"
        assert main(["dump", "--format", "prom", "--output", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert "# TYPE" in path.read_text()

    def test_hw_mode_dumps_too(self, capsys):
        assert main(["dump", "--mode", "hw"]) == 0
        assert "[hw]" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["dump", "--scenario", "warp_core"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "switch_learn_and_forward" in err  # suggests the real ones


class TestWatch:
    def test_streams_interval_rows(self, capsys):
        assert main(["watch", "--interval", "64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "cycle", "pkts_in", "pkts_out", "oq_bytes", "events",
        ]
        rows = [l for l in lines[1:] if not l.startswith("done")]
        assert len(rows) >= 2
        cycles = [int(r.split()[0]) for r in rows]
        assert cycles == sorted(cycles)
        assert all(c % 64 == 0 for c in cycles)
        assert lines[-1].startswith("done:")

    def test_watch_is_sim_only(self, capsys):
        assert main(["watch", "--mode", "hw"]) == 2
        assert "only --mode sim" in capsys.readouterr().err


class TestTrace:
    def test_writes_valid_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main([
            "trace", "--scenario", "router_forward_connected",
            "--output", str(path),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        loaded = json.loads(path.read_text())
        events = loaded["traceEvents"]
        assert len(events) > 1
        for event in events:
            assert event["ph"] in ("M", "i", "C")
            assert isinstance(event["ts"], (int, float))
            assert event["pid"] == 0

    def test_faulted_trace_records_injections(self, tmp_path):
        # The NIC bridge scenario retransmits over a lossy link, so the
        # plan's drops actually fire and land in the trace.
        path = tmp_path / "faulted.json"
        assert main([
            "trace", "--scenario", "nic_port_host_bridge",
            "--faults", "lossy-link", "--output", str(path),
        ]) == 0
        cats = {e.get("cat") for e in json.loads(path.read_text())["traceEvents"]}
        assert "fault_injected" in cats


class TestCliForwarding:
    def test_repro_cli_mon_forwards(self, capsys):
        assert cli.main(["mon", "scenarios"]) == 0
        assert "switch_learn_and_forward" in capsys.readouterr().out


class TestOperatorErrors:
    """Operator mistakes exit with a message, never a traceback."""

    def test_unknown_fault_plan_in_dump(self, capsys):
        assert main(["dump", "--scenario", "switch_learn_and_forward",
                     "--faults", "no-such-plan"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault plan" in err
        assert "Traceback" not in err

    def test_unknown_scenario_in_watch(self, capsys):
        assert main(["watch", "--scenario", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_scenario_in_trace(self, capsys, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["trace", "--scenario", "bogus", "--output", out]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_ctrl_c_exits_130(self, capsys, monkeypatch):
        import repro.host.nfmon as nfmon

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(nfmon, "cmd_watch", interrupted)
        assert main(["watch", "--scenario", "switch_learn_and_forward"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err


class TestSoakCommand:
    def test_table_output_and_exit_zero(self, capsys):
        assert main(["soak", "--plan", "ctrl-chaos", "--seed", "0",
                     "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "soak 'ctrl-chaos'" in out
        assert "resilience counters" in out
        assert "converged: True" in out

    def test_json_output_is_loadable(self, capsys):
        assert main(["soak", "--plan", "flaky-writes", "--epochs", "3",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"] == "flaky-writes"
        assert data["converged"] is True

    def test_unknown_plan_exits_2(self, capsys):
        assert main(["soak", "--plan", "no-such-plan"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault plan" in err
        assert "Traceback" not in err

    def test_hw_mode_matches_sim_fingerprint(self, capsys):
        assert main(["soak", "--plan", "ctrl-chaos", "--seed", "9",
                     "--epochs", "3", "--format", "json"]) == 0
        sim = json.loads(capsys.readouterr().out)
        assert main(["soak", "--plan", "ctrl-chaos", "--seed", "9",
                     "--epochs", "3", "--mode", "hw",
                     "--format", "json"]) == 0
        hw = json.loads(capsys.readouterr().out)
        # mode differs by construction; forwarded totals are
        # cycle-dependent (kernel-domain), everything else must agree.
        for field in ("mode", "forwarded_frames"):
            sim.pop(field), hw.pop(field)
        assert sim == hw


@pytest.mark.fabric
class TestFabricCommand:
    def test_table_output_and_exit_zero(self, capsys):
        assert main(["fabric", "--topo", "leaf-spine",
                     "--workload", "uniform-small"]) == 0
        out = capsys.readouterr().out
        assert "fabric leaf_spine" in out
        assert "packets delivered" in out
        assert "per-device forwarded" in out
        assert "fingerprint:" in out
        assert "healthy: True" in out

    def test_per_flow_table(self, capsys):
        assert main(["fabric", "--topo", "star-3", "--per-flow"]) == 0
        out = capsys.readouterr().out
        assert "flow" in out and "src" in out and "dst" in out

    def test_json_output_is_loadable(self, capsys):
        assert main(["fabric", "--topo", "fat-tree-4",
                     "--workload", "incast-64", "--faults", "flaky-fabric",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"] == "flaky-fabric"
        assert data["healthy"] is True
        assert data["attempted"] == data["delivered"] + (
            data["lost_wire"] + data["lost_flap"] + data["blackholed"]
            + data["dropped_hop_limit"]
        )

    def test_shards_do_not_change_the_fingerprint(self, capsys):
        assert main(["fabric", "--topo", "leaf-spine", "--seed", "4",
                     "--format", "json"]) == 0
        one = json.loads(capsys.readouterr().out)
        assert main(["fabric", "--topo", "leaf-spine", "--seed", "4",
                     "--shards", "2", "--inline", "--format", "json"]) == 0
        two = json.loads(capsys.readouterr().out)
        assert one["fingerprint"] == two["fingerprint"]
        assert one["shards"] == 1 and two["shards"] == 2

    def test_loss_rows_account_for_every_attempted_packet(
            self, capsys, monkeypatch):
        """The table's loss rows and the per-flow ``lost`` column come
        from ``LOSS_FIELDS`` (``lost_link`` used to be missing from
        both), so they sum to ``attempted - delivered``."""
        record = FlowRecord(0, "a", "b", attempted=21, delivered=6,
                            lost_wire=1, lost_flap=2, lost_link=3,
                            blackholed=4, dropped_hop_limit=5)
        report = FabricReport("t", "w", 0, records=[record])
        monkeypatch.setattr("repro.fabric.run_sharded",
                            lambda *args, **kwargs: report)
        assert main(["fabric", "--per-flow"]) == 1  # blackholed: unhealthy
        lines = capsys.readouterr().out.splitlines()
        rows = [line.rsplit(None, 1) for line in lines]
        labels = [label.strip() for label, _ in rows]
        first = labels.index("packets delivered") + 1
        losses = [int(value)
                  for _, value in rows[first:labels.index("misdelivered")]]
        assert sorted(losses) == [1, 2, 3, 4, 5]
        assert sum(losses) == record.attempted - record.delivered
        flow_row = lines[labels.index("fingerprint:") - 1].split()
        assert flow_row[3:6] == ["21", "6", "15"]

    @pytest.mark.parametrize("flag, named", (
        ("--checkpoint", "checkpoint="), ("--chaos-shards", "chaos=")))
    def test_inline_refuses_checkpoint_and_chaos(
            self, capsys, tmp_path, flag, named):
        """Both used to be dropped silently: exit 0, no ledger, no
        directory."""
        ckpt = tmp_path / "ckpt"
        value = str(ckpt) if flag == "--checkpoint" else "shard-killer"
        assert main(["fabric", "--inline", "--shards", "2", flag, value]) == 2
        err = capsys.readouterr().err
        assert named in err and "inline" in err and "Traceback" not in err
        assert not ckpt.exists()

    def test_unknown_topology_exits_2(self, capsys):
        assert main(["fabric", "--topo", "torus-9"]) == 2
        err = capsys.readouterr().err
        assert "unknown fabric topology" in err
        assert "Traceback" not in err

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["fabric", "--workload", "elephants"]) == 2
        assert "unknown fabric workload" in capsys.readouterr().err

    def test_unknown_plan_exits_2(self, capsys):
        assert main(["fabric", "--faults", "no-such-plan"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err


class TestExitCodeContract:
    """The satellite fix: argparse quirks normalized into exit codes."""

    def test_top_level_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "nf-mon" in capsys.readouterr().out

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", (
        "commands", "scenarios", "dump", "watch", "trace", "shell",
        "soak", "fabric", "frr", "int",
    ))
    def test_every_subcommand_help_has_a_description(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out
        # _sub() copies the one-liner into the description, so --help
        # is never just a bare usage line.
        assert len(out.strip().splitlines()) > 2

    def test_commands_lists_every_subcommand(self, capsys):
        assert main(["commands"]) == 0
        out = capsys.readouterr().out
        for command in ("scenarios", "dump", "watch", "trace", "shell",
                        "soak", "fabric", "frr", "int"):
            assert command in out


@pytest.mark.shell
class TestShellCommand:
    def _script(self, tmp_path, text):
        path = tmp_path / "session.nfsh"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_clean_script_exits_zero(self, capsys, tmp_path):
        script = self._script(tmp_path, "\n".join([
            "start", "run", "finish",
            "expect lost == 0", "fingerprint",
        ]))
        assert main(["shell", "--script", script]) == 0
        out = capsys.readouterr().out
        assert "ok: lost == 0" in out

    def test_failed_expect_exits_one(self, capsys, tmp_path):
        script = self._script(tmp_path, "start\nrun\nexpect delivered == 0\n")
        assert main(["shell", "--script", script]) == 1
        assert "nfsh:3:" in capsys.readouterr().err

    def test_operator_error_in_script_exits_two(self, capsys, tmp_path):
        script = self._script(tmp_path, "tables nonesuch\n")
        assert main(["shell", "--script", script]) == 2
        assert "nfsh:1:" in capsys.readouterr().err

    def test_unknown_preset_flags_exit_two(self, capsys):
        assert main(["shell", "--topo", "mobius", "--script", "x"]) == 2
        assert "available" in capsys.readouterr().err
        assert main(["shell", "--faults", "gremlins", "--script", "x"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err

    def test_missing_script_file_exits_two(self, capsys, tmp_path):
        assert main(["shell", "--script", str(tmp_path / "nope.nfsh")]) == 2
        assert "nope.nfsh" in capsys.readouterr().err

    def test_piped_stdin_drives_interact(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO("status\nquit\n"))
        assert main(["shell"]) == 0
        out = capsys.readouterr().out
        assert "clock: cycle 0" in out
        assert "nfsh>" not in out  # piped input: prompt suppressed

    def test_checked_in_walkthrough_script(self, capsys):
        from pathlib import Path

        script = Path(__file__).parent.parent / "examples" / \
            "abilene_reroute.nfsh"
        assert main(["shell", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "ok: reroutes >= 1" in out
        assert "ok: blackholed == 0" in out

    def test_script_session_mirrors_batch_fingerprint(self, capsys, tmp_path):
        """The ISSUE's acceptance bar, at the CLI layer: a scripted
        session's fingerprint is byte-identical to the batch run's."""
        from repro.fabric import get_topology, get_workload, run_flows

        want = run_flows(
            get_topology("leaf-spine").build(),
            get_workload("uniform-small").with_seed(4),
        ).fingerprint()
        script = self._script(tmp_path, "\n".join([
            "start", "step 5", "pause", "resume", "warp off",
            "run", "finish", "fingerprint",
        ]))
        assert main(["shell", "--seed", "4", "--script", script]) == 0
        assert want in capsys.readouterr().out
