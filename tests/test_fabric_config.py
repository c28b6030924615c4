"""``RunConfig``: one home for a run's options, checked field by field.

Every check here is generated from ``dataclasses.fields(RunConfig)``,
so an option added later is covered — or fails :func:`_flipped` loudly
— without anyone remembering to list it: the config survives its own
serialization, and flipping any one field gives a different run
identity (a checkpoint directory refuses it) and a report that will
not merge with the unflipped one.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import fields, replace

import pytest

from repro.fabric import (
    CheckpointStore,
    LinkSchedule,
    RunConfig,
    get_topology,
    get_workload,
    merge_reports,
    run_flows,
    run_sharded,
)
from repro.fabric.supervisor import CHECKPOINT_FORMAT, run_identity

TOPO = "leaf-spine"
WORKLOAD = "uniform-small"
SCHEDULE = LinkSchedule((("leaf0", "spine0", 1, 3),))

#: ``run_flows(leaf-spine, uniform-small, frr=True, link_schedule=
#: SCHEDULE)`` at seed 0, recorded before the report carried a config.
PINNED_FINGERPRINT = (
    "d19d5f4bee609a300aa1c5f257e09b2ba565baa209ffd0cd4363c41e0a6328c1")

FIELDS = [f.name for f in fields(RunConfig)]


def _flipped(name: str) -> RunConfig:
    """The default config with exactly one field changed."""
    default = getattr(RunConfig(), name)
    if isinstance(default, bool):
        value = not default
    else:
        assert name == "link_schedule", f"teach _flipped about {name!r}"
        value = SCHEDULE
    return replace(RunConfig(), **{name: value})


def _half(index: int, config: RunConfig):
    return run_flows(get_topology(TOPO).build(), get_workload(WORKLOAD),
                     shards=2, flow_filter=lambda f: f.flow_id % 2 == index,
                     **vars(config))


class TestSerialization:
    CONFIG = RunConfig(fastpath=False, frr=True, link_schedule=SCHEDULE,
                       int_all=True)

    @pytest.mark.parametrize("config", [RunConfig(), CONFIG])
    def test_dict_round_trip_through_json(self, config):
        wire = json.loads(json.dumps(config.as_dict()))
        assert wire == config.as_dict()  # JSON-safe: nothing coerced
        assert RunConfig.from_dict(wire) == config

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.CONFIG)) == self.CONFIG

    def test_as_dict_has_exactly_the_fields(self):
        assert list(RunConfig().as_dict()) == FIELDS


class TestValidation:
    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="no_such_option"):
            run_sharded(get_topology(TOPO), get_workload(WORKLOAD),
                        no_such_option=1)


@pytest.mark.parametrize("name", FIELDS)
class TestEveryFieldIsIdentity:
    def test_flip_changes_the_identity_and_the_checkpoint_refuses(
            self, name, tmp_path):
        spec, workload = get_topology(TOPO), get_workload(WORKLOAD)
        base = run_identity(spec, workload, None, 2, None, RunConfig())
        other = run_identity(spec, workload, None, 2, None, _flipped(name))
        assert base["format"] == CHECKPOINT_FORMAT
        assert {k for k in base if base[k] != other[k]} == {name}
        CheckpointStore(tmp_path, base)
        CheckpointStore(tmp_path, base)  # the same run may come back
        with pytest.raises(ValueError, match="different run"):
            CheckpointStore(tmp_path, other)

    def test_flip_makes_merge_refuse_naming_the_field(self, name):
        a = _half(0, RunConfig())
        b = _half(1, _flipped(name))
        with pytest.raises(ValueError, match=rf"\b{name} differ"):
            merge_reports([a, b], 2)


def test_a_format_3_checkpoint_is_refused(tmp_path):
    """A directory written before ``max_inflight`` left the config
    holds it in its identity: it belongs to no run of this format."""
    spec, workload = get_topology(TOPO), get_workload(WORKLOAD)
    identity = run_identity(spec, workload, None, 2, None, RunConfig())
    old = {**identity, "format": 3, "max_inflight": 1024}
    (tmp_path / "run.json").write_text(json.dumps(old, sort_keys=True))
    with pytest.raises(ValueError, match="different run"):
        CheckpointStore(tmp_path, identity)
    assert identity["format"] == CHECKPOINT_FORMAT == 4


def test_identity_covers_shards_and_seed():
    spec, workload = get_topology(TOPO), get_workload(WORKLOAD)
    base = run_identity(spec, workload, None, 2, None, RunConfig())
    assert base != run_identity(spec, workload, None, 4, None, RunConfig())
    assert base != run_identity(spec, workload.with_seed(9), None, 2, None,
                                RunConfig())


def test_signature_reads_frr_and_schedule_from_the_config():
    """The fingerprint's ``frr`` / ``link_schedule`` values kept their
    shape when the report's echo fields became one config."""
    report = run_flows(get_topology(TOPO).build(), get_workload(WORKLOAD),
                       frr=True, link_schedule=SCHEDULE)
    signature = report.signature()
    assert signature["frr"] is True
    assert signature["link_schedule"] == "leaf0~spine0[1,3)"
    assert report.fingerprint() == PINNED_FINGERPRINT
    # ... and nothing else of the config leaks into it.
    assert report.config == RunConfig(frr=True, link_schedule=SCHEDULE)
    assert not (set(FIELDS) - {"frr", "link_schedule"}) & set(signature)
