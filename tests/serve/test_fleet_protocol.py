"""Shared conformance suite for the :class:`~repro.serve.api.Fleet` protocol.

Every test here runs twice — once against the in-process
:class:`FleetEngine`, once against the :class:`MultiprocessFleet` — via
the ``any_fleet`` fixture.  This is the contract both implementations
must honour: one dispatch entry point (``run(events, encoding=...)``),
one error shape (:class:`DeploymentError` with identical messages),
portable snapshots, mergeable metrics, explicit shutdown.  A new Fleet
implementation earns its place by passing this file unchanged.
"""

import pytest

from repro.core.errors import DeploymentError
from repro.serve import (
    ENCODINGS,
    HAS_NUMPY,
    Fleet,
    FleetEngine,
    MultiprocessFleet,
    diff_against_standalone,
    make_fleet,
)
from repro.serve.workload import WorkloadSpec, generate_workload

#: Implementation x dispatch plane matrix the whole suite runs over.
#: The vector planes require numpy (a soft dependency) and are skipped,
#: not silently dropped, where it is absent.
IMPLEMENTATIONS = (
    "inproc",
    "mp",
    pytest.param(
        "inproc-vector",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available"),
    ),
    pytest.param(
        "mp-vector",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available"),
    ),
)


def build_fleet(impl: str, **overrides):
    """One fleet of the requested implementation, encoded mode by default."""
    kwargs = dict(mode="encoded", shards=4)
    if impl.endswith("-vector"):
        kwargs["mode"] = "vector"
    if impl.startswith("mp"):
        kwargs["workers"] = 2
    kwargs.update(overrides)
    return make_fleet("commit", **kwargs)


@pytest.fixture(params=IMPLEMENTATIONS)
def any_fleet(request):
    fleet = build_fleet(request.param)
    yield fleet
    fleet.close()


def workload(fleet, instances=12, events=120, seed=3):
    keys = fleet.spawn_many(instances)
    spec = WorkloadSpec(instances=instances, events=events, seed=seed)
    return keys, generate_workload(fleet.machine, spec)


def test_satisfies_protocol(any_fleet):
    assert isinstance(any_fleet, Fleet)


def test_implementations_are_distinct_types():
    # Guard against the fixture silently building the same class twice.
    inproc, mp = build_fleet("inproc"), build_fleet("mp")
    try:
        assert isinstance(inproc, FleetEngine)
        assert isinstance(mp, MultiprocessFleet)
    finally:
        inproc.close()
        mp.close()


def test_spawn_observe_lifecycle(any_fleet):
    fleet = any_fleet
    fleet.spawn("solo")
    assert "solo" in fleet
    assert len(fleet) == 1
    assert fleet.state_name("solo") == fleet.machine.start_state.name
    assert fleet.action_count("solo") == 0
    assert fleet.actions_since("solo", 0) == ()
    assert not fleet.is_finished("solo")
    trace = fleet.trace("solo")
    assert trace.key == "solo" and trace.actions == ()
    fleet.despawn("solo")
    assert "solo" not in fleet and len(fleet) == 0


def test_status_pairs_state_name_and_finished(any_fleet):
    keys, events = workload(any_fleet, instances=20, events=400)
    any_fleet.run(events)
    statuses = [any_fleet.status(key) for key in keys]
    assert statuses == [
        (any_fleet.state_name(key), any_fleet.is_finished(key)) for key in keys
    ]
    assert any(finished for _state, finished in statuses)
    with pytest.raises(DeploymentError, match="unknown instance 'ghost'"):
        any_fleet.status("ghost")


def test_run_events_matches_standalone(any_fleet):
    keys, events = workload(any_fleet)
    metrics = any_fleet.run(events)
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


@pytest.mark.parametrize("encoding", ["pairs", "flat"])
def test_preencoded_runs_match_event_runs(any_fleet, encoding):
    keys, events = workload(any_fleet)
    if encoding == "pairs":
        schedule = any_fleet.encode(events)
    else:
        schedule = any_fleet.encode_flat(events)
    metrics = any_fleet.run(schedule, encoding=encoding)
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


def test_auto_encoding_sniffs_preencoded_schedules(any_fleet):
    keys, events = workload(any_fleet)
    flat = any_fleet.encode_flat(events)
    metrics = any_fleet.run(flat)  # encoding="auto" sniffs the schedule
    assert metrics.events_dispatched == len(events)
    assert diff_against_standalone(any_fleet, keys, events) == []


def test_unknown_encoding_is_rejected(any_fleet):
    with pytest.raises(DeploymentError) as err:
        any_fleet.run([], encoding="morse")
    assert str(err.value) == (
        f"unknown encoding 'morse'; choose from {ENCODINGS}"
    )


def test_unknown_instance_error_shape(any_fleet):
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.deliver("ghost", "update")
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.trace("ghost")
    with pytest.raises(DeploymentError, match="^unknown instance 'ghost'$"):
        any_fleet.post("ghost", "update")


def test_unknown_message_error_shape(any_fleet):
    any_fleet.spawn("one")
    with pytest.raises(DeploymentError, match="unknown message 'flarp'"):
        any_fleet.deliver("one", "flarp")


def test_batch_rejection_error_shape(any_fleet):
    any_fleet.spawn("one")
    with pytest.raises(DeploymentError) as err:
        any_fleet.run([("one", "update"), ("ghost", "update")])
    assert "dispatch rejected 1 event(s)" in str(err.value)
    assert "'ghost'" in str(err.value)


def test_duplicate_spawn_error_shape(any_fleet):
    any_fleet.spawn("twin")
    with pytest.raises(DeploymentError, match="instance 'twin' already exists"):
        any_fleet.spawn("twin")


def test_post_then_drain(any_fleet):
    keys, _ = workload(any_fleet, instances=4, events=0)
    for key in keys:
        assert any_fleet.post(key, "update")
    assert any_fleet.drain_all() == len(keys)
    start = any_fleet.machine.start_state.name
    for key in keys:
        assert any_fleet.state_name(key) != start


def test_snapshot_restore_roundtrip(any_fleet):
    keys, events = workload(any_fleet)
    any_fleet.run(events)
    snapshot = any_fleet.snapshot()
    before = {key: any_fleet.trace(key) for key in keys}
    # Mutate, then restore: the fleet must rewind to the snapshot.
    any_fleet.despawn(keys[0])
    any_fleet.restore(snapshot)
    assert len(any_fleet) == len(keys)
    for key in keys:
        assert any_fleet.trace(key) == before[key]


def test_metrics_counts_dispatches(any_fleet):
    _, events = workload(any_fleet)
    any_fleet.run(events)
    metrics = any_fleet.metrics
    assert metrics.events_dispatched == len(events)
    assert metrics.transitions_fired + metrics.events_ignored == len(events)


def test_close_is_idempotent_and_context_managed(request):
    impls = ["inproc", "mp"] + (["inproc-vector", "mp-vector"] if HAS_NUMPY else [])
    for impl in impls:
        with build_fleet(impl) as fleet:
            fleet.spawn("x")
        fleet.close()  # second close is a no-op
