"""Tests for the tracer (a recording view of the event bus) and the
runtime events it records."""

import pytest

from repro.obs import EventBus, Tracer
from repro.sim import Simulator
from tests.conftest import create_dcdo, make_sorter_manager


# ----------------------------------------------------------------------
# Tracer primitives
# ----------------------------------------------------------------------


def test_record_and_query():
    sim = Simulator()
    bus = EventBus(sim)
    tracer = Tracer(bus)
    bus.publish("cat-a", "subject-1", key="v1")

    def advance():
        yield sim.timeout(5.0)
        bus.publish("cat-b", "subject-1", key="v2")

    sim.run_process(advance())
    assert len(tracer) == 2
    assert [event.at for event in tracer.events] == [0.0, 5.0]
    assert len(tracer.in_category("cat-a")) == 1
    assert len(tracer.about("subject-1")) == 2
    assert tracer.between(1.0, 10.0)[0].details["key"] == "v2"


def test_capacity_drops_and_counts():
    bus = EventBus(Simulator())
    tracer = Tracer(bus, capacity=2)
    for index in range(5):
        bus.publish("cat", f"s{index}")
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_capacity_validation():
    with pytest.raises(ValueError):
        Tracer(EventBus(Simulator()), capacity=0)


def test_event_rendering():
    bus = EventBus(Simulator())
    tracer = Tracer(bus)
    bus.publish("evolved", "obj#1", to_version="1.1")
    text = tracer.render_timeline()
    assert "evolved" in text
    assert "to_version=1.1" in text


# ----------------------------------------------------------------------
# Runtime hooks
# ----------------------------------------------------------------------


def test_untraced_runtime_keeps_only_the_bounded_ring(runtime):
    bus = runtime.network.bus
    manager = make_sorter_manager(runtime)
    while bus.published <= bus.recent.maxlen:
        create_dcdo(runtime, manager)  # must not blow up without a tracer
    assert len(bus.recent) == bus.recent.maxlen
    assert bus.recent[-1].topic == "instance-created"
    assert bus.counts()["instance-created"] == len(manager.instance_loids())


def test_full_lifecycle_is_traced(runtime):
    from repro.core.policies import GeneralEvolutionPolicy

    tracer = Tracer(runtime.network.bus)
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, obj = create_dcdo(runtime, manager)

    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("compare", "compare-desc", replace_current=True)
    descriptor.remove_component("compare-asc")
    manager.mark_instantiable(version)
    runtime.sim.run_process(manager.evolve_instance(loid, version))

    assert len(tracer.in_category("version-instantiable")) >= 2  # v1 + v1.1
    assert len(tracer.in_category("current-version")) == 1
    assert len(tracer.in_category("instance-created")) == 1

    evolved = tracer.in_category("evolved")
    assert len(evolved) == 1
    assert evolved[0].details["from_version"] == "1"
    assert evolved[0].details["to_version"] == str(version)
    assert evolved[0].details["added"] == 1
    assert evolved[0].details["removed"] == 1

    incorporations = tracer.in_category("component-incorporated")
    # Two at creation (bootstrap) + one during evolution.
    assert len(incorporations) == 3
    assert sum(1 for event in incorporations if event.details["bootstrap"]) == 2

    removed = tracer.in_category("component-removed")
    assert [event.details["component"] for event in removed] == ["compare-asc"]


def test_migration_is_traced(runtime):
    tracer = Tracer(runtime.network.bus)
    manager = make_sorter_manager(runtime)
    loid, __ = create_dcdo(runtime, manager)
    source = manager.record(loid).host.name
    target = next(name for name in runtime.hosts if name != source)
    runtime.sim.run_process(manager.migrate_instance(loid, target))
    migrations = tracer.in_category("instance-migrated")
    assert len(migrations) == 1
    assert migrations[0].details["source"] == source
    assert migrations[0].details["target"] == target
    assert migrations[0].subject == loid


def test_trace_timestamps_are_simulated_time(runtime):
    tracer = Tracer(runtime.network.bus)
    manager = make_sorter_manager(runtime)
    before = runtime.sim.now
    create_dcdo(runtime, manager)
    created = tracer.in_category("instance-created")[0]
    # Creation takes >1 simulated second (process spawn).
    assert created.at >= before + 1.0


def test_manager_events_mirror_its_journal():
    """Every journaled manager transition is published once, with the
    entry's kind and fields, in journal order — and the system report
    shows the per-kind tallies."""
    from collections import Counter

    from repro.obs import collect_system_report, render_report
    from tests.test_canary_waves import build_fleet, drive_canary, start_traffic

    runtime, manager, journal, loids, v2 = build_fleet(added_latency_s=0.4)
    tracer = Tracer(runtime.network.bus)
    # Every append so far (no wave has started, so nothing is
    # checkpointed yet); the canary's wave start compacts the journal.
    assert journal.checkpoints == 0
    history = journal.replay()
    appended = []

    def on_write(event, payload):
        if event == "append":
            appended.append(payload)

    journal.subscribe(on_write)

    monitor, load = start_traffic(runtime, loids)
    assert drive_canary(runtime, v2, monitor, load).breached
    manager.begin_remediation("intent-1", "demote", str(v2), policy="test")
    manager.complete_remediation("intent-1")
    manager.bump_term()

    events = [(event.topic, event.details) for event in tracer.about(manager.type_name)]
    assert events == [(entry.kind, entry.data) for entry in appended]
    assert {
        "propagation-started", "propagation-rearmed", "wave-aborting",
        "wave-rollback", "wave-aborted", "remediation-intent",
        "remediation-closed", "term",
    } <= {kind for kind, __ in events}

    report = collect_system_report(runtime)
    text = render_report(report)
    for kind, count in Counter(entry.kind for entry in history + appended).items():
        assert report.events[kind] == count
        assert f"  {kind}: {count}" in text
