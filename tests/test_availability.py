"""Manager high availability: terms, replication, detection, failover.

Unit-level coverage for the PR 5 availability stack — fencing terms on
the wire, journal byte accounting, hot-standby journal shipping (sync
and async, including checkpoint/replay interleavings), heartbeat
failure detection, and supervised failover end-to-end (crash and
split-brain).  The seeded chaos sweep lives in
``tests/test_chaos_failover.py``.
"""

import pytest

from repro.cluster import HeartbeatFailureDetector, Supervisor, build_lan
from repro.cluster.chaos import crash_host
from repro.core import (
    ManagerJournal,
    ManagerRecoveryError,
    ReplicationLink,
    estimate_entry_bytes,
    recover_manager,
)
from repro.core.policies import ReliableUpdatePolicy
from repro.core.recovery import JournalEntry
from repro.legion import LegionRuntime
from repro.legion.errors import StaleManagerTerm
from repro.net import ManagerTerm, PrefixPartition, RemoteError, RetryPolicy

from tests.conftest import create_dcdo, make_counter_class, make_sorter_manager

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)


def build_fleet(sim_seed=7, hosts=6, instances=3, **manager_kwargs):
    """Runtime + journaled sorter manager on host00, instances beyond."""
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": "host05" if hosts > 5 else "host00",
        },
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = []
    for index in range(instances):
        loid, __ = create_dcdo(runtime, manager, host_name=f"host{index + 1:02d}")
        loids.append(loid)
    return runtime, manager, journal, loids


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


# ----------------------------------------------------------------------
# Satellite: recover_manager with no live host
# ----------------------------------------------------------------------


def test_recover_manager_no_live_host_raises_recovery_error():
    """Regression: the fallback-host pick was a bare ``next()`` whose
    StopIteration PEP 479 turned into an opaque RuntimeError."""
    runtime, manager, journal, __ = build_fleet(hosts=3, instances=1)
    for host in list(runtime.hosts.values()):
        crash_host(runtime, host)
    with pytest.raises(ManagerRecoveryError, match="no live host"):
        runtime.sim.run_process(recover_manager(runtime, journal))


# ----------------------------------------------------------------------
# Satellite: journal byte accounting
# ----------------------------------------------------------------------


def test_estimate_entry_bytes_by_value_shape():
    base = estimate_entry_bytes(JournalEntry("x", {}))
    assert base > 0
    assert estimate_entry_bytes(
        JournalEntry("x", {"s": "abcdefgh"})
    ) > estimate_entry_bytes(JournalEntry("x", {"s": "ab"}))
    assert estimate_entry_bytes(
        JournalEntry("x", {"l": [1, 2, 3, 4]})
    ) > estimate_entry_bytes(JournalEntry("x", {"l": []}))


def test_journal_tracks_bytes_across_append_and_checkpoint():
    journal = ManagerJournal(name="T")
    assert journal.bytes == 0
    journal.append("alpha", value="payload")
    journal.append("beta", value="more-payload")
    grown = journal.bytes
    assert grown == sum(estimate_entry_bytes(e) for e in journal.replay())
    journal.write_checkpoint(journal.replay()[1:])
    assert 0 < journal.bytes < grown
    journal.append("gamma")
    assert journal.bytes == sum(estimate_entry_bytes(e) for e in journal.replay())


def test_manager_publishes_journal_gauges():
    runtime, manager, journal, __ = build_fleet(instances=1)
    metrics = runtime.network.metrics
    assert metrics.gauge("journal.entries").value == len(journal)
    assert metrics.gauge("journal.bytes").value == journal.bytes
    manager.write_checkpoint()
    assert metrics.gauge("journal.entries").value == len(journal)
    assert metrics.gauge("journal.bytes").value == journal.bytes


# ----------------------------------------------------------------------
# Fencing terms
# ----------------------------------------------------------------------


def test_stale_term_rejected_fresh_term_accepted(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(
        class_object.create_instance(host_name="host01")
    )
    obj = class_object.record(loid).obj
    invoker = class_object.invoker

    result = runtime.sim.run_process(
        invoker.invoke(loid, "inc", (1,), term=ManagerTerm("Counter", 5))
    )
    assert result == 1
    assert obj.observed_term("Counter") == 5

    with pytest.raises(StaleManagerTerm):
        runtime.sim.run_process(
            invoker.invoke(loid, "inc", (1,), term=ManagerTerm("Counter", 3))
        )
    assert runtime.network.count_value("manager.stale_term_rejections") == 1
    # The stale call did not execute; the fresh term still stands.
    assert runtime.sim.run_process(invoker.invoke(loid, "get", ())) == 1
    assert obj.observed_term("Counter") == 5
    # Equal term is fine (the same manager keeps talking).
    runtime.sim.run_process(
        invoker.invoke(loid, "inc", (1,), term=ManagerTerm("Counter", 5))
    )


def test_term_bumps_are_journaled_and_survive_double_recovery():
    runtime, manager, journal, __ = build_fleet(instances=1)
    assert manager.term == 1

    crash_host(runtime, runtime.host("host00"))
    second = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host02")
    )
    assert second.term == 2
    second.write_checkpoint()  # the term must lead the checkpoint

    crash_host(runtime, runtime.host("host02"))
    third = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host03")
    )
    assert third.term == 3
    assert third.current_term() == ManagerTerm("Sorter", 3)


# ----------------------------------------------------------------------
# Hot-standby replication
# ----------------------------------------------------------------------


def journals_equal(a, b):
    return [(e.kind, e.data) for e in a.replay()] == [
        (e.kind, e.data) for e in b.replay()
    ]


def test_sync_replication_ships_bootstrap_and_live_writes():
    runtime, manager, journal, loids = build_fleet(instances=2)
    link = ReplicationLink(runtime, manager, "host02")
    v2 = derive_v2(manager)
    runtime.sim.run_process(manager.propagate_version(v2))
    runtime.sim.run()
    assert link.lag == 0
    assert journals_equal(link.replica.journal, journal)
    assert link.replica.journal.meta["type_name"] == "Sorter"
    assert runtime.network.count_value("repl.entries_shipped") > 0
    assert runtime.network.count_value("repl.checkpoints_shipped") >= 1
    assert runtime.network.count_value("repl.bytes_shipped") > 0


def test_checkpoint_during_standby_replay_loses_no_tail(runtime):
    """Satellite: write_checkpoint racing shipped appends must never
    lose tail entries — the standby applies records strictly in ship
    order, so a checkpoint followed by post-checkpoint appends lands
    exactly as the primary wrote them."""
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(runtime, journal=journal)
    link = ReplicationLink(runtime, manager, "host02")

    def churn():
        for round_no in range(5):
            for index in range(4):
                journal.append("note", round=round_no, index=index)
                yield runtime.sim.timeout(0.001)
            manager.write_checkpoint()
            journal.append("post-checkpoint", round=round_no)
            yield runtime.sim.timeout(0.01)

    runtime.sim.run_process(churn())
    runtime.sim.run()
    assert link.lag == 0
    assert journals_equal(link.replica.journal, journal)
    tail_kinds = [e.kind for e in link.replica.journal.entries]
    assert "post-checkpoint" in tail_kinds


def test_partitioned_standby_lags_then_catches_up():
    runtime, manager, journal, loids = build_fleet(instances=2)
    runtime.network.faults.add_partition(
        PrefixPartition(["host02/"], ["host00/", "host01/"], start=0.0, end=20.0)
    )
    link = ReplicationLink(runtime, manager, "host02")
    v2 = derive_v2(manager)
    runtime.sim.run_process(manager.propagate_version(v2))
    assert link.lag > 0  # backlog while cut off
    assert runtime.network.count_value("repl.ship_failures") > 0

    def wait_heal():
        yield runtime.sim.timeout(25.0)
        journal.append("after-heal")  # any write re-kicks the queue

    runtime.sim.run_process(wait_heal())
    runtime.sim.run()
    assert link.lag == 0
    assert journals_equal(link.replica.journal, journal)


def test_duplicate_ship_is_idempotent():
    """A re-shipped batch (lost reply) must not double-apply records."""
    runtime, manager, journal, __ = build_fleet(instances=1)
    link = ReplicationLink(runtime, manager, "host02")
    runtime.sim.run()
    before = len(link.replica.journal)
    applied = link.replica.applied_seq
    assert applied >= 1
    # Re-ship the bootstrap checkpoint as if its ack had been lost.
    records = [(1, "checkpoint", journal.replay())]
    reply = runtime.sim.run_process(
        link._endpoint.request(
            link.replica.address,
            {"op": "ship", "records": records, "meta": {}},
        )
    )
    assert reply["applied_seq"] == applied
    assert len(link.replica.journal) == before
    assert link.replica.applied_seq == applied


def test_takeover_from_standby_skips_replay_cost():
    runtime, manager, journal, __ = build_fleet(instances=2)
    link = ReplicationLink(runtime, manager, "host02")
    v2 = derive_v2(manager)
    manager.set_current_version(v2)
    runtime.sim.run_process(manager.propagate_version(v2))
    runtime.sim.run()
    crash_host(runtime, runtime.host("host00"))
    link.stop()
    standby_journal = link.replica.journal
    promoted = runtime.sim.run_process(
        recover_manager(
            runtime,
            standby_journal,
            host_name="host02",
            resume=False,
            skip_entries=len(standby_journal),
        )
    )
    assert promoted.is_active and promoted.term == 2
    assert promoted.current_version == v2
    # All replay CPU was paid during shipping: takeover charged none.
    hot = runtime.network.metrics.timer("manager.recovery_time_s").max()
    cold_floor = 0.0002 * len(standby_journal)
    assert hot < cold_floor


# ----------------------------------------------------------------------
# Heartbeat failure detection
# ----------------------------------------------------------------------


def test_detector_suspects_dead_manager_and_sees_recovery():
    runtime, manager, journal, __ = build_fleet(instances=1)
    events = []
    detector = HeartbeatFailureDetector(
        runtime,
        runtime.host("host03"),
        interval_s=0.5,
        timeout_s=0.4,
        suspicion_threshold=3,
    )
    loid = manager.loid
    detector.watch(
        "Sorter",
        lambda: runtime.binding_agent.current_address(loid),
        on_suspect=lambda key: events.append(("suspect", runtime.sim.now)),
        on_recover=lambda key: events.append(("recover", runtime.sim.now)),
    )

    def scenario():
        yield runtime.sim.timeout(5.0)
        crash_host(runtime, runtime.host("host00"))
        yield runtime.sim.timeout(10.0)
        runtime.host("host00").restart()
        yield from recover_manager(runtime, journal, host_name="host00")
        yield runtime.sim.timeout(5.0)

    runtime.sim.run_process(scenario())
    assert [kind for kind, __ in events[:1]] == ["suspect"]
    assert ("recover", events[-1][1]) == events[-1]
    suspect_at = events[0][1]
    assert 5.0 < suspect_at < 10.0  # a few missed probes, not minutes
    assert runtime.network.count_value("detector.suspicions") == 1
    assert runtime.network.count_value("detector.recoveries") == 1
    latency = runtime.network.metrics.timer("detector.detection_latency_s")
    assert latency.count == 1 and latency.max() < 5.0
    detector.stop()


def test_detector_refires_while_still_suspected():
    runtime, manager, journal, __ = build_fleet(instances=1)
    fired = []
    detector = HeartbeatFailureDetector(
        runtime,
        runtime.host("host03"),
        interval_s=0.5,
        timeout_s=0.4,
        suspicion_threshold=2,
    )
    loid = manager.loid
    detector.watch(
        "Sorter",
        lambda: runtime.binding_agent.current_address(loid),
        on_suspect=lambda key: fired.append(runtime.sim.now),
    )
    crash_host(runtime, runtime.host("host00"))
    runtime.sim.run(until=10.0)
    # Nobody recovered the manager: the alarm re-fires periodically so
    # a failed promotion gets another chance.
    assert len(fired) >= 3
    detector.stop()


# ----------------------------------------------------------------------
# Supervised failover, end to end
# ----------------------------------------------------------------------


def test_supervisor_promotes_standby_and_converges_mid_wave():
    runtime, manager, journal, loids = build_fleet(
        instances=3,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        heartbeat_interval_s=0.5,
        heartbeat_timeout_s=0.4,
        suspicion_threshold=3,
        retry_policy=FAST_RETRY,
    ).start()
    v2 = derive_v2(manager)

    def scenario():
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        yield runtime.sim.timeout(1.0)  # wave in flight
        crash_host(runtime, runtime.host("host00"))

    runtime.sim.run_process(scenario())
    # Detection and the probe loop run on daemon timers, so drive the
    # clock through the suspicion window explicitly, then drain the
    # promotion/convergence work it spawned.
    runtime.sim.run(until=60.0)
    runtime.sim.run()

    assert supervisor.promotions == 1
    promoted = runtime.class_of("Sorter")
    assert promoted.is_active and not promoted.deposed
    assert promoted.host.name == "host02"
    assert promoted.term == 2
    assert promoted.current_version == v2
    for loid in loids:
        obj = promoted.record(loid).obj
        assert obj.version == v2
        assert obj.applications_by_version.get(v2, 0) <= 1
        # Term-stamped management traffic reached every instance; an
        # instance that only acked before the crash may still hold the
        # old number, but never anything above the promoted term.
        assert 1 <= obj.observed_manager_term <= promoted.term
    # The supervisor re-armed replication to the next standby.
    assert supervisor.link is not None
    assert supervisor.link.replica.host_name == "host03"
    assert runtime.network.metrics.timer("supervisor.takeover_s").count == 1
    supervisor.stop()


def test_supervisor_fences_split_brain_zombie():
    """A *partitioned* (not dead) primary is deposed by its own stale
    term: after heal its retries are rejected everywhere and the first
    rejection fences it permanently."""
    runtime, manager, journal, loids = build_fleet(
        instances=3,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        retry_policy=FAST_RETRY,
    ).start()
    v2 = derive_v2(manager)
    # Isolate the primary *mid-wave*: the wave fires at base+0.5, its
    # journal writes ship to the standby within a millisecond, and the
    # instances' acks only return around base+0.55 — cutting at
    # base+0.52 means the standby knows about the wave but the zombie
    # never hears its acks and keeps retrying with its old term.
    # Fault times are absolute, so rebase onto now (setup already ran
    # the sim).
    base = runtime.sim.now
    others = [f"host{i:02d}/" for i in range(1, 6)]
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], others, start=base + 0.52, end=base + 40.0)
    )

    def scenario():
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        # Hold the sim open past heal so the zombie's surviving retry
        # attempts actually reach the fleet and get fenced.
        yield runtime.sim.timeout(90.0)

    runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert supervisor.promotions >= 1
    promoted = runtime.class_of("Sorter")
    assert promoted is not manager
    assert promoted.is_active and promoted.term >= 2
    # The zombie saw a stale-term rejection and stepped down for good.
    assert manager.deposed and not manager.is_active
    assert runtime.network.count_value("manager.stale_term_rejections") > 0
    assert runtime.network.bus.counts().get("manager-fenced", 0) >= 1
    for loid in loids:
        obj = promoted.record(loid).obj
        assert obj.version == v2
        assert obj.applications_by_version.get(v2, 0) <= 1
    supervisor.stop()


def test_supervisor_replaces_crashed_standby():
    runtime, manager, journal, __ = build_fleet(instances=1)
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
    ).start()
    assert supervisor.link.replica.host_name == "host02"
    crash_host(runtime, runtime.host("host02"))

    def tick():
        yield runtime.sim.timeout(10.0)
        journal.append("keepalive")

    runtime.sim.run_process(tick())
    runtime.sim.run()
    assert supervisor.link.replica.host_name == "host03"
    assert supervisor.link.replica.reachable
    assert runtime.network.count_value("supervisor.standby_replacements") == 1
    assert journals_equal(supervisor.link.replica.journal, journal)
    supervisor.stop()


def test_primary_crash_mid_bootstrap_never_promotes_an_empty_standby():
    """The standby-bootstrap hazard: the primary dies while its standby
    is still replaying the bootstrap ship.  The standby must not look
    hot before the replay lands — promoting it would bring up a manager
    with no instances and no current version — so the supervisor takes
    the cold path and recovers the whole fleet."""
    runtime, manager, journal, loids = build_fleet(instances=4)
    # The bootstrap ships the compacted state, about one entry per
    # instance (a wave history compacts away), so the fleet itself is
    # large: ~1,000 entries, whose replay (0.2 ms of CPU per entry)
    # outlasts failure detection below.
    for index in range(1000):
        loid, __ = create_dcdo(runtime, manager, host_name=f"host{index % 5 + 1:02d}")
        loids.append(loid)
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=0.04,
        suspicion_threshold=2,
        retry_policy=FAST_RETRY,
    ).start()

    def crash_mid_bootstrap():
        yield runtime.sim.timeout(0.01)
        crash_host(runtime, runtime.host("host00"))

    runtime.sim.run_process(crash_mid_bootstrap())
    runtime.sim.run(until=runtime.sim.now + 30.0)

    assert supervisor.promotions == 1
    assert runtime.network.count_value("supervisor.cold_promotions") == 1
    promoted = supervisor.manager
    assert promoted.is_active and promoted is not manager
    assert promoted.instance_loids() == loids
    assert promoted.current_version == manager.current_version
    supervisor.stop()


# ----------------------------------------------------------------------
# Gray failures: phi-accrual vs fixed-threshold detection
# ----------------------------------------------------------------------


def _run_detector_against_slow_manager(mode):
    """One fleet whose manager link turns gray (slow, not dead) for a
    window; returns (detector, runtime) after the window heals."""
    from repro.net import SlowLink

    runtime, manager, journal, __ = build_fleet(instances=1)
    detector = HeartbeatFailureDetector(
        runtime,
        runtime.host("host03"),
        interval_s=0.5,
        timeout_s=0.4,
        suspicion_threshold=3,
        mode=mode,
    )
    loid = manager.loid
    detector.watch(
        "Sorter",
        lambda: runtime.binding_agent.current_address(loid),
        on_suspect=lambda key: None,
    )
    base = runtime.sim.now
    # Probe RTT inflates to ~0.6-0.7 s: over the fixed 0.4 s reply
    # timeout, under phi mode's stretched 1.0 s wait.
    runtime.network.faults.add_delay_rule(
        SlowLink(
            ["host03/"],
            ["host00/"],
            extra_s=0.3,
            jitter_s=0.03,
            seed=1,
            start=base + 2.0,
            end=base + 20.0,
        )
    )
    runtime.sim.run(until=base + 30.0)
    detector.stop()
    return detector, runtime


def test_fixed_threshold_detector_false_positives_on_slow_peer():
    detector, runtime = _run_detector_against_slow_manager("threshold")
    # Every probe in the gray window missed the 0.4 s wait: the alive
    # manager was suspected, then "recovered" when the link healed —
    # a false positive by construction.
    assert detector.false_positives >= 1
    assert runtime.network.count_value("detector.suspicions") >= 1
    assert runtime.network.count_value("detector.false_positives") >= 1


def test_phi_detector_tolerates_slow_but_alive_peer():
    detector, runtime = _run_detector_against_slow_manager("phi")
    # Late replies kept resetting the accrual clock: slow was never
    # declared dead.
    assert detector.false_positives == 0
    assert runtime.network.count_value("detector.suspicions") == 0
    assert detector.phi("Sorter") < detector.phi_threshold


def test_phi_mode_lowers_false_positives_vs_fixed_threshold():
    """Satellite: the same gray window, both modes — phi-accrual must
    strictly lower the suspected-then-recovered count."""
    fixed, __ = _run_detector_against_slow_manager("threshold")
    phi, __ = _run_detector_against_slow_manager("phi")
    assert phi.false_positives < fixed.false_positives


def test_phi_detector_still_suspects_an_actually_dead_manager():
    """Phi tolerance must not cost detection: a crashed manager's phi
    accrues past the threshold in bounded time."""
    runtime, manager, journal, __ = build_fleet(instances=1)
    events = []
    detector = HeartbeatFailureDetector(
        runtime,
        runtime.host("host03"),
        interval_s=0.5,
        timeout_s=0.4,
        suspicion_threshold=3,
        mode="phi",
    )
    loid = manager.loid
    detector.watch(
        "Sorter",
        lambda: runtime.binding_agent.current_address(loid),
        on_suspect=lambda key: events.append(runtime.sim.now),
    )
    base = runtime.sim.now
    runtime.sim.run(until=base + 5.0)  # warm the gap window
    crash_host(runtime, runtime.host("host00"))
    runtime.sim.run(until=base + 60.0)
    assert events, "phi detector never suspected a dead manager"
    # Bounded detection: ~18.4 mean gaps at the 0.5 s interval plus
    # probe overhead, nowhere near the 55 s window end.
    assert events[0] - (base + 5.0) < 30.0
    assert detector.false_positives == 0
    detector.stop()


def test_obs_report_renders_detector_false_positives():
    from repro.obs import collect_system_report, render_report

    detector, runtime = _run_detector_against_slow_manager("threshold")
    report = collect_system_report(runtime)
    assert report.faults.get("detector.false_positives", 0) >= 1
    rendered = render_report(report)
    assert "false positive(s) (suspected then recovered)" in rendered


def _run_supervisor_behind_gray_link(detector_mode):
    """A supervised healthy-but-slow primary; returns the supervisor's
    promotion count after the gray window heals."""
    from repro.net import SlowLink

    runtime, manager, journal, loids = build_fleet(
        instances=1,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        heartbeat_interval_s=0.5,
        heartbeat_timeout_s=0.4,
        suspicion_threshold=3,
        detector_mode=detector_mode,
        retry_policy=FAST_RETRY,
    ).start()
    base = runtime.sim.now
    runtime.network.faults.add_delay_rule(
        SlowLink(
            ["host04/"],
            ["host00/"],
            extra_s=0.3,
            jitter_s=0.03,
            seed=2,
            start=base + 2.0,
            end=base + 25.0,
        )
    )
    runtime.sim.run(until=base + 45.0)
    runtime.sim.run()
    promotions = supervisor.promotions
    supervisor.stop()
    return promotions, runtime, manager


def test_fixed_threshold_supervisor_flaps_on_slow_manager():
    promotions, runtime, manager = _run_supervisor_behind_gray_link("threshold")
    # The gray link read as death: a needless failover fired.
    assert promotions >= 1


def test_phi_supervisor_keeps_slow_manager_in_office():
    """Tentpole acceptance: slow is not dead — a phi-supervised fleet
    rides out the gray window with zero promotions and the original
    authority still in office at its original term."""
    promotions, runtime, manager = _run_supervisor_behind_gray_link("phi")
    assert promotions == 0
    current = runtime.class_of("Sorter")
    assert current is manager
    assert current.is_active and not current.deposed
    assert current.term == 1
