"""Gray-failure fabric: asymmetric faults, hedging, health scoring.

Unit coverage for the PR 8 gray-failure stack below the chaos sweep:

- the new fault kinds (:class:`OneWayPartition`, :class:`LinkFlap`,
  :class:`SlowLink`, :class:`ReorderRule`, :class:`DuplicateRule`) and
  their seeded determinism;
- :meth:`FaultPlan.stats` / counter-preserving :meth:`FaultPlan.clear`;
- exactly-once request invocation under *fabric-level* duplication
  (the dedupe table's first exerciser that is not the retry path);
- hedged requests racing a backup against a gray primary;
- limping hosts (CPU + egress inflation) and per-peer health scoring
  with quarantine hysteresis;
- seeded gray :class:`ChaosSchedule` kinds: legacy-prefix stability
  and an end-to-end same-seed trace-digest equality check.

The 20-seed invariant sweep lives in ``tests/test_chaos_gray.py``.
"""

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.legion import LegionRuntime
from repro.net import (
    DROP,
    DropRule,
    DuplicateRule,
    Endpoint,
    FaultPlan,
    LinkFlap,
    Message,
    Network,
    OneWayPartition,
    ReorderRule,
    SlowLink,
)
from repro.obs import HealthRegistry
from repro.sim import Simulator

from tests.conftest import make_counter_class


def make_net(latency_s=0.001, bandwidth_bps=1_000_000):
    sim = Simulator()
    return sim, Network(sim, latency_s=latency_s, bandwidth_bps=bandwidth_bps)


def _msg(source, destination, payload=None, kind="data"):
    return Message(source=source, destination=destination, payload=payload, kind=kind)


# ----------------------------------------------------------------------
# One-way partitions: requests arrive, replies vanish
# ----------------------------------------------------------------------


def test_one_way_partition_blocks_only_one_direction():
    rule = OneWayPartition(["hostA/"], ["hostB/"])
    assert rule.blocks(_msg("hostA/x", "hostB/y"), now=0.0)
    assert not rule.blocks(_msg("hostB/y", "hostA/x"), now=0.0)
    assert not rule.blocks(_msg("hostC/z", "hostB/y"), now=0.0)
    assert rule.blocked == 1


def test_one_way_partition_loses_replies_but_serves_requests():
    """The classic gray failure: the server hears and works, but its
    replies never land — the client times out on a served request."""
    sim, net = make_net()
    served = []

    def handler(message):
        served.append(message.payload)
        return "ack"
        yield  # pragma: no cover - uniform generator shape

    client = Endpoint(net, "hostA/client")
    Endpoint(net, "hostB/server", request_handler=handler)
    net.faults.add_partition(OneWayPartition(["hostB/"], ["hostA/"]))

    def proc():
        from repro.net import RequestTimeout

        with pytest.raises(RequestTimeout):
            yield from client.request(
                "hostB/server", "ping", timeout_s=1.0, max_attempts=2
            )

    sim.run_process(proc())
    sim.run()
    # Both attempts reached the server; both replies were destroyed.
    assert served == ["ping", "ping"]


def test_one_way_partition_heal_and_window():
    rule = OneWayPartition(["a/"], ["b/"], start=2.0, end=4.0)
    assert not rule.blocks(_msg("a/x", "b/y"), now=1.0)
    assert rule.blocks(_msg("a/x", "b/y"), now=3.0)
    assert not rule.blocks(_msg("a/x", "b/y"), now=4.0)  # end-exclusive
    rule2 = OneWayPartition(["a/"], ["b/"])
    rule2.heal(1.0)
    assert not rule2.blocks(_msg("a/x", "b/y"), now=1.0)


# ----------------------------------------------------------------------
# Link flaps: periodic down/up with no RNG
# ----------------------------------------------------------------------


def test_link_flap_cycles_down_and_up():
    flap = LinkFlap(["a/"], ["b/"], period_s=10.0, down_s=3.0, start=5.0)
    # Phase anchored at start=5: down in [5, 8), up in [8, 15), ...
    assert not flap.is_down(4.9)
    assert flap.is_down(5.0)
    assert flap.is_down(7.9)
    assert not flap.is_down(8.0)
    assert flap.is_down(15.1)  # next cycle
    assert flap.blocks(_msg("a/x", "b/y"), now=6.0)
    assert flap.blocks(_msg("b/y", "a/x"), now=6.0)  # bidirectional
    assert not flap.blocks(_msg("a/x", "b/y"), now=9.0)
    assert flap.blocked == 2


def test_link_flap_validates_period_and_down():
    with pytest.raises(ValueError):
        LinkFlap(["a/"], ["b/"], period_s=0.0, down_s=1.0)
    with pytest.raises(ValueError):
        LinkFlap(["a/"], ["b/"], period_s=5.0, down_s=6.0)


def test_link_flap_traffic_alternates_loss_and_delivery():
    sim, net = make_net(latency_s=0.0)
    net.attach("a/x")
    net.attach("b/y")
    net.faults.add_partition(
        LinkFlap(["a/"], ["b/"], period_s=4.0, down_s=2.0, start=0.0, end=20.0)
    )

    def driver():
        for tick in range(8):
            net.send(_msg("a/x", "b/y", payload=tick))
            yield sim.timeout(1.0)

    sim.spawn(driver())
    sim.run()
    # Sends at t=0,1 (down), 2,3 (up), 4,5 (down), 6,7 (up).
    assert net.stats.messages_dropped == 4
    assert net.stats.messages_delivered == 4


# ----------------------------------------------------------------------
# Slow links: late, not lost
# ----------------------------------------------------------------------


def test_slow_link_inflates_delivery_without_loss():
    sim, net = make_net(latency_s=0.001)
    net.attach("a/x")
    port = net.attach("b/y")
    net.faults.add_delay_rule(SlowLink(["a/"], ["b/"], extra_s=0.5))
    net.send(_msg("a/x", "b/y", payload="late"))

    def receiver():
        received = yield port.inbox.get()
        return (sim.now, received.payload)

    when, payload = sim.run_process(receiver())
    assert payload == "late"
    assert when == pytest.approx(0.501, abs=1e-3)
    assert net.stats.messages_dropped == 0


def test_slow_link_jitter_is_seeded_and_bounded():
    a = SlowLink(["a/"], ["b/"], extra_s=0.1, jitter_s=0.05, seed=9)
    b = SlowLink(["a/"], ["b/"], extra_s=0.1, jitter_s=0.05, seed=9)
    delays_a = [a.delay_for(_msg("a/x", "b/y"), now=1.0) for __ in range(50)]
    delays_b = [b.delay_for(_msg("a/x", "b/y"), now=1.0) for __ in range(50)]
    assert delays_a == delays_b  # same seed, same trace
    assert all(0.1 <= d <= 0.15 for d in delays_a)
    assert len(set(delays_a)) > 1  # jitter actually varies
    assert a.delayed == 50
    assert a.delay_total_s == pytest.approx(sum(delays_a))
    # Non-crossing traffic is untouched and uncounted.
    assert a.delay_for(_msg("c/w", "b/y"), now=1.0) == 0.0
    assert a.delayed == 50


# ----------------------------------------------------------------------
# Reordering: bounded overtaking
# ----------------------------------------------------------------------


def test_reorder_rule_lets_later_sends_overtake():
    sim, net = make_net(latency_s=0.001)
    net.attach("a/x")
    port = net.attach("b/y")
    # Deterministically hold back exactly the first message.
    held = []

    def first_only(message):
        if not held:
            held.append(message.message_id)
        return message.message_id in held

    net.faults.add_delay_rule(
        ReorderRule(probability=1.0, max_skew_s=0.5, predicate=first_only, seed=3)
    )
    arrivals = []

    def receiver():
        for __ in range(2):
            received = yield port.inbox.get()
            arrivals.append(received.payload)

    net.send(_msg("a/x", "b/y", payload="first"))
    net.send(_msg("a/x", "b/y", payload="second"))
    sim.spawn(receiver())
    sim.run()
    assert arrivals == ["second", "first"]  # bounded overtake happened
    assert net.stats.messages_delivered == 2


def test_reorder_skew_is_bounded_and_seeded():
    a = ReorderRule(probability=1.0, max_skew_s=0.02, seed=11)
    b = ReorderRule(probability=1.0, max_skew_s=0.02, seed=11)
    skews_a = [a.delay_for(_msg("a/x", "b/y"), now=0.0) for __ in range(40)]
    skews_b = [b.delay_for(_msg("a/x", "b/y"), now=0.0) for __ in range(40)]
    assert skews_a == skews_b
    assert all(0.0 < s <= 0.02 for s in skews_a)
    assert a.reordered == 40


# ----------------------------------------------------------------------
# Duplication: the dedupe table's fabric-level exerciser
# ----------------------------------------------------------------------


def test_duplicate_rule_delivers_extra_copy_of_same_message():
    sim, net = make_net(latency_s=0.001)
    net.attach("a/x")
    port = net.attach("b/y")
    rule = net.faults.add_duplicate_rule(
        DuplicateRule(probability=1.0, spread_s=0.01, seed=5, count=1)
    )
    copies = []

    def receiver():
        for __ in range(2):
            received = yield port.inbox.get()
            copies.append(received.message_id)

    net.send(_msg("a/x", "b/y", payload="twin"))
    sim.spawn(receiver())
    sim.run()
    # Two deliveries of the *same wire message* — same id, so the
    # layer above must dedupe; the fabric does not.
    assert len(copies) == 2 and copies[0] == copies[1]
    assert rule.duplicated == 1
    assert net.stats.messages_delivered == 2


def test_exactly_once_invocation_under_fabric_duplication():
    """Satellite: the transport's at-most-once dedupe, previously only
    exercised by retry-driven duplicates, must also absorb duplicates
    minted by the fabric itself — every copy after the first is counted
    and discarded, never re-invoked."""
    sim, net = make_net()
    invocations = []

    def handler(message):
        invocations.append(message.payload)
        return message.payload * 10
        yield  # pragma: no cover - uniform generator shape

    client = Endpoint(net, "a/client")
    Endpoint(net, "b/server", request_handler=handler)
    net.faults.add_duplicate_rule(
        DuplicateRule(
            probability=1.0,
            spread_s=0.005,
            predicate=lambda m: m.kind == "request",
            seed=7,
        )
    )

    def proc():
        replies = []
        for index in range(10):
            reply = yield from client.request("b/server", index, timeout_s=5.0)
            replies.append(reply)
        return replies

    replies = sim.run_process(proc())
    sim.run()
    assert replies == [i * 10 for i in range(10)]
    # Every logical request ran exactly once despite two wire copies.
    assert invocations == list(range(10))
    assert net.count_value("transport.duplicate_requests") == 10


def test_duplicated_replies_are_ignored_by_the_client():
    """A duplicated *reply* lands after the pending event resolved; the
    transport must drop it silently instead of crashing or corrupting
    a later request's correlation."""
    sim, net = make_net()
    client = Endpoint(net, "a/client")

    def echo(message):
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    Endpoint(net, "b/server", request_handler=echo)
    net.faults.add_duplicate_rule(
        DuplicateRule(
            probability=1.0,
            spread_s=0.005,
            predicate=lambda m: m.kind == "reply",
            seed=7,
        )
    )

    def proc():
        first = yield from client.request("b/server", "one", timeout_s=5.0)
        second = yield from client.request("b/server", "two", timeout_s=5.0)
        return (first, second)

    assert sim.run_process(proc()) == ("one", "two")
    sim.run()


def test_duplicate_rule_count_bounds_total_duplications():
    rule = DuplicateRule(probability=1.0, count=2, seed=1)
    assert rule.copy_delays(_msg("a", "b"), now=0.0)
    assert rule.copy_delays(_msg("a", "b"), now=0.0)
    assert rule.copy_delays(_msg("a", "b"), now=0.0) == ()
    assert rule.duplicated == 2


# ----------------------------------------------------------------------
# FaultPlan routing and stats
# ----------------------------------------------------------------------


def test_route_destruction_wins_over_degradation():
    plan = FaultPlan()
    plan.add_partition(OneWayPartition(["a/"], ["b/"]))
    slow = plan.add_delay_rule(SlowLink(["a/"], ["b/"], extra_s=1.0))
    assert plan.route(_msg("a/x", "b/y"), now=0.0) is DROP
    # The slow link never even saw the doomed message.
    assert slow.delayed == 0


def test_route_combines_delay_and_duplication():
    plan = FaultPlan()
    plan.add_delay_rule(SlowLink(["a/"], ["b/"], extra_s=0.5))
    plan.add_duplicate_rule(DuplicateRule(probability=1.0, spread_s=0.01, seed=2))
    verdict = plan.route(_msg("a/x", "b/y"), now=0.0)
    assert verdict is not None and verdict is not DROP
    primary, copy = verdict
    assert primary == pytest.approx(0.5)
    # The duplicate inherits the slow link's delay plus its own spread.
    assert 0.5 < copy <= 0.51
    # Unmatched traffic routes normally (None = fast path).
    assert plan.route(_msg("c/w", "a/x"), now=0.0) == (0.0, pytest.approx(0.0, abs=0.011))


def test_route_returns_none_when_no_degradation_matches():
    plan = FaultPlan()
    plan.add_delay_rule(SlowLink(["a/"], ["b/"], extra_s=0.5))
    assert plan.route(_msg("c/w", "d/z"), now=0.0) is None
    assert plan.route(_msg("a/x", "b/y"), now=0.0) == (0.5,)


def test_stats_aggregates_across_rules_and_survives_clear():
    """Satellite: ``stats()`` reports per-rule counters and ``clear()``
    folds them into the totals, so post-run assertions stay readable
    after a heal removed every rule."""
    plan = FaultPlan()
    drop = plan.add_drop_rule(DropRule(count=1, label="lossy"))
    oneway = plan.add_partition(OneWayPartition(["a/"], ["b/"], label="mute-a"))
    slow = plan.add_delay_rule(SlowLink(["b/"], ["c/"], extra_s=0.1, label="wan"))
    dup = plan.add_duplicate_rule(DuplicateRule(probability=1.0, seed=4))
    plan.route(_msg("a/x", "b/y"), now=0.0)   # blocked by the one-way
    plan.route(_msg("x/q", "y/r"), now=0.0)   # dropped + (budget spent)
    plan.route(_msg("b/y", "c/z"), now=0.0)   # delayed + duplicated

    stats = plan.stats()
    assert stats["dropped"] == 1
    assert stats["blocked"] == 1
    assert stats["delayed"] == 1
    assert stats["duplicated"] >= 1
    labels = {rule["label"]: rule for rule in stats["rules"]}
    assert labels["lossy"]["dropped"] == drop.dropped == 1
    assert labels["mute-a"]["blocked"] == oneway.blocked == 1
    assert labels["wan"]["delayed"] == slow.delayed == 1
    assert labels["duplicate"]["duplicated"] == dup.duplicated

    plan.clear()
    assert not plan.is_active
    cleared = plan.stats()
    assert cleared["rules"] == []
    for key in ("dropped", "blocked", "delayed", "duplicated"):
        assert cleared[key] == stats[key], f"clear() lost the {key} total"
    # Fresh rules accumulate on top of the preserved totals.
    plan.add_drop_rule(DropRule(count=1))
    plan.route(_msg("x/q", "y/r"), now=0.0)
    assert plan.stats()["dropped"] == stats["dropped"] + 1


def test_fault_plan_stats_surface_in_system_report():
    from repro.obs import collect_system_report, render_report

    runtime = LegionRuntime(build_lan(2, seed=3))
    runtime.network.faults.add_delay_rule(
        SlowLink(["host00/"], ["host01/"], extra_s=0.05, label="gray-link")
    )
    make_counter_class(runtime)
    manager = runtime.class_of("Counter")
    loid = runtime.sim.run_process(manager.create_instance(host_name="host01"))
    runtime.sim.run_process(manager.invoker.invoke(loid, "inc", (1,)))
    report = collect_system_report(runtime)
    assert report.fault_plan["delayed"] > 0
    rendered = render_report(report)
    assert "fault plan:" in rendered
    assert "gray-link" in rendered


# ----------------------------------------------------------------------
# Hedged requests
# ----------------------------------------------------------------------


def test_hedge_fires_and_wins_when_primary_is_lost():
    sim, net = make_net()
    client = Endpoint(net, "a/client")

    def echo(message):
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    Endpoint(net, "b/server", request_handler=echo)
    net.faults.add_drop_rule(
        DropRule(predicate=lambda m: m.kind == "request", count=1)
    )

    def proc():
        reply = yield from client.request(
            "b/server", "ping", timeout_s=5.0, max_attempts=1, hedge_delay_s=0.5
        )
        return (reply, sim.now)

    reply, elapsed = sim.run_process(proc())
    assert reply == "ping"
    # The hedge rescued the attempt long before the 5 s timeout.
    assert 0.5 < elapsed < 1.0
    assert net.count_value("transport.hedges") == 1
    assert net.count_value("transport.hedge_wins") == 1


def test_hedge_not_sent_when_primary_answers_fast():
    sim, net = make_net()
    client = Endpoint(net, "a/client")

    def echo(message):
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    Endpoint(net, "b/server", request_handler=echo)

    def proc():
        return (yield from client.request(
            "b/server", "ping", timeout_s=5.0, hedge_delay_s=1.0
        ))

    assert sim.run_process(proc()) == "ping"
    assert net.count_value("transport.hedges") == 0
    assert net.count_value("transport.hedge_wins") == 0


def test_hedge_late_primary_reply_is_harmless():
    """Both copies get served (fresh ids, so no dedupe) and both reply;
    the loser's reply must be absorbed without disturbing later
    requests."""
    sim, net = make_net()
    client = Endpoint(net, "a/client")
    served = []

    def echo(message):
        served.append(message.payload)
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    server = Endpoint(net, "b/server", request_handler=echo)
    # Hold back exactly the first request so its hedge overtakes it.
    held = []

    def first_request_only(message):
        if message.kind != "request":
            return False
        if not held:
            held.append(message.message_id)
        return message.message_id in held

    net.faults.add_delay_rule(
        ReorderRule(
            probability=1.0, max_skew_s=1.0, predicate=first_request_only, seed=1
        )
    )

    def proc():
        first = yield from client.request(
            "b/server", "slowed", timeout_s=5.0, hedge_delay_s=0.2
        )
        yield sim.timeout(2.0)  # let the delayed primary land and reply
        second = yield from client.request("b/server", "after", timeout_s=5.0)
        return (first, second)

    assert sim.run_process(proc()) == ("slowed", "after")
    sim.run()
    assert net.count_value("transport.hedge_wins") == 1
    # The primary eventually arrived too: three requests served total.
    assert server.requests_served == 3
    assert served == ["slowed", "slowed", "after"]


def test_hedge_delay_at_or_above_timeout_is_disabled():
    sim, net = make_net()
    client = Endpoint(net, "a/client")

    def echo(message):
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    Endpoint(net, "b/server", request_handler=echo)

    def proc():
        return (yield from client.request(
            "b/server", "ping", timeout_s=1.0, hedge_delay_s=1.0
        ))

    assert sim.run_process(proc()) == "ping"
    assert net.count_value("transport.hedges") == 0


# ----------------------------------------------------------------------
# Limping hosts: slow CPU, slow NIC — but alive
# ----------------------------------------------------------------------


def test_limping_host_inflates_cpu_work():
    runtime = LegionRuntime(build_lan(2, seed=3))
    host = runtime.host("host00")

    def timed_work():
        start = runtime.sim.now
        yield host.cpu_work(1.0)
        return runtime.sim.now - start

    baseline = runtime.sim.run_process(timed_work())
    host.set_limp(4.0)
    assert host.limp_factor == 4.0
    limped = runtime.sim.run_process(timed_work())
    assert limped == pytest.approx(4.0 * baseline)
    host.clear_limp()
    assert host.limp_factor == 1.0
    assert runtime.sim.run_process(timed_work()) == pytest.approx(baseline)
    assert runtime.network.count_value("host.limps") == 1


def test_limping_nic_slows_egress_even_for_late_ports():
    sim, net = make_net(latency_s=0.0, bandwidth_bps=1000)
    from repro.net.message import HEADER_BYTES

    net.attach("limper/early")
    net.set_egress_slowdown("limper/", 3.0)
    net.attach("limper/late")  # attached after the slowdown: inherits it
    port_b = net.attach("b/y")
    arrivals = []

    def receiver():
        for __ in range(2):
            received = yield port_b.inbox.get()
            arrivals.append((received.payload, sim.now))

    size = 1000 - HEADER_BYTES  # 1 s of healthy wire time
    net.send(
        Message(source="limper/early", destination="b/y", payload="early", size_bytes=size)
    )
    sim.spawn(receiver())
    sim.run()
    net.send(
        Message(source="limper/late", destination="b/y", payload="late", size_bytes=size)
    )
    sim.run()
    assert arrivals[0] == ("early", pytest.approx(3.0))
    assert arrivals[1][0] == "late"
    assert arrivals[1][1] - 3.0 == pytest.approx(3.0)
    # Clearing restores healthy wire time for new sends.
    net.set_egress_slowdown("limper/", 1.0)
    del arrivals[:]

    def receive_one():
        received = yield port_b.inbox.get()
        arrivals.append(sim.now - start)

    start = sim.now
    net.send(
        Message(source="limper/early", destination="b/y", payload="healed", size_bytes=size)
    )
    sim.spawn(receive_one())
    sim.run()
    assert arrivals[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Health scoring and quarantine hysteresis
# ----------------------------------------------------------------------


def test_health_score_quarantines_and_recovers_with_hysteresis():
    sim = Simulator()
    registry = HealthRegistry(sim)
    assert registry.score("gray") == 1.0  # never observed = healthy
    # Timeouts erode the score past the quarantine floor.
    observations = 0
    while not registry.is_quarantined("gray"):
        registry.observe("gray", "timeout")
        observations += 1
        assert observations < 50, "score never crossed the quarantine floor"
    floor_score = registry.score("gray")
    assert floor_score < 0.35
    # A single success does not lift the quarantine (hysteresis)...
    registry.observe("gray", "success")
    assert registry.is_quarantined("gray")
    # ...but a sustained run of successes does.
    recoveries = 0
    while registry.is_quarantined("gray"):
        registry.observe("gray", "success")
        recoveries += 1
        assert recoveries < 50, "score never recovered past the ceiling"
    assert registry.score("gray") > 0.75
    peer = registry.peer("gray")
    assert peer.quarantines == 1
    assert peer.timeouts == observations
    snapshot = registry.snapshot()
    assert snapshot["gray"]["quarantined"] is False


def test_quarantine_goes_half_open_after_probation():
    """Quarantine alone would starve a healed peer of the successes it
    needs to recover; after ``probation_s`` of penalty silence the
    registry admits probes again (circuit-breaker half-open)."""
    sim = Simulator()
    registry = HealthRegistry(sim, probation_s=5.0)
    for __ in range(6):
        registry.observe("gray", "timeout")
    assert registry.is_quarantined("gray")

    def advance(seconds):
        def proc():
            yield sim.timeout(seconds)

        sim.run_process(proc())

    advance(5.0)
    # Half-open: probe traffic is admitted again...
    assert not registry.is_quarantined("gray")
    assert registry.peer("gray").probes == 1
    # ...a failed probe re-arms the closed window immediately...
    registry.observe("gray", "timeout")
    assert registry.is_quarantined("gray")
    advance(5.0)
    # ...while successful probes keep it open (successes never close
    # it) until the score recrosses the recovery ceiling.
    assert not registry.is_quarantined("gray")
    successes = 0
    while registry.peer("gray").quarantined:
        registry.observe("gray", "success")
        assert not registry.is_quarantined("gray")
        successes += 1
        assert successes < 50, "probe successes never lifted quarantine"
    assert registry.score("gray") > 0.75


def test_probation_requarantine_second_probation_cycle():
    """A failed probe buys a *full* closed window before the next
    probe: across probation → re-quarantine → second probation the
    registry never oscillates faster than ``probation_s``, and every
    transition publishes exactly one bus event."""
    from repro.obs import EventBus

    sim = Simulator()
    bus = EventBus(sim)
    transitions = []
    bus.subscribe("health.", transitions.append)
    registry = HealthRegistry(sim, probation_s=5.0, bus=bus)

    def advance(seconds):
        def proc():
            yield sim.timeout(seconds)

        sim.run_process(proc())

    # Cycle 1: quarantine at t=0.
    for __ in range(6):
        registry.observe("gray", "timeout")
    assert registry.is_quarantined("gray")
    assert [e.topic for e in transitions] == ["health.quarantined"]

    # Closed for the full window: no probe is admitted early.
    advance(4.99)
    assert registry.is_quarantined("gray")
    assert registry.peer("gray").probes == 0

    # First probation at t=5: one probe admitted; it fails.
    advance(0.01)
    assert not registry.is_quarantined("gray")
    assert registry.peer("gray").probes == 1
    registry.observe("gray", "timeout")  # failed probe re-arms the window

    # Re-quarantined: the *entire* probation_s must elapse again — the
    # no-oscillation property.  Poll the whole closed window; every
    # answer must be "closed" and no extra probes may be minted.
    for __ in range(9):
        advance(0.5)
        assert registry.is_quarantined("gray"), (
            f"oscillated out of quarantine {sim.now - 5.0:.1f}s after a "
            f"failed probe (probation_s=5.0)"
        )
    assert registry.peer("gray").probes == 1

    # Second probation at t=10: probes flow again; sustained successes
    # recover the peer (one recovery event, still one quarantine).
    advance(0.5)
    assert not registry.is_quarantined("gray")
    assert registry.peer("gray").probes == 2
    while registry.peer("gray").quarantined:
        registry.observe("gray", "success")
    assert [e.topic for e in transitions] == [
        "health.quarantined",
        "health.recovered",
    ]
    assert registry.peer("gray").quarantines == 1

    # A later relapse opens a genuinely new cycle, not a continuation.
    while not registry.peer("gray").quarantined:
        registry.observe("gray", "timeout")
    assert registry.peer("gray").quarantines == 2
    assert [e.topic for e in transitions] == [
        "health.quarantined",
        "health.recovered",
        "health.quarantined",
    ]


def test_health_penalties_are_ordered_by_severity():
    sim = Simulator()
    registry = HealthRegistry(sim)
    for event in ("timeout", "hedge_win", "suspicion"):
        registry.observe(event, event)
    # One suspicion hurts more than one timeout, which hurts more than
    # losing one hedge race.
    assert (
        registry.score("suspicion")
        < registry.score("timeout")
        < registry.score("hedge_win")
        < 1.0
    )
    with pytest.raises(ValueError):
        registry.observe("x", "not-an-event")


def test_network_health_is_lazily_armed():
    sim, net = make_net()
    # Unarmed: observes are free no-ops and nothing is quarantined.
    net.health_observe("b/server", "timeout")
    assert net.health is None
    assert not net.health_quarantined("b")
    assert net.health_snapshot() == {}
    net.enable_health()
    assert net.health is not None
    net.enable_health()  # idempotent
    for __ in range(20):
        net.health_observe("b/server", "timeout")
    # Observations key by host prefix, not full address.
    assert net.health_quarantined("b")
    assert "b" in net.health_snapshot()


def test_request_timeouts_feed_armed_health_scores():
    sim, net = make_net()
    net.enable_health()
    client = Endpoint(net, "a/client")

    def proc():
        from repro.net import RequestTimeout

        for __ in range(12):
            try:
                yield from client.request(
                    "ghost/server", "ping", timeout_s=0.2, max_attempts=1
                )
            except RequestTimeout:
                pass

    sim.run_process(proc())
    assert net.health.peer("ghost").timeouts == 12
    assert net.health_quarantined("ghost")


# ----------------------------------------------------------------------
# Seeded determinism of the gray schedule kinds
# ----------------------------------------------------------------------


def test_gray_kinds_extend_legacy_schedule_deterministically():
    """The gray draws come strictly after every legacy draw: a given
    seed yields the identical legacy schedule with gray kinds off or
    on, and the gray lists themselves reproduce exactly."""
    names = [f"host{i:02d}" for i in range(6)]
    legacy = ChaosSchedule.generate(5, names, max_failovers=1)
    gray_kwargs = dict(
        gray_one_way=2,
        gray_flaps=1,
        gray_slow_links=2,
        gray_duplicates=1,
        gray_reorders=1,
        gray_limps=1,
    )
    extended = ChaosSchedule.generate(5, names, max_failovers=1, **gray_kwargs)
    assert extended.crashes == legacy.crashes
    assert extended.partitions == legacy.partitions
    assert extended.drops == legacy.drops
    assert extended.degradations == legacy.degradations
    # Gray kinds actually produced faults...
    assert extended.one_way and extended.slow_links and extended.limps
    assert extended.flaps and extended.duplicates and extended.reorders
    # ...and reproducibly so.
    again = ChaosSchedule.generate(5, names, max_failovers=1, **gray_kwargs)
    for field in ("one_way", "flaps", "slow_links", "duplicates", "reorders", "limps"):
        assert getattr(again, field) == getattr(extended, field), field
    # heal_time covers the gray windows too.
    gray_ends = [entry[-1] for entry in extended.one_way + extended.flaps]
    assert extended.heal_time >= max(gray_ends)


def _run_gray_trace(seed):
    """One small fleet under a gray schedule; returns its trace digest."""
    runtime = LegionRuntime(build_lan(4, seed=31))
    make_counter_class(runtime)
    manager = runtime.class_of("Counter")
    loid = runtime.sim.run_process(manager.create_instance(host_name="host02"))
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=30.0,
        protect=("host00",),
        gray_one_way=1,
        gray_slow_links=1,
        gray_duplicates=1,
        gray_reorders=1,
        gray_limps=1,
    )
    schedule.install(runtime, ChaosCoordinator(runtime))
    results = []

    def driver():
        for __ in range(40):
            try:
                value = yield from manager.invoker.invoke(loid, "inc", (1,))
            except Exception as error:
                value = type(error).__name__
            results.append((round(runtime.sim.now, 9), value))
            yield runtime.sim.timeout(0.5)

    runtime.sim.run_process(driver())
    runtime.sim.run(until=max(runtime.sim.now, schedule.heal_time + 5.0))
    stats = runtime.network.faults.stats()
    digest = (
        round(runtime.sim.now, 9),
        runtime.network.stats.messages_delivered,
        runtime.network.stats.messages_dropped,
        tuple(results),
        tuple(
            (key, round(value, 9) if isinstance(value, float) else value)
            for key, value in sorted(stats.items())
            if key != "rules"
        ),
        runtime.network.count_value("transport.duplicate_requests"),
    )
    return digest


@pytest.mark.parametrize("seed", [2, 13])
def test_same_seed_yields_identical_gray_trace(seed):
    """Satellite: seeded determinism end to end — two fresh simulators
    running the same gray schedule produce byte-identical traces
    (delivery counts, invocation timeline, fault-plan counters)."""
    assert _run_gray_trace(seed) == _run_gray_trace(seed)


def test_different_seeds_yield_different_gray_traces():
    assert _run_gray_trace(2) != _run_gray_trace(13)
