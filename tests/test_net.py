"""Unit tests for the network layer: fabric timing, faults, transport."""

import pytest

from repro.net import (
    DropRule,
    Endpoint,
    FaultPlan,
    Message,
    Network,
    Partition,
    PrefixPartition,
    RemoteError,
    RequestTimeout,
    SlowLink,
    TransportError,
)
from repro.net.message import HEADER_BYTES
from repro.net.transport import _unpack
from repro.sim import AllOf, Simulator


def make_net(latency_s=0.001, bandwidth_bps=1_000_000):
    sim = Simulator()
    return sim, Network(sim, latency_s=latency_s, bandwidth_bps=bandwidth_bps)


# ----------------------------------------------------------------------
# Fabric timing
# ----------------------------------------------------------------------


def test_delivery_time_is_latency_plus_transmission():
    sim, net = make_net(latency_s=0.5, bandwidth_bps=1000)
    net.attach("a")
    port_b = net.attach("b")
    message = Message(source="a", destination="b", payload="hi", size_bytes=1000 - HEADER_BYTES)

    def receiver():
        received = yield port_b.inbox.get()
        return (sim.now, received.payload)

    net.send(message)
    when, payload = sim.run_process(receiver())
    # 1000 wire bytes at 1000 B/s = 1s transmission, + 0.5s latency.
    assert when == pytest.approx(1.5)
    assert payload == "hi"


def test_egress_serializes_messages_from_one_host():
    sim, net = make_net(latency_s=0.0, bandwidth_bps=1000)
    net.attach("a")
    port_b = net.attach("b")
    arrivals = []

    def receiver():
        for _ in range(2):
            yield port_b.inbox.get()
            arrivals.append(sim.now)

    size = 1000 - HEADER_BYTES  # exactly 1s of wire time each
    net.send(Message(source="a", destination="b", payload=1, size_bytes=size))
    net.send(Message(source="a", destination="b", payload=2, size_bytes=size))
    sim.spawn(receiver())
    sim.run()
    assert arrivals == pytest.approx([1.0, 2.0])


def test_different_senders_do_not_contend():
    sim, net = make_net(latency_s=0.0, bandwidth_bps=1000)
    net.attach("a")
    net.attach("b")
    port_c = net.attach("c")
    arrivals = []

    def receiver():
        for _ in range(2):
            yield port_c.inbox.get()
            arrivals.append(sim.now)

    size = 1000 - HEADER_BYTES
    net.send(Message(source="a", destination="c", payload=1, size_bytes=size))
    net.send(Message(source="b", destination="c", payload=2, size_bytes=size))
    sim.spawn(receiver())
    sim.run()
    # Switched Ethernet: both arrive after their own 1s transmission.
    assert arrivals == pytest.approx([1.0, 1.0])


def test_send_from_unknown_source_raises():
    __, net = make_net()
    net.attach("b")
    with pytest.raises(ValueError, match="unknown source"):
        net.send(Message(source="ghost", destination="b", payload=None))


def test_send_to_unknown_destination_is_silently_dropped():
    sim, net = make_net()
    net.attach("a")
    net.send(Message(source="a", destination="ghost", payload=None))
    sim.run()
    assert net.stats.messages_dropped == 1
    assert net.stats.messages_delivered == 0


def test_detach_loses_in_flight_messages():
    sim, net = make_net(latency_s=1.0)
    net.attach("a")
    net.attach("b")
    net.send(Message(source="a", destination="b", payload="doomed"))
    sim.run(until=0.5)
    net.detach("b")
    sim.run()
    assert net.stats.messages_dropped == 1


def test_duplicate_attach_rejected():
    __, net = make_net()
    net.attach("a")
    with pytest.raises(ValueError, match="already attached"):
        net.attach("a")


def test_stats_count_kinds():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    net.send(Message(source="a", destination="b", payload=None, kind="request"))
    net.send(Message(source="a", destination="b", payload=None, kind="request"))
    sim.run()
    assert net.stats.deliveries_by_kind == {"request": 2}


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(source="a", destination="b", payload=None, size_bytes=-1)


def test_reply_to_swaps_addresses_and_correlates():
    request = Message(source="client", destination="server", payload="req", kind="request")
    reply = request.reply_to("resp")
    assert reply.source == "server"
    assert reply.destination == "client"
    assert reply.correlation_id == request.message_id
    assert reply.kind == "reply"


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------


def test_drop_rule_drops_matching_messages():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    rule = net.faults.add_drop_rule(DropRule(predicate=lambda m: m.payload == "drop me"))
    net.send(Message(source="a", destination="b", payload="drop me"))
    net.send(Message(source="a", destination="b", payload="keep me"))
    sim.run()
    assert rule.dropped == 1
    assert net.stats.messages_delivered == 1


def test_drop_rule_count_limit():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    net.faults.add_drop_rule(DropRule(count=2))
    for __ in range(5):
        net.send(Message(source="a", destination="b", payload=None))
    sim.run()
    assert net.stats.messages_dropped == 2
    assert net.stats.messages_delivered == 3


def test_drop_rule_time_window():
    sim, net = make_net(latency_s=0.0)
    net.attach("a")
    net.attach("b")
    net.faults.add_drop_rule(DropRule(start=10.0, end=20.0))

    def driver():
        net.send(Message(source="a", destination="b", payload="before"))
        yield sim.timeout(15)
        net.send(Message(source="a", destination="b", payload="during"))
        yield sim.timeout(15)
        net.send(Message(source="a", destination="b", payload="after"))

    sim.spawn(driver())
    sim.run()
    assert net.stats.messages_dropped == 1
    assert net.stats.messages_delivered == 2


def test_partition_blocks_both_directions():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    net.faults.add_partition(Partition({"a"}, {"b"}))
    net.send(Message(source="a", destination="b", payload=None))
    net.send(Message(source="b", destination="a", payload=None))
    sim.run()
    assert net.stats.messages_dropped == 2


def test_partition_heal_restores_traffic():
    sim, net = make_net(latency_s=0.0)
    net.attach("a")
    net.attach("b")
    partition = net.faults.add_partition(Partition({"a"}, {"b"}))

    def driver():
        net.send(Message(source="a", destination="b", payload="lost"))
        yield sim.timeout(5)
        partition.heal(sim.now)
        net.send(Message(source="a", destination="b", payload="through"))

    sim.spawn(driver())
    sim.run()
    assert net.stats.messages_dropped == 1
    assert net.stats.messages_delivered == 1


def test_partition_groups_must_be_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        Partition({"a", "b"}, {"b", "c"})


def test_partition_does_not_block_unrelated_traffic():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    net.attach("c")
    net.faults.add_partition(Partition({"a"}, {"b"}))
    net.send(Message(source="a", destination="c", payload=None))
    sim.run()
    assert net.stats.messages_delivered == 1


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------


def echo_handler(message):
    return ("echo:" + str(message.payload), 0)
    yield  # pragma: no cover - marks this as a generator


def test_request_reply_roundtrip():
    sim, net = make_net()
    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=echo_handler)

    def proc():
        reply = yield from client.request("server", "ping")
        return reply

    assert sim.run_process(proc()) == "echo:ping"


def test_request_measures_two_network_legs():
    sim, net = make_net(latency_s=0.25, bandwidth_bps=10_000_000)
    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=echo_handler)

    def proc():
        yield from client.request("server", "ping")
        return sim.now

    elapsed = sim.run_process(proc())
    assert elapsed >= 0.5  # at least two latency legs


def test_request_timeout_when_no_server():
    sim, net = make_net()
    client = Endpoint(net, "client")

    def proc():
        yield from client.request("nowhere", "ping", timeout_s=1.0)

    with pytest.raises(RequestTimeout) as excinfo:
        sim.run_process(proc())
    assert excinfo.value.attempts == 1
    assert sim.now == pytest.approx(1.0, abs=0.01)


def test_request_retry_succeeds_after_drop():
    sim, net = make_net()
    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=echo_handler)
    net.faults.add_drop_rule(DropRule(predicate=lambda m: m.kind == "request", count=1))

    def proc():
        reply = yield from client.request("server", "ping", timeout_s=1.0, max_attempts=3)
        return (reply, sim.now)

    reply, elapsed = sim.run_process(proc())
    assert reply == "echo:ping"
    assert elapsed > 1.0  # one timeout was paid


def test_remote_handler_exception_becomes_remote_error():
    sim, net = make_net()

    def exploding_handler(message):
        raise KeyError("no such function")
        yield  # pragma: no cover

    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=exploding_handler)

    def proc():
        yield from client.request("server", "ping")

    with pytest.raises(RemoteError) as excinfo:
        sim.run_process(proc())
    assert isinstance(excinfo.value.cause, KeyError)


def test_handler_can_do_simulated_work():
    sim, net = make_net(latency_s=0.0)

    def slow_handler(message):
        yield sim.timeout(2.0)
        return "done"

    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=slow_handler)

    def proc():
        reply = yield from client.request("server", "work", timeout_s=10.0)
        return (reply, sim.now)

    reply, elapsed = sim.run_process(proc())
    assert reply == "done"
    assert elapsed >= 2.0


def test_concurrent_requests_are_correlated_correctly():
    sim, net = make_net()

    def delay_handler(message):
        yield sim.timeout(message.payload)
        return message.payload * 10

    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=delay_handler)
    results = {}

    def caller(delay):
        reply = yield from client.request("server", delay, timeout_s=10.0)
        results[delay] = reply

    sim.spawn(caller(3))
    sim.spawn(caller(1))
    sim.run()
    assert results == {3: 30, 1: 10}


def test_closed_endpoint_rejects_sends():
    __, net = make_net()
    client = Endpoint(net, "client")
    client.close()
    with pytest.raises(Exception, match="closed"):
        client.send("anywhere", None)


def test_request_to_endpoint_closed_midway_times_out():
    sim, net = make_net()

    def never_handler(message):
        yield sim.timeout(1000)
        return None

    client = Endpoint(net, "client")
    server = Endpoint(net, "server", request_handler=never_handler)

    def closer():
        yield sim.timeout(0.5)
        server.close()

    def proc():
        yield from client.request("server", "ping", timeout_s=2.0)

    sim.spawn(closer())
    with pytest.raises(RequestTimeout):
        sim.run_process(proc())


def test_oneway_handler_receives_messages():
    sim, net = make_net()
    received = []
    client = Endpoint(net, "client")
    Endpoint(net, "server", oneway_handler=lambda m: received.append(m.payload))
    client.send("server", "datagram")
    sim.run()
    assert received == ["datagram"]


def test_requests_served_counter():
    sim, net = make_net()
    client = Endpoint(net, "client")
    server = Endpoint(net, "server", request_handler=echo_handler)

    def proc():
        yield from client.request("server", 1)
        yield from client.request("server", 2)

    sim.run_process(proc())
    assert server.requests_served == 2


# ----------------------------------------------------------------------
# Fault-plan edge cases
# ----------------------------------------------------------------------


def _msg(source, destination):
    return Message(source=source, destination=destination, payload=None)


def test_overlapping_partitions_heal_independently():
    plan = FaultPlan()
    ab = plan.add_partition(Partition(["a"], ["b"]))
    ac = plan.add_partition(Partition(["a"], ["c"]))
    assert plan.swallows(_msg("a", "b"), now=1.0)
    assert plan.swallows(_msg("a", "c"), now=1.0)
    ab.heal(1.0)
    # "a" is still cut off from "c" by the partition that remains.
    assert not plan.swallows(_msg("a", "b"), now=1.0)
    assert plan.swallows(_msg("a", "c"), now=1.0)
    assert ac.blocked == 2


def test_partition_swallow_preserves_drop_rule_budget():
    plan = FaultPlan()
    partition = plan.add_partition(Partition(["a"], ["b"]))
    rule = plan.add_drop_rule(DropRule(count=1))
    # The partition swallows first; the drop-rule budget is untouched.
    assert plan.swallows(_msg("a", "b"), now=0.0)
    assert partition.blocked == 1
    assert rule.dropped == 0
    # The budget is still available for unpartitioned traffic...
    assert plan.swallows(_msg("a", "c"), now=0.0)
    assert rule.dropped == 1
    # ...and is exhausted afterwards.
    assert not plan.swallows(_msg("a", "c"), now=0.0)


def test_heal_at_current_time_unblocks_immediately():
    partition = Partition(["a"], ["b"])
    assert partition.blocks(_msg("a", "b"), now=5.0)
    partition.heal(5.0)
    assert not partition.blocks(_msg("a", "b"), now=5.0)


def test_partition_respects_time_window():
    partition = Partition(["a"], ["b"], start=2.0, end=4.0)
    assert not partition.blocks(_msg("a", "b"), now=1.9)
    assert partition.blocks(_msg("a", "b"), now=2.0)
    assert not partition.blocks(_msg("a", "b"), now=4.0)  # end-exclusive


def test_prefix_partition_blocks_by_prefix_both_ways():
    partition = PrefixPartition(["host00/"], ["host01/"])
    assert partition.blocks(_msg("host00/x", "host01/y"), now=0.0)
    assert partition.blocks(_msg("host01/y", "host00/x"), now=0.0)
    # Traffic not crossing the cut — including a third host — passes.
    assert not partition.blocks(_msg("host00/x", "host00/z"), now=0.0)
    assert not partition.blocks(_msg("host02/w", "host01/y"), now=0.0)
    assert partition.blocked == 2


def test_prefix_partition_rejects_overlapping_prefixes():
    with pytest.raises(ValueError):
        PrefixPartition(["host0"], ["host00/"])
    with pytest.raises(ValueError):
        PrefixPartition(["host00/"], [])


def test_drop_rule_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        DropRule(count=0)


# ----------------------------------------------------------------------
# Transport regressions: close during service, dedupe bounding
# ----------------------------------------------------------------------


def test_server_closing_mid_service_suppresses_reply():
    sim, net = make_net()
    client = Endpoint(net, "client")

    def slow_echo(message):
        yield sim.timeout(1.0)
        return message.payload

    server = Endpoint(net, "server", request_handler=slow_echo)

    def closer():
        yield sim.timeout(0.5)
        server.close()

    def proc():
        yield from client.request("server", "ping", timeout_s=2.0, max_attempts=1)

    sim.spawn(closer())
    with pytest.raises(RequestTimeout):
        sim.run_process(proc())
    # The handler finished, but the closed endpoint never spoke from its
    # detached address — and did not count the request as served.
    sim.run()
    assert server.requests_served == 0


def test_closing_client_fails_its_next_request_attempt():
    sim, net = make_net()

    def never(message):
        yield sim.timeout(1000)
        return None

    client = Endpoint(net, "client")
    Endpoint(net, "server", request_handler=never)

    def closer():
        yield sim.timeout(0.5)
        client.close()

    def proc():
        yield from client.request("server", "ping", timeout_s=1.0, max_attempts=2)

    sim.spawn(closer())
    # Attempt 1 was in flight when we closed; it fails at the close,
    # and no attempt 2 speaks from the closed endpoint.
    with pytest.raises(TransportError, match="closed"):
        sim.run_process(proc())
    assert sim.now == 0.5


def test_closing_fails_a_waiting_request_at_once():
    sim, net = make_net()
    client = Endpoint(net, "client")

    def closer():
        yield sim.timeout(1.0)
        client.close()

    def proc():
        try:
            # Nothing listens at "nowhere": only the timer would end it.
            yield from client.request("nowhere", "ping", timeout_s=5.0)
        except TransportError as error:
            return sim.now, error

    sim.spawn(closer())
    failed_at, error = sim.run_process(proc())
    # TransportError at the close, not RequestTimeout at 5.0 s, and the
    # attempt's timer is cancelled.
    assert failed_at == 1.0
    assert type(error) is TransportError and "closed" in str(error)
    assert sim.pending == 0


def test_closed_endpoint_rejects_new_requests_outright():
    sim, net = make_net()
    client = Endpoint(net, "client")
    client.close()

    def proc():
        yield from client.request("server", "ping")

    with pytest.raises(TransportError, match="closed"):
        sim.run_process(proc())


def _echo(message):
    return message.payload
    yield  # pragma: no cover - uniform generator shape


def test_idle_caller_records_expire_after_ttl():
    sim, net = make_net()
    first = Endpoint(net, "first")
    second = Endpoint(net, "second")
    server = Endpoint(net, "server", request_handler=_echo, dedupe_ttl_s=5.0)

    def proc():
        yield from first.request("server", 1)
        yield sim.timeout(3.0)
        yield from second.request("server", 2)
        # Both callers were active within the TTL.
        assert list(server._callers) == ["first", "second"]
        yield sim.timeout(3.0)
        yield from second.request("server", 3)

    sim.run_process(proc())
    # The first caller has been idle for 6 s, past the TTL.
    assert list(server._callers) == ["second"]
    assert server.requests_served == 3


def test_server_keeps_one_record_per_caller():
    sim, net = make_net()
    client = Endpoint(net, "client")
    served = []

    def handler(message):
        served.append(message.message_id)
        yield sim.timeout(0.01)
        return message.payload

    server = Endpoint(net, "server", request_handler=handler)

    def record():
        """The client's record: its horizon and the ids it remembers."""
        (caller, value), = server._callers.items()
        assert caller == "client"
        horizon, __, remembered = _unpack(value)
        return horizon, remembered

    def proc():
        for index in range(5):
            yield from client.request("server", index)
        # One request at a time: each is its own horizon, and the
        # record holds only that id.
        assert record() == (served[-1], (served[-1],))
        calls = [sim.spawn(client.request("server", index)) for index in range(3)]
        yield sim.timeout(0.005)
        # Three at once: the oldest is every one's horizon, so the
        # record holds all three.
        assert record() == (served[-3], tuple(served[-3:]))
        yield AllOf(sim, calls)
        yield from client.request("server", "last")
        assert record() == (served[-1], (served[-1],))

    sim.run_process(proc())
    assert server.requests_served == 9


def test_attempt_its_sender_gave_up_on_is_refused():
    sim, net = make_net()
    # The first attempt crawls; the second one, sent after the first
    # timed out, overtakes it.
    net.faults.add_delay_rule(SlowLink(["client"], ["server"], extra_s=2.0, end=0.5))
    client = Endpoint(net, "client")
    served = []

    def handler(message):
        served.append(message.message_id)
        return message.payload
        yield  # pragma: no cover - uniform generator shape

    Endpoint(net, "server", request_handler=handler)

    def proc():
        return (yield from client.request("server", "x", timeout_s=1.0, max_attempts=2))

    assert sim.run_process(proc()) == "x"
    sim.run()
    # The first attempt arrived below the client's horizon: it ran once
    # (as the second attempt), not twice.
    assert len(served) == 1
    assert net.count_value("transport.stale_requests") == 1
    assert net.count_value("transport.duplicate_requests") == 0
