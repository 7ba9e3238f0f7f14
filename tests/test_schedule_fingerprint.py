"""The simulated schedule, pinned by one digest.

Four small seeded scenarios run in a fresh interpreter: calls through
the DFM, an announcement wave over relays, hedged calls under a slow
link, and a primary crash mid-wave followed by a hot promotion.  Every
fabric delivery contributes its simulated time, source, destination,
kind and wire bytes to one SHA-256 digest.  Addresses drop their
``@N`` incarnation suffix, which counts activations process-wide.

A change that only makes the runtime cheaper (a leaner kernel, a
transport with fewer objects) must leave :data:`DIGEST` alone.  A
change that moves the schedule on purpose updates it and says so in
CHANGES.md.
"""

import json
import os
import pathlib
import random
import re
import subprocess
import sys

from repro.cluster import Supervisor, build_lan, deploy_relays
from repro.cluster.chaos import crash_host
from repro.core import ComponentBuilder, ManagerJournal
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import DropRule, RetryPolicy, SlowLink
from repro.sim.events import AllOf
from repro.workloads import make_noop_manager

#: The digest of every scenario's deliveries, in scenario order.
DIGEST = "e7bb50e033b7ddfa83f1299c34f3cf3fe45e6eb06054ecddda8c750da856086f"
#: How many deliveries the digest covers.
DELIVERIES = 2217

RETRY = RetryPolicy(base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8)

_INCARNATION = re.compile(r"@\d+")


def _noop(ctx):
    return None


def _create(runtime, manager, count, hosts):
    return [
        runtime.sim.run_process(
            manager.create_instance(host_name=hosts[index % len(hosts)])
        )
        for index in range(count)
    ]


def _stage_upgrade(manager, name):
    """Derive, build and mark instantiable a version adding ``name``."""
    builder = ComponentBuilder(name)
    builder.function(f"{name}_fn", _noop)
    builder.variant(size_bytes=4_096)
    manager.register_component(builder.build())
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, name)
    manager.descriptor_of(version).enable(f"{name}_fn", name)
    manager.mark_instantiable(version)
    return version


def dfm_calls():
    """Concurrent callers on two hosts ping eight DCDOs through the DFM."""
    runtime = LegionRuntime(build_lan(4, seed=3))
    manager, __ = make_noop_manager(runtime, "FpCalls", 2, 2)
    loids = _create(runtime, manager, 8, ["host01", "host02", "host03"])
    sim = runtime.sim
    rng = random.Random(1)

    def caller(client, calls):
        for token in range(calls):
            reply = yield from client.invoker.invoke(rng.choice(loids), "ping", (token,))
            assert reply == (token,)
            yield sim.timeout(rng.uniform(0.0, 0.002))

    clients = [runtime.make_client("host00"), runtime.make_client("host03")]
    callers = [sim.spawn(caller(client, 40)) for client in clients for __ in range(4)]
    sim.run(AllOf(sim, callers))
    return {"calls": 320}


def announce_wave():
    """One announcement wave over relays, fetching a fresh component."""
    runtime = LegionRuntime(build_lan(5, seed=5))
    manager, __ = make_noop_manager(runtime, "FpWave", 2, 2)
    loids = _create(runtime, manager, 16, ["host01", "host02", "host03", "host04"])
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    v2 = _stage_upgrade(manager, "wave-upgrade")
    manager.set_current_version(v2)
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.complete and tracker.all_acked
    assert all(manager.instance_version(loid) == v2 for loid in loids)
    return {"announce_waves": runtime.network.count_value("relay.announce_waves")}


def hedged_calls():
    """Hedged calls across a slow, jittery link, and to a peer that loses
    three requests: an attempt times out, then a backup wins."""
    runtime = LegionRuntime(build_lan(3, seed=9))
    manager, __ = make_noop_manager(runtime, "FpHedge", 1, 2)
    loids = _create(runtime, manager, 2, ["host01", "host02"])
    client = runtime.make_client("host00")
    client.invoker.enable_hedging(delay_s=0.004)
    network = runtime.network
    network.faults.add_delay_rule(
        SlowLink(["host01/"], ["host00/"], extra_s=0.001, jitter_s=0.02, seed=2)
    )
    network.faults.add_drop_rule(
        DropRule(
            predicate=lambda message: message.kind == "request"
            and message.destination.startswith("host02/"),
            count=3,
        )
    )
    sim = runtime.sim

    def scenario():
        for token in range(16):
            reply = yield from client.invoker.invoke(
                loids[token % 2], "ping", (token,), hedge=True
            )
            assert reply == (token,)

    sim.run_process(scenario())
    return {
        "hedges": network.count_value("transport.hedges"),
        "hedge_wins": network.count_value("transport.hedge_wins"),
    }


def crash_mid_wave():
    """The journaled primary crashes 10 ms into a wave, under client
    calls; a hot standby takes over and converges the fleet."""
    runtime = LegionRuntime(build_lan(7, seed=7))
    manager, __ = make_noop_manager(
        runtime,
        "FpFailover",
        2,
        2,
        journal=ManagerJournal(name="FpFailover"),
        propagation_retry_policy=RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=RETRY),
    )
    loids = _create(runtime, manager, 9, ["host04", "host05", "host06"])
    relays = deploy_relays(runtime, hosts=["host04", "host05", "host06"])
    manager.use_relays(relays, fanout_k=2)
    supervisor = Supervisor(
        runtime,
        "FpFailover",
        standby_hosts=("host01", "host02"),
        detector_host_name="host03",
        relays=relays,
        relay_fanout_k=2,
        retry_policy=RETRY,
    ).start()
    v2 = _stage_upgrade(manager, "failover-upgrade")
    client = runtime.make_client("host03")
    sim = runtime.sim

    def traffic():
        for token in range(200):
            yield from client.invoker.invoke(loids[token % len(loids)], "ping", (token,))
            yield sim.timeout(0.005)

    def scenario():
        yield sim.timeout(1.0)  # the standby's bootstrap lands
        calls = sim.spawn(traffic())
        manager.set_current_version_async(v2)
        yield sim.timeout(0.010)
        crash_host(runtime, runtime.host("host00"))
        yield calls

    sim.run_process(scenario())
    sim.run(until=60.0)
    sim.run()
    promoted = runtime.class_of("FpFailover")
    assert promoted.current_version == v2
    assert all(promoted.record(loid).obj.version == v2 for loid in loids)
    supervisor.stop()
    cold = runtime.network.count_value("supervisor.cold_promotions")
    return {"promotions": supervisor.promotions, "cold": cold}


SCENARIOS = (dfm_calls, announce_wave, hedged_calls, crash_mid_wave)


def delivery_digest(runs):
    """Call each of ``runs`` with every fabric delivery recorded.

    Returns (SHA-256 hex digest, delivery count, the runs' results).
    """
    import hashlib

    from repro.net.link import Port

    digest = hashlib.sha256()
    deliveries = [0]
    deliver = Port.deliver

    def recording_deliver(port, message):
        deliveries[0] += 1
        line = (
            f"{port._sim.now!r} {_INCARNATION.sub('', message.source)} "
            f"{_INCARNATION.sub('', message.destination)} {message.kind} "
            f"{message.wire_bytes}\n"
        )
        digest.update(line.encode())
        return deliver(port, message)

    Port.deliver = recording_deliver
    try:
        results = [run() for run in runs]
    finally:
        Port.deliver = deliver
    return digest.hexdigest(), deliveries[0], results


def fingerprint():
    """Run every scenario; returns (digest, deliveries, per-scenario notes)."""
    digest, deliveries, results = delivery_digest(SCENARIOS)
    notes = {scenario.__name__: result for scenario, result in zip(SCENARIOS, results)}
    return digest, deliveries, notes


SCRIPT = """
import json
from tests.test_schedule_fingerprint import fingerprint

digest, deliveries, notes = fingerprint()
print(json.dumps({"digest": digest, "deliveries": deliveries, "notes": notes}))
"""


def run_fresh(script, hash_seed):
    """Run ``script`` in a fresh interpreter; its last line, as JSON."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        PYTHONHASHSEED=hash_seed,
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_every_fabric_delivery_matches_the_recorded_schedule():
    # Two hash seeds: the schedule depends on no string hash order.
    for hash_seed in ("0", "1"):
        result = run_fresh(SCRIPT, hash_seed)
        notes = result["notes"]
        # Each scenario did what it is named for.
        assert notes["announce_wave"]["announce_waves"] >= 1
        assert notes["hedged_calls"]["hedges"] >= 1
        assert notes["hedged_calls"]["hedge_wins"] >= 1
        assert notes["crash_mid_wave"] == {"promotions": 1, "cold": 0}
        assert (result["digest"], result["deliveries"]) == (DIGEST, DELIVERIES)
