"""P1 — invocation fast path: interface leases.

The seed's defensive-call discipline pays for safety in round trips:
``supports()``/``check_first`` re-queried the interface before every
invocation (``getInterface`` + ``getVersion`` + the call itself — three
RPCs per defensive call).  The fast path claws those back in two steps:

- the coalesced ``getStatus`` RPC folds interface + version + epoch
  into one round trip (cold lease: two RPCs per defensive call);
- the epoch-coherent lease serves ``check_first`` from cache while the
  piggybacked epoch proves the configuration unchanged (warm lease:
  one RPC per defensive call — the §3.1/§3.5 semantics ride on the
  epoch check plus the disappearance-retry backstop).

The second half measures wire messages per call and closed-loop
throughput for concurrent callers sharing one endpoint.
"""

from repro.bench.harness import ExperimentResult
from repro.cluster import build_centurion
from repro.core.stub import DCDOStub
from repro.legion import LegionRuntime
from repro.workloads import ClosedLoopClient, make_noop_manager, run_clients

CALLS = 40
LEASE_TTL_S = 5.0
BATCH_CLIENTS = 8
BATCH_CALLS = 50


def _build_target(seed, type_name):
    runtime = LegionRuntime(build_centurion(seed=seed))
    manager, __ = make_noop_manager(
        runtime, type_name, component_count=10, functions_per_component=10
    )
    loid = runtime.sim.run_process(manager.create_instance(host_name="centurion01"))
    return runtime, loid


def _rpcs_per_call(client, calls, body):
    def loop():
        for __ in range(calls):
            yield from body()

    before = client.invoker.stats.invocations
    client.sim.run_process(loop())
    return (client.invoker.stats.invocations - before) / calls


def _measure_round_trips(seed):
    runtime, loid = _build_target(seed, "P1Fast")
    client = runtime.make_client("centurion08")

    # Seed discipline: query interface and version, then call (3 RPCs).
    seed_stub = DCDOStub(client, loid)

    def seed_call():
        yield from seed_stub.fetch_interface()
        yield from seed_stub.fetch_version()
        yield from seed_stub.call("ping", 1)

    seed_rpcs = _rpcs_per_call(client, CALLS, seed_call)

    # Coalesced refresh, no lease: getStatus + call (2 RPCs).
    cold_stub = DCDOStub(client, loid)
    cold_rpcs = _rpcs_per_call(
        client, CALLS, lambda: cold_stub.call("ping", 1, check_first=True)
    )

    # Warm epoch-coherent lease: the check is answered from cache (1 RPC).
    lease_stub = DCDOStub(client, loid, lease_ttl_s=LEASE_TTL_S)
    runtime.sim.run_process(lease_stub.call("ping", 1, check_first=True))
    warm_rpcs = _rpcs_per_call(
        client, CALLS, lambda: lease_stub.call("ping", 1, check_first=True)
    )
    return {
        "seed_rpcs_per_call": seed_rpcs,
        "cold_rpcs_per_call": cold_rpcs,
        "warm_rpcs_per_call": warm_rpcs,
        "lease_hits": lease_stub.lease_hits,
        "lease_misses": lease_stub.lease_misses,
        "binding_hits": client.invoker.stats.binding_hits,
        "binding_misses": client.invoker.stats.binding_misses,
        "epoch_observations": client.invoker.stats.epoch_observations,
    }


def _measure_throughput(seed):
    runtime, loid = _build_target(seed, "P1Batch")
    client = runtime.make_client("centurion08")
    loops = [
        ClosedLoopClient(client, loid, "ping", args=(1,), calls=BATCH_CALLS)
        for __ in range(BATCH_CLIENTS)
    ]
    messages_before = runtime.network.stats.messages_delivered
    started = runtime.sim.now
    run_clients(runtime, loops)
    elapsed = runtime.sim.now - started
    calls = sum(loop.completed_calls for loop in loops)
    assert calls == BATCH_CLIENTS * BATCH_CALLS, [loop.errors for loop in loops]
    wire_messages = runtime.network.stats.messages_delivered - messages_before
    return {
        "throughput_calls_per_s": calls / elapsed,
        "wire_messages_per_call": wire_messages / calls,
        "mean_latency_ms": sum(
            loop.mean_latency() for loop in loops
        ) / len(loops) * 1e3,
    }


def run_p1(seed=0):
    """Run P1; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        experiment_id="P1",
        title="Invocation fast path: interface leases",
    )
    trips = _measure_round_trips(seed)
    unbatched = _measure_throughput(seed)

    result.add(
        "seed discipline: RPCs per defensive call",
        "3 (query interface + version + call)",
        f"{trips['seed_rpcs_per_call']:.2f}",
        "rpc",
        ok=trips["seed_rpcs_per_call"] >= 2.9,
    )
    result.add(
        "cold lease (coalesced getStatus): RPCs per call",
        "2",
        f"{trips['cold_rpcs_per_call']:.2f}",
        "rpc",
        ok=trips["cold_rpcs_per_call"] <= 2.1,
    )
    result.add(
        "warm lease: RPCs per call",
        "1",
        f"{trips['warm_rpcs_per_call']:.2f}",
        "rpc",
        ok=trips["warm_rpcs_per_call"] <= 1.1,
    )
    speedup = trips["seed_rpcs_per_call"] / trips["warm_rpcs_per_call"]
    result.add(
        "round-trip reduction, warm lease vs seed",
        ">= 2x",
        f"{speedup:.1f}",
        "x",
        ok=speedup >= 2.0,
    )
    result.add(
        "lease hits during warm phase",
        f"{CALLS}",
        str(trips["lease_hits"]),
        "hits",
        ok=trips["lease_hits"] >= CALLS,
    )
    result.add(
        "wire messages per call, unbatched",
        "2 (request + reply)",
        f"{unbatched['wire_messages_per_call']:.2f}",
        "msg",
        ok=unbatched["wire_messages_per_call"] >= 1.9,
    )
    result.extra = {
        "round_trips": trips,
        "throughput": {
            "clients": BATCH_CLIENTS,
            "calls_per_client": BATCH_CALLS,
            "unbatched": unbatched,
        },
    }
    return result
