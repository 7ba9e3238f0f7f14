"""Property test: at-most-once execution by per-caller horizons.

Random programs have two to four callers and one to three servers.
Each caller runs one to three concurrent tasks, and each task sends a
few requests to random servers with short timeouts and retries, some
after a pause longer than the servers' dedupe TTL.  The fabric
duplicates, reorders, slows and drops messages (``DuplicateRule``,
``ReorderRule``, ``SlowLink``, ``DropRule``); every extra delay stays
under the TTL.  Then:

- no message id runs twice;
- the first arrival of an id that its sender still awaits always runs;
- no record holds an id below its own horizon, and no record's horizon
  passes an id its caller still awaits;
- a server's records never exceed the callers it served within the
  TTL.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    DropRule,
    DuplicateRule,
    Endpoint,
    Network,
    ReorderRule,
    RequestTimeout,
    SlowLink,
    TransportError,
)
from repro.net.transport import _unpack
from repro.sim import AllOf, Simulator

TTL_S = 0.5
#: A pause that lets every record of the pausing caller expire.
IDLE_S = 2 * TTL_S

requests = st.tuples(
    st.integers(0, 2),  # server, modulo the server count
    st.sampled_from((0.0, 0.002, 0.02, IDLE_S)),  # pause before sending
    st.sampled_from((0.004, 0.02, 0.1, 0.4)),  # attempt timeout
    st.integers(1, 3),  # attempts
)
programs = st.fixed_dictionaries(
    {
        "servers": st.integers(1, 3),
        "callers": st.lists(
            st.lists(st.lists(requests, min_size=1, max_size=5), min_size=1, max_size=3),
            min_size=2,
            max_size=4,
        ),
        "service_s": st.sampled_from((0.0, 0.001, 0.01)),
        "duplicate": st.sampled_from((0.0, 0.5, 1.0)),
        "reorder": st.sampled_from((0.0, 0.5)),
        "slow_s": st.sampled_from((0.0, 0.05, 0.2)),
        "drop": st.sampled_from((0.0, 0.1, 0.3)),
        "seed": st.integers(0, 2**16),
    }
)


class _Server(Endpoint):
    """An endpoint that reports each request reaching admission."""

    def __init__(self, network, address, on_arrival, **kwargs):
        super().__init__(network, address, **kwargs)
        self._on_arrival = on_arrival

    def _serve_request(self, message):
        self._on_arrival(self, message)
        return (yield from Endpoint._serve_request(self, message))


def _run(program):
    sim = Simulator()
    network = Network(sim, latency_s=0.001, bandwidth_bps=1_000_000)
    seed = program["seed"]
    faults = network.faults
    if program["duplicate"]:
        faults.add_duplicate_rule(
            DuplicateRule(program["duplicate"], spread_s=0.05, seed=seed)
        )
    if program["reorder"]:
        faults.add_delay_rule(ReorderRule(program["reorder"], max_skew_s=0.05, seed=seed))
    if program["slow_s"]:
        faults.add_delay_rule(
            SlowLink(["caller"], ["server"], program["slow_s"], jitter_s=0.1, seed=seed)
        )
    if program["drop"]:
        rng = random.Random(seed)
        faults.add_drop_rule(DropRule(predicate=lambda m: rng.random() < program["drop"]))

    callers = {}
    executed = []
    first_arrivals = set()
    must_run = set()
    last_served = {}

    def on_arrival(server, message):
        message_id = message.message_id
        if message_id in first_arrivals:
            return
        first_arrivals.add(message_id)
        if message_id in callers[message.source]._pending_replies:
            must_run.add(message_id)

    violations = []

    def check_records(server):
        # Collected, not raised: the transport would marshal an
        # exception raised in a handler back to the caller.
        now = sim.now
        for caller, value in server._callers.items():
            horizon, __, remembered = _unpack(value)
            if any(known < horizon for known in remembered):
                violations.append(("an id below the horizon", caller, value))
            oldest = callers[caller]._oldest
            if oldest is not None and horizon > oldest.message_id:
                violations.append(("a horizon past an awaited id", caller, value))
            if now - last_served[server.address, caller] > TTL_S:
                violations.append(("a record of an idle caller", caller, value))

    servers = []

    def handler_for(server_index):
        def handler(message):
            server = servers[server_index]
            executed.append(message.message_id)
            last_served[server.address, message.source] = sim.now
            check_records(server)
            if program["service_s"]:
                yield sim.timeout(program["service_s"])
            return message.payload

        return handler

    for index in range(program["servers"]):
        servers.append(
            _Server(
                network,
                f"server{index}",
                on_arrival,
                request_handler=handler_for(index),
                dedupe_ttl_s=TTL_S,
            )
        )
    for index in range(len(program["callers"])):
        address = f"caller{index}"
        callers[address] = Endpoint(network, address)

    def task(endpoint, plan):
        for server, pause, timeout_s, attempts in plan:
            if pause:
                yield sim.timeout(pause)
            try:
                yield from endpoint.request(
                    f"server{server % len(servers)}",
                    "x",
                    timeout_s=timeout_s,
                    max_attempts=attempts,
                )
            except (RequestTimeout, TransportError):
                pass

    tasks = [
        sim.spawn(task(callers[f"caller{index}"], plan))
        for index, plans in enumerate(program["callers"])
        for plan in plans
    ]

    def main():
        yield AllOf(sim, tasks)

    sim.run_process(main())
    sim.run()
    return executed, must_run, violations


@settings(max_examples=150, deadline=None)
@given(programs)
def test_each_request_runs_at_most_once_and_an_awaited_one_runs(program):
    executed, must_run, violations = _run(program)
    assert len(executed) == len(set(executed)), "a message id ran twice"
    assert must_run <= set(executed), "an awaited request was refused"
    assert not violations, violations[0]
