"""Host-level relays for evolution waves.

The paper's evolution-management policy (§4) has the DCDO Manager push
a new DFM descriptor to every managed instance — one management RPC
per instance per wave.  At production scale that is O(N) manager-side
RPCs even with windowed fan-out, and most of those RPCs travel to the
same handful of machines.

A :class:`HostRelay` is a small management agent, one per cluster
host, that applies each colocated instance's two-phase
``applyConfiguration`` locally.  Relays speak one wave form, the
*announcement* (``announceFleet``), shaped like om-legion's
``broadcall``: one request down a tree, one aggregated reply up.

- Every relay holds the same sorted host roster, seeded at deploy
  time, so a bundle routes by a contiguous roster index range
  ``[lo, hi)``: ``roster[lo]`` applies its own part and splits the rest
  of the range into at most ``fanout_k`` child spans.
- The bundle carries the configuration diffs (one per distinct
  from-version) and the round's targets as sorted runs of
  ``LOID.instance`` numbers.  Instance numbers count up per type in
  creation order, so a full fleet, or a canary stage's admitted
  prefix, is one run.  A relay applies only to colocated instances of
  the announced type inside those runs: the manager holds exactly
  their management locks, so a relay can touch no other instance.
- The reply folds the subtree into one ``(hosts, count, digest)``
  aggregate — set digests are additive CRC sums — plus ``failures``
  (per-instance apply errors) and ``missing`` (the roster spans a
  relay could not reach, or found drifted).

With one range and one run a bundle is constant-size in both
directions, so root egress, and with it wave latency, is independent
of fleet size.  The manager commits every reached host at once when
the aggregate matches the instances it expected, re-announces only the
rest, and then falls back to direct delivery.  The relay layer is a
transport optimization, not a weakening of the transactional
guarantees: application stays idempotent per instance (keyed by target
version), the aggregate can only *under*-commit, and a relay that dies
mid-wave takes its colocated instances with it, leaving them to the
manager's direct path exactly as if they had been unreachable.

Layering note: like :mod:`repro.cluster.chaos` this module orchestrates
across layers, so runtime imports stay inside functions.
"""

import zlib
from bisect import bisect_right

from repro.legion.objects import LegionObject

#: In-flight window for a relay applying its local batch.
RELAY_APPLY_WINDOW = 8
#: Generous per-attempt reply timeouts for applyConfiguration calls —
#: prepare-phase downloads can run long (same schedule the manager uses
#: for direct delivery).
RELAY_APPLY_TIMEOUTS = (60.0, 120.0, 600.0)
#: Nominal wire bytes for one announced configuration diff.
ANNOUNCE_DIFF_BYTES = 1024
#: Nominal wire bytes for an announcement's fixed routing header
#: (roster index range, fanout, term and the first target run) and for
#: one aggregated ack.
ANNOUNCE_ROUTE_BYTES = 64
ANNOUNCE_ACK_BYTES = 64
#: Nominal wire bytes per further target run in a bundle, and per
#: failure or missing span in an ack.
ANNOUNCE_ENTRY_BYTES = 32
#: Mask keeping set digests (and their sums) at 64 bits.
DIGEST_MASK = 0xFFFFFFFFFFFFFFFF


def set_digest(loids):
    """Order-independent digest of a LOID set.

    A 64-bit sum of per-LOID CRC32s: deterministic across runs (unlike
    ``hash(str)`` under hash randomization) and independent of apply
    order, so a relay and the manager can compare "which instances"
    without shipping the LOID list back up the tree.
    """
    total = 0
    for loid in loids:
        total = (total + zlib.crc32(str(loid).encode("utf-8"))) & DIGEST_MASK
    return total


def instance_runs(loids):
    """The LOIDs' instance numbers as sorted half-open ``(start, stop)`` runs."""
    runs = []
    for number in sorted(loid.instance for loid in loids):
        if runs and runs[-1][1] == number:
            runs[-1] = (runs[-1][0], number + 1)
        else:
            runs.append((number, number + 1))
    return runs


def _empty_ack(missing=()):
    return {
        "hosts": 0,
        "count": 0,
        "digest": 0,
        "failures": [],
        "missing": list(missing),
    }


class HostRelay(LegionObject):
    """Per-host evolution relay agent.

    Exported interface: ``announceFleet(bundle)`` — apply the announced
    configuration to this host's targeted instances, forward child
    spans of the roster range, and reply with the subtree's aggregate
    ack (see the module docstring).

    The relay is stateless between waves: its endpoint address lives
    under ``<host>/`` so a host crash severs it like any colocated
    object, and recovery is a plain re-activation (see
    :func:`restore_relays`).
    """

    _interface = {"announceFleet": "_m_announce_fleet"}

    def __init__(self, runtime, loid, host):
        super().__init__(runtime, loid, host)
        self.batches_served = 0
        self.instances_evolved = 0
        self.instances_failed = 0
        #: Sorted ``((host, relay_loid, binding), ...)`` roster shared by
        #: every relay in the deployment; seeded by :func:`deploy_relays`
        #: / :func:`restore_relays` so announcements route by roster
        #: index instead of shipping a subtree table per hop.
        self.announce_roster = None

    # ------------------------------------------------------------------
    # Local application
    # ------------------------------------------------------------------

    def _prewarm_local_bindings(self, loids):
        """Resolve colocated targets host-locally, skipping the agent.

        The node's runtime already knows the physical addresses of
        endpoints it hosts, so a relay binding to a target on its own
        host need not pay a round trip to the central binding agent.
        Without this, a fleet-wide wave funnels one resolve per
        instance through the agent's single port — an O(instances)
        serial bottleneck on what is otherwise a parallel diffusion
        tree.
        """
        cache = self.invoker.binding_cache
        agent = self.runtime.binding_agent
        warmed = 0
        for loid in loids:
            if loid in cache:
                continue
            obj = self.runtime.live_object(loid)
            if obj is None or not obj.is_active or obj.host is not self.host:
                continue
            cache.put(agent.resolve_local(loid))
            warmed += 1
        if warmed:
            self.runtime.network.count("relay.local_binds", warmed)

    def _apply_jobs(self, loids, args, term):
        """Generator: ``applyConfiguration(*args[i])`` on each ``loids[i]``,
        windowed; returns the ``(ok, value)`` outcomes in the same order.

        ``term`` is the sending manager's fencing token; re-stamping it
        on every downstream ``applyConfiguration`` keeps relay waves as
        fenced as direct delivery — a deposed manager's wave is
        rejected per instance, and the rejection rides back in the acks.
        """
        self._prewarm_local_bindings(loids)
        outcomes = yield from self.invoker.invoke_each(
            loids,
            "applyConfiguration",
            args,
            window=RELAY_APPLY_WINDOW,
            timeout_schedule=RELAY_APPLY_TIMEOUTS,
            term=term,
        )
        for ok, __ in outcomes:
            if ok:
                self.instances_evolved += 1
            else:
                self.instances_failed += 1
        self.batches_served += 1
        self.runtime.network.count("relay.batches")
        self.runtime.network.count("relay.batch_instances", len(loids))
        return outcomes

    def _apply_announcement(self, announcement, term):
        """Generator: apply an announced configuration locally.

        Picks this host's live instances of the announced type whose
        instance numbers fall inside the announcement's target runs
        (via the runtime's per-host index), applies the diff matching
        each one's current version, and returns ``(count, digest,
        failures)`` over the targets now at the target version.
        Targets already there count as applied without an RPC —
        application is idempotent keyed by the target version — but
        still pass the instance's term fence, so a deposed manager's
        announcement is rejected even where it would change nothing.
        """
        from repro.legion.errors import StaleManagerTerm

        type_name = announcement["type_name"]
        # One argument tuple per distinct from-version, shared by every
        # instance applying that diff.
        diff_args = {
            version: (diff,) for version, diff in announcement["diffs"].items()
        }
        target_version = announcement["target_version"]
        runs = announcement["runs"]
        starts = [start for start, __ in runs]
        jobs = []
        job_args = []
        applied = []
        failures = []
        for obj in self.runtime.objects_on_host(self.host.name):
            loid = obj.loid
            if loid.type_name != type_name or not obj.is_active:
                continue
            index = bisect_right(starts, loid.instance) - 1
            if index < 0 or loid.instance >= runs[index][1]:
                continue
            version = getattr(obj, "version", None)
            if version == target_version:
                try:
                    if term is not None:
                        obj.admit_term(term)
                except StaleManagerTerm as error:
                    failures.append((loid, error))
                else:
                    applied.append(loid)
                continue
            args = diff_args.get(version)
            if args is not None:
                jobs.append(loid)
                job_args.append(args)
        outcomes = yield from self._apply_jobs(jobs, job_args, term)
        for loid, (ok, value) in zip(jobs, outcomes):
            if ok:
                applied.append(loid)
            else:
                failures.append((loid, value))
        return len(applied), set_digest(applied), failures

    # ------------------------------------------------------------------
    # Announcement waves (roster-range routing, aggregate acks)
    # ------------------------------------------------------------------

    def _m_announce_fleet(self, ctx, bundle):
        """Serve one announcement node.

        ``bundle`` carries the announcement (``type_name``,
        ``target_version``, ``diffs`` keyed by from-version, ``runs``,
        ``term``) plus ``lo``/``hi`` — a contiguous index range into the
        shared :attr:`announce_roster` — and ``fanout_k``.  This relay
        is ``roster[lo]``; the rest of the range splits into at most
        ``fanout_k`` contiguous child spans, each headed by its first
        host's relay.  Own application and child forwarding run
        concurrently.  A child that cannot be reached folds in as its
        span in ``missing``; a range whose head is not this host
        (roster drift: relay redeployed since the sender built its
        range) comes back whole in ``missing``, so the manager's
        aggregate check fails closed instead of double-applying.
        """
        from repro.net import TransportError, run_windowed
        from repro.legion.errors import LegionError

        roster = self.announce_roster or ()
        lo = bundle["lo"]
        hi = min(bundle["hi"], len(roster))
        term = bundle.get("term")
        if lo >= hi or roster[lo][0] != self.host.name:
            ctx.reply_bytes = ANNOUNCE_ACK_BYTES + ANNOUNCE_ENTRY_BYTES
            return _empty_ack([(lo, bundle["hi"])])

        def forward(span):
            start, stop = span
            __, child_relay, child_binding = roster[start]
            cache = self.invoker.binding_cache
            if child_binding is not None and child_relay not in cache:
                # The roster ships bindings (a membership list carries
                # addresses): child resolves must not funnel through
                # the central binding agent's one port.
                cache.put(child_binding)
            child_bundle = dict(bundle, lo=start, hi=stop)
            try:
                ack = yield from self.invoker.invoke(
                    child_relay,
                    "announceFleet",
                    (child_bundle,),
                    payload_bytes=announce_fleet_bytes(child_bundle),
                    timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    term=term,
                )
            except (LegionError, TransportError):
                self.runtime.network.count("relay.subtree_failures")
                return _empty_ack([span])
            return ack

        spans = chunk_spans(lo + 1, hi, bundle["fanout_k"])
        thunks = [lambda: self._apply_announcement(bundle, term)]
        thunks += [lambda s=span: forward(s) for span in spans]
        outcomes = yield from run_windowed(self.sim, thunks, len(thunks))
        ok, own = outcomes[0]
        if not ok:
            raise own  # a bug in the relay itself, not a delivery
        count, digest, failures = own
        total = _empty_ack()
        total.update(hosts=1, count=count, digest=digest, failures=failures)
        for ok, ack in outcomes[1:]:
            if not ok:
                raise ack
            total["hosts"] += ack["hosts"]
            total["count"] += ack["count"]
            total["digest"] = (total["digest"] + ack["digest"]) & DIGEST_MASK
            total["failures"].extend(ack["failures"])
            total["missing"].extend(ack["missing"])
        ctx.reply_bytes = ANNOUNCE_ACK_BYTES + ANNOUNCE_ENTRY_BYTES * (
            len(total["failures"]) + len(total["missing"])
        )
        return total

    # The traced benchmark run (perfbench/layers.py) still wraps the
    # retired handler names; these aliases keep it working until the
    # next benchmark change drops them.
    _m_evolve_batch = _m_relay_tree = _m_announce_tree = _m_announce_fleet


def chunk_spans(lo, hi, fanout_k):
    """Split ``[lo, hi)`` into at most ``fanout_k`` contiguous spans.

    Spans are as even as possible and deterministic; an empty range
    yields no spans.  Used to hand an announcement's roster range down
    to child relays.
    """
    size = hi - lo
    if size <= 0:
        return []
    chunks = min(fanout_k, size)
    base, extra = divmod(size, chunks)
    spans = []
    start = lo
    for index in range(chunks):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def announce_fleet_bytes(bundle):
    """Wire bytes for one announcement hop.

    The diffs cost a constant per distinct from-version; routing is an
    index range into the pre-seeded roster, and the first target run
    rides in the same fixed header.  With one run nothing here scales
    with hosts *or* instances — this is what keeps wave latency flat
    from 1k to 100k live objects.
    """
    return (
        ANNOUNCE_DIFF_BYTES * len(bundle["diffs"])
        + ANNOUNCE_ROUTE_BYTES
        + ANNOUNCE_ENTRY_BYTES * (len(bundle["runs"]) - 1)
    )


def deploy_relays(runtime, hosts=None, context_prefix="/relays"):
    """Create one :class:`HostRelay` per (up) host; returns a directory.

    The directory maps host name -> relay LOID and is what
    :meth:`~repro.core.manager.DCDOManager.use_relays` consumes.
    Relays are bound into the context space under
    ``<context_prefix>/<host>`` so operators (and recovery) can find
    them by name (§2.3: one global namespace for everything).  Calling
    again is idempotent per host — an existing live relay is reused.
    """
    from repro.legion.loid import mint_loid

    if hosts is None:
        hosts = sorted(runtime.hosts)
    directory = {}
    for host_name in hosts:
        host = runtime.host(host_name)
        if not host.is_up:
            continue
        path = f"{context_prefix}/{host_name}"
        if path in runtime.context_space:
            existing = runtime.context_space.lookup(path)
            obj = runtime.live_object(existing)
            if obj is not None and obj.is_active:
                directory[host_name] = existing
                continue
            runtime.context_space.unbind(path)
        loid = mint_loid(runtime.domain, "HostRelay")
        relay = HostRelay(runtime, loid, host)
        runtime.sim.run_process(relay.activate())
        runtime.attach_object(relay)
        runtime.context_space.bind(path, loid)
        directory[host_name] = loid
    seed_announce_roster(runtime, directory)
    return directory


def seed_announce_roster(runtime, directory):
    """Hand every relay in ``directory`` the shared sorted roster.

    The roster is the deployment-wide ``((host, relay_loid, binding),
    ...)`` list that announcements route through by index range;
    every relay must hold the same one, so it is (re)seeded whenever
    the directory changes — deploy, redeploy, and restore.  Carrying
    each relay's current binding is what a real deployment directory
    does (membership lists ship addresses, not just names): without it
    every relay's child resolves would funnel through the central
    binding agent — O(hosts) serialized traffic on one port, exactly
    the term announcements exist to remove.  A binding gone stale
    between seedings (relay died un-restored) just fails the forward,
    which reports the child's span missing.
    """
    from repro.legion.errors import UnknownObject

    agent = runtime.binding_agent
    entries = []
    for host_name, loid in sorted(directory.items()):
        try:
            binding = agent.resolve_local(loid)
        except UnknownObject:
            binding = None  # unregistered (dead) relay: forward will fail
        entries.append((host_name, loid, binding))
    roster = tuple(entries)
    for loid in directory.values():
        relay = runtime.live_object(loid)
        if relay is not None:
            relay.announce_roster = roster
    return roster


def restore_relays(runtime, directory):
    """Generator: re-activate relays that died with their hosts.

    Relays are stateless, so recovery after a host restart is a fresh
    activation (new endpoint, bumped binding incarnation).  Hosts still
    down are skipped — their relays come back with them on a later
    pass.  Returns the host names restored.
    """
    restored = []
    for host_name, loid in sorted(directory.items()):
        host = runtime.host(host_name) if host_name in runtime.hosts else None
        if host is None or not host.is_up:
            continue
        relay = runtime.live_object(loid)
        if relay is None or relay.is_active:
            continue
        yield from relay.activate()
        runtime.network.count("relay.recoveries")
        restored.append(host_name)
    if restored:
        seed_announce_roster(runtime, directory)
    return restored
