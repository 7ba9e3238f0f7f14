"""Manager durability and crash recovery.

The DCDO Manager is a single per-type coordinator (§2.4), so its crash
mid-evolution would otherwise turn the §3.1 hazards into *permanent*
divergence.  This module gives it a durability story:

- :class:`ManagerJournal` — a write-ahead log plus checkpoint of the
  DFM store and DCDO table.  The journal object lives *outside* the
  manager (like a file on the host's disk), so it survives the manager
  object's death.  Every durable decision — component registered,
  version created or frozen, current version set, instance created or
  evolved, propagation started/re-armed/acked — is appended before the
  manager acts on it.  The manager's durable state
  (:class:`~repro.core.manager.ManagerState`) is the fold of these
  entries: the live manager applies each one as it appends it, and
  recovery folds the same reducers over the replay.
- :class:`PropagationTracker` / :class:`Delivery` — per-instance
  delivery state for the ack-tracked, at-least-once evolution
  propagation protocol.  Acks are journaled, so a recovered manager
  resumes exactly the deliveries still outstanding, never re-deriving
  the version and never double-applying an update (application is
  idempotent, keyed by version id, on the DCDO side).
- :func:`recover_manager` — rebuild a crashed manager from its
  journal: fold it into a fresh state, re-link live instances and
  ICOs, reactivate under a new binding incarnation, swap into the
  runtime, and resume propagation.

What is deliberately *not* durable: configurable (not-yet-instantiable)
versions.  Their descriptors are mutable in-memory scratch state; a
crash loses the edits, exactly as a real manager would lose an
uncommitted working copy.  The version *identifiers* are journaled so
a recovered manager never re-issues an id.
"""

import enum
from dataclasses import dataclass, field

#: CPU seconds charged per journal entry replayed during recovery.  A
#: cold restart pays this for the whole journal; a hot standby that has
#: been replaying shipped entries as they arrive pays only for the
#: un-replayed tail (see ``recover_manager(skip_entries=...)``).
REPLAY_ENTRY_S = 0.0002

#: Fixed per-entry framing estimate (kind tag, lengths, sequencing).
ENTRY_BASE_BYTES = 48


def _estimate_value_bytes(value):
    """Rough serialized size of one journal-entry value."""
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 16 + sum(_estimate_value_bytes(item) for item in value)
    if isinstance(value, dict):
        return 16 + sum(
            len(str(key)) + _estimate_value_bytes(item)
            for key, item in value.items()
        )
    # Rich objects (version ids, descriptors, component refs) journal as
    # compact references, not blobs.
    return 64


def estimate_entry_bytes(entry):
    """Estimated on-disk/wire size of one :class:`JournalEntry`.

    Deterministic and cheap — used for journal size gauges and for
    charging replication shipping traffic.  Sizes are estimates in the
    same spirit as the rest of the simulation: what matters is that
    they scale with content, not that they match any real encoding.
    """
    size = ENTRY_BASE_BYTES + len(entry.kind)
    for key, value in entry.data.items():
        size += len(str(key)) + _estimate_value_bytes(value)
    return size


class DeliveryStatus(enum.Enum):
    """Where one instance stands in a propagation."""

    PENDING = "pending"
    ACKED = "acked"
    FAILED = "failed"
    #: The delivery had been acked, but the wave crossed its abort
    #: threshold and this instance was returned to its prior version.
    ROLLED_BACK = "rolled-back"


@dataclass
class Delivery:
    """Ack-tracking state for one instance in one propagation.

    ``status`` is durable: only journal reducers change it.  The other
    fields are diagnostics the live manager stamps, and a replay
    leaves them unset.
    """

    loid: object
    status: DeliveryStatus = DeliveryStatus.PENDING
    attempts: int = 0
    acked_at: float = None
    last_error: object = None


class PropagationTracker:
    """Delivery state for pushing one version to a set of instances.

    At-least-once semantics: a delivery stays PENDING until the
    instance's evolution RPC returns (ACKED) or the retry policy gives
    up (FAILED).  ``rearm`` re-opens FAILED deliveries and admits newly
    created instances, so calling the propagation again after faults
    heal finishes the job.

    A canary rollout is a *staged* wave: the tracker also records its
    ramp ``stages``, bake window, gates passed, adoption and abort
    reason, so one journaled record carries the whole rollout, and a
    breach is the wave's abort decision.  It stays open (its admitted
    instances frozen) until adopted or aborted.
    """

    def __init__(
        self,
        version,
        loids=(),
        prior_versions=None,
        wave_policy=None,
        stages=None,
        bake_s=None,
    ):
        self.version = version
        self.complete = False
        #: loid -> the version each instance was on when admitted; the
        #: rollback targets if the wave aborts.  Journaled with the
        #: propagation-started entry so a recovered manager can still
        #: complete an abort.
        self.prior_versions = dict(prior_versions or {})
        #: The :class:`~repro.core.manager.WavePolicy` this wave runs
        #: under (None means converge).
        self.wave_policy = wave_policy
        #: True once the abort decision is journaled; the wave then
        #: only rolls back, never delivers.
        self.aborting = False
        #: True once every committed instance has been rolled back.
        self.aborted = False
        #: Why the wave last aborted (a breach, ``delivery-failures``).
        self.abort_reason = None
        #: A staged wave's cumulative fleet fractions per ramp stage,
        #: e.g. (0.01, 0.1, 1.0); None for a plain wave.
        self.stages = tuple(stages) if stages is not None else None
        #: Seconds of healthy SLO each stage must survive.
        self.bake_s = bake_s
        #: Number of stages whose health gate has passed.
        self.stage_index = 0
        #: True once the final gate passed and the version was adopted.
        self.adopted = False
        self._deliveries = {}
        for loid in loids:
            self._deliveries[loid] = Delivery(loid)

    def delivery(self, loid):
        """Get-or-create the :class:`Delivery` for ``loid``."""
        entry = self._deliveries.get(loid)
        if entry is None:
            entry = self._deliveries[loid] = Delivery(loid)
        return entry

    def deliveries(self):
        """All deliveries, in admission order."""
        return list(self._deliveries.values())

    @property
    def admitted(self):
        """LOIDs admitted to the wave, in admission order."""
        return list(self._deliveries)

    @property
    def open_canary(self):
        """True for a staged wave neither adopted nor ever aborted."""
        return (
            self.stages is not None
            and not self.adopted
            and self.abort_reason is None
        )

    def rearm(self, loids=()):
        """Re-open the propagation: admit ``loids``, retry failures.

        An aborted wave re-arms like any other: the abort flags clear
        and rolled-back deliveries re-open, so the operator can retry
        the whole wave after the fault heals.  The abort reason stays:
        a re-pushed canary version is a plain fleet wave, never a
        re-opened canary.
        """
        self.complete = False
        self.aborting = False
        self.aborted = False
        for loid in loids:
            self.delivery(loid)
        for entry in self._deliveries.values():
            if entry.status in (DeliveryStatus.FAILED, DeliveryStatus.ROLLED_BACK):
                entry.status = DeliveryStatus.PENDING

    def ack(self, loid):
        """Mark ``loid`` delivered."""
        self.delivery(loid).status = DeliveryStatus.ACKED

    def fail(self, loid):
        """Mark ``loid`` given up on (until the next rearm)."""
        self.delivery(loid).status = DeliveryStatus.FAILED

    def roll_back(self, loid):
        """Mark an acked delivery undone by a wave abort."""
        self.delivery(loid).status = DeliveryStatus.ROLLED_BACK

    def __contains__(self, loid):
        """True once ``loid`` is admitted to this propagation."""
        return loid in self._deliveries

    def pending_loids(self):
        """LOIDs still awaiting delivery."""
        return [
            entry.loid
            for entry in self._deliveries.values()
            if entry.status is DeliveryStatus.PENDING
        ]

    def count(self, status):
        """Number of deliveries in ``status``."""
        return sum(1 for entry in self._deliveries.values() if entry.status is status)

    @property
    def all_acked(self):
        """True when every admitted delivery has been acked."""
        return all(
            entry.status is DeliveryStatus.ACKED
            for entry in self._deliveries.values()
        )

    def summary(self):
        """Plain-dict view for reports and assertions."""
        summary = {
            "version": str(self.version),
            "complete": self.complete,
            "pending": self.count(DeliveryStatus.PENDING),
            "acked": self.count(DeliveryStatus.ACKED),
            "failed": self.count(DeliveryStatus.FAILED),
            "rolled_back": self.count(DeliveryStatus.ROLLED_BACK),
            "aborting": self.aborting,
            "aborted": self.aborted,
        }
        if self.stages is not None:
            summary.update(
                stages=list(self.stages),
                stage_index=self.stage_index,
                adopted=self.adopted,
                abort_reason=self.abort_reason,
            )
        return summary

    def __repr__(self):
        s = self.summary()
        flags = " ABORTED" if s["aborted"] else (" aborting" if s["aborting"] else "")
        return (
            f"<PropagationTracker v{s['version']} pending={s['pending']} "
            f"acked={s['acked']} failed={s['failed']} "
            f"rolled_back={s['rolled_back']} complete={s['complete']}{flags}>"
        )


@dataclass
class JournalEntry:
    """One write-ahead record: a kind tag plus its payload."""

    kind: str
    data: dict = field(default_factory=dict)

    def __repr__(self):
        return f"<JournalEntry {self.kind} {self.data}>"


class ManagerJournal:
    """Simulated durable storage for one DCDO Manager.

    A checkpoint (a compacted entry list) plus a tail of appended
    entries; :meth:`replay` returns both in order.  ``meta`` records
    identity facts (type name, policies) the recovery path needs before
    any entry is replayed — set once at attach time.

    The manager checkpoints on its live path
    (:meth:`~repro.core.manager.DCDOManager.write_checkpoint`): just
    before a new wave starts, once the tail holds more entries than
    the DCDO table has rows, and before a replication link ships its
    bootstrap.  The checkpoint drops settled waves and closed
    remediation intents, so the journal holds about one entry per
    instance plus at most a wave's tail.

    Durability is simulated by object lifetime: the journal is owned by
    the test/harness (the "disk"), not by the manager object that dies.
    """

    def __init__(self, name=None):
        self.name = name
        self.meta = {}
        self._checkpoint = []
        self._entries = []
        self.appends = 0
        self.checkpoints = 0
        self._checkpoint_bytes = 0
        self._tail_bytes = 0
        self._observers = []

    @property
    def entries(self):
        """Entries appended since the last checkpoint."""
        return list(self._entries)

    @property
    def bytes(self):
        """Estimated durable size: checkpoint plus appended tail."""
        return self._checkpoint_bytes + self._tail_bytes

    def subscribe(self, observer):
        """Register ``observer(event, payload)`` for journal writes.

        ``event`` is ``"append"`` (payload: the :class:`JournalEntry`)
        or ``"checkpoint"`` (payload: the new checkpoint entry list).
        Observers fire synchronously after the write lands — the hook
        hot-standby replication ships from.  Returns the observer so
        callers can hold it for :meth:`unsubscribe`.
        """
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer):
        """Remove a previously subscribed observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify(self, event, payload):
        for observer in list(self._observers):
            observer(event, payload)

    def append(self, kind, **data):
        """Append one write-ahead entry."""
        entry = JournalEntry(kind, dict(data))
        self._entries.append(entry)
        self.appends += 1
        self._tail_bytes += estimate_entry_bytes(entry)
        self._notify("append", entry)

    def write_checkpoint(self, entries):
        """Replace the checkpoint with ``entries``; truncate the log."""
        self._checkpoint = list(entries)
        self._entries = []
        self.checkpoints += 1
        self._checkpoint_bytes = sum(
            estimate_entry_bytes(entry) for entry in self._checkpoint
        )
        self._tail_bytes = 0
        self._notify("checkpoint", list(self._checkpoint))

    def replay(self):
        """All durable entries in application order."""
        return list(self._checkpoint) + list(self._entries)

    def __len__(self):
        return len(self._checkpoint) + len(self._entries)

    def __repr__(self):
        return (
            f"<ManagerJournal {self.name or '?'} checkpoint={len(self._checkpoint)} "
            f"tail={len(self._entries)}>"
        )


def recover_manager(
    runtime,
    journal,
    host_name=None,
    evolution_policy=None,
    update_policy=None,
    remove_policy=None,
    resume=True,
    skip_entries=0,
):
    """Generator: rebuild a crashed DCDO Manager from its journal.

    Constructs a fresh manager (the class LOID is deterministic, so it
    *is* the same object identity), folds the journal into it,
    re-links still-live instances and ICOs, reactivates it — new
    endpoint, bumped binding incarnation, bumped fencing term — swaps
    it into the runtime's registries, and (by default) resumes any
    propagation the crash interrupted.  Returns the recovered manager.

    Policies default to the ones recorded in the journal's ``meta``
    (policy objects are code, which survives a crash on disk); pass
    explicit policies to override.

    Replay costs :data:`REPLAY_ENTRY_S` CPU per journal entry.  A hot
    standby that already replayed a prefix of the journal as it was
    shipped passes that prefix length as ``skip_entries`` and pays only
    for the tail — the "near-instant takeover" half of the standby
    design.
    """
    from repro.core.errors import ManagerRecoveryError
    from repro.core.manager import DCDOManager

    type_name = journal.meta.get("type_name")
    if type_name is None:
        raise ValueError("journal records no manager metadata; nothing to recover")
    if host_name is not None:
        host = runtime.host(host_name)
    else:
        host = journal.meta.get("host_name")
        host = runtime.host(host) if host in runtime.hosts else None
        if host is None or not host.is_up:
            host = None
            for candidate in runtime.hosts.values():
                if candidate.is_up:
                    host = candidate
                    break
            if host is None:
                # A bare ``next()`` here would leak StopIteration out of
                # this generator (PEP 479 turns it into RuntimeError);
                # fail with a recovery error callers can act on.
                raise ManagerRecoveryError(
                    f"cannot recover manager for type {type_name!r}: "
                    f"no live host available"
                )
    if not host.is_up:
        from repro.cluster.host import HostDown

        raise HostDown(host.name, "recover_manager")
    started = runtime.sim.now
    manager = DCDOManager(
        runtime,
        type_name,
        host,
        evolution_policy=evolution_policy or journal.meta.get("evolution_policy"),
        update_policy=update_policy or journal.meta.get("update_policy"),
        remove_policy=remove_policy or journal.meta.get("remove_policy"),
    )
    unreplayed = max(0, len(journal) - max(0, skip_entries))
    if unreplayed:
        yield host.cpu_work(REPLAY_ENTRY_S * unreplayed)
    yield from manager.restore_from_journal(journal)
    manager.attach_journal(journal)
    manager.bump_term()
    yield from manager.activate()
    runtime.adopt_class(manager)
    runtime.network.count("manager.recoveries")
    runtime.network.metrics.timer("manager.recovery_time_s").record(
        runtime.sim.now - started
    )
    if resume:
        yield from manager.resume_propagations()
    return manager
