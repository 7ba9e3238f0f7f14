"""Invariants the test suite checks on any manager, under any fault mix.

Each is stated once here, and every chaos sweep checks all of them, at
heal and at the end of each seed.  The *authority* is the manager the
runtime registers for the type (``runtime.class_of(type_name)``).

- *Never-half-applied:* every live, idle, configured instance's DFM is
  functionally equivalent to the descriptor of the version it reports
  (§2.1): fully one version, never a blend.
- *Exactly-once:* no instance applies any version more than
  ``max_applications`` times.
- *Term fencing:* no instance has observed a term above the
  authority's.
- *Single ownership:* the authority is active and not deposed; every
  active record holds the runtime's one live incarnation, and that
  incarnation is active; the convergence guard recorded no violation;
  no remediation intent of an older term is open.
- *Table agreement* (§2.4), checked at the end of a run only: every
  active record whose incarnation is configured and not mid-apply runs
  the version its DCDO-table row records.
- *Shadow replay:* folding the authority's journal through the reducers
  rebuilds exactly the durable state it holds.  A live change made
  without recording its journal kind is lost in a crash, and shows up
  here as a mismatch first.
"""

import itertools
import os
from contextlib import contextmanager

from repro.cluster import convergence_guard
from repro.core import DCDOManager, EvolutionPhase, ManagerState


def _descriptor_content(descriptor):
    return (
        descriptor.component_refs(),
        sorted(
            (entry.function, entry.component_id, entry.enabled, entry.exported)
            for component_id in descriptor.component_ids
            for entry in descriptor.entries_in(component_id)
        ),
        dict(descriptor.markings_items()),
        {name: descriptor.pin(name) for name in descriptor.function_names()},
        descriptor.dependencies,
    )


def _tracker_content(tracker):
    return (
        [(delivery.loid, delivery.status) for delivery in tracker.deliveries()],
        tracker.prior_versions,
        tracker.wave_policy,
        (tracker.complete, tracker.aborting, tracker.aborted, tracker.abort_reason),
        (tracker.stages, tracker.bake_s, tracker.stage_index, tracker.adopted),
    )


def durable_view(state):
    """A :class:`ManagerState` as comparable values, host hints left out.

    Descriptors compare by content, trackers by delivery status; the
    per-delivery diagnostics the live manager stamps are not state.
    """
    return {
        "term": state.term,
        "components": {
            component_id: (component.component_id, ico_loid)
            for component_id, (component, ico_loid) in state.components.items()
        },
        "versions": state.version_tree.known_versions,
        "dfm_store": {
            version: (record.parent, _descriptor_content(record.descriptor))
            for version, record in state.dfm_store.items()
        },
        "current_version": state.current_version,
        "instance_versions": state.instance_versions,
        "propagations": {
            version: _tracker_content(tracker)
            for version, tracker in state.propagations.items()
        },
        "remediation_lease": state.remediation_lease,
        "remediations": state.remediations,
    }


def replay_mismatch(manager):
    """Why folding ``manager``'s journal misses its live state, or None."""
    live = durable_view(manager.durable_state)
    replayed = durable_view(ManagerState.fold(manager.journal.replay()))
    differing = [key for key in live if live[key] != replayed[key]]
    if not differing:
        return None
    return f"{manager.type_name} (term {manager.term}): " + "; ".join(
        f"{key}: live {live[key]!r} != replayed {replayed[key]!r}"
        for key in differing
    )


def assert_replay_matches(manager):
    """The journal's fold equals ``manager``'s live durable state."""
    mismatch = replay_mismatch(manager)
    assert mismatch is None, f"shadow replay differs: {mismatch}"


@contextmanager
def replay_sampling(every):
    """Fold the journal after every ``every``-th journaled record.

    Yields the list of mismatches found.  They are collected rather
    than raised inside the manager, so no handler in the code under
    test can swallow them.
    """
    record = DCDOManager._record
    journaled = itertools.count(1)
    mismatches = []

    def checked_record(manager, kind, **fields):
        record(manager, kind, **fields)
        if manager.journal is not None and next(journaled) % every == 0:
            mismatch = replay_mismatch(manager)
            if mismatch is not None:
                mismatches.append(f"after {kind!r}: {mismatch}")

    DCDOManager._record = checked_record
    try:
        yield mismatches
    finally:
        DCDOManager._record = record


def chaos_seeds(default):
    """A sweep's seeds: ``default`` plus ``CHAOS_EXTRA_SEEDS`` (env)."""
    return range(default + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0")))


def _enabled(descriptor):
    """A descriptor's enabled ``function:component`` pairs, sorted."""
    return sorted(
        f"{entry.function}:{entry.component_id}"
        for component_id in descriptor.component_ids
        for entry in descriptor.entries_in(component_id)
        if entry.enabled
    )


def _incarnations(runtime, authority):
    """``(loid, obj)`` for every active incarnation of the authority's
    instances: the one its record holds and the runtime's, if another."""
    for loid in authority.instance_loids():
        record = authority.record(loid)
        seen = []
        for obj in (record.obj if record.active else None, runtime.live_object(loid)):
            if obj is not None and obj.is_active and obj.host.is_up and not any(
                obj is other for other in seen
            ):
                seen.append(obj)
                yield loid, obj


def assert_instance_invariants(runtime, type_name, context, max_applications=1):
    """Never-half-applied, exactly-once and term fencing, on every
    active incarnation of the type's instances.

    Safe mid-run: an instance with a configuration transaction in
    flight, or rebuilt and not yet configured, is not half of anything.
    """
    authority = runtime.class_of(type_name)
    for loid, obj in _incarnations(runtime, authority):
        settled = obj.evolution_phase is EvolutionPhase.IDLE
        if settled and obj.version is not None:
            expected = authority.descriptor_of(obj.version, allow_instantiable=True)
            actual = obj.dfm.to_descriptor()
            assert actual.functionally_equivalent(expected), (
                f"{context}: {loid} reports {obj.version} but enables "
                f"{_enabled(actual)}, not {_enabled(expected)} (half-applied)"
            )
        for version, count in obj.applications_by_version.items():
            assert count <= max_applications, (
                f"{context}: {loid} applied {version} {count} times"
            )
        assert (obj.observed_manager_term or 0) <= authority.term, (
            f"{context}: {loid} observed term {obj.observed_manager_term} "
            f"above the authority's {authority.term}"
        )


def assert_invariants(runtime, type_name, context, max_applications=1):
    """Every invariant: the instance ones, single ownership, table
    agreement, replay."""
    assert_instance_invariants(runtime, type_name, context, max_applications)
    authority = runtime.class_of(type_name)
    assert authority.is_active and not authority.deposed, (
        f"{context}: no live authority for {type_name}"
    )
    for loid in authority.instance_loids():
        record = authority.record(loid)
        if record.active:
            live = runtime.live_object(loid)
            assert record.obj is live and live.is_active, (
                f"{context}: the authority's record of {loid} holds {record.obj}, "
                f"the runtime {live}"
            )
            if live.version is not None and live.evolution_phase is EvolutionPhase.IDLE:
                row = authority.instance_version(loid)
                assert live.version == row, (
                    f"{context}: {loid} runs {live.version} but its table row "
                    f"says {row}"
                )
    guard = convergence_guard(runtime)
    assert guard.violations == 0, (
        f"{context}: {guard.violations} convergence-guard violations"
    )
    stale = [
        record["intent_id"]
        for record in authority.open_remediations()
        if record["term"] < authority.term
    ]
    assert not stale, f"{context}: open intents of an older term: {stale}"
    if authority.journal is not None:
        assert_replay_matches(authority)
