"""Invariants the test suite checks on any manager, under any fault mix.

The shadow-replay invariant: folding a manager's journal through the
reducers must rebuild exactly the durable state the live manager holds.
A live change made without recording its journal kind is lost in a
crash, and shows up here as a mismatch first.
"""

from repro.core import ManagerState


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
        (tracker.complete, tracker.aborting, tracker.aborted),
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
        "canaries": state.canaries,
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
