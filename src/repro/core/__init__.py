"""The DCDO model: the paper's primary contribution.

Public API:

- :class:`DCDO` — the dynamically configurable distributed object.
- :class:`DCDOManager` — per-type version store + instance coordinator.
- :class:`ImplementationComponentObject` — active objects serving
  component code and descriptors.
- :class:`ImplementationComponent` / :class:`ComponentBuilder` — the
  unit of replaceable implementation.
- :class:`DynamicFunctionMapper` — the per-object indirection table, in
  a :class:`DFMConfiguration` shared by every object configured alike.
- :class:`DFMDescriptor` — manager-side version definitions.
- :class:`VersionId` / :class:`VersionTree` — §2.1 version identifiers.
- :class:`Dependency` — §3.2 function dependencies (types A-D).
- :class:`Marking` — fully-dynamic / mandatory / permanent.
- :class:`RemovePolicy` — thread-activity removal behaviour.
- :mod:`repro.core.policies` — evolution management strategies.
"""

from repro.core.analysis import (
    annotate_component,
    check_closure,
    derive_structural_dependencies,
)
from repro.core.component import (
    ComponentBuilder,
    ComponentVariant,
    ImplementationComponent,
    content_digest,
)
from repro.core.dcdo import (
    DCDO,
    DynamicCallContext,
    EvolutionPhase,
    EvolutionTransaction,
    RemoveMode,
    RemovePolicy,
)
from repro.core.dependency import Dependency
from repro.core.descriptor import (
    ComponentRef,
    ConfigurationDiff,
    DescriptorEntry,
    DFMDescriptor,
    diff_descriptors,
)
from repro.core.dfm import (
    DFMConfiguration,
    DFMEntry,
    DynamicFunctionMapper,
    IncorporatedComponent,
)
from repro.core.errors import (
    AmbiguousFunction,
    ComponentAlreadyIncorporated,
    ComponentBusy,
    ComponentNotIncorporated,
    DCDOError,
    DependencyViolation,
    EvolutionDisallowed,
    FunctionNotEnabled,
    FunctionNotExported,
    IncompatibleImplementationType,
    MandatoryViolation,
    ManagerRecoveryError,
    MarkingConflict,
    PermanenceViolation,
    RollbackFailed,
    UnknownVersion,
    VersionNotConfigurable,
    VersionNotInstantiable,
    WaveAborted,
)
from repro.core.functions import FunctionDef, Marking
from repro.core.ico import ImplementationComponentObject
from repro.core.impltype import NATIVE, ImplementationType
from repro.core.manager import (
    DCDOManager,
    ManagerState,
    VersionRecord,
    WaveMode,
    WavePolicy,
    define_dcdo_type,
)
from repro.core.policies.canary import (
    CanaryOutcome,
    CanaryWavePolicy,
    run_canary_wave,
)
from repro.core.recovery import (
    Delivery,
    DeliveryStatus,
    ManagerJournal,
    PropagationTracker,
    estimate_entry_bytes,
    recover_manager,
)
from repro.core.replication import ReplicationLink, StandbyReplica
from repro.core.stub import DCDOStub, InterfaceCache
from repro.core.version import VersionId, VersionTree

__all__ = [
    "AmbiguousFunction",
    "CanaryOutcome",
    "CanaryWavePolicy",
    "run_canary_wave",
    "ComponentAlreadyIncorporated",
    "ComponentBuilder",
    "ComponentBusy",
    "ComponentNotIncorporated",
    "ComponentRef",
    "ComponentVariant",
    "ConfigurationDiff",
    "DCDO",
    "DCDOError",
    "DCDOManager",
    "DCDOStub",
    "InterfaceCache",
    "DFMConfiguration",
    "DFMDescriptor",
    "DFMEntry",
    "Dependency",
    "Delivery",
    "DeliveryStatus",
    "DependencyViolation",
    "DescriptorEntry",
    "DynamicCallContext",
    "DynamicFunctionMapper",
    "EvolutionDisallowed",
    "EvolutionPhase",
    "EvolutionTransaction",
    "FunctionDef",
    "FunctionNotEnabled",
    "FunctionNotExported",
    "ImplementationComponent",
    "ImplementationComponentObject",
    "ImplementationType",
    "IncompatibleImplementationType",
    "IncorporatedComponent",
    "ManagerJournal",
    "ManagerState",
    "MandatoryViolation",
    "Marking",
    "MarkingConflict",
    "NATIVE",
    "ManagerRecoveryError",
    "PermanenceViolation",
    "PropagationTracker",
    "RemoveMode",
    "RemovePolicy",
    "ReplicationLink",
    "RollbackFailed",
    "StandbyReplica",
    "UnknownVersion",
    "VersionId",
    "VersionNotConfigurable",
    "VersionNotInstantiable",
    "content_digest",
    "VersionRecord",
    "VersionTree",
    "WaveAborted",
    "WaveMode",
    "WavePolicy",
    "annotate_component",
    "check_closure",
    "define_dcdo_type",
    "estimate_entry_bytes",
    "recover_manager",
    "derive_structural_dependencies",
    "diff_descriptors",
]
