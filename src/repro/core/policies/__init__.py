"""Evolution management strategies (§3.3-3.5).

Two orthogonal axes, composed by the DCDO Manager:

- An :class:`EvolutionPolicy` defines *which version transitions are
  legal* — the single-version style (§3.4) and the multi-version
  styles (§3.5: no-update, increasing-version-number, general
  evolution, and the hybrid rule-checking variant).
- An :class:`UpdatePolicy` defines *when instances are brought to a
  new version* — proactive, explicit, or lazy (every call, every k
  calls, every t time units, or on migration).

"Slight variations of the proactive, explicit, and lazy update
policies can be implemented" within the multi-version styles (§3.5);
this composition is exactly that.
"""

from repro.core.policies.base import EvolutionPolicy, UpdatePolicy
from repro.core.policies.canary import (
    CanaryOutcome,
    CanaryWavePolicy,
    run_canary_wave,
)
from repro.core.policies.evolution import (
    GeneralEvolutionPolicy,
    HybridEvolutionPolicy,
    IncreasingVersionPolicy,
    NoUpdatePolicy,
    SingleVersionPolicy,
)
from repro.core.policies.remediation import (
    REMEDIATION_POLICIES,
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    PrewarmBlobCaches,
    RemediationIntent,
    RemediationPolicy,
    default_remediation_policies,
    register_remediation_policy,
)
from repro.core.policies.update import (
    ExplicitUpdatePolicy,
    LazyUpdatePolicy,
    ProactiveUpdatePolicy,
    ReliableUpdatePolicy,
)

__all__ = [
    "CanaryOutcome",
    "CanaryWavePolicy",
    "DemoteDegradedVersion",
    "EvolutionPolicy",
    "ExplicitUpdatePolicy",
    "GeneralEvolutionPolicy",
    "HybridEvolutionPolicy",
    "IncreasingVersionPolicy",
    "LazyUpdatePolicy",
    "MigrateOffFlakyHost",
    "NoUpdatePolicy",
    "PrewarmBlobCaches",
    "ProactiveUpdatePolicy",
    "REMEDIATION_POLICIES",
    "ReliableUpdatePolicy",
    "RemediationIntent",
    "RemediationPolicy",
    "SingleVersionPolicy",
    "UpdatePolicy",
    "default_remediation_policies",
    "register_remediation_policy",
]
