"""Simulated network: messages, links, fabric, and reliable transport.

The model is a switched LAN in the style of the paper's testbed (100
Mbps switched Ethernet): every host has its own full-duplex port into
the switch, so transmissions from different hosts do not contend, while
messages from one host serialize on its egress port.  Message delivery
time is ``propagation latency + size / bandwidth``.

Fault injection (drops and partitions) is built into the fabric so
tests can exercise timeout/retry behaviour in the layers above.
"""

from repro.net.fabric import Network, NetworkStats
from repro.net.faults import (
    DROP,
    DropRule,
    DuplicateRule,
    FaultPlan,
    LinkFlap,
    OneWayPartition,
    Partition,
    PrefixPartition,
    ReorderRule,
    SlowLink,
)
from repro.net.link import Port
from repro.net.message import ManagerTerm, Message, next_message_id
from repro.net.retry import (
    DEFAULT_REQUEST_RETRY,
    CircuitBreaker,
    CircuitState,
    RetryPolicy,
    RttEstimator,
)
from repro.net.transport import (
    CircuitOpen,
    Endpoint,
    RemoteError,
    RequestTimeout,
    TransportError,
    run_windowed,
)

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "CircuitState",
    "DEFAULT_REQUEST_RETRY",
    "DROP",
    "DropRule",
    "DuplicateRule",
    "Endpoint",
    "FaultPlan",
    "LinkFlap",
    "ManagerTerm",
    "Message",
    "Network",
    "NetworkStats",
    "OneWayPartition",
    "Partition",
    "Port",
    "PrefixPartition",
    "RemoteError",
    "ReorderRule",
    "RequestTimeout",
    "RttEstimator",
    "SlowLink",
    "TransportError",
    "RetryPolicy",
    "next_message_id",
    "run_windowed",
]
