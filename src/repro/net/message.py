"""Network messages.

A :class:`Message` is the unit of transfer on the simulated fabric.
Sizes are explicit (in bytes) because transfer time — not content — is
what the reproduction measures; payloads are ordinary Python objects
and are never serialized for real.
"""

import itertools
from dataclasses import dataclass, field

_message_counter = itertools.count(1)

# Fixed per-message framing overhead, roughly Ethernet + IP + UDP
# headers plus the Legion message header.  Charged on every transfer so
# that zero-payload control messages still cost wire time.
HEADER_BYTES = 128


def next_message_id():
    """Return a fresh globally unique message id."""
    return next(_message_counter)


@dataclass(frozen=True, slots=True)
class ManagerTerm:
    """A fencing token for management traffic.

    ``scope`` names the coordination domain (for DCDO traffic, the
    managed type name) and ``number`` is the monotonically increasing
    term of the coordinator that stamped the message.  Receivers track
    the highest number seen per scope and reject anything lower, so a
    deposed primary that heals from a partition cannot disturb state a
    newer primary already owns.
    """

    scope: str
    number: int

    def __repr__(self):
        return f"<ManagerTerm {self.scope}#{self.number}>"


@dataclass(slots=True)
class Message:
    """A single message in flight on the network.

    Attributes
    ----------
    source:
        Address string of the sending endpoint.
    destination:
        Address string of the receiving endpoint.
    payload:
        Arbitrary Python object carried by the message.
    size_bytes:
        Logical payload size used for transmission-time accounting.
    kind:
        Free-form tag (``"request"``, ``"reply"``, ``"oneway"``) used by
        the transport layer and by fault-injection predicates.
    correlation_id:
        For replies, the id of the request being answered.
    term:
        Optional :class:`ManagerTerm` fencing token.  ``None`` (the
        default) means unfenced traffic; receivers skip the term check.
    horizon:
        For requests, the sender's completion horizon: the id of its
        oldest request attempt still waiting for a reply, or this
        message's own id when no older attempt is waiting.  Message ids
        only grow, so every id the sender used below its horizon is
        settled, and a server refuses a request below it.  ``0`` (the
        default) settles nothing.
    """

    source: str
    destination: str
    payload: object
    size_bytes: int = 0
    kind: str = "oneway"
    correlation_id: int = 0
    term: object = None
    horizon: int = 0
    message_id: int = field(default_factory=next_message_id)

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")

    @property
    def wire_bytes(self):
        """Bytes that occupy the wire: payload plus framing overhead."""
        return self.size_bytes + HEADER_BYTES

    def reply_to(self, payload, size_bytes=0, kind="reply"):
        """Build a reply message addressed back to this message's sender."""
        return Message(
            source=self.destination,
            destination=self.source,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            correlation_id=self.message_id,
        )

    def __repr__(self):
        return (
            f"<Message #{self.message_id} {self.kind} "
            f"{self.source}->{self.destination} {self.size_bytes}B>"
        )
