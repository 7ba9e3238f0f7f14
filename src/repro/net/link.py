"""Per-host network ports.

A :class:`Port` models one host's full-duplex connection to the
switch: an egress transmitter serialized at the port's bandwidth, and
an ingress side that hands each delivered message to one callable, its
:attr:`~Port.receiver`.  An endpoint installs its receive method there
and dispatches by callback; a bare port (no endpoint) buffers in its
:attr:`~Port.inbox` queue for a process to drain.  Transmissions from
different hosts never contend (switched Ethernet), but messages leaving
one host go out one at a time in FIFO order.

Egress serialization is *computed*, not simulated: instead of parking
a process on a semaphore for the duration of each transmission, the
port tracks the instant its transmitter next falls idle and hands the
fabric a departure time directly.  Reservation order equals send
order, so the FIFO behaviour of the old semaphore model is preserved
exactly — without two kernel events and a process per message.
"""

from repro.sim import Queue


class Port:
    """One endpoint's attachment to the network fabric.

    Parameters
    ----------
    sim:
        The owning simulator.
    address:
        The endpoint address this port serves.
    bandwidth_bps:
        Egress bandwidth in *bytes* per second.
    """

    __slots__ = (
        "_sim",
        "_address",
        "_bandwidth_bps",
        "_egress_free_at",
        "_inbox",
        "receiver",
        "slowdown",
        "bytes_sent",
        "bytes_received",
        "messages_sent",
        "messages_received",
    )

    def __init__(self, sim, address, bandwidth_bps):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self._sim = sim
        self._address = address
        self._bandwidth_bps = float(bandwidth_bps)
        self._egress_free_at = 0.0
        self._inbox = None
        #: ``receiver(message)`` takes every delivered message; None
        #: means the port is bare and buffers in :attr:`inbox`.
        self.receiver = None
        # Egress degradation multiplier (>= 1.0); a limping NIC
        # serializes this many times slower than its rated bandwidth.
        self.slowdown = 1.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def address(self):
        """The endpoint address this port serves."""
        return self._address

    @property
    def bandwidth_bps(self):
        """Egress bandwidth in bytes per second."""
        return self._bandwidth_bps

    @property
    def inbox(self):
        """Queue buffering a bare port's deliveries (built on first use)."""
        if self._inbox is None:
            self._inbox = Queue(self._sim, name=f"{self._address}.inbox")
        return self._inbox

    def transmission_time(self, wire_bytes):
        """Seconds this port's transmitter is busy sending ``wire_bytes``."""
        return wire_bytes * self.slowdown / self._bandwidth_bps

    def reserve_egress(self, wire_bytes, now):
        """Reserve the transmitter for ``wire_bytes``; returns departure time.

        The transmission starts when the port falls idle (or ``now``,
        whichever is later) and occupies the transmitter for the wire
        time.  Back-to-back reservations therefore serialize exactly
        like the semaphore-held transmit they replace.
        """
        start = self._egress_free_at
        if start < now:
            start = now
        departure = start + wire_bytes * self.slowdown / self._bandwidth_bps
        self._egress_free_at = departure
        self.bytes_sent += wire_bytes
        self.messages_sent += 1
        return departure

    def deliver(self, message):
        """Hand a fully-propagated message to the receiver (or inbox)."""
        self.bytes_received += message.wire_bytes
        self.messages_received += 1
        if self.receiver is None:
            self.inbox.put_nowait(message)
        else:
            self.receiver(message)

    def __repr__(self):
        return f"<Port {self._address} rx={self.messages_received} tx={self.messages_sent}>"
