"""Hosts: the machines Legion objects run on.

A :class:`Host` models one testbed node: it has an architecture tag
(used by implementation types), a CPU-speed factor, a network port, a
local file cache, and a table of running :class:`HostProcess` entries —
one per active Legion object hosted there.

Process creation is where object-activation cost lives: spawning a
process charges the calibrated ``process_spawn_s``.
"""

import itertools

from repro.cluster.filecache import FileCache
from repro.sim.errors import SimulationError

_process_counter = itertools.count(1)


class HostDown(SimulationError):
    """An operation was attempted on a crashed host."""

    def __init__(self, host_name, operation):
        super().__init__(f"host {host_name!r} is down ({operation})")
        self.host_name = host_name
        self.operation = operation


class HostProcess:
    """One OS process on a host, backing one active Legion object."""

    __slots__ = ("pid", "host", "owner_loid", "alive")

    def __init__(self, host, owner_loid):
        self.pid = next(_process_counter)
        self.host = host
        self.owner_loid = owner_loid
        self.alive = True

    def kill(self):
        """Terminate the process (its object becomes unreachable)."""
        self.alive = False
        self.host._reap(self)

    def __repr__(self):
        state = "alive" if self.alive else "dead"
        return f"<HostProcess pid={self.pid} on {self.host.name} {state}>"


class Host:
    """A simulated machine.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique host name; also its base network address.
    calibration:
        The cost model in effect.
    architecture:
        Architecture tag matched against implementation types.
    cpu_factor:
        Relative CPU speed; simulated CPU work divides by this.
    rng:
        Deterministic RNG used for cost jitter.
    """

    def __init__(self, sim, name, calibration, architecture="x86-linux", cpu_factor=1.0, rng=None):
        if cpu_factor <= 0:
            raise ValueError(f"cpu_factor must be positive, got {cpu_factor}")
        self._sim = sim
        self._name = name
        self._calibration = calibration
        self._architecture = architecture
        self._cpu_factor = cpu_factor
        self._rng = rng
        self._processes = {}
        self._network = None
        self._up = True
        self._incarnation = 1
        self._limp_factor = 1.0
        self._blob_fills = {}
        self.cache = FileCache(name=f"{name}.cache")
        self.processes_spawned = 0
        self.crash_count = 0
        self.last_crash_at = None
        self.last_restart_at = None
        #: Cumulative seconds spent down (closed outages only); an
        #: availability ledger for MTTR-style reporting.
        self.total_downtime_s = 0.0

    @property
    def sim(self):
        """The owning simulator."""
        return self._sim

    @property
    def name(self):
        """Unique host name."""
        return self._name

    @property
    def calibration(self):
        """The cost model in effect on this host."""
        return self._calibration

    @property
    def architecture(self):
        """Architecture tag for implementation-type matching."""
        return self._architecture

    @property
    def processes(self):
        """Mapping of pid -> live :class:`HostProcess`."""
        return dict(self._processes)

    @property
    def is_up(self):
        """False between :meth:`crash` and :meth:`restart`."""
        return self._up

    @property
    def incarnation(self):
        """Monotonic boot counter; bumps on every :meth:`restart`."""
        return self._incarnation

    def attach_network(self, network):
        """Wire the fabric in so a crash can sever this host's endpoints."""
        self._network = network
        self.cache.bind_counters(network.metrics)

    # ------------------------------------------------------------------
    # Single-flight blob fills (content-addressed component cache)
    # ------------------------------------------------------------------

    def blob_fill_gate(self, blob_id):
        """Claim (or join) the in-flight fill of ``blob_id``.

        Returns ``(leader, gate)``: the first caller per blob becomes
        the leader (it fetches and inserts), everyone else gets the
        same gate event to wait on.  With many colocated instances
        evolving at once, this is what turns O(instances) redundant ICO
        downloads into one network crossing per host.  A waiter must
        re-check the cache after the gate fires — the leader may have
        failed, in which case the waiter claims leadership itself.
        """
        if not self._up:
            raise HostDown(self._name, "blob_fill_gate")
        gate = self._blob_fills.get(blob_id)
        if gate is not None:
            return False, gate
        gate = self._sim.event(name=f"{self._name}.fill:{blob_id}")
        self._blob_fills[blob_id] = gate
        return True, gate

    def blob_fill_done(self, blob_id):
        """Release the fill gate for ``blob_id`` (success or failure).

        Leaders call this from a ``finally`` so a failed fetch wakes
        the waiters — one of them re-checks and takes over.
        """
        gate = self._blob_fills.pop(blob_id, None)
        if gate is not None and not gate.triggered:
            gate.succeed(None)

    def blob_fills_in_flight(self):
        """Blob ids currently being filled (introspection for tests)."""
        return sorted(self._blob_fills)

    def process_for(self, loid):
        """The live process backing ``loid``, or None."""
        for process in self._processes.values():
            if process.owner_loid == loid:
                return process
        return None

    # ------------------------------------------------------------------
    # Crash faults
    # ------------------------------------------------------------------

    def crash(self):
        """Fail-stop the host *now*: every process dies, every endpoint
        attached under ``{name}/`` is closed, all in-flight and future
        traffic to this host is lost.  Idempotent while down.

        This is the machine-level act only — object-table bookkeeping
        (deactivating :class:`InstanceRecord`s, rebinding) belongs to
        the runtime layer (see :mod:`repro.cluster.chaos`).
        """
        if not self._up:
            return
        self._up = False
        self.crash_count += 1
        self.last_crash_at = self._sim.now
        for process in list(self._processes.values()):
            process.alive = False
        self._processes.clear()
        # Wake any fill waiters so their generators run on and observe
        # the crash (closed endpoints) instead of dangling on a gate
        # whose leader died with the machine.
        fills, self._blob_fills = self._blob_fills, {}
        for gate in fills.values():
            if not gate.triggered:
                gate.succeed(None)
        if self._network is not None:
            self._network.close_endpoints_with_prefix(f"{self._name}/")
            self._network.count("host.crashes")

    def restart(self):
        """Boot the host again under a new incarnation.

        Memory is gone: the process table starts empty and nothing is
        reattached to the fabric — recovery code reactivates objects
        explicitly (fresh endpoints, fresh addresses).  The file cache
        and vault survive, like a real disk across a reboot.
        """
        if self._up:
            raise SimulationError(f"host {self._name!r} is already up")
        self._up = True
        self._incarnation += 1
        self.last_restart_at = self._sim.now
        if self.last_crash_at is not None:
            self.total_downtime_s += self._sim.now - self.last_crash_at
        if self._network is not None:
            self._network.count("host.restarts")
        return self._incarnation

    def _jitter(self, value):
        if self._rng is None:
            return value
        return self._rng.jitter(f"host:{self._name}", value, self._calibration.coarse_jitter)

    # ------------------------------------------------------------------
    # Gray faults: the limping host
    # ------------------------------------------------------------------

    @property
    def limp_factor(self):
        """Service-time multiplier; 1.0 means healthy."""
        return self._limp_factor

    def set_limp(self, factor, slow_nic=False):
        """Degrade this host: CPU work takes ``factor`` times longer.

        Unlike :meth:`crash`, a limping host stays up and keeps
        answering — just slowly.  That asymmetry (alive but late) is
        the gray failure the adaptive layers must distinguish from
        death.  With ``slow_nic`` the degradation also covers the NIC:
        egress serialization on every current and future port under
        this host's prefix slows by the same factor.
        """
        if factor < 1.0:
            raise ValueError(f"limp factor must be >= 1.0, got {factor}")
        self._limp_factor = factor
        if self._network is not None:
            if factor > 1.0:
                self._network.count("host.limps")
            if slow_nic or factor == 1.0:
                self._network.set_egress_slowdown(f"{self._name}/", factor)

    def clear_limp(self):
        """Restore healthy service times (and NIC, if it was slowed)."""
        self.set_limp(1.0)

    def cpu_work(self, seconds):
        """Return a timeout event charging ``seconds`` of CPU time.

        The charge scales inversely with the host's CPU factor, so the
        same work is faster on a faster machine — and inflates by the
        limp factor while the host is degraded.
        """
        if seconds < 0:
            raise ValueError(f"cpu work must be >= 0, got {seconds}")
        return self._sim.timeout(seconds * self._limp_factor / self._cpu_factor)

    def spawn_process(self, owner_loid):
        """Process body: create an OS process for a Legion object.

        Charges the calibrated process-creation cost and returns the
        new :class:`HostProcess`.  Drive with ``yield from``.
        """
        if not self._up:
            raise HostDown(self._name, "spawn_process")
        yield self.cpu_work(self._jitter(self._calibration.process_spawn_s))
        if not self._up:
            # Crashed while the spawn was in flight.
            raise HostDown(self._name, "spawn_process")
        process = HostProcess(self, owner_loid)
        self._processes[process.pid] = process
        self.processes_spawned += 1
        return process

    def _reap(self, process):
        self._processes.pop(process.pid, None)

    def __repr__(self):
        state = "up" if self._up else "down"
        return (
            f"<Host {self._name} arch={self._architecture} "
            f"procs={len(self._processes)} {state} inc={self._incarnation}>"
        )


class CrashPlan:
    """Declarative schedule of host crashes and restarts.

    Mirrors :class:`~repro.net.faults.FaultPlan` for machine faults:
    tests declare *when* hosts die and come back, then run the
    simulation.  Each entry becomes a simulator process, so crashes
    interleave with whatever workload is running.

    ``on_crash`` / ``on_restart`` hooks (``hook(host)``; a generator
    return value is driven to completion) let higher layers reconcile —
    e.g. the chaos harness deactivates the dead host's object records
    on crash and replays the manager journal on restart.
    """

    def __init__(self, sim, on_crash=None, on_restart=None):
        self._sim = sim
        self._on_crash = on_crash
        self._on_restart = on_restart
        self.crashes_fired = 0
        self.restarts_fired = 0

    def schedule_crash(self, host, at):
        """Crash ``host`` at simulated time ``at``."""
        if at < self._sim.now:
            raise ValueError(f"cannot schedule a crash in the past ({at} < {self._sim.now})")
        return self._sim.spawn(
            self._fire(host, at, crash=True), name=f"crash:{host.name}@{at:g}"
        )

    def schedule_restart(self, host, at):
        """Restart ``host`` at simulated time ``at``."""
        if at < self._sim.now:
            raise ValueError(f"cannot schedule a restart in the past ({at} < {self._sim.now})")
        return self._sim.spawn(
            self._fire(host, at, crash=False), name=f"restart:{host.name}@{at:g}"
        )

    def schedule_outage(self, host, crash_at, restart_at):
        """Crash then restart ``host`` (restart must come after crash)."""
        if restart_at <= crash_at:
            raise ValueError(
                f"restart_at must be after crash_at ({restart_at} <= {crash_at})"
            )
        self.schedule_crash(host, crash_at)
        self.schedule_restart(host, restart_at)

    def _fire(self, host, at, crash):
        yield self._sim.timeout(at - self._sim.now)
        if crash:
            host.crash()
            self.crashes_fired += 1
            hook = self._on_crash
        else:
            host.restart()
            self.restarts_fired += 1
            hook = self._on_restart
        if hook is not None:
            result = hook(host)
            if result is not None and hasattr(result, "__next__"):
                yield from result
