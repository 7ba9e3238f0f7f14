"""The Legion runtime facade.

:class:`LegionRuntime` wires a :class:`~repro.cluster.testbed.Testbed`
into a running Legion system: binding agent, implementation store,
context space, and the registry of class objects and live instances.
Everything the examples and benchmarks touch goes through this facade.
"""

from repro.legion.binding import BindingAgent, BindingCache
from repro.legion.context_service import ContextService, lookup_path
from repro.legion.errors import UnknownObject
from repro.legion.implementation import ImplementationStore
from repro.legion.klass import ClassObject
from repro.legion.rpc import MethodInvoker


class Client:
    """A pure client: an endpoint + invoker not backed by an object.

    Used by tests, examples, and benchmarks to play the role of "some
    other object in the system" calling into the objects under test.
    """

    _counter = 0

    def __init__(self, runtime, host, name=None):
        Client._counter += 1
        self._runtime = runtime
        self._host = host
        address = name or f"{host.name}/client#{Client._counter}"
        from repro.net import Endpoint

        self.endpoint = Endpoint(runtime.network, address)
        self.binding_cache = BindingCache()
        self.invoker = MethodInvoker(
            self.endpoint, self.binding_cache, runtime.calibration, rng=runtime.rng
        )

    @property
    def sim(self):
        """The simulator."""
        return self._runtime.sim

    def invoke(self, loid, method, *args, timeout_schedule=None, hedge=False):
        """Generator: remote method invocation (see MethodInvoker)."""
        return self.invoker.invoke(
            loid, method, args, timeout_schedule=timeout_schedule, hedge=hedge
        )

    def call_sync(self, loid, method, *args, timeout_schedule=None):
        """Run a single invocation to completion from outside a process.

        Convenience for tests: spawns a driver process and runs the
        simulator until the result is available.
        """
        return self._runtime.sim.run_process(
            self.invoke(loid, method, *args, timeout_schedule=timeout_schedule)
        )

    def lookup_path(self, path):
        """Generator: resolve a context path to a LOID over the network."""
        return lookup_path(self.endpoint, path)

    def lookup_path_sync(self, path):
        """Resolve a context path to completion (test/driver helper)."""
        return self._runtime.sim.run_process(self.lookup_path(path))


class LegionRuntime:
    """A running Legion system on a simulated testbed.

    Parameters
    ----------
    testbed:
        The cluster to run on.
    domain:
        Administrative domain used in LOIDs.
    """

    def __init__(self, testbed, domain="legion"):
        self._testbed = testbed
        self._domain = domain
        self.binding_agent = BindingAgent(testbed.network)
        self.implementation_store = ImplementationStore(self)
        self.context_service = ContextService(testbed.network)
        self._classes = {}
        self._objects = {}
        # Host name -> {loid: obj} in attach order.  Lets per-host
        # agents (relays serving announcement waves) enumerate their
        # colocated objects without an O(total objects) scan; kept in
        # sync by :meth:`attach_object` and migration's ``moved_to``.
        self._objects_by_host = {}

    @property
    def context_space(self):
        """The global name space (local view; remote objects use the
        context service's network interface)."""
        return self.context_service.space

    # ------------------------------------------------------------------
    # Substrate accessors
    # ------------------------------------------------------------------

    @property
    def testbed(self):
        """The underlying cluster."""
        return self._testbed

    @property
    def sim(self):
        """The simulator."""
        return self._testbed.sim

    @property
    def network(self):
        """The network fabric."""
        return self._testbed.network

    @property
    def calibration(self):
        """The cost model."""
        return self._testbed.calibration

    @property
    def rng(self):
        """The deterministic RNG."""
        return self._testbed.rng

    @property
    def domain(self):
        """LOID domain for this runtime."""
        return self._domain

    @property
    def hosts(self):
        """Host name -> Host."""
        return self._testbed.hosts

    def host(self, name):
        """Return the named host; raises ``KeyError`` if unknown."""
        return self._testbed.hosts[name]

    def vault_of(self, host):
        """The vault co-located with ``host``."""
        return self._testbed.vaults[host.name]

    # ------------------------------------------------------------------
    # Classes and objects
    # ------------------------------------------------------------------

    def define_class(
        self,
        type_name,
        implementations=(),
        instance_factory=None,
        host_name=None,
        class_factory=None,
    ):
        """Create, publish, and activate a class object for ``type_name``.

        ``class_factory`` lets callers substitute a :class:`ClassObject`
        subclass (the DCDO Manager does this); it must accept the same
        leading arguments.
        """
        if type_name in self._classes:
            raise ValueError(f"class {type_name!r} already defined")
        host = self.host(host_name) if host_name else next(iter(self.hosts.values()))
        for implementation in implementations:
            self.implementation_store.publish(implementation)
        factory = class_factory or ClassObject
        class_object = factory(
            self,
            type_name,
            host,
            implementations=implementations,
            instance_factory=instance_factory,
        )
        self.sim.run_process(class_object.activate())
        self._classes[type_name] = class_object
        self._objects[class_object.loid] = class_object
        self._index_on_host(class_object, class_object.host.name)
        self.context_space.bind(f"/classes/{type_name}", class_object.loid)
        return class_object

    def classes(self):
        """All defined class objects, in definition order."""
        return list(self._classes.values())

    def class_of(self, type_name):
        """Return the class object for ``type_name``."""
        class_object = self._classes.get(type_name)
        if class_object is None:
            raise UnknownObject(f"no class {type_name!r} defined")
        return class_object

    def adopt_class(self, class_object):
        """Swap in a recovered class object for its type.

        Used by crash recovery: the replacement shares the crashed
        manager's deterministic class LOID, so from every client's view
        it *is* the same object, back at a new address under a new
        binding incarnation.
        """
        self._classes[class_object.type_name] = class_object
        self._objects[class_object.loid] = class_object
        self._index_on_host(class_object, class_object.host.name)
        self.context_space.bind(
            f"/classes/{class_object.type_name}", class_object.loid
        )
        return class_object

    def attach_object(self, obj):
        """Register a live object so the runtime can find it by LOID."""
        self._objects[obj.loid] = obj
        self._index_on_host(obj, obj.host.name)

    def _index_on_host(self, obj, host_name):
        self._objects_by_host.setdefault(host_name, {})[obj.loid] = obj

    def reindex_object(self, obj, old_host_name):
        """Move ``obj``'s per-host index entry after a migration."""
        stale = self._objects_by_host.get(old_host_name)
        if stale is not None:
            stale.pop(obj.loid, None)
        self._index_on_host(obj, obj.host.name)

    def objects_on_host(self, host_name):
        """Live objects attached on ``host_name``, in attach order."""
        return list(self._objects_by_host.get(host_name, {}).values())

    def live_object(self, loid):
        """The attached object for ``loid``, or None (recovery helper)."""
        return self._objects.get(loid)

    def find_object(self, loid):
        """Return the live object for ``loid`` (runtime-internal uses).

        Raises :class:`UnknownObject` if no such object is attached.
        """
        obj = self._objects.get(loid)
        if obj is None:
            raise UnknownObject(f"no live object {loid}")
        return obj

    def make_client(self, host_name=None, name=None):
        """Create a :class:`Client` homed on the given (or first) host."""
        host = self.host(host_name) if host_name else next(iter(self.hosts.values()))
        return Client(self, host, name=name)

    def run(self, until=None):
        """Convenience passthrough to the simulator."""
        return self.sim.run(until=until)

    def __repr__(self):
        return (
            f"<LegionRuntime domain={self._domain} classes={len(self._classes)} "
            f"t={self.sim.now:g}>"
        )
