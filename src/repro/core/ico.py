"""Implementation Component Objects (§2.3).

"An implementation component object (ICO) is an active distributed
object that maintains an implementation component's data — the
executable code that comprises the component, the descriptor that
describes the contents of the executable code, and the component's
implementation type."

Keeping components inside first-class objects means they live in the
host system's global namespace (no separate component-naming scheme)
and "the component's (potentially large amount of) data need not
travel with the component whenever it is referenced" — DCDOs fetch
metadata cheaply and pull variant data only when they must map the
code in.
"""

from repro.legion.objects import LegionObject


class ImplementationComponentObject(LegionObject):
    """An active object serving one implementation component.

    Exported interface:

    - ``getComponent()`` — the component's descriptor and (in this
      simulation) the component object itself; a small reply.
    - ``fetchVariant(impl_type)`` — the variant's code data; the reply
      is charged at the variant's full size, so pulling a large
      component pays real wire time.
    """

    _interface = {
        "getComponent": "_m_get_component",
        "fetchVariant": "_m_fetch_variant",
        "getDescriptor": "_m_get_descriptor",
    }

    def __init__(self, runtime, loid, host, component=None):
        super().__init__(runtime, loid, host)
        if component is None:
            raise ValueError("an ICO needs a component to serve")
        self._component = component
        self.metadata_requests = 0
        self.data_requests = 0
        #: Total variant bytes this server has shipped; with per-host
        #: blob caching the fleet-wide sum scales with host count, not
        #: instance count.
        self.bytes_served = 0

    @property
    def component(self):
        """The :class:`ImplementationComponent` this ICO maintains."""
        return self._component

    def _m_get_component(self, ctx):
        self.metadata_requests += 1
        return self._component
        yield  # pragma: no cover - uniform generator shape

    def _m_get_descriptor(self, ctx):
        """A summary of the component's contents (pure metadata)."""
        self.metadata_requests += 1
        component = self._component
        return {
            "component_id": component.component_id,
            "functions": {
                name: {"exported": fn.exported, "signature": fn.signature}
                for name, fn in component.functions.items()
            },
            "required_markings": {
                name: marking.value
                for name, marking in component.required_markings.items()
            },
            "dependencies": [str(dep) for dep in component.declared_dependencies],
            "variants": sorted(str(impl_type) for impl_type in component.variants),
        }
        yield  # pragma: no cover - uniform generator shape

    def _m_fetch_variant(self, ctx, impl_type):
        """Serve a variant's code; the reply pays the variant's size."""
        variant = self._component.variants.get(impl_type)
        if variant is None:
            from repro.core.errors import IncompatibleImplementationType

            raise IncompatibleImplementationType(
                f"component {self._component.component_id!r} has no variant "
                f"of type {impl_type}"
            )
        self.data_requests += 1
        self.bytes_served += variant.size_bytes
        self.runtime.network.count("ico.fetches")
        self.runtime.network.count("ico.bytes_served", variant.size_bytes)
        # Reading the code off local disk before serving it; the reply
        # carries the full variant size on the wire.
        calibration = self.calibration
        yield self.sim.timeout(
            calibration.disk_seek_s + variant.size_bytes / calibration.disk_bandwidth_bps
        )
        ctx.set_reply_size(variant.size_bytes)
        return variant
