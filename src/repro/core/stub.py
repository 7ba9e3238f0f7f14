"""Client-side stubs for calling DCDOs defensively.

The paper puts the burden of fully-dynamic functions on callers:
"invocations on a dynamic function should be written to expect the
absence of the function.  Clients calling a DCDO should time out or
catch an exception ... that indicates that the function they tried to
invoke was not present" (§3.2), and under general evolution "clients
can still query the interface of the DCDO to determine if a function
it needs is still exported" (§3.5).

:class:`DCDOStub` packages that discipline: it caches the object's
exported interface, optionally verifies a function is present before
building an invocation, and on a disappearing-function failure
re-queries the interface and (per policy) retries once, falls back to
an alternative function, or surfaces a clear error.

The cache can additionally act as an **epoch-coherent lease** (pass
``lease_ttl_s``): DCDOs piggyback their configuration epoch on every
reply, so as long as the piggybacked epoch matches the one the lease
was taken under — and the lease is younger than its TTL — ``supports``
and ``check_first`` answer from cache with zero round trips.  Any DFM
mutation bumps the epoch, the next reply carries it, and the lease
self-invalidates; the disappearance-retry path below remains the
correctness backstop for the unclosable TOCTOU window, so §3.1/§3.5
semantics are preserved.
"""

from repro.legion.errors import MethodNotFound


class InterfaceCache:
    """A client's view of one DCDO's exported interface.

    The view is inherently a snapshot — the §3.1 disappearing exported
    function problem is exactly a stale snapshot — so it records when
    it was taken (and under which configuration epoch) and can be
    refreshed or validated as a lease.
    """

    def __init__(self):
        self.functions = None
        self.version = None
        self.fetched_at = None
        self.epoch = None

    @property
    def is_fresh(self):
        """True once an interface has been fetched."""
        return self.functions is not None

    def update(self, functions, version, now, epoch=None):
        """Install a snapshot."""
        self.functions = set(functions)
        self.version = version
        self.fetched_at = now
        self.epoch = epoch

    def is_current(self, now, observed_epoch, max_age_s):
        """Lease validity: young enough AND epoch-coherent.

        A lease is only as good as its two guards: ``max_age_s`` bounds
        how long a snapshot may serve without revalidation, and the
        epoch check compares the epoch this snapshot was taken under
        against the latest one piggybacked on replies — any mismatch
        (including a *regression*, i.e. a crash-recovered object whose
        epoch counter restarted) invalidates immediately.
        """
        if not self.is_fresh or self.epoch is None:
            return False
        if max_age_s is None or self.fetched_at is None:
            return False
        if now - self.fetched_at > max_age_s:
            return False
        return observed_epoch == self.epoch

    def exports(self, function):
        """True if the snapshot says ``function`` is callable."""
        return self.functions is not None and function in self.functions


class DCDOStub:
    """A defensive caller for one DCDO.

    Parameters
    ----------
    client:
        A :class:`~repro.legion.runtime.Client` (or any object with an
        ``invoke``-returning-generator and a ``sim``).
    loid:
        The target DCDO.
    retry_on_disappearance:
        Re-query the interface and retry once when an invocation hits
        a disappeared function (the function may have been replaced by
        an equivalent and re-exported, or the object may have evolved
        mid-flight).
    fallbacks:
        Optional mapping ``function -> alternative function`` used when
        the primary is not exported (a degraded-mode pattern).
    lease_ttl_s:
        When set, the interface cache acts as an epoch-validated lease:
        ``supports``/``check_first`` answer from cache (zero round
        trips) while the lease is younger than the TTL *and* the
        latest piggybacked epoch matches the one the lease was taken
        under.  None (the default) preserves the seed's always-re-query
        discipline.
    """

    def __init__(
        self,
        client,
        loid,
        retry_on_disappearance=True,
        fallbacks=None,
        lease_ttl_s=None,
    ):
        self._client = client
        self._loid = loid
        self._retry = retry_on_disappearance
        self._fallbacks = dict(fallbacks or {})
        self._lease_ttl_s = lease_ttl_s
        self.interface = InterfaceCache()
        self.disappearances = 0
        self.fallbacks_used = 0
        #: supports()/check_first answers served from a valid lease.
        self.lease_hits = 0
        #: supports()/check_first answers that had to refresh.
        self.lease_misses = 0

    @property
    def loid(self):
        """The target DCDO's LOID."""
        return self._loid

    @property
    def lease_ttl_s(self):
        """The lease TTL, or None when lease caching is off."""
        return self._lease_ttl_s

    def _observed_epoch(self):
        """The latest epoch piggybacked by the target, if knowable."""
        invoker = getattr(self._client, "invoker", None)
        if invoker is None:
            return None
        return invoker.observed_epoch(self._loid)

    def _lease_valid(self, max_age_s=None):
        ttl = self._lease_ttl_s if max_age_s is None else max_age_s
        if ttl is None:
            return False
        return self.interface.is_current(
            self._client.sim.now, self._observed_epoch(), ttl
        )

    def refresh_interface(self):
        """Generator: fetch the current interface and version.

        One ``getStatus`` round trip (interface + version + epoch);
        falls back to the original two-RPC ``getInterface`` +
        ``getVersion`` sequence against objects that predate
        ``getStatus``.
        """
        try:
            # getStatus is read-only, so it is safe to hedge against a
            # limping server (no-op unless the client opted in).
            status = yield from self._client.invoke(
                self._loid, "getStatus", hedge=True
            )
        except MethodNotFound:
            functions = yield from self.fetch_interface()
            version = yield from self.fetch_version()
            self.interface.update(functions, version, self._client.sim.now)
            return set(functions)
        self.interface.update(
            status["interface"],
            status["version"],
            self._client.sim.now,
            epoch=status["epoch"],
        )
        return set(status["interface"])

    def fetch_interface(self):
        """Generator: the raw ``getInterface`` RPC (no cache update)."""
        functions = yield from self._client.invoke(self._loid, "getInterface")
        return functions

    def fetch_version(self):
        """Generator: the raw ``getVersion`` RPC (no cache update)."""
        version = yield from self._client.invoke(self._loid, "getVersion")
        return version

    def supports(self, function, max_age_s=None):
        """Generator: is ``function`` exported right now?

        Re-queries unless a valid lease answers first.  Without lease
        caching (the default) a cached answer would be exactly the
        stale snapshot the §3.1 problem is about, so every call costs a
        round trip; with ``lease_ttl_s`` (or an explicit ``max_age_s``)
        the cached answer is served only while the piggybacked epoch
        proves the configuration unchanged.
        """
        if self._lease_valid(max_age_s):
            self.lease_hits += 1
            return self.interface.exports(function)
        self.lease_misses += 1
        functions = yield from self.refresh_interface()
        return function in functions

    def call(self, function, *args, check_first=False, timeout_schedule=None):
        """Generator: invoke ``function`` defensively.

        ``check_first`` consults the interface before invoking — the
        §3.5 "query the interface ... before invoking" pattern (one
        extra round trip unless a valid lease answers; the TOCTOU
        window shrinks but cannot close, which is why the retry path
        exists too).
        """
        target = function
        if check_first:
            exported = yield from self.supports(function)
            if not exported:
                target = self._pick_fallback(function)
        try:
            result = yield from self._client.invoke(
                self._loid, target, *args, timeout_schedule=timeout_schedule
            )
            return result
        except MethodNotFound:
            self.disappearances += 1
            if not self._retry and target not in self._fallbacks:
                raise
        # The function disappeared under us: re-query and try once more
        # (it may have been replaced, or a fallback may be exported).
        functions = yield from self.refresh_interface()
        if target in functions and self._retry:
            result = yield from self._client.invoke(
                self._loid, target, *args, timeout_schedule=timeout_schedule
            )
            return result
        fallback = self._pick_fallback(target)
        if fallback != target and fallback in functions:
            self.fallbacks_used += 1
            result = yield from self._client.invoke(
                self._loid, fallback, *args, timeout_schedule=timeout_schedule
            )
            return result
        raise MethodNotFound(self._loid, function)

    def call_sync(self, function, *args, **kwargs):
        """Run one defensive call to completion (test/driver helper)."""
        return self._client.sim.run_process(self.call(function, *args, **kwargs))

    def _pick_fallback(self, function):
        return self._fallbacks.get(function, function)

    def __repr__(self):
        return f"<DCDOStub {self._loid} disappearances={self.disappearances}>"
