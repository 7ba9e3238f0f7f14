"""Legion object identifiers.

Every object in the system — user objects, class objects, ICOs, DCDO
Managers, service objects — is named by a :class:`LOID`: a globally
unique, location-independent identifier.  LOIDs carry a *domain*, a
*type name*, and an *instance number*, mirroring Legion's structured
identifiers while staying printable and hashable.

LOIDs minted through :func:`mint_loid` / :func:`class_loid` are
*canonical*: one object per live (domain, type_name, instance) triple,
so the dict lookups that dominate the ``core``/``net`` hot paths hit
CPython's identity fast path instead of comparing strings, and ``a is
b`` is a valid equality check for runtime-minted LOIDs.  Directly
constructed LOIDs keep plain value semantics (they compare and hash by
fields).

Nothing here keeps a LOID alive, so a runtime's LOIDs are freed with
it.  :func:`mint_loid` never mints a triple twice, so its LOID is
canonical without a table; :func:`class_loid` finds the live class
LOID of its type in a table that holds it weakly.  Instance numbering
is process-wide, not per runtime: the tests mint LOIDs without one.
A process that builds several runtimes therefore numbers the later
runtimes' instances after the earlier ones'.
"""

import itertools
import weakref
from dataclasses import dataclass

#: (domain, type_name) -> the counter numbering its instances.
_instance_counters = {}
#: (domain, type_name) -> its live class LOID, held weakly.
_class_loids = weakref.WeakValueDictionary()


@dataclass(frozen=True, order=True)
class LOID:
    """A location-independent object identifier.

    Attributes
    ----------
    domain:
        Administrative domain string (one per runtime by default).
    type_name:
        The name of the object's type (its class object's name).
    instance:
        Instance number, unique within (domain, type_name).
    """

    __slots__ = ("domain", "type_name", "instance", "_str", "_hash", "__weakref__")

    domain: str
    type_name: str
    instance: int

    def __post_init__(self):
        # Frozen dataclass: stash the caches via object.__setattr__.
        # str() and hash() of LOIDs run inside every directory lookup
        # and lock-ordering sort, so both are computed exactly once.
        object.__setattr__(
            self, "_str", f"{self.domain}/{self.type_name}#{self.instance}"
        )
        object.__setattr__(
            self, "_hash", hash((self.domain, self.type_name, self.instance))
        )

    def __reduce__(self):
        # Slotted and frozen: copies and pickles rebuild through __init__.
        return (LOID, (self.domain, self.type_name, self.instance))

    def __str__(self):
        return self._str

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is LOID:
            return (
                self.instance == other.instance
                and self.type_name == other.type_name
                and self.domain == other.domain
            )
        return NotImplemented

    @property
    def is_class(self):
        """True for class-object LOIDs (instance 0 by convention)."""
        return self.instance == 0


def mint_loid(domain, type_name):
    """Create a fresh instance LOID for (domain, type_name).

    Instance numbers start at 1; 0 is reserved for the class object
    itself (see :func:`class_loid`).  No number is minted twice in a
    process, so the result *is* the canonical object for its triple.
    """
    key = (domain, type_name)
    if key not in _instance_counters:
        _instance_counters[key] = itertools.count(1)
    return LOID(domain, type_name, next(_instance_counters[key]))


def class_loid(domain, type_name):
    """The canonical LOID of the class object for (domain, type_name)."""
    key = (domain, type_name)
    loid = _class_loids.get(key)
    if loid is None:
        loid = _class_loids[key] = LOID(domain, type_name, 0)
    return loid
