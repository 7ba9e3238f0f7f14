"""Dynamic functions and their evolution markings (§2, §3.2).

A dynamic function implementation lives inside a component and can be
*exported* (callable from other objects) or *internal* (callable only
from within the object).  Independently, the §3.2 restrictions mark a
function name as *fully dynamic* (the default), *mandatory* (some
implementation must stay enabled), or *permanent* (one particular
implementation is frozen in).
"""

import enum
from dataclasses import dataclass, field


class Marking(enum.Enum):
    """Evolution restriction applied to a dynamic function name."""

    FULLY_DYNAMIC = "fully-dynamic"
    MANDATORY = "mandatory"
    PERMANENT = "permanent"

    def at_least(self, other):
        """True if this marking is as strong as ``other``.

        Permanent subsumes mandatory: a permanent function's pinned
        implementation satisfies "some implementation must be present".
        """
        order = {
            Marking.FULLY_DYNAMIC: 0,
            Marking.MANDATORY: 1,
            Marking.PERMANENT: 2,
        }
        return order[self] >= order[other]


@dataclass(frozen=True)
class FunctionDef:
    """One dynamic function implementation as shipped in a component.

    Attributes
    ----------
    name:
        The dynamic function's name; the DFM's dispatch key.
    body:
        ``body(ctx, *args)`` — a generator function (may yield
        simulated time) or plain function implementing the behaviour.
    exported:
        True if remote objects may invoke the function; internal
        functions "may be called only from within the object" (§2).
    signature:
        Free-form signature string, reported by status functions so
        clients can build invocations.
    """

    name: str
    #: Left out of the repr: a function's address differs per process,
    #: and the event record must replay byte for byte.
    body: object = field(repr=False)
    exported: bool = True
    signature: str = ""

    def __post_init__(self):
        if not callable(self.body):
            raise TypeError(f"body of {self.name!r} must be callable")

    @property
    def visibility(self):
        """Human-readable 'exported' / 'internal'."""
        return "exported" if self.exported else "internal"
