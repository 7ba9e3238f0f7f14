"""What a resident DCDO holds: traced bytes per instance at rest.

Builds P6's fleet (64 instances per host, two components of two
functions each, v2 staged) at 128 instances with tracemalloc on, and
checks the bytes per instance left after the build against a committed
ceiling, with P6's 5% tolerance.  P6 gates the same figure at 1,024
instances (``BYTES_COMMITTED``); at 128 the deployment's fixed share
(runtime, hosts, manager, class objects) weighs eight times more per
instance, so this guard commits its own figure.  It is the larger of
the Python 3.11 and 3.12 readings in a fresh interpreter.
"""

import gc
import tracemalloc

from repro.bench.experiments.p6_scale import OBJECTS_TOLERANCE, _build_fleet

INSTANCES = 128
#: Traced bytes per instance at rest for the 128-instance fleet.
AT_REST_BYTES = 4689.0


def _bytes_at_rest(seed, scale):
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fleet = _build_fleet(seed, scale)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    return held / scale


def test_a_resident_dcdo_stays_under_its_byte_ceiling():
    per_instance = _bytes_at_rest(0, INSTANCES)
    ceiling = AT_REST_BYTES * (1 + OBJECTS_TOLERANCE)
    assert per_instance <= ceiling, (
        f"{per_instance:,.0f} traced bytes per instance at rest, more than "
        f"{OBJECTS_TOLERANCE:.0%} above the committed {AT_REST_BYTES:,.0f}"
    )
