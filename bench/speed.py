"""How fast the machine runs Python right now.

On a shared host the CPU time of the same pure-Python work swings
twofold within seconds, as the host moves load around.  The benchmark
therefore times a fixed loop, the speed probe, next to every operation
and reports times in reference seconds: CPU seconds scaled to a machine
on which one probe takes ``PROBE_REF_S``.  featlog never runs the
probe's code, so a change to featlog cannot move it.
"""

import gc
import time

PROBE_REF_S = 0.001


def speed_probe() -> float:
    """CPU seconds of a fixed loop of tuple, str and dict work.

    The garbage collector is off meanwhile: the probe often runs in the
    middle of an operation, and a collection would charge the size of
    that operation's heap to the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict = {}
        for i in range(3000):
            key = (i % 97, str(i % 13))
            table[key] = table.get(key, 0) + i
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(cpu_s: float, probe_s: float) -> float:
    """CPU seconds measured while the probe took probe_s, in reference seconds."""
    return cpu_s * PROBE_REF_S / probe_s
