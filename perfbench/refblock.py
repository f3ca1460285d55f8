"""A fixed reference block that measures how fast the host runs at the moment.

On a VM shared with other tenants (measured on a 2-vCPU Xeon VM), host speed
drifts by a fifth or more over tens of seconds. Timing the same work again does
not remove that, but timing a fixed block of work next to each op does: the
bounded times are op time scaled by REF_NOMINAL_S over the reference time
measured around it, that is, seconds on a host where the block takes
REF_NOMINAL_S.

The block is standard library only and never calls the program, so a change
to the program cannot change it. It does the kinds of work the simulator does
(objects, float maths, dict counts, HMAC, JSON, a sort) on a small working set.
The cyclic garbage collector is off while it runs, so the program's live heap
does not change its time.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import json
import math
import random
import time

# Seconds the block takes on a host at nominal speed, close to its time on a
# quiet 2-vCPU Xeon VM; scaled times read in seconds at that speed.
REF_NOMINAL_S = 0.040
_KEY = bytes(range(16))


class _Event:
    __slots__ = ("t", "src", "dst", "rssi")

    def __init__(self, t, src, dst, rssi):
        self.t, self.src, self.dst, self.rssi = t, src, dst, rssi


def reference_block() -> int:
    """The fixed work; returns a checksum that never changes."""
    rng = random.Random(7)
    points = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(64)]
    log, counts = [], {}
    for i in range(12000):
        (ax, ay), (bx, by) = points[i % 64], points[(i * 7) % 64]
        rssi = -59.0 - 20.0 * math.log10(max(math.hypot(ax - bx, ay - by), 0.1))
        rssi += rng.gauss(0.0, 4.0)
        if rssi > -90.0:
            log.append(_Event(i * 0.01, i % 64, (i * 7) % 64, rssi))
        key = (i % 64, int(rssi))
        counts[key] = counts.get(key, 0) + 1
        if i % 40 == 0:
            hmac.new(_KEY, i.to_bytes(8, "big"), hashlib.sha256).digest()
    lines = [json.dumps({"t": e.t, "src": e.src, "rssi": round(e.rssi, 2)}, sort_keys=True)
             for e in log[::4]]
    log.sort(key=lambda e: (e.rssi, e.t))
    return len(log) + len(lines) + len(counts)


def time_reference() -> float:
    """Seconds one reference block takes now, with the cyclic collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_block()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, reference_s: float) -> float:
    """seconds measured while the block took reference_s, at nominal host speed."""
    return seconds * REF_NOMINAL_S / reference_s
