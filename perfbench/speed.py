"""Machine-speed reference: timings scaled to one fixed speed of the host.

On the shared 2-vCPU host this benchmark was built on, the speed of a
vCPU drifts by about ±25% over minutes and drops by up to 40% for
seconds at a time, as neighbours load the hardware it shares; the two
vCPUs drift independently.  Raw wall and CPU times therefore moved 20-30%
between runs of identical code.  Every end-to-end timing is instead
reported in *reference time*: a measured interval ``t`` becomes
``t * REF / r``, where ``r`` is how long a fixed reference loop took on
the same vCPU at the same moment, and ``REF`` (``CPU_REFERENCE_S`` or
``PROBE_REFERENCE_S``) is a constant close to that loop's time on this
host.  A program that does
less work still reports proportionally less time; a host that slows down
does not.

Two references, both owned by the benchmark:

- :func:`cpu_reference` runs in the measuring process itself, between
  two engine calls.  It allocates no GC-tracked objects, so it does not
  move the program's garbage-collection schedule.
- A sampler process (:func:`sampler_main`) pinned to the vCPU of a
  process under test runs :func:`probe`, a shorter :func:`cpu_reference`
  plus a full garbage collection, every ``TICK_S``, preempting it for
  about 2 ms; :class:`Speed` turns the probes into the speed of any window.
"""

from __future__ import annotations

import bisect
import gc
import os
import select
import sys
import time
from typing import List, Sequence, Tuple

#: Typical time of :func:`cpu_reference` on a vCPU of the host the benchmark was tuned on.
CPU_REFERENCE_S = 0.0015
#: Typical time of one sampler probe (:func:`probe`) on that host.
PROBE_REFERENCE_S = 0.0017
#: Interval between sampler probes.
TICK_S = 0.05

_TABLE = [0] * 4096


def cpu_reference(rounds: int = 6000) -> int:
    """Interpreter-bound integer and list work; no GC-tracked allocations."""
    table = _TABLE
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 0xFFFF
        table[key & 4095] = key
        acc ^= table[(key * 7) & 4095]
    return acc


def probe() -> None:
    """One sampler probe: interpreter work plus a full GC pass over a fixed heap."""
    cpu_reference(3000)
    gc.collect()


def _probe_heap(size: int = 8000) -> list:
    """The heap :func:`probe` collects; everything older is frozen out of GC."""
    gc.disable()
    gc.freeze()
    return [[i, (i,), {}] for i in range(size)]


def sampler_main(cpu: int, tick: float) -> int:
    """Probe the speed of ``cpu`` every ``tick`` s until stdin closes; print the probes."""
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    try:
        os.nice(-5)  # wake promptly even while the process under test is busy
    except OSError:
        pass
    _heap = _probe_heap()  # alive until the sampler returns
    probe()
    probes: List[Tuple[int, int]] = []
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], tick)
        if readable and not os.read(sys.stdin.fileno(), 4096):
            break
        start = time.monotonic_ns()
        probe()
        probes.append((start, time.monotonic_ns()))
    sys.stdout.write("".join(f"{start} {end}\n" for start, end in probes))
    sys.stdout.flush()
    return 0


class Speed:
    """Sampler probes of one vCPU, turned into reference-time intervals."""

    def __init__(self, probes: Sequence[Tuple[int, int]]):
        if not probes:
            raise ValueError("the speed sampler recorded no probes")
        self.starts = [start / 1e9 for start, _ in probes]
        durations = [(end - start) / 1e9 for start, end in probes]
        self._busy = _prefix(durations)
        self._speed = _prefix([PROBE_REFERENCE_S / d for d in durations])

    def factor(self, t0: float, t1: float) -> float:
        """Mean ``REF / r`` of the probes in ``[t0, t1)``, or of the nearest three."""
        lo, hi = self._span(t0, t1)
        return (self._speed[hi] - self._speed[lo]) / (hi - lo)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference time of ``[t0, t1)``, less the time the probes held the vCPU."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        stolen = self._busy[hi] - self._busy[lo]
        return max(0.0, t1 - t0 - stolen) * self.factor(t0, t1)

    def _span(self, t0: float, t1: float) -> Tuple[int, int]:
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if hi - lo >= 3 or len(self.starts) < 3:
            return lo, max(hi, lo + 1)
        middle = bisect.bisect_left(self.starts, (t0 + t1) / 2)
        lo = min(max(0, middle - 1), len(self.starts) - 3)
        return lo, lo + 3


def _prefix(values: Sequence[float]) -> List[float]:
    out = [0.0]
    for value in values:
        out.append(out[-1] + value)
    return out


if __name__ == "__main__":
    sys.exit(sampler_main(int(sys.argv[1]), float(sys.argv[2])))
