# p4-ok-file — host-side engine alias; the per-packet P4 semantics live
# (and are linted) in repro.stat4.library.
"""``ParallelBatchEngine``: a keyword-compatible alias of the serial engine.

Stat4 updates its registers per packet, in order, in one pipeline, and
:class:`~repro.stat4.batch.BatchEngine` reproduces that bit for bit.  The
process-pool fan-out that used to live here measured slower than the
serial engine on every workload, so it is gone; this class keeps its
constructor for the callers that still build one by name.  It validates
``workers`` and ``executor`` as before and runs every batch serially.
"""

from __future__ import annotations

from repro.stat4.batch import BatchEngine
from repro.stat4.library import Stat4

__all__ = ["ParallelBatchEngine"]


class ParallelBatchEngine(BatchEngine):
    """A :class:`BatchEngine` that accepts the old fan-out keywords.

    Args:
        stat4: the library instance to drive.
        workers: must be at least 1; recorded, not used.
        executor: must be ``"process"``; any other value raises
            ``ValueError``.
    """

    def __init__(self, stat4: Stat4, workers: int = 1, executor: str = "process"):
        super().__init__(stat4)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if executor != "process":
            raise ValueError(
                f"unknown executor {executor!r}; the only value is 'process'"
            )
        self.workers = workers
