"""Shared-segment cleanup on the paths where nothing runs to completion.

The happy path releases every ``SharedColumnSegment`` as soon as its batch
is applied; these tests pin the three unhappy paths the registry exists
for:

- a worker raising mid-batch (the engine's ``finally`` must still release
  every segment created for that batch);
- SIGTERM landing between pack and release (the chained handler sweeps
  the registry before the process dies);
- a fork after registration (the child's at-fork hook empties *its* view
  of the registry, so child-side cleanup can never unlink the parent's
  live segments).
"""

import os
import signal
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from repro.stat4 import PacketBatch, ParallelBatchEngine, split_batch
from repro.stat4 import parallel
from repro.traffic.columns import (
    SharedColumnSegment,
    live_segment_count,
    release_all_segments,
)
from tests.stat4.test_batch_differential import SCENARIOS, generate_trace

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.fixture(autouse=True)
def _registry_is_balanced():
    assert live_segment_count() == 0, "a previous test leaked a segment"
    yield
    leaked = release_all_segments()
    assert leaked == 0, f"test left {leaked} segment(s) registered"


def test_worker_exception_mid_batch_releases_every_segment(monkeypatch):
    # Drive the submit path (which packs shared segments) but back it
    # with a thread pool so the monkeypatched task raises in this very
    # process without the cost of spawning workers.
    from concurrent.futures import ThreadPoolExecutor

    substitute = ThreadPoolExecutor(max_workers=2)
    monkeypatch.setattr(parallel, "_pool", lambda workers: substitute)

    def exploding_task(*args, **kwargs):
        raise RuntimeError("worker died mid-chunk")

    monkeypatch.setattr(parallel, "_tally_task_shm", exploding_task)

    contexts = generate_trace(11, packets=5_000)
    engine = ParallelBatchEngine(SCENARIOS["frequency"](), workers=4, min_chunk=128)
    (batch,) = list(split_batch(PacketBatch.from_contexts(contexts), 5_000))
    with pytest.raises(RuntimeError, match="worker died mid-chunk"):
        engine.process(batch)
    assert live_segment_count() == 0
    substitute.shutdown(wait=True)


def test_sigterm_between_pack_and_release_unlinks_the_segment():
    # A child process packs a segment, reports its name, then delivers
    # SIGTERM to itself.  The chained handler must sweep the registry
    # (unlinking the block) before the default disposition kills the
    # process, so the parent finds the name gone from /dev/shm.
    code = (
        "import os, signal, sys\n"
        "from repro.traffic.columns import SharedColumnSegment\n"
        "segment = SharedColumnSegment.pack([('values', 'q', [1, 2, 3])])\n"
        "print(segment.name, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGTERM)\n"
        "print('survived', flush=True)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    lines = proc.stdout.split()
    assert lines, proc.stderr
    name = lines[0]
    assert "survived" not in lines, "SIGTERM default disposition was swallowed"
    assert proc.returncode != 0
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
def test_forked_child_never_sweeps_the_parents_segments():
    segment = SharedColumnSegment.pack([("values", "q", [4, 5, 6])])
    try:
        assert live_segment_count() == 1
        pid = os.fork()
        if pid == 0:
            # Child: the at-fork hook cleared the inherited registry, so a
            # full sweep must find nothing.  Exit with the sweep count;
            # os._exit skips atexit so the child cannot sweep on the way
            # out either.
            os._exit(release_all_segments())
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent's segment survived the child's sweep and exit.
        assert live_segment_count() == 1
        attached = shared_memory.SharedMemory(name=segment.name)
        assert bytes(attached.buf[:8]) == (4).to_bytes(8, sys.byteorder)
        attached.close()
    finally:
        segment.release()
    assert live_segment_count() == 0
