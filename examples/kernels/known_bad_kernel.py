# p4-ok-file — negative-control fixture for the ST5xx concurrency pass;
# deliberately broken, never imported by the runtime.
"""Known-bad kernel: the concurrency analyzer's negative control.

Mirrors ``examples/configs/known_bad.json`` for the ST4xx analyzer: a
file that MUST keep failing ``repro lint --strict --concurrency``.  If
the concurrency pass ever stops flagging these constructs, the gate
itself has regressed (``tests/analysis/test_concurrency.py`` pins the
exact profile).

Four deliberate violations:

- ``bad_window_kernel`` declares ``# parallel-mode: merge`` but mutates
  an interval cursor — order-dependent, so the claim is unprovable
  (ST502);
- ``bad_merge_kernel`` declares ``# parallel-mode: merge`` but evicts
  hashed slots — a hard order-breaking effect no speculative merge or
  replay-from-entry reconstructs, so its merge claim is just as
  unprovable (ST502);
- ``bad_worker_task`` is submitted to a pool and mutates a module-level
  registry without holding the module lock (ST503);
- ``bad_segment_factory`` creates a shared-memory segment directly
  instead of going through ``SharedColumnSegment.pack``, bypassing the
  crash-sweep registry (ST505).

``good_merge_kernel`` is the in-file positive control: a pure
commutative-monoid kernel whose ``merge`` claim the dataflow proves
(ST501), showing the pass rejects the bad kernels for their effects, not
for living in this file.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

_RESULTS = {}
_RESULTS_LOCK = threading.Lock()


# parallel-mode: merge
def good_merge_kernel(state, ctx, value):
    """Monoid-only updates: the declared merge mode is provable."""
    old = state.counters.read(value)
    state.stats.observe_frequency(old)
    state.counters.write(value, old + 1)


# parallel-mode: merge
def bad_window_kernel(state, ctx, value):
    """Claims mergeable but walks an interval cursor: ST502.

    ``current_count``/``window_index`` make each update depend on the
    cursor the previous one left, so no per-chunk summary reconstructs
    the final state — the dataflow derives order-dependent (serial) and
    the ``merge`` claim must be rejected.
    """
    state.current_count += 1
    if state.current_count >= 8:
        state.stats.replace_value(state.window_index, state.current_count)
        state.window_index += 1
        state.current_count = 0
    state.stats.add_value(value)


# parallel-mode: merge
def bad_merge_kernel(state, ctx, value):
    """Claims mergeable but evicts hashed slots: ST502.

    Eviction picks its victim by comparing live counts along the probe
    path, so a chunk's exit state cannot be reconstructed from any local
    summary — neither a tracker fixpoint nor a replay from the chunk's
    entry state makes the claim provable, and the dataflow must derive
    order-dependent (serial) even though the kernel also runs the two
    replayable digest streams a genuine merge kernel carries.
    """
    old, new, evicted = state.cells.increment(value)
    if evicted:
        state.stats.remove_value(evicted)
    state.stats.observe_frequency(old)
    state.tracker.observe(value)
    if state.stats.is_outlier(new):
        state.stats.emit_digest("evicted_heavy", 0, value, new)


def bad_worker_task(chunk):
    """Unguarded mutation of shared module state from worker context: ST503."""
    total = sum(chunk)
    _RESULTS[id(chunk)] = total  # not holding _RESULTS_LOCK
    return total


def good_worker_task(chunk):
    """The guarded twin: same mutation, under the module lock — clean."""
    total = sum(chunk)
    with _RESULTS_LOCK:
        _RESULTS[id(chunk)] = total
    return total


def bad_segment_factory(payload):
    """Creates a segment outside SharedColumnSegment.pack: ST505.

    Nothing registers this segment, so a crash between creation and
    unlink leaks it in /dev/shm — exactly what the registry exists to
    prevent.
    """
    return shared_memory.SharedMemory(create=True, size=max(len(payload), 1))


def fan_out(chunks):
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(bad_worker_task, chunk) for chunk in chunks]
        futures += [pool.submit(good_worker_task, chunk) for chunk in chunks]
        return [f.result() for f in futures]
