"""``ParallelBatchEngine``: the serial engine under its old constructor.

:mod:`repro.stat4.parallel` keeps one class, a :class:`BatchEngine`
subclass that validates ``workers`` and ``executor`` and runs every batch
serially.  It stays because ``perfbench/harness.py`` builds it by name
for the ``columns_parallel`` workload, so this module pins that contract:

- any trace, cut into time-ordered batches and fed through the alias at
  any worker count, leaves exactly the scalar oracle's state (the same
  hypothesis trace generator as the serial differentials, with numpy's
  optional array paths on and hidden);
- the harness's own columns pass, run on the alias, equals the harness's
  own scalar oracle, alerts and detector state;
- ``workers`` and ``executor`` are still validated, and importing the
  alias, the server or the CLI starts no process pool and maps no shared
  memory.
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stat4 import BatchEngine, PacketBatch
from repro.stat4.parallel import ParallelBatchEngine
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import (
    SCENARIOS,
    assert_equal_state,
    generate_trace,
    process_scalar,
)

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
TRACE_PACKETS = 5_000
CHUNK = 1_500  # trace-level chunk: several per trace


def chunks_of(contexts, chunk_size):
    """One batch per time-ordered chunk of ``contexts``."""
    for start in range(0, len(contexts), chunk_size):
        yield PacketBatch.from_contexts(contexts[start : start + chunk_size])


def process_parallel(stat4, contexts, mode, workers, chunk_size=CHUNK):
    engine = ParallelBatchEngine(stat4, workers=workers)
    digests = []
    with numpy_mode(mode):
        for chunk in chunks_of(contexts, chunk_size):
            digests.extend(engine.process(chunk).digests)
    return digests


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@settings(deadline=None, max_examples=2)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=0)
@example(seed=3)
def test_workers_equal_scalar_and_each_other(scenario_name, mode, seed):
    # The worker count is validated and then ignored: every count must
    # agree bit for bit with the scalar oracle.
    contexts = generate_trace(seed, packets=TRACE_PACKETS)
    scalar = SCENARIOS[scenario_name]()
    scalar_digests = process_scalar(scalar, contexts)
    for workers in (1, 2):
        engine_state = SCENARIOS[scenario_name]()
        digests = process_parallel(engine_state, contexts, mode, workers=workers)
        assert_equal_state(scalar, engine_state, scalar_digests, digests)


class TestSplitBatch:
    """A trace cut into time-ordered batches, processed in turn, leaves
    the state and digests of the whole trace as one batch."""

    def test_chunked_processing_equals_whole_batch(self):
        contexts = generate_trace(2, packets=1_000)
        whole = SCENARIOS["frequency"]()
        chunked = SCENARIOS["frequency"]()
        whole_digests = list(
            BatchEngine(whole)
            .process(PacketBatch.from_contexts(contexts))
            .digests
        )
        engine = BatchEngine(chunked)
        chunked_digests = []
        for chunk in chunks_of(contexts, 137):
            chunked_digests.extend(engine.process(chunk).digests)
        assert_equal_state(whole, chunked, whole_digests, chunked_digests)


class TestEngineValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelBatchEngine(SCENARIOS["frequency"](), workers=0)

    def test_rejects_unknown_executor(self):
        for executor in ("fork_bomb", "auto", "serial", "thread"):
            with pytest.raises(ValueError):
                ParallelBatchEngine(SCENARIOS["frequency"](), executor=executor)

    def test_accepts_the_process_executor(self):
        engine = ParallelBatchEngine(
            SCENARIOS["frequency"](), workers=2, executor="process"
        )
        assert engine.workers == 2
        assert isinstance(engine, BatchEngine)


def run_fresh(script):
    """Run ``script`` in a fresh interpreter from the checkout root, with
    ``src`` and ``perfbench`` importable; returns its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + sys.path
    )
    probe = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.strip()


class TestPerfbenchContract:
    """What ``perfbench/harness.py`` does with the alias keeps working
    (``TestEngineValidation`` holds the keyword checks)."""

    def test_columns_pass_on_the_alias_equals_the_scalar_oracle(self):
        # The harness's own detector, batches, engine factory and scalar
        # oracle, over the first ten 2,048-packet batches of a columns
        # pass: past the benign phase into the flood, so alerts fire.
        # make_engine("parallel") is
        # ParallelBatchEngine(stat4, workers=2, executor="process").
        out = run_fresh(
            """
            import harness, inputs
            from repro.stat4.parallel import ParallelBatchEngine

            detector = harness.columns_detector()
            fields = inputs.column_fields(7)
            raw = harness.column_batches(fields)[:10]
            packets = sum(len(ts) for ts, _keys, _columns in raw)
            engine = harness.make_engine("parallel", harness.build_stat4(*detector))
            assert type(engine) is ParallelBatchEngine and engine.workers == 2
            run = harness.run_columns_pass("parallel", detector, raw)
            oracle = harness.run_oracle(
                inputs.column_records(fields)[:packets], detector
            )
            assert run["packets"] == oracle["packets"] == packets
            assert run["alerts"] and run["alerts"] == oracle["alerts"]
            assert run["state"] == oracle["state"]
            merge = [
                getattr(run["engine"], name, 0)
                for name in (
                    "merge_adopted_chunks",
                    "merge_folded_chunks",
                    "merge_replayed_chunks",
                )
            ]
            print(len(run["alerts"]), merge)
            """
        )
        alerts, merge = out.split(" ", 1)
        assert int(alerts) > 0
        assert merge == "[0, 0, 0]"

    def test_importing_the_engine_server_and_cli_starts_no_pool(self):
        out = run_fresh(
            """
            import sys
            import repro.cli
            import repro.service.server
            import repro.stat4.parallel

            print(sorted(
                name
                for name in ("concurrent.futures.process", "multiprocessing.shared_memory")
                if name in sys.modules
            ))
            """
        )
        assert out == "[]"
