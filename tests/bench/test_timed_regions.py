"""No bench subject is built inside a timed region.

Every construction of a detector, an engine, a cluster or a service is
logged, and so is every clock read of :mod:`repro.bench.suite`; each
timed call is a pair of consecutive reads, and no construction may fall
between the two.
"""

import time
import types

import pytest

from repro.bench import run_suite, suite
from repro.cluster.sharded import ShardedStat4
from repro.service.server import DetectionService
from repro.stat4.batch import BatchEngine
from repro.stat4.library import Stat4

SUBJECTS = (Stat4, BatchEngine, ShardedStat4, DetectionService)


@pytest.fixture
def logged_run(monkeypatch):
    log = []

    def logging_init(cls):
        init = cls.__init__

        def logged(self, *args, **kwargs):
            log.append(cls.__name__)
            init(self, *args, **kwargs)

        return logged

    for cls in SUBJECTS:
        monkeypatch.setattr(cls, "__init__", logging_init(cls))

    def perf_counter():
        log.append("clock")
        return time.perf_counter()

    monkeypatch.setattr(suite, "time", types.SimpleNamespace(perf_counter=perf_counter))
    report = run_suite(quick=True, skip_experiments=True, packets=200, repeats=1)
    return log, report


def test_no_subject_is_built_inside_a_timed_call(logged_run):
    events, report = logged_run
    reads = [index for index, event in enumerate(events) if event == "clock"]
    # One timed call per kernel row and two (ingest, merge) per cluster row.
    assert len(reads) == 2 * (len(report["kernels"]) + 2 * len(report["cluster"]))
    for start, stop in zip(reads[::2], reads[1::2]):
        built = events[start + 1 : stop]
        assert built == [], f"built inside a timed call: {built}"
    for cls in SUBJECTS:
        assert cls.__name__ in events, f"no {cls.__name__} was built"
