"""The ST5xx concurrency-exactness pass: table, lints, and runtime witness.

Four layers of assurance, mirroring ``docs/ANALYSIS.md``:

1. the kernel-shape dataflow pass classifies every constructible shape:
   the six dense frequency shapes are mergeable, the rest serial;
2. ``ParallelBatchEngine._fan_out_mode`` actually *consumes* the derived
   table, the only fan-out table there is;
3. the ``# parallel-mode:`` kernel check and the shared-state race lint
   behave on synthetic sources, on the live parallel/shm layer, and on the
   kept-broken ``examples/kernels/known_bad_kernel.py`` fixture;
4. every fanned-out shape is witnessed at runtime by the
   access tracer: a real thread pool, zero conflicting access pairs, all
   kernel-state writes on the apply thread, outputs equal to serial.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import analyze_target
from repro.analysis.concurrency import (
    Classification,
    Effect,
    KernelShape,
    SHAPE_FIELDS,
    SHAPE_IRRELEVANT_FIELDS,
    audit_spec_fields,
    check_kernel_file,
    check_shared_state_file,
    check_shared_state_source,
    classification_report,
    classify,
    derive_eligibility_table,
    enumerate_shapes,
    kernel_effects,
    kernel_table_diagnostics,
    shape_key_of_spec,
)
from repro.analysis.deployment import analyze_deployment, load_deployment
from repro.analysis.tracer import AccessTracer, instrument_stat4
from repro.cli import main
from repro.stat4 import (
    ExtractSpec,
    PacketBatch,
    ParallelBatchEngine,
    Stat4,
    Stat4Config,
    Stat4Runtime,
    split_batch,
)
from repro.stat4 import parallel
from tests.stat4.test_batch_differential import (
    DENSE_SCENARIOS,
    SCENARIOS,
    assert_equal_state,
    generate_trace,
    process_scalar,
)

HERE = os.path.dirname(__file__)
EXAMPLES = os.path.normpath(os.path.join(HERE, "..", "..", "examples"))
KNOWN_BAD_KERNEL = os.path.join(EXAMPLES, "kernels", "known_bad_kernel.py")
CASE_STUDY = os.path.join(EXAMPLES, "configs", "case_study.json")
SYN_FLOOD = os.path.join(EXAMPLES, "configs", "syn_flood.json")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src", "repro"))


def _spec(**kwargs):
    """A real TrackSpec built through the runtime's validated constructor."""
    stat4 = Stat4(Stat4Config(counter_num=4, counter_size=256, binding_stages=1))
    runtime = Stat4Runtime(stat4)
    return runtime.frequency_of(
        0, ExtractSpec.field("ipv4.dst", mask=0x1FF), **kwargs
    )


# --------------------------------------------------------------------------
# 1. The shape lattice and the derived table
# --------------------------------------------------------------------------


class TestShapeTable:
    def test_ten_shapes_cover_the_validated_lattice(self):
        keys = [shape.key for shape in enumerate_shapes()]
        assert len(keys) == 10
        assert len(set(keys)) == 10
        # Validation collapses the lattice: trackers require dense
        # frequency slots, percentile alerts require trackers.
        for shape in enumerate_shapes():
            if shape.tracked:
                assert shape.kind.value == "frequency"
            if shape.percentile_alert:
                assert shape.tracked

    def test_shape_key_of_spec_matches_of_spec(self):
        spec = _spec(percent=50, k_sigma=2, percentile_alert="p50_move")
        shape = KernelShape.of_spec(spec)
        assert shape.key == "frequency+tracked+alerting+percentile_alert"
        assert shape_key_of_spec(spec) == shape.key

    def test_dense_frequency_shapes_are_mergeable(self):
        # A tracker walk and the digest streams are order-dependent, but
        # the merge reconcile replays them from per-chunk entry state, so
        # every dense frequency shape is mergeable; window cursors and
        # evictions keep the other shapes serial.
        for shape in enumerate_shapes():
            expected = (
                Classification.MERGEABLE
                if shape.kind.value == "frequency"
                else Classification.ORDER_DEPENDENT
            )
            assert classify(kernel_effects(shape)) is expected, shape.key

    def test_plain_frequency_is_merge_exact(self):
        # Pure monoid effects: per-chunk tallies add up to the serial state
        # with no stream to replay.
        effects = kernel_effects(KernelShape.of_spec(_spec()))
        assert effects == {
            Effect.CELL_MONOID,
            Effect.MOMENT_MONOID,
            Effect.DROP_COUNT,
            Effect.MEASURE_SYNC,
        }
        assert classify(effects) is Classification.MERGEABLE

    def test_single_replay_stream_shapes_are_replay_exact(self):
        # One order-dependent stream each, replayed exactly by the merge
        # reconcile from per-chunk entry state.
        tracked = kernel_effects(KernelShape.of_spec(_spec(percent=50)))
        alerting = kernel_effects(KernelShape.of_spec(_spec(k_sigma=2)))
        assert Effect.TRACKER_WALK in tracked
        assert Effect.DIGEST_WRITE not in tracked
        assert Effect.DIGEST_WRITE in alerting
        assert Effect.TRACKER_WALK not in alerting
        assert classify(tracked) is Classification.MERGEABLE
        assert classify(alerting) is Classification.MERGEABLE

    def test_two_replay_streams_are_merge_replay_exact(self):
        # Tracker + k·σ digests interleave, but both streams replay from
        # per-chunk entry state, so the merge reconcile stays exact.
        both = kernel_effects(KernelShape.of_spec(_spec(percent=50, k_sigma=2)))
        assert {Effect.TRACKER_WALK, Effect.DIGEST_WRITE} <= both
        assert classify(both) is Classification.MERGEABLE

    def test_register_read_without_a_tracker_walk_is_order_dependent(self):
        # The reg_pos mirror is carried by the tracker walk; a read with
        # no walk to maintain the register stays order-breaking.
        read = frozenset({Effect.PERCENTILE_REGISTER_READ})
        assert classify(read) is Classification.ORDER_DEPENDENT
        assert classify(read | {Effect.TRACKER_WALK}) is Classification.MERGEABLE

    def test_exactly_six_shapes_are_eligible(self):
        derived = derive_eligibility_table()
        assert {k: v for k, v in derived.items() if v is not None} == {
            "frequency": "merge",
            "frequency+alerting": "merge",
            "frequency+tracked": "merge",
            "frequency+tracked+alerting": "merge",
            "frequency+tracked+percentile_alert": "merge",
            "frequency+tracked+alerting+percentile_alert": "merge",
        }

    def test_kernel_table_diagnostics_contains_all_three_blocks(self):
        # Classification records, the TrackSpec field audit, and the
        # generated-kernel audit: only the ten records on a clean tree.
        diags = kernel_table_diagnostics()
        assert sum(1 for d in diags if d.code == "ST501") == 10
        assert [d for d in diags if d.code != "ST501"] == []


class TestSpecFieldAudit:
    def test_live_trackspec_is_fully_classified(self):
        assert audit_spec_fields() == []

    def test_unclassified_new_field_fails(self):
        names = list(SHAPE_FIELDS) + list(SHAPE_IRRELEVANT_FIELDS)
        findings = audit_spec_fields(names + ["burst_budget"])
        assert [d.context["field"] for d in findings] == ["burst_budget"]
        assert findings[0].code == "ST504"

    def test_stale_projection_entry_fails(self):
        names = [
            n
            for n in list(SHAPE_FIELDS) + list(SHAPE_IRRELEVANT_FIELDS)
            if n != "cooldown"
        ]
        findings = audit_spec_fields(names)
        assert [d.context["field"] for d in findings] == ["cooldown"]
        assert findings[0].context.get("stale") is True


# --------------------------------------------------------------------------
# 2. The engine consumes the derived table
# --------------------------------------------------------------------------


class TestEngineConsumesDerivedTable:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({}, "merge"),
            ({"percent": 50}, "merge"),
            ({"k_sigma": 2}, "merge"),
            ({"percent": 50, "k_sigma": 2}, "merge"),
            (
                {"percent": 50, "k_sigma": 2, "percentile_alert": "p50"},
                "merge",
            ),
        ],
    )
    def test_fan_out_mode_matches_derived_table(self, kwargs, expected):
        assert ParallelBatchEngine._fan_out_mode(_spec(**kwargs)) == expected

    def test_fan_out_mode_reads_the_table_not_the_spec(self, monkeypatch):
        # Swap the cached table for one that downgrades plain frequency;
        # the engine must follow the table, proving it no longer hardcodes.
        monkeypatch.setattr(
            parallel,
            "_ELIGIBILITY",
            ({"frequency": None}, shape_key_of_spec),
        )
        assert ParallelBatchEngine._fan_out_mode(_spec()) is None


# --------------------------------------------------------------------------
# 3a. The # parallel-mode: kernel check on synthetic sources
# --------------------------------------------------------------------------


def _kernel_file(tmp_path, body):
    path = tmp_path / "backend_kernel.py"
    path.write_text(textwrap.dedent(body))
    return str(path)


class TestKernelFileCheck:
    def test_provable_merge_claim_is_recorded(self, tmp_path):
        path = _kernel_file(
            tmp_path,
            """
            # parallel-mode: merge
            def update(state, ctx, value):
                old = state.counters.read(value)
                state.stats.observe_frequency(old)
                state.counters.write(value, old + 1)
            """,
        )
        findings = check_kernel_file(path)
        assert [d.code for d in findings] == ["ST501"]
        assert findings[0].context["kernel"] == "update"
        assert findings[0].context["declared"] == "merge"

    def test_unprovable_claim_is_an_error(self, tmp_path):
        path = _kernel_file(
            tmp_path,
            """
            # parallel-mode: merge
            def update(state, ctx, value):
                state.current_count += 1
                state.stats.add_value(value)
            """,
        )
        findings = check_kernel_file(path)
        assert [d.code for d in findings] == ["ST502"]
        assert findings[0].severity.value == "error"

    def test_serial_claim_is_always_accepted(self, tmp_path):
        path = _kernel_file(
            tmp_path,
            """
            # parallel-mode: serial
            def update(state, ctx, value):
                state.current_count += 1
                state.window_index += 1
            """,
        )
        findings = check_kernel_file(path)
        assert [d.code for d in findings] == ["ST501"]

    def test_unknown_mode_is_an_error(self, tmp_path):
        path = _kernel_file(
            tmp_path,
            """
            # parallel-mode: warp-speed
            def update(state, ctx, value):
                state.stats.add_value(value)
            """,
        )
        findings = check_kernel_file(path)
        assert [d.code for d in findings] == ["ST502"]

    def test_helper_recursion_is_followed(self, tmp_path):
        # The claimed kernel calls a same-file helper that walks the
        # window cursor; the claim must still be rejected.
        path = _kernel_file(
            tmp_path,
            """
            def _rotate(state):
                state.window_index += 1

            # parallel-mode: merge
            def update(state, ctx, value):
                state.stats.add_value(value)
                _rotate(state)
            """,
        )
        findings = check_kernel_file(path)
        assert [d.code for d in findings] == ["ST502"]


# --------------------------------------------------------------------------
# 3b. The shared-state race lint on synthetic sources
# --------------------------------------------------------------------------


class TestRaceLint:
    def test_unguarded_worker_mutation_is_flagged(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                import threading
                _CACHE = {}
                _LOCK = threading.Lock()

                def task(item):
                    _CACHE[item] = item * 2

                def run(pool, items):
                    return [pool.submit(task, item) for item in items]
                """
            )
        )
        assert [d.code for d in findings] == ["ST503"]
        assert "_CACHE" in findings[0].message

    def test_lock_guarded_mutation_is_clean(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                import threading
                _CACHE = {}
                _LOCK = threading.Lock()

                def task(item):
                    with _LOCK:
                        _CACHE[item] = item * 2

                def run(pool, items):
                    return [pool.submit(task, item) for item in items]
                """
            )
        )
        assert findings == []

    def test_mutation_outside_worker_context_is_clean(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                _CACHE = {}

                def main_thread_only(item):
                    _CACHE[item] = item
                """
            )
        )
        assert findings == []

    def test_worker_context_pragma_declares_foreign_submit(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                _CACHE = {}

                def attach(descriptor):  # worker-context
                    _CACHE[descriptor] = True
                """
            )
        )
        assert [d.code for d in findings] == ["ST503"]

    def test_race_ok_pragma_downgrades_to_info(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                _CACHE = {}

                def task(item):
                    _CACHE[item] = item  # race-ok: single consumer by design
                def run(pool, items):
                    return [pool.submit(task, item) for item in items]
                """
            )
        )
        assert [d.code for d in findings] == ["ST506"]
        assert findings[0].severity.value == "info"

    def test_segment_creation_outside_pack_is_flagged(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                from multiprocessing import shared_memory

                def scratch_segment(size):
                    return shared_memory.SharedMemory(create=True, size=size)
                """
            )
        )
        assert [d.code for d in findings] == ["ST505"]

    def test_segment_creation_inside_pack_is_clean(self):
        findings = check_shared_state_source(
            textwrap.dedent(
                """
                from multiprocessing import shared_memory

                def pack(columns):
                    return shared_memory.SharedMemory(create=True, size=1)
                """
            )
        )
        assert findings == []


class TestRaceLintOnLiveLayer:
    def test_parallel_module_has_no_race_errors(self):
        findings = check_shared_state_file(
            os.path.join(SRC, "stat4", "parallel.py")
        )
        assert [d for d in findings if d.severity.value == "error"] == []

    def test_columns_module_carries_exactly_the_two_documented_waivers(self):
        findings = check_shared_state_file(
            os.path.join(SRC, "traffic", "columns.py")
        )
        assert [d.code for d in findings] == ["ST506", "ST506"]
        # Both waivers are the resource_tracker register swap documented
        # in docs/ANALYSIS.md; a third finding means new shared state.
        assert all("resource_tracker" in d.message for d in findings)

    def test_whole_library_is_clean_under_strict_concurrency(self):
        diags, resolved = analyze_target(SRC, concurrency=True)
        assert resolved
        errors = [d for d in diags if d.severity.value == "error"]
        assert errors == []


# --------------------------------------------------------------------------
# 3c. The known-bad fixture and the CLI gate
# --------------------------------------------------------------------------


class TestKnownBadKernelFixture:
    def test_fixture_profile_is_pinned(self):
        diags, resolved = analyze_target(KNOWN_BAD_KERNEL, concurrency=True)
        assert resolved
        errors = sorted(
            (d.code, d.line)
            for d in diags
            if d.severity.value == "error"
        )
        assert errors == [
            ("ST502", 49),  # bad_window_kernel: merge claim, window cursor
            ("ST502", 66),  # bad_merge_kernel: merge claim, eviction
            ("ST503", 88),
            ("ST505", 107),
        ]
        # The in-file positive control: the good kernel's claim is proven.
        infos = [d for d in diags if d.code == "ST501"]
        assert any(d.context.get("kernel") == "good_merge_kernel" for d in infos)

    def test_strict_cli_gate_rejects_the_fixture(self, capsys):
        assert main(["lint", "--strict", "--concurrency", KNOWN_BAD_KERNEL]) == 1

    def test_without_concurrency_the_fixture_passes(self, capsys):
        # The violations are ST5xx-only; the ST4xx walk must not fire on
        # a # p4-ok-file fixture, keeping the new gate genuinely opt-in.
        assert main(["lint", "--strict", KNOWN_BAD_KERNEL]) == 0


class TestCliJsonReport:
    def test_concurrency_json_carries_tables_and_kernel_target(self, capsys):
        exit_code = main(["lint", "--concurrency", "--json", KNOWN_BAD_KERNEL])
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 0  # non-strict reports without failing
        targets = [t["target"] for t in report["targets"]]
        assert KNOWN_BAD_KERNEL in targets
        assert "<kernel-table>" in targets
        assert report["concurrency"] == {"eligibility": derive_eligibility_table()}

    def test_plain_lint_json_has_no_concurrency_key(self, capsys):
        main(["lint", "--json", CASE_STUDY])
        report = json.loads(capsys.readouterr().out)
        assert "concurrency" not in report


class TestDeploymentClassification:
    def test_opt_in_adds_per_binding_shape_records(self):
        spec, diags = load_deployment(CASE_STUDY)
        assert spec is not None and diags == []
        baseline = analyze_deployment(spec)
        assert not any(d.code == "ST501" for d in baseline)
        with_shapes = analyze_deployment(spec, concurrency=True)
        records = [d for d in with_shapes if d.code == "ST501"]
        assert records
        for record in records:
            assert record.context["shape"] in derive_eligibility_table()
            assert "binding" in record.context

    def test_binding_verdict_matches_the_kernel_table_record(self):
        # syn_flood.json binds a tracker plus k·σ (percent and k_sigma):
        # the binding's record must carry the kernel table's verdict for
        # that shape, not a label of its own.
        spec, diags = load_deployment(SYN_FLOOD)
        assert spec is not None and diags == []
        records = [
            d for d in analyze_deployment(spec, concurrency=True)
            if d.code == "ST501"
        ]
        binding = next(d for d in records if d.context["binding"] == 0)
        assert binding.context["shape"] == "frequency+tracked+alerting"
        table = {d.context["shape"]: d for d in classification_report()}
        expected = table["frequency+tracked+alerting"]
        for key in ("classification", "mode"):
            assert binding.context[key] == expected.context[key], key


# --------------------------------------------------------------------------
# 4. The runtime witness: tracer over a real thread pool
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scenario_name", DENSE_SCENARIOS)
def test_fan_out_has_no_access_conflicts(scenario_name, monkeypatch):
    contexts = generate_trace(7, packets=5_000)
    scalar = SCENARIOS[scenario_name]()
    fanned = SCENARIOS[scenario_name]()
    scalar_digests = process_scalar(scalar, contexts)

    tracer = AccessTracer()
    instrument_stat4(tracer, fanned)
    real_task = parallel._tally_task

    def traced_task(*args, **kwargs):
        # The only thing workers are allowed to touch: their own chunk
        # (and, for a speculating chunk, a private copy of the snapshot).
        tracer.note("chunk-tally", "_tally_task", write=False)
        return real_task(*args, **kwargs)

    monkeypatch.setattr(parallel, "_tally_task", traced_task)

    engine = ParallelBatchEngine(
        fanned, workers=4, executor="thread", min_chunk=128
    )
    digests = []
    kernels = {}
    for chunk in split_batch(PacketBatch.from_contexts(contexts), 1_500):
        result = engine.process(chunk)
        digests.extend(result.digests)
        for name, count in result.kernels.items():
            kernels[name] = kernels.get(name, 0) + count

    # The run really fanned out (did not silently delegate to serial)...
    assert kernels.get("merge_parallel", 0) > 0
    worker_threads = {
        t for t in tracer.threads_touching("chunk-tally") if t != "MainThread"
    }
    assert worker_threads, "no pool thread executed a chunk tally"
    assert all(t.startswith("repro-ingest") for t in worker_threads)

    # ...yet no subject was touched by two threads with a write among the
    # accesses, and kernel state stayed exclusively on the apply thread.
    assert tracer.conflicts() == []
    for subject in tracer.subjects() - {"chunk-tally"}:
        assert tracer.threads_touching(subject) == {"MainThread"}, subject
        for thread in tracer.writes_by_thread(subject):
            assert thread == "MainThread"

    # And the witnessed run is still bit-identical to the scalar oracle.
    assert_equal_state(scalar, fanned, scalar_digests, digests)
