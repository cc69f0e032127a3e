"""Kernel dispatch and generated-kernel unit tests.

Bit-identity of every kernel against the scalar oracle is pinned by the
hypothesis differentials (``test_batch_differential``, with numpy's
optional array paths on and hidden).  This module covers what
those sweeps cannot see:

- every constructible shape runs the one kernel its dispatch names (the
  ``BatchResult.kernels`` counter);
- the generated sources the lint audits are exactly the shapes that
  dispatch to a generated kernel;
- a batch engine with every shape bound imports no ``repro.analysis``
  module (checked in a fresh interpreter, with and without numpy);
- ``Stat4Runtime.rebind`` mints a new binding generation, which misses
  the kernel cache and recompiles, and the recompiled kernel stays exact;
- the kernel cache stays bounded under eviction pressure.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.stat4 import (
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from tests.numpy_paths import NUMPY_MODES
from tests.stat4.test_batch_differential import (
    MATCH_ALL,
    assert_equal_state,
    generate_trace,
    process_scalar,
)

PACKETS = 1_500


# -- shape builders -----------------------------------------------------------
#
# One (config, spec) point per constructible shape key, adversarially
# small geometries (64 cells, wrap-prone widths stay default).  Each
# builder returns (stat4, runtime, handle) so rebind tests can reuse it.


def _freq(k_sigma=0, percent=None, percentile_alert=""):
    def build():
        config = Stat4Config(counter_num=2, counter_size=64, binding_stages=1)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.frequency_of(
            0,
            ExtractSpec.field("ipv4.dst", mask=0x3F),
            k_sigma=k_sigma,
            percent=percent,
            percentile_alert=percentile_alert,
            min_samples=3,
        )
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        return stat4, runtime, handle

    return build


def _time_series(k_sigma):
    def build():
        config = Stat4Config(counter_num=2, counter_size=64, binding_stages=1)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.rate_over_time(
            0, interval=0.008, k_sigma=k_sigma, min_samples=3, window=12
        )
        handle, _ = runtime.bind(0, MATCH_ALL, spec)
        return stat4, runtime, handle

    return build


def _sparse(k_sigma):
    def build():
        config = Stat4Config(
            counter_num=2, counter_size=64, binding_stages=1, sparse_dists=(0,)
        )
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.sparse_frequency_of(
            0, ExtractSpec.field("ipv4.dst"), k_sigma=k_sigma
        )
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        return stat4, runtime, handle

    return build


SHAPE_BUILDERS = {
    "frequency": _freq(),
    "frequency+alerting": _freq(k_sigma=2),
    "frequency+tracked": _freq(percent=50),
    "frequency+tracked+alerting": _freq(k_sigma=2, percent=50),
    "frequency+tracked+percentile_alert": _freq(
        percent=50, percentile_alert="median_moved"
    ),
    "frequency+tracked+alerting+percentile_alert": _freq(
        k_sigma=2, percent=50, percentile_alert="median_moved"
    ),
    "time_series": _time_series(k_sigma=0),
    "time_series+alerting": _time_series(k_sigma=2),
    "sparse_frequency": _sparse(k_sigma=0),
    "sparse_frequency+alerting": _sparse(k_sigma=2),
}


#: The one kernel each shape runs.
EXPECTED_KERNELS = {
    "frequency": "frequency_fast",
    "frequency+alerting": "exact_loop",
    "frequency+tracked": "exact_loop",
    "frequency+tracked+alerting": "exact_loop",
    "frequency+tracked+percentile_alert": "exact_loop",
    "frequency+tracked+alerting+percentile_alert": "exact_loop",
    "time_series": "time_series",
    "time_series+alerting": "time_series",
    "sparse_frequency": "sparse_fast",
    "sparse_frequency+alerting": "sparse_fast",
}


def test_builders_cover_every_constructible_shape():
    from repro.stat4.distributions import enumerate_shapes

    shapes = {shape.key for shape in enumerate_shapes()}
    assert set(SHAPE_BUILDERS) == shapes
    assert set(EXPECTED_KERNELS) == shapes


@pytest.mark.parametrize("shape_key", sorted(SHAPE_BUILDERS))
def test_every_shape_takes_its_kernel(shape_key):
    # The differential sweeps prove exactness; this pins *dispatch* — a
    # shape quietly running another exact kernel would still pass them,
    # so the kernel counter is asserted instead.
    contexts = generate_trace(7, packets=PACKETS)
    scalar, _, _ = SHAPE_BUILDERS[shape_key]()
    scalar_digests = process_scalar(scalar, contexts)
    batched, _, _ = SHAPE_BUILDERS[shape_key]()
    result = BatchEngine(batched).process(PacketBatch.from_contexts(contexts))
    assert set(result.kernels) == {EXPECTED_KERNELS[shape_key]}
    assert_equal_state(scalar, batched, scalar_digests, list(result.digests))


def test_reference_sources_are_the_generated_dispatch_shapes():
    from repro.stat4.batch import GENERATED_KERNELS
    from repro.stat4.compiled import reference_sources

    generated = {
        key for key, kernel in EXPECTED_KERNELS.items() if kernel in GENERATED_KERNELS
    }
    assert set(reference_sources()) == generated
    assert len(generated) == 7


#: Binds every constructible shape on its own slot and stage, runs one
#: batch, and reports which ``repro.analysis`` modules got imported.  In
#: ``python`` mode an import hook makes numpy unimportable first.
_IMPORT_PROBE = textwrap.dedent(
    """
    import sys

    class HideNumpy:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ModuleNotFoundError("numpy is hidden", name="numpy")
            return None

    if sys.argv[1] == "python":
        sys.meta_path.insert(0, HideNumpy())

    from repro.stat4 import (
        MATCH_ALL, BatchEngine, ExtractSpec, PacketBatch, Stat4, Stat4Config,
        Stat4Runtime,
    )

    config = Stat4Config(
        counter_num=10, counter_size=64, binding_stages=10, sparse_dists=(8, 9)
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    dst = ExtractSpec.field("ipv4.dst", mask=0x3F)
    specs = [
        runtime.frequency_of(0, dst),
        runtime.frequency_of(1, dst, k_sigma=2),
        runtime.frequency_of(2, dst, percent=50),
        runtime.frequency_of(3, dst, k_sigma=2, percent=50),
        runtime.frequency_of(4, dst, percent=50, percentile_alert="moved"),
        runtime.frequency_of(
            5, dst, k_sigma=2, percent=50, percentile_alert="moved"
        ),
        runtime.rate_over_time(6, interval=0.008, k_sigma=0),
        runtime.rate_over_time(7, interval=0.008, k_sigma=2),
        runtime.sparse_frequency_of(8, ExtractSpec.field("ipv4.dst")),
        runtime.sparse_frequency_of(9, ExtractSpec.field("ipv4.dst"), k_sigma=2),
    ]
    for stage, spec in enumerate(specs):
        runtime.bind(stage, MATCH_ALL, spec)
    n = 4096
    batch = PacketBatch(
        timestamps=[i * 0.001 for i in range(n)],
        keys=[(0x0800, i % 97, 6, 0) for i in range(n)],
        columns={"ipv4.dst": [(i * 7919) % 4099 for i in range(n)]},
    )
    result = BatchEngine(stat4).process(batch)
    assert len(result.kernels) == 4, result.kernels
    assert ("numpy" in sys.modules) == (sys.argv[1] == "numpy")
    print(sorted(m for m in sys.modules if m.startswith("repro.analysis")))
    """
)


@pytest.mark.parametrize("mode", NUMPY_MODES)
def test_engine_path_does_not_import_the_analyzer(mode):
    # Every engine builds the kernel library; importing the analyzer on
    # that path would land in every service's start-up time and memory.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


# -- rebind invalidation ------------------------------------------------------


def test_rebind_invalidates_generated_source_cache():
    from repro.stat4.compiled import compiled_kernel

    contexts = generate_trace(5, packets=PACKETS)
    stat4, runtime, handle = SHAPE_BUILDERS["frequency+alerting"]()
    engine = BatchEngine(stat4)
    compiled_kernel.cache_clear()
    engine.process(PacketBatch.from_contexts(contexts))
    assert compiled_kernel.cache_info().misses == 1
    engine.process(PacketBatch.from_contexts(contexts))
    assert compiled_kernel.cache_info().misses == 1, "kernel recompiled"
    runtime.rebind(handle)  # bumps the binding generation, resets the slot
    engine.process(PacketBatch.from_contexts(contexts))
    info = compiled_kernel.cache_info()
    assert info.misses == 2, "stale-generation kernel was reused"
    assert info.currsize == 2


def test_rebind_recompile_stays_exact():
    # Same rebind point on the scalar twin: the recompiled kernel picks
    # up the new generation's state reset and stays bit-identical.
    contexts = generate_trace(23, packets=PACKETS)
    half = len(contexts) // 2
    scalar, scalar_rt, scalar_handle = SHAPE_BUILDERS["frequency+alerting"]()
    batched, batched_rt, batched_handle = SHAPE_BUILDERS[
        "frequency+alerting"
    ]()
    engine = BatchEngine(batched)
    scalar_digests = process_scalar(scalar, contexts[:half])
    batched_digests = list(
        engine.process(PacketBatch.from_contexts(contexts[:half])).digests
    )
    scalar_rt.rebind(scalar_handle)
    batched_rt.rebind(batched_handle)
    scalar_digests += process_scalar(scalar, contexts[half:])
    batched_digests += list(
        engine.process(PacketBatch.from_contexts(contexts[half:])).digests
    )
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)


def test_kernel_cache_stays_bounded(monkeypatch):
    import functools

    from repro.stat4 import compiled as compiled_mod

    assert compiled_mod.compiled_kernel.cache_info().maxsize == (
        compiled_mod._CACHE_LIMIT
    )
    # Two shapes sharing a one-entry cache evict each other on every run.
    tiny = functools.lru_cache(maxsize=1)(compiled_mod.compiled_kernel.__wrapped__)
    monkeypatch.setattr(compiled_mod, "compiled_kernel", tiny)

    def build():
        config = Stat4Config(counter_num=2, counter_size=64, binding_stages=2)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec_a = runtime.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0x3F), k_sigma=2
        )
        spec_b = runtime.frequency_of(
            1, ExtractSpec.field("ipv4.dst", mask=0x3F), k_sigma=2, percent=50
        )
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec_a)
        runtime.bind(1, BindingMatch(ether_type=0x0800), spec_b)
        return stat4

    contexts = generate_trace(29, packets=PACKETS)
    scalar = build()
    batched = build()
    scalar_digests = process_scalar(scalar, contexts)
    engine = BatchEngine(batched)
    result = engine.process(PacketBatch.from_contexts(contexts))
    assert tiny.cache_info().currsize == 1
    assert tiny.cache_info().misses >= 2
    assert_equal_state(scalar, batched, scalar_digests, list(result.digests))


# -- generated sources --------------------------------------------------------


def test_reference_sources_pass_the_generated_kernel_lint():
    from repro.analysis.kernels import check_generated_kernels

    assert check_generated_kernels() == []


def test_lint_rejects_source_outside_the_op_set():
    import ast

    from repro.analysis.kernels import _generated_source_violations

    division = "def kernel(x):\n    return x / 2\n"
    assert _generated_source_violations(ast.parse(division))
    imports = "import os\ndef kernel(x):\n    return x\n"
    assert _generated_source_violations(ast.parse(imports))
    clean = "def kernel(x):\n    return (x << 1) + 1\n"
    assert _generated_source_violations(ast.parse(clean)) == []


def test_generated_sources_compile_and_name_their_shape():
    from repro.stat4.compiled import (
        GENERATED_KERNELS,
        exec_compile,
        reference_sources,
    )

    sources = reference_sources()
    generated = [k for k in EXPECTED_KERNELS.values() if k in GENERATED_KERNELS]
    assert len(sources) == len(generated) == 7
    for shape_key, source in sources.items():
        assert f"# shape: {shape_key}\n" in source, shape_key
        assert callable(exec_compile(source)), shape_key
