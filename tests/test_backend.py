"""Execution-backend registry and bytes/numpy engine parity.

The byte interpreter is the semantic oracle; the batched NumPy backend
must reproduce its final memory image *and* its operation counters
exactly — the cost model counts operations of the program, not of the
engine (DESIGN.md §5).  These tests pin the registry contract and the
parity on hand-picked deterministic cases; ``test_differential.py``
extends the parity property to random loops.
"""

import random

import pytest

from repro.errors import MachineError
from repro.ir import LoopBuilder
from repro.machine import (
    BACKEND_CHOICES,
    BytesBackend,
    ExecutionBackend,
    RunBindings,
    default_backend_name,
    get_backend,
    numpy_available,
)
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")


class TestRegistry:
    def test_bytes_backend(self):
        engine = get_backend("bytes")
        assert isinstance(engine, BytesBackend)
        assert engine.name == "bytes"
        assert isinstance(engine, ExecutionBackend)

    @needs_numpy
    def test_numpy_backend(self):
        engine = get_backend("numpy")
        assert engine.name == "numpy"
        assert isinstance(engine, ExecutionBackend)

    @needs_numpy
    def test_jit_backend(self):
        engine = get_backend("jit")
        assert engine.name == "jit"
        assert isinstance(engine, ExecutionBackend)

    def test_auto_resolution(self):
        assert default_backend_name() in ("bytes", "numpy")
        assert get_backend("auto").name == default_backend_name()
        assert get_backend().name == default_backend_name()

    def test_unknown_backend_rejected(self):
        with pytest.raises(MachineError, match="unknown execution backend"):
            get_backend("cuda")
        assert set(BACKEND_CHOICES) == {"auto", "bytes", "numpy", "jit",
                                        "native"}

    def test_without_numpy_auto_falls_back(self, monkeypatch):
        import repro.machine.backend as backend_mod

        monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        assert backend_mod.default_backend_name() == "bytes"
        assert backend_mod.get_backend("auto").name == "bytes"
        with pytest.raises(MachineError, match="needs numpy"):
            backend_mod.get_backend("numpy")
        with pytest.raises(MachineError, match="needs numpy"):
            backend_mod.get_backend("jit")


def run_both(loop, options=None, V=16, seed=0, trip=None, residues=None):
    """Run one simdized loop under every engine; assert exact parity."""
    result = simdize(loop, V, options or SimdOptions())
    rand = random.Random(seed)
    space = make_space(loop, V, rand, residues)
    base = space.make_memory()
    fill_random(space, base, rand)
    bindings = RunBindings(trip=trip)

    outcomes = {}
    for name in ("bytes", "numpy", "jit"):
        mem = base.clone()
        run = get_backend(name).run(result.program, space, mem, bindings)
        outcomes[name] = (mem.snapshot(), run.counters.as_dict(),
                          run.trip, run.used_fallback)
    b = outcomes["bytes"]
    for name in ("numpy", "jit"):
        n = outcomes[name]
        assert b[0] == n[0], f"memory images differ (bytes vs {name})"
        assert b[1] == n[1], f"counters differ (bytes vs {name}): {b[1]} vs {n[1]}"
        assert b[2:] == n[2:]
    return outcomes["bytes"]


@needs_numpy
class TestEngineParity:
    @pytest.mark.parametrize("policy", ["zero", "eager", "lazy", "dominant"])
    @pytest.mark.parametrize("unroll", [1, 3])
    def test_fig1_all_policies(self, policy, unroll):
        options = SimdOptions(policy=policy, reuse="sp", unroll=unroll)
        run_both(build_fig1(trip=77), options, seed=3)

    def test_no_reuse_and_pc(self):
        for reuse in ("none", "pc", "sp+pc"):
            run_both(build_fig1(trip=50), SimdOptions(reuse=reuse))

    def test_runtime_alignment(self):
        lb = LoopBuilder(trip=60)
        a = lb.array("a", "int16", 128, align=None)
        b = lb.array("b", "int16", 128, align=None)
        lb.assign(a[2], b[5])
        run_both(lb.build(), SimdOptions(policy="zero", reuse="sp"),
                 residues={"a": 4, "b": 10}, seed=7)

    def test_runtime_trip_guard_fallback(self):
        """Trip below the guard runs the scalar fallback on both engines."""
        lb = LoopBuilder(trip="n")
        a = lb.array("a", "int32", 64)
        b = lb.array("b", "int32", 64)
        lb.assign(a[1], b[2])
        loop = lb.build()
        _, _, trip, used_fallback = run_both(
            loop, SimdOptions(policy="zero"), trip=7)
        assert trip == 7 and used_fallback

    def test_runtime_trip_vector_path(self):
        lb = LoopBuilder(trip="n")
        a = lb.array("a", "int32", 256, align=None)
        b = lb.array("b", "int32", 256, align=None)
        lb.assign(a[1], b[2] + b[6])
        _, _, trip, used_fallback = run_both(
            lb.build(), SimdOptions(policy="zero", reuse="sp"),
            trip=131, residues={"a": 8, "b": 0})
        assert trip == 131 and not used_fallback

    @pytest.mark.parametrize("op", ["add", "mul", "min", "max"])
    def test_reduction_loop(self, op):
        """Reduction self-cycles batch as exact lane-wise folds — the
        numpy backend must match the oracle *without* falling back."""
        lb = LoopBuilder(trip=90)
        out = lb.array("out", "int32", 8)
        b = lb.array("b", "int32", 128)
        c = lb.array("c", "int32", 128)
        lb.reduce(out, 0, op, b[1] + c[2])
        _, _, _, used_fallback = run_both(lb.build(), seed=11)
        assert used_fallback is False

    def test_colliding_windows_batch(self):
        """A stored array also loaded (anti-dependence) batches via
        snapshot-served loads — no per-iteration fallback."""
        lb = LoopBuilder(trip=85)
        a = lb.array("a", "int32", 160)
        b = lb.array("b", "int32", 160)
        lb.assign(a[0], a[3] + b[1])
        _, _, _, used_fallback = run_both(lb.build(), seed=13)
        assert used_fallback is False

    def test_same_element_rewrite_batches(self):
        """a[i] = f(a[i], …): load and store share every window."""
        lb = LoopBuilder(trip=64)
        a = lb.array("a", "int8", 96)
        b = lb.array("b", "int8", 96)
        lb.assign(a[2], a[2].avg(b[1]))
        _, _, _, used_fallback = run_both(lb.build(), seed=17)
        assert used_fallback is False

    def test_iota_loop(self):
        lb = LoopBuilder(trip=70)
        a = lb.array("a", "int32", 128)
        lb.assign(a[1], lb.index_value())
        run_both(lb.build(), SimdOptions(policy="zero"))

    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32"])
    def test_dtypes(self, dtype):
        lb = LoopBuilder(trip=55)
        a = lb.array("a", dtype, 160)
        b = lb.array("b", dtype, 160)
        c = lb.array("c", dtype, 160)
        lb.assign(a[3], b[1] + c[6])
        run_both(lb.build(), SimdOptions(reuse="sp", unroll=2), seed=5)

    @pytest.mark.parametrize("backend", ["numpy", "jit"])
    def test_figure_sweep_never_falls_back(self, backend):
        """No Figure 11/12 sweep configuration may take the batched
        engines' per-iteration path (they are all batchable now)."""
        from repro.bench import figure_configs
        from repro.bench.runner import _cached_simdize
        from repro.bench.synth import synthesize
        from repro.simdize.verify import fill_random as fill

        engine = get_backend(backend)
        for label, config in figure_configs(False, count=1, trip=101):
            syn = synthesize(config.params, config.seed, config.V)
            result = _cached_simdize(syn.loop, config.V, config.options)
            rand = random.Random(config.seed ^ 0x5EED)
            space = make_space(syn.loop, config.V, rand, syn.base_residues)
            mem = space.make_memory()
            fill(space, mem, rand)
            trip = config.params.trip if syn.loop.runtime_upper else None
            run = engine.run(result.program, space, mem,
                             RunBindings(trip=trip))
            assert run.used_fallback is False, f"{label} fell back"


@needs_numpy
class TestFigureSweepParity:
    """Acceptance criterion: every array tier is byte-identical and
    counter-identical to the bytes oracle across the Figure 11/12
    sweep space (every scheme × compile-time/runtime alignment)."""

    @pytest.mark.parametrize("offset_reassoc", [False, True],
                             ids=["fig11", "fig12"])
    @pytest.mark.parametrize("backend", ["numpy", "jit", "native"])
    def test_sweep_matches_bytes_oracle(self, backend, offset_reassoc):
        from repro.bench import figure_configs
        from repro.bench.runner import _cached_simdize
        from repro.bench.synth import synthesize
        from repro.machine import native

        if backend == "native" and native._compiler_identity()[0] is None:
            pytest.skip("no host C compiler")
        for label, config in figure_configs(offset_reassoc, count=1, trip=67):
            syn = synthesize(config.params, config.seed, config.V)
            result = _cached_simdize(syn.loop, config.V, config.options)
            rand = random.Random(config.seed ^ 0x5EED)
            space = make_space(syn.loop, config.V, rand, syn.base_residues)
            base = space.make_memory()
            fill_random(space, base, rand)
            trip = config.params.trip if syn.loop.runtime_upper else None
            runs = {}
            for name in ("bytes", backend):
                mem = base.clone()
                run = get_backend(name).run(result.program, space, mem,
                                            RunBindings(trip=trip))
                runs[name] = (mem.snapshot(), run.counters.as_dict(),
                              run.trip, run.used_fallback)
            assert runs["bytes"] == runs[backend], f"{label} diverged"
