"""Wall-clock comparison of the bytes/numpy/jit/native engines
(``BENCH_interp.json``).

Measurements over a fixed, seeded Figure-11 sweep:

* **engine time** — vector ``backend.run()`` alone on pre-simdized
  programs and pre-filled memories, bytes vs numpy.  This isolates the
  vector interpreter, where the batched backend collapses the steady
  loop into O(statements) NumPy calls; the acceptance bar is a >= 10x
  speedup at paper-scale trip counts.
* **jit time** — the same repeated-trip workload on the compile-once
  jit engine (kernels warmed, so this times pure re-execution, the
  sweep steady state); bar: >= 2x over the numpy engine, which
  re-plans and tree-walks the splice sections on every run.
* **compile path** — cold vs warm jit codegen against a shared disk
  cache: the cold pass lowers every program, the warm pass (memory
  cache cleared) must load every kernel spec from disk.
* **native tier** — the same workload with the steady loop compiled
  to machine code via the C emitter, both whole-run and
  steady-loop-only vs jit; bar: >= 5x on the steady loop (10x is the
  recorded target) and a 100% warm disk hit rate for the shared
  objects.  Skipped (recorded, not failed) on hosts without a C
  compiler.
* **compile pipeline** — cold kernel acquisition one-cc-per-signature
  vs one batched multi-kernel translation unit
  (``compilequeue.precompile``).  Bars: <= 6 cc invocations for the
  full signature set and >= 1.25x batched cold speedup.
* **scalar-engine time** — the scalar-reference engines on the same
  loops, bytes (per-iteration interpreter) vs numpy (whole-array
  shifted-window evaluation); bar: >= 10x.
* **verify-path time** — the end-to-end sweep (synthesize + simdize +
  scalar reference + vector run + byte-for-byte verify) with *both*
  engines forced to bytes vs both forced to numpy, at the same
  paper-scale trip; bar: >= 5x.  This is the number that used to be
  scalar-dominated before the batched scalar engine existed.
* **native simd** — the vector-extension emitter vs the scalar-lane
  emitter on identical pre-marshalled steady-kernel calls (the
  marshalling around one ctypes crossing is mode-invariant and would
  drown the kernel body at engine level), plus a measured
  aligned-vs-shifted kernel pair.  Bars: >= 1.3x on the
  direct steady path and a >= 1.05x measured realignment overhead —
  the paper's aligned-access claim on real hardware.  Skipped when cc
  fails the vector-extension probe.

The sweep-level figures (worker counts, cold and warm caches, the
serving tier) are measured end to end by ``perfbench/``.

Results land in ``BENCH_interp.json`` at the repo root and in
``benchmarks/results/speed.*.txt``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import random
import tempfile
import time
from dataclasses import dataclass

import pytest

from repro.bench import SweepConfig, figure_configs, measure_many
from repro.bench.runner import _cached_simdize
from repro.bench.synth import synthesize
from repro.cache import reset_cache_dir, set_cache_dir
from repro.machine import get_backend, get_scalar_backend, numpy_available
from repro.machine.scalar import RunBindings
from repro.simdize.verify import fill_random, make_space

from conftest import FULL, record

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fixed workload: every Figure-11 scheme bar, a couple of loops each,
#: at a paper-scale trip count so the steady loop dominates.
SPEED_COUNT = 3 if FULL else 2
SPEED_TRIP = 2039
ROUNDS = 3


@dataclass
class _Workload:
    label: str
    program: object
    space: object
    mem: object
    bindings: RunBindings


def _build_workloads() -> list[_Workload]:
    workloads = []
    for label, config in figure_configs(False, count=SPEED_COUNT,
                                        trip=SPEED_TRIP):
        syn = synthesize(config.params, config.seed, config.V)
        result = _cached_simdize(syn.loop, config.V, config.options)
        rng = random.Random(config.seed ^ 0x5EED)
        space = make_space(syn.loop, config.V, rng, syn.base_residues)
        mem = space.make_memory()
        fill_random(space, mem, rng)
        trip = SPEED_TRIP if syn.loop.runtime_upper else None
        workloads.append(_Workload(label, result.program, space, mem,
                                   RunBindings(trip=trip)))
    return workloads


def _time_engines(engines, workloads: list[_Workload]) -> list[float]:
    """Best-of-``ROUNDS`` time of each engine over ``workloads``.

    The engines alternate round by round, so a host that changes speed
    mid-measurement slows every engine alike instead of only the one
    timed last.
    """
    best = [float("inf")] * len(engines)
    for _ in range(ROUNDS):
        for side, engine in enumerate(engines):
            mems = [w.mem.clone() for w in workloads]
            start = time.perf_counter()
            for w, mem in zip(workloads, mems):
                engine.run(w.program, w.space, mem, w.bindings)
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def _time_scalar_engine(engine, workloads: list[_Workload]) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        mems = [w.mem.clone() for w in workloads]
        start = time.perf_counter()
        for w, mem in zip(workloads, mems):
            engine.run(w.program.source, w.space, mem, w.bindings)
        best = min(best, time.perf_counter() - start)
    return best


def _time_sweep(configs: list[SweepConfig], backend: str,
                scalar_backend: str) -> float:
    start = time.perf_counter()
    measure_many(configs, jobs=1, backend=backend,
                 scalar_backend=scalar_backend)
    return time.perf_counter() - start


def test_backend_speed():
    pytest.importorskip("numpy")
    assert numpy_available()

    workloads = _build_workloads()
    bytes_engine = get_backend("bytes")
    numpy_engine = get_backend("numpy")

    # Sanity: both engines produce identical memory on one workload.
    probe = workloads[0]
    mem_b, mem_n = probe.mem.clone(), probe.mem.clone()
    bytes_engine.run(probe.program, probe.space, mem_b, probe.bindings)
    numpy_engine.run(probe.program, probe.space, mem_n, probe.bindings)
    assert mem_b.snapshot() == mem_n.snapshot()

    bytes_s, numpy_s = _time_engines([bytes_engine, numpy_engine], workloads)
    speedup = bytes_s / numpy_s

    # The compile-once jit engine on the same repeated-trip workload.
    # One warm pass compiles + caches every kernel; the timed rounds
    # then measure the steady state a sweep actually runs in, against
    # numpy rounds timed alternately with them.  Cold
    # codegen happens against a throwaway shared disk cache, and a
    # second cold-memory pass measures pure disk-spec loads.
    from repro.machine import jit

    with tempfile.TemporaryDirectory() as cache_root:
        set_cache_dir(cache_root)
        try:
            jit.clear_memory_cache()
            stats0 = dict(jit.STATS)
            start = time.perf_counter()
            for w in workloads:
                get_backend("jit").run(w.program, w.space, w.mem.clone(),
                                       w.bindings)
            jit_cold_s = time.perf_counter() - start
            stats1 = dict(jit.STATS)

            jit_numpy_s, jit_s = _time_engines(
                [numpy_engine, get_backend("jit")], workloads)
            jit_speedup = jit_numpy_s / jit_s

            jit.clear_memory_cache()
            start = time.perf_counter()
            for w in workloads:
                get_backend("jit").run(w.program, w.space, w.mem.clone(),
                                       w.bindings)
            jit_warm_s = time.perf_counter() - start
            stats2 = dict(jit.STATS)
        finally:
            reset_cache_dir()
            jit.clear_memory_cache()

    cold_codegens = stats1["codegens"] - stats0["codegens"]
    cold_compile_s = stats1["compile_s"] - stats0["compile_s"]
    warm_lookups = (stats2["disk_hits"] + stats2["disk_misses"]
                    - stats1["disk_hits"] - stats1["disk_misses"])
    warm_disk_hits = stats2["disk_hits"] - stats1["disk_hits"]
    warm_compile_s = stats2["compile_s"] - stats1["compile_s"]
    disk_hit_rate = warm_disk_hits / warm_lookups if warm_lookups else 0.0

    # The native tier: the same repeated-trip workload with the steady
    # loop compiled to machine code.  Two views are recorded — the
    # steady loop alone (the component the tier replaces; this carries
    # the acceptance bar) and the whole run (the net win after the
    # prologue/epilogue/verify work both tiers share).  Cold codegen
    # runs against a throwaway shared disk cache; a cleared-memory
    # second pass must then hit the disk for every shared object.
    from repro.machine import native as native_mod
    from repro.machine.jit import JitBackend
    from repro.machine.native import NativeBackend

    native_section: dict
    if native_mod._compiler_identity()[0] is None:
        native_section = {"skipped": "no C compiler on host"}
        native_steady_speedup = None
        native_hit_rate = None
    else:
        steady_acc = [0.0]
        real_jit_steady = JitBackend.__dict__["_steady"]
        real_native_steady = NativeBackend.__dict__["_steady"]

        def _timed(inner):
            def hook(self, env, steady, kernel):
                start = time.perf_counter()
                try:
                    return inner(self, env, steady, kernel)
                finally:
                    steady_acc[0] += time.perf_counter() - start
            return hook

        def _steady_time(engine) -> float:
            best = float("inf")
            for _ in range(ROUNDS):
                mems = [w.mem.clone() for w in workloads]
                steady_acc[0] = 0.0
                for w, mem in zip(workloads, mems):
                    engine.run(w.program, w.space, mem, w.bindings)
                best = min(best, steady_acc[0])
            return best

        with tempfile.TemporaryDirectory() as cache_root:
            set_cache_dir(cache_root)
            JitBackend._steady = _timed(real_jit_steady)
            NativeBackend._steady = _timed(real_native_steady)
            try:
                jit.clear_memory_cache()
                native_mod.clear_memory_cache()
                nstats0 = dict(native_mod.STATS)
                start = time.perf_counter()
                for w in workloads:
                    get_backend("native").run(w.program, w.space,
                                              w.mem.clone(), w.bindings)
                native_cold_s = time.perf_counter() - start
                nstats1 = dict(native_mod.STATS)
                for w in workloads:  # warm the jit kernels too
                    get_backend("jit").run(w.program, w.space,
                                           w.mem.clone(), w.bindings)

                [native_s] = _time_engines([get_backend("native")],
                                           workloads)
                jit_steady_s = _steady_time(get_backend("jit"))
                native_steady_s = _steady_time(get_backend("native"))

                native_mod.clear_memory_cache()
                start = time.perf_counter()
                for w in workloads:
                    get_backend("native").run(w.program, w.space,
                                              w.mem.clone(), w.bindings)
                native_warm_s = time.perf_counter() - start
                nstats2 = dict(native_mod.STATS)
            finally:
                JitBackend._steady = real_jit_steady
                NativeBackend._steady = real_native_steady
                reset_cache_dir()
                jit.clear_memory_cache()
                native_mod.clear_memory_cache()

        native_codegens = nstats1["codegens"] - nstats0["codegens"]
        native_cc_s = nstats1["cc_s"] - nstats0["cc_s"]
        native_lookups = (nstats2["disk_hits"] + nstats2["disk_misses"]
                          - nstats1["disk_hits"] - nstats1["disk_misses"])
        native_disk_hits = nstats2["disk_hits"] - nstats1["disk_hits"]
        native_hit_rate = (native_disk_hits / native_lookups
                           if native_lookups else 0.0)
        native_speedup = jit_s / native_s
        native_steady_speedup = jit_steady_s / native_steady_s
        native_section = {
            "jit_s": round(jit_s, 4),
            "native_s": round(native_s, 4),
            "speedup_vs_jit": round(native_speedup, 2),
            "jit_steady_s": round(jit_steady_s, 4),
            "native_steady_s": round(native_steady_s, 4),
            "steady_speedup": round(native_steady_speedup, 2),
            "kernels_compiled": native_codegens,
            "cc_s": round(native_cc_s, 4),
            "cold_s": round(native_cold_s, 4),
            "warm_from_disk_s": round(native_warm_s, 4),
            "warm_disk_lookups": native_lookups,
            "warm_disk_hits": native_disk_hits,
            "disk_hit_rate": round(native_hit_rate, 2),
        }

    # The batched compile pipeline on the same signature set: cold
    # acquisition one-cc-per-kernel (the path a kernel takes outside a
    # sweep's prewarm) vs one batched precompile.
    pipeline_section: dict
    if "skipped" in native_section:
        pipeline_section = {"skipped": native_section["skipped"]}
        pipeline_invocations = None
        pipeline_cold_speedup = None
    else:
        from repro.machine import compilequeue

        unique = []
        seen_sigs = set()
        for w in workloads:
            sig = jit.program_signature(w.program)
            if sig not in seen_sigs:
                seen_sigs.add(sig)
                unique.append(w)

        def _acquire_all() -> float:
            start = time.perf_counter()
            for w in unique:
                native_mod.get_native_kernel(w.program)
            return time.perf_counter() - start

        with tempfile.TemporaryDirectory() as cache_root:
            set_cache_dir(cache_root)
            try:
                native_mod.clear_memory_cache()
                pstats0 = dict(native_mod.STATS)
                perkernel_cold_s = _acquire_all()
                pstats1 = dict(native_mod.STATS)
            finally:
                reset_cache_dir()
                native_mod.clear_memory_cache()

        with tempfile.TemporaryDirectory() as cache_root:
            set_cache_dir(cache_root)
            try:
                native_mod.clear_memory_cache()
                start = time.perf_counter()
                compilequeue.precompile([w.program for w in unique])
                _acquire_all()   # all memory hits after the batch
                pipeline_cold_s = time.perf_counter() - start
                pstats2 = dict(native_mod.STATS)
            finally:
                reset_cache_dir()
                native_mod.clear_memory_cache()

        perkernel_invocations = (pstats1["cc_invocations"]
                                 - pstats0["cc_invocations"])
        pipeline_invocations = (pstats2["cc_invocations"]
                                - pstats1["cc_invocations"])
        pipeline_cold_speedup = perkernel_cold_s / pipeline_cold_s
        pipeline_section = {
            "signatures": len(unique),
            "perkernel_cold_s": round(perkernel_cold_s, 4),
            "perkernel_cc_invocations": perkernel_invocations,
            "pipeline_cold_s": round(pipeline_cold_s, 4),
            "pipeline_cc_invocations": pipeline_invocations,
            "pipeline_tus": pstats2["tus"] - pstats1["tus"],
            "cold_speedup": round(pipeline_cold_speedup, 2),
        }

    scalar_bytes_s = _time_scalar_engine(get_scalar_backend("bytes"), workloads)
    scalar_numpy_s = _time_scalar_engine(get_scalar_backend("numpy"), workloads)
    scalar_speedup = scalar_bytes_s / scalar_numpy_s

    # End-to-end verification path at the paper-scale trip: every stage
    # on the bytes oracles vs every stage on the batched numpy engines.
    # The simdize memo is already warm from _build_workloads, so both
    # runs time execution + verification, not lowering.
    verify_configs = [
        c for _, c in figure_configs(False, count=SPEED_COUNT, trip=SPEED_TRIP)
    ]
    verify_bytes_s = _time_sweep(verify_configs, "bytes", "bytes")
    verify_numpy_s = _time_sweep(verify_configs, "numpy", "numpy")
    verify_speedup = verify_bytes_s / verify_numpy_s

    # True-SIMD emitter: scalar-lane vs vector-extension codegen on the
    # same signature set, plus a measured aligned-vs-shifted kernel
    # pair — the paper's realignment-overhead claim on real hardware.
    # The steady comparison times direct pre-marshalled kernel calls:
    # the Python-side marshalling around one ctypes crossing (~20 us)
    # is mode-invariant and would otherwise drown the ~2 us kernel
    # body, so engine-level timing cannot see the codegen difference.
    if native_mod._compiler_identity()[0] is None:
        native_simd_section = {"skipped": "no C compiler on host"}
        simd_steady_speedup = None
        realignment_overhead = None
    elif not native_mod.simd_supported():
        native_simd_section = {
            "skipped": "compiler fails the vector-extension probe"}
        simd_steady_speedup = None
        realignment_overhead = None
    else:
        import ctypes as _ct

        from repro.lang import compile_source
        from repro.machine import interp as interp_mod
        from repro.machine.alignedbuf import aligned_view, as_ctypes_u8

        def _marshal_direct(program, space, mem, bindings):
            """(cfn, args, keepalive) for one steady call, or None."""
            try:
                kernel = native_mod.get_native_kernel(program)
            except Exception:
                return None
            if kernel.cfn is None:
                return None
            steady = program.steady
            if steady is None or steady.step <= 0:
                return None
            m = mem.clone()
            env = interp_mod._Env(program, space, m, bindings, None)
            try:
                interp_mod._exec_stmts(env, program.preheader, i=None)
                lb = interp_mod._eval_s(env, steady.lb)
                ub = interp_mod._eval_s(env, steady.ub)
                n = len(range(lb, ub, steady.step))
                if n <= 0:
                    return None
                plan = native_mod._plan_for(kernel)
                bases, amounts, cvec = native_mod._steady_tables(
                    kernel, env, lb, n)
            except Exception:
                return None
            vregs = aligned_view(plan.vregs_len)
            cbuf = aligned_view(max(1, len(cvec)))
            cbuf[:len(cvec)] = cvec
            c_mem = (_ct.c_uint8 * m.size).from_buffer(m.raw())
            args = (c_mem, lb, n,
                    (_ct.c_int64 * max(1, len(bases)))(*bases),
                    (_ct.c_int64 * max(1, len(amounts)))(*amounts),
                    as_ctypes_u8(cbuf),
                    (_ct.c_uint8 * plan.vregs_len).from_buffer(vregs))
            return kernel.cfn, args, (m, vregs, cbuf)

        SIMD_REPS = 20

        def _mode_times(simd: bool):
            native_mod.set_simd_mode(simd)
            with tempfile.TemporaryDirectory() as cache_root:
                set_cache_dir(cache_root)
                try:
                    jit.clear_memory_cache()
                    calls = []
                    for w in workloads:
                        made = _marshal_direct(w.program, w.space, w.mem,
                                               w.bindings)
                        if made is not None:
                            calls.append(made)
                    best = float("inf")
                    for _ in range(ROUNDS):
                        start = time.perf_counter()
                        for _ in range(SIMD_REPS):
                            for fn, args, _keep in calls:
                                fn(*args)
                        best = min(best, time.perf_counter() - start)
                    steady_s = best / SIMD_REPS
                    kernels = len(calls)
                    del calls  # release buffer exports
                finally:
                    reset_cache_dir()
                    jit.clear_memory_cache()
                    native_mod.clear_memory_cache()
            return kernels, steady_s

        # The pair runs at a much longer trip than the sweep workloads:
        # one steady call must spend far longer in the loop body than
        # in the fixed ~1.5 us ctypes dispatch, or the three extra
        # shuffles per iteration disappear into call overhead.
        PAIR_ELEMS = 16384
        PAIR_TRIP = PAIR_ELEMS - 73

        def _pair_call(src: str, name: str):
            """(cfn, args, keepalive) of one mini-C kernel's steady call."""
            loop = compile_source(src, name=name)
            from repro.simdize import SimdOptions
            result = _cached_simdize(loop, 16,
                                     SimdOptions(policy="zero", reuse="sp"))
            rng = random.Random(0xA119)
            space = make_space(loop, 16, rng)
            mem = space.make_memory()
            fill_random(space, mem, rng)
            made = _marshal_direct(result.program, space, mem,
                                   RunBindings(trip=PAIR_TRIP))
            assert made is not None, f"{name} kernel not lowered natively"
            return made

        def _pair_steady(aligned, shifted) -> tuple[float, float]:
            """Best direct-call steady time of each kernel in the pair.

            The two alternate round by round, so a host that changes
            speed mid-measurement slows both sides alike instead of
            only the kernel timed second.
            """
            reps = 20 * SIMD_REPS
            best = [float("inf"), float("inf")]
            for _ in range(ROUNDS):
                for side, (fn, args, _keep) in enumerate((aligned, shifted)):
                    start = time.perf_counter()
                    for _ in range(reps):
                        fn(*args)
                    best[side] = min(best[side], time.perf_counter() - start)
            return best[0] / reps, best[1] / reps

        try:
            scalar_kernels, simd_scalar_steady_s = _mode_times(False)
            simd_kernels, simd_steady_s = _mode_times(True)

            # Aligned-vs-shifted pair under the vector-ext emitter: the
            # same computation with zero-offset accesses (all streams
            # aligned, no realignment) vs the Figure-1 offsets (three
            # vshiftstream realignments per iteration).
            _PAIR_DECLS = (f"int16_t a[{PAIR_ELEMS}] align 0; "
                           f"int16_t b[{PAIR_ELEMS}] align 0; "
                           f"int16_t c[{PAIR_ELEMS}] align 0; int n;\n")
            native_mod.set_simd_mode(True)
            with tempfile.TemporaryDirectory() as cache_root:
                set_cache_dir(cache_root)
                try:
                    jit.clear_memory_cache()
                    aligned_steady_s, shifted_steady_s = _pair_steady(
                        _pair_call(
                            _PAIR_DECLS +
                            "for (i = 0; i < n; i++) { a[i] = b[i] + c[i]; }",
                            "pair_aligned"),
                        _pair_call(
                            _PAIR_DECLS + "for (i = 0; i < n; i++) "
                            "{ a[i+3] = b[i+1] + c[i+2]; }",
                            "pair_shifted"))
                finally:
                    reset_cache_dir()
                    jit.clear_memory_cache()
                    native_mod.clear_memory_cache()
        finally:
            native_mod.set_simd_mode(None)

        simd_steady_speedup = simd_scalar_steady_s / simd_steady_s
        realignment_overhead = shifted_steady_s / aligned_steady_s
        native_simd_section = {
            "emitter": native_mod.emitter_mode(),
            "cc_flags": list(native_mod.compiler_flags()),
            "kernels": simd_kernels,
            "trip": SPEED_TRIP,
            "scalar_lane_steady_s": round(simd_scalar_steady_s, 6),
            "vector_ext_steady_s": round(simd_steady_s, 6),
            "steady_speedup": round(simd_steady_speedup, 2),
            "pair_trip": PAIR_TRIP,
            "aligned_steady_s": round(aligned_steady_s, 7),
            "shifted_steady_s": round(shifted_steady_s, 7),
            "realignment_overhead": round(realignment_overhead, 2),
        }

    payload = {
        "benchmark": "figure11-sweep interpreter wall clock",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "programs": len(workloads),
            "loops_per_scheme": SPEED_COUNT,
            "trip": SPEED_TRIP,
            "rounds": ROUNDS,
        },
        "engine_run": {
            "bytes_s": round(bytes_s, 4),
            "numpy_s": round(numpy_s, 4),
            "speedup": round(speedup, 2),
        },
        "jit_run": {
            "numpy_s": round(jit_numpy_s, 4),
            "jit_s": round(jit_s, 4),
            "speedup_vs_numpy": round(jit_speedup, 2),
            "kernels_compiled": cold_codegens,
            "compile_s": round(cold_compile_s, 4),
        },
        "compile_path": {
            "cold_s": round(jit_cold_s, 4),
            "warm_from_disk_s": round(jit_warm_s, 4),
            "warm_compile_s": round(warm_compile_s, 4),
            "disk_lookups": warm_lookups,
            "disk_hits": warm_disk_hits,
            "disk_hit_rate": round(disk_hit_rate, 2),
        },
        "native_run": native_section,
        "native_pipeline": pipeline_section,
        "scalar_run": {
            "bytes_s": round(scalar_bytes_s, 4),
            "numpy_s": round(scalar_numpy_s, 4),
            "speedup": round(scalar_speedup, 2),
        },
        "verify_path": {
            "configs": len(verify_configs),
            "trip": SPEED_TRIP,
            "all_bytes_s": round(verify_bytes_s, 4),
            "all_numpy_s": round(verify_numpy_s, 4),
            "speedup": round(verify_speedup, 2),
        },
        "native_simd": native_simd_section,
    }
    from repro.reporting import atomic_write_text

    # Merge instead of overwrite: sections owned by other harnesses
    # (e.g. "serve" from bench_serve.py) must survive a speed re-run.
    bench_path = ROOT / "BENCH_interp.json"
    try:
        merged = json.loads(bench_path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(payload)
    atomic_write_text(bench_path, json.dumps(merged, indent=2) + "\n")

    lines = [
        f"engine.run over {len(workloads)} programs (trip {SPEED_TRIP}, "
        f"best of {ROUNDS}):",
        f"  bytes  {bytes_s:8.4f} s",
        f"  numpy  {numpy_s:8.4f} s   ({speedup:.1f}x)",
        f"  jit    {jit_s:8.4f} s   ({jit_speedup:.1f}x over numpy, "
        f"{cold_codegens} kernels compiled in {cold_compile_s:.3f} s)",
        f"jit compile path (shared disk cache, memory cache cleared):",
        f"  cold   {jit_cold_s:8.4f} s (codegen)",
        f"  warm   {jit_warm_s:8.4f} s (disk {warm_disk_hits}/{warm_lookups} "
        f"hits, {disk_hit_rate * 100:.0f}%)",
    ]
    if "skipped" in native_section:
        lines.append(f"native tier: skipped ({native_section['skipped']})")
    else:
        lines += [
            f"native tier over {len(workloads)} programs "
            f"(trip {SPEED_TRIP}, best of {ROUNDS}):",
            f"  whole run   jit {jit_s:8.4f} s  native "
            f"{native_s:8.4f} s   ({native_speedup:.1f}x)",
            f"  steady loop jit {jit_steady_s:8.4f} s  native "
            f"{native_steady_s:8.4f} s   ({native_steady_speedup:.1f}x)",
            f"  cc: {native_codegens} kernels in {native_cc_s:.3f} s; "
            f"warm disk {native_disk_hits}/{native_lookups} hits "
            f"({native_hit_rate * 100:.0f}%)",
        ]
    if "skipped" not in pipeline_section:
        lines += [
            f"compile pipeline over {pipeline_section['signatures']} "
            f"signatures:",
            f"  per-kernel cold {perkernel_cold_s:8.4f} s "
            f"({perkernel_invocations} cc invocations)",
            f"  batched cold    {pipeline_cold_s:8.4f} s "
            f"({pipeline_invocations} cc invocation, "
            f"{pipeline_cold_speedup:.1f}x)",
        ]
    lines += [
        f"scalar reference over {len(workloads)} loops (trip {SPEED_TRIP}, "
        f"best of {ROUNDS}):",
        f"  bytes  {scalar_bytes_s:8.4f} s",
        f"  numpy  {scalar_numpy_s:8.4f} s   ({scalar_speedup:.1f}x)",
        f"verify path over {len(verify_configs)} configs (trip {SPEED_TRIP}):",
        f"  all-bytes {verify_bytes_s:8.4f} s",
        f"  all-numpy {verify_numpy_s:8.4f} s   ({verify_speedup:.1f}x)",
    ]
    if "skipped" in native_simd_section:
        lines.append(
            f"native simd emitter: skipped "
            f"({native_simd_section['skipped']})")
    else:
        ns = native_simd_section
        lines += [
            f"native simd emitter over {ns['kernels']} kernels "
            f"(trip {SPEED_TRIP}, direct steady calls, "
            f"cc {' '.join(ns['cc_flags'])}):",
            f"  steady  scalar-lane {simd_scalar_steady_s * 1e6:8.1f} us  "
            f"vector-ext {simd_steady_s * 1e6:8.1f} us   "
            f"({simd_steady_speedup:.1f}x)",
            f"  realignment pair: aligned {aligned_steady_s * 1e9:7.0f} ns  "
            f"shifted {shifted_steady_s * 1e9:7.0f} ns per call   "
            f"({realignment_overhead:.2f}x overhead)",
        ]
    record("speed", "\n".join(lines))

    # The acceptance bars: batched execution is an order of magnitude
    # faster than the byte oracles at paper-scale trip counts, and the
    # whole verification pipeline gains at least 5x end to end.
    assert speedup >= 10.0, f"numpy backend only {speedup:.1f}x faster"
    assert jit_speedup >= 2.0, (
        f"jit backend only {jit_speedup:.1f}x faster than numpy")
    assert disk_hit_rate == 1.0, (
        f"jit disk cache only hit {warm_disk_hits}/{warm_lookups} warm loads")
    if "skipped" not in native_section:
        # The machine-code steady loop against jit's NumPy-batched one:
        # >= 5x on steady-state repeated runs (the 10x target is
        # recorded, not asserted — the C call's fixed FFI cost bounds
        # the ratio on short trips).  The warm pass must load every
        # shared object from the disk cache.
        assert native_steady_speedup >= 5.0, (
            f"native steady loop only {native_steady_speedup:.1f}x over jit")
        assert native_hit_rate == 1.0, (
            f"native disk cache only hit {native_disk_hits}/{native_lookups} "
            f"warm loads")
        # The compile pipeline: one batched cc invocation replaces one
        # per signature, and the batch is measurably faster than the
        # singleton path even after gcc's fixed per-launch overhead is
        # subtracted.
        assert pipeline_invocations <= 6, (
            f"pipeline used {pipeline_invocations} cc invocations "
            f"for {pipeline_section['signatures']} signatures")
        assert pipeline_cold_speedup >= 1.25, (
            f"batched cold compile only {pipeline_cold_speedup:.2f}x "
            f"over per-kernel")
    assert scalar_speedup >= 10.0, (
        f"numpy scalar engine only {scalar_speedup:.1f}x faster")
    assert verify_speedup >= 5.0, (
        f"end-to-end verify path only {verify_speedup:.1f}x faster")
    if "skipped" not in native_simd_section:
        # The vector-extension emitter against the scalar-lane one on
        # identical pre-marshalled steady calls (measured ~3-4x here;
        # the bar leaves margin for weaker autovectorizers making the
        # scalar-lane baseline faster).  The realignment pair pins the
        # paper's core claim on hardware: the same computation with
        # misaligned streams must cost measurably more than its
        # aligned twin under the aligned-SIMD code path.
        assert simd_steady_speedup >= 1.3, (
            f"vector-ext steady path only {simd_steady_speedup:.2f}x "
            f"over scalar-lane")
        assert realignment_overhead >= 1.05, (
            f"shifted kernel only {realignment_overhead:.2f}x the "
            f"aligned one — realignment overhead not measurable")
