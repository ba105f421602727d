"""The native codegen tier: cc-compiled kernels, disk entries, degradation.

``test_differential.py`` holds the native engine to bit-exact parity
with the byte oracle on random draws; this file pins the machinery
around it — the two-tier kernel cache (in-process LRU + compiler-
identity-versioned disk metas and digest-keyed ``.so`` entries),
tampered/corrupt entry quarantine, the jit-delegation path for
programs the C emitter
declines, degradation on hosts without a compiler or under injected
compile faults, and profile attribution of the new
``cc``/``native_load`` phases.  The Figure 11/12 sweep acceptance
criterion lives in ``test_backend.py``, one test for all three array
tiers.  Everything needing a real compiler is guarded by ``needs_cc``;
the degradation tests run anywhere numpy does.
"""

import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro import faults
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

if numpy_available():
    from repro.cache import get_cache
    from repro.machine import jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")


@pytest.fixture(autouse=True)
def _fresh_caches():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    yield
    jit.clear_memory_cache()
    native.clear_memory_cache()


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    faults.reload()
    yield
    faults.reload()


def fig1_program(trip: int = 100, policy: str = "zero"):
    return simdize(build_fig1(trip=trip), 16,
                   SimdOptions(policy=policy, reuse="sp")).program


def run_engines(program, names, seed: int = 9, trip: int | None = None):
    """Execute ``program`` once per engine on clones of one random image."""
    loop = program.source
    rand = random.Random(seed)
    space = make_space(loop, program.V, rand)
    base = space.make_memory()
    fill_random(space, base, rand)
    runs = {}
    for name in names:
        mem = base.clone()
        run = get_backend(name).run(program, space, mem,
                                    RunBindings(trip=trip))
        runs[name] = (mem.snapshot(), run.counters.as_dict(),
                      run.trip, run.used_fallback)
    return runs


class TestNativeParity:
    @needs_cc
    @pytest.mark.parametrize("policy", ["zero", "eager", "lazy", "dominant"])
    def test_fig1_matches_bytes(self, policy):
        runs = run_engines(fig1_program(policy=policy), ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_kernel_actually_ran_in_c(self):
        """Parity must come from the compiled steady kernel, not silent
        jit delegation: each run of a program with prologue and
        epilogue sections makes exactly one C steady call, and the
        shared object exports nothing else for the signature."""
        program = fig1_program()
        assert program.prologue and program.epilogue
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None
        calls = []
        real_cfn = kernel.cfn

        def spy(*args):
            calls.append(args)
            return real_cfn(*args)

        kernel.cfn = spy
        for seed in (9, 10):
            runs = run_engines(program, ("bytes", "native"), seed=seed)
            assert runs["bytes"] == runs["native"]
            assert runs["native"][3] is False   # no per-iteration fallback
        assert len(calls) == 2
        lib = native._LIBS[kernel.meta.so_sha256]
        digest = kernel.meta.symbol.rsplit("_", 1)[1]
        assert hasattr(lib, kernel.meta.symbol)
        assert not hasattr(lib, f"simdal_run_{digest}")


class TestKernelCache:
    @needs_cc
    def test_disk_roundtrip_skips_cc(self):
        """A cleared memory cache reloads the .so from disk instead of
        re-invoking the compiler."""
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        assert native.STATS["codegens"] == before["codegens"] + 1
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 1  # unchanged
        assert native.STATS["disk_hits"] == before["disk_hits"] + 1

    @needs_cc
    def test_disk_loaded_kernel_still_bit_exact(self):
        program = fig1_program(trip=77)
        native.get_native_kernel(program)
        native.clear_memory_cache()
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_stale_code_version_recompiles(self, monkeypatch):
        """Bumping NATIVE_CODE_VERSION invalidates every disk entry."""
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        native.clear_memory_cache()
        monkeypatch.setattr(native, "NATIVE_CODE_VERSION",
                            native.NATIVE_CODE_VERSION + 1)
        native.get_native_kernel(program)
        assert native.STATS["codegens"] == before["codegens"] + 2
        assert native.STATS["disk_misses"] == before["disk_misses"] + 2

    @needs_cc
    def test_tampered_so_is_quarantined_and_recompiled(self):
        """A .so entry that unpickles fine but whose bytes no longer
        match the digest its meta names is a silent miss: only the
        digest check can catch it, the entry is quarantined and the
        kernel recompiles from scratch."""
        import pickle

        program = fig1_program()
        before = dict(native.STATS)
        digest = native.get_native_kernel(program).meta.so_sha256
        cache = get_cache()
        so_key = native._so_key(digest)
        so_path = cache._path(so_key)
        assert so_path.is_file()
        so_path.write_bytes(pickle.dumps((so_key, b"\x7fELF but not really")))
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)   # must not raise
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 2
        assert list(cache.root.glob("??/*.corrupt"))
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_unloadable_so_entry_is_quarantined_and_recompiled(self):
        """A .so entry that passes its digest but fails dlopen is a
        silent miss too: quarantined, then recompiled."""
        import hashlib

        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        cache = get_cache()
        sig = jit.program_signature(program)
        key = native._disk_key(sig, native._compiler_identity()[1])
        junk = b"\x7fELF but not really"
        digest = hashlib.sha256(junk).hexdigest()
        cache.put(native._so_key(digest), junk)
        meta = cache.get(key)
        meta.so_sha256 = digest
        cache.put(key, meta)
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)   # must not raise
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 2
        assert list(cache.root.glob("??/*.corrupt"))

    @needs_cc
    def test_corrupt_meta_pickle_is_silent_miss(self):
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        cache = get_cache()
        sig = jit.program_signature(program)
        key = native._disk_key(sig, native._compiler_identity()[1])
        cache._path(key).write_bytes(b"this is not a pickle")
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)   # must not raise
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 2

    @needs_cc
    def test_memory_cache_hit_after_first_load(self):
        program = fig1_program()
        before = dict(native.STATS)
        k1 = native.get_native_kernel(program)
        k2 = native.get_native_kernel(program)
        assert k1 is k2
        assert native.STATS["memory_hits"] == before["memory_hits"] + 1

    def test_emitter_decline_delegates_to_jit(self, monkeypatch):
        """When the C emitter declines a steady form, the native tier
        runs jit's own path (cfn=None) instead of degrading."""
        def decline(program, spec):
            raise native._CantEmit("outside the C subset")

        monkeypatch.setattr(native, "emit_kernel", decline)
        program = fig1_program()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is None
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]
        assert runs["native"][3] is False   # no per-iteration fallback


class TestDegradation:
    def test_missing_compiler_degrades_to_jit(self, monkeypatch):
        """A host without cc warns once and files a native → jit
        degradation under the compile phase; results are unchanged."""
        from repro import run_and_verify

        clean = run_and_verify(fig1_program(), backend="jit")
        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", False)
        jit.clear_memory_cache()
        native.clear_memory_cache()
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            report = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "jit"
        assert report.fallback["phase"] == "compile"
        assert report.fallback["failed"] == ("native",)
        assert "compiler" in report.fallback["reason"]
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)

    def test_missing_compiler_warns_only_once(self, monkeypatch, recwarn):
        from repro import run_and_verify

        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", False)
        run_and_verify(fig1_program(), backend="native")
        native.clear_memory_cache()
        run_and_verify(fig1_program(), backend="native")
        warned = [w for w in recwarn.list
                  if "no C compiler" in str(w.message)]
        assert len(warned) == 1

    def test_compile_fault_degrades_down_the_chain(self, monkeypatch):
        """REPRO_FAULT=compile:raise kills kernel construction in both
        the native and jit tiers; the chain lands on numpy with the
        full failure trail and identical numbers."""
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        monkeypatch.setenv("REPRO_FAULT", "compile:raise")
        faults.reload()
        profile = PhaseProfile()
        report = run_and_verify(fig1_program(), backend="native",
                                profile=profile)
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        clean = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "numpy"
        assert report.fallback["phase"] == "compile"
        assert report.fallback["failed"] == ("native", "jit")
        assert "FaultInjected" in report.fallback["reason"]
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)
        assert profile.counts["degraded"] == 1
        assert profile.counts["degraded_to_numpy"] == 1
        assert clean.fallback is None

    @needs_cc
    def test_cc_failure_is_memoized(self, monkeypatch):
        """A failing compiler raises NativeUnavailable; the signature is
        memoized so later runs skip the doomed subprocess."""
        calls = {"n": 0}

        def broken_cc(cmd, **kwargs):
            calls["n"] += 1
            return types.SimpleNamespace(returncode=1, stdout="",
                                         stderr="ICE: exploding compiler")

        # Probes run through the same seam; resolve them with the real
        # compiler first, so only the kernel compile meets the broken one.
        native.simd_supported()
        monkeypatch.setattr(native, "run_cc", broken_cc)
        program = fig1_program()
        with pytest.raises(native.NativeUnavailable, match="exploding"):
            native.get_native_kernel(program)
        assert calls["n"] == 1
        with pytest.raises(native.NativeUnavailable, match="exploding"):
            native.get_native_kernel(program)
        assert calls["n"] == 1   # memoized: no second subprocess

    @needs_cc
    def test_cc_failure_still_degrades_per_run(self, monkeypatch):
        from repro import run_and_verify

        def broken_cc(cmd, **kwargs):
            return types.SimpleNamespace(returncode=1, stdout="", stderr="")

        native.simd_supported()  # probes meet the real compiler
        monkeypatch.setattr(native, "run_cc", broken_cc)
        report = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "jit"
        assert report.fallback["phase"] == "compile"


class TestUnavailableMemo:
    """Once native cannot run a signature, later runs raise at once."""

    @staticmethod
    def _lookups() -> int:
        return jit.STATS["memory_hits"] + jit.STATS["memory_misses"]

    def test_each_run_looks_the_jit_kernel_up_once(self, monkeypatch):
        """Without a compiler, two native runs of a batchable loop make
        as many jit kernel lookups as two jit runs (the resilient
        chain's only), and the second run does not re-enter
        acquisition; reset_compiler_cache() forgets the signature."""
        from repro import run_and_verify

        program = fig1_program()
        before = self._lookups()
        for _ in range(2):
            run_and_verify(program, backend="jit")
        jit_lookups = self._lookups() - before

        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", True)
        acquired = []
        acquire = native._acquire

        def counting(programs, per_run):
            acquired.append(per_run)
            return acquire(programs, per_run)

        monkeypatch.setattr(native, "_acquire", counting)
        before = self._lookups()
        for _ in range(2):
            report = run_and_verify(program, backend="native")
            assert report.fallback["tier"] == "jit"
            assert "no C compiler" in report.fallback["reason"]
        assert self._lookups() - before == jit_lookups
        assert acquired == [True]

        native.reset_compiler_cache()
        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        with pytest.raises(native.NativeUnavailable):
            native.get_native_kernel(program)
        assert acquired == [True, True]

    def test_compile_fault_still_fires_per_run(self, monkeypatch):
        """A memoized signature still meets REPRO_FAULT=compile:* on
        every run, where acquisition would have met it."""
        from repro.errors import FaultInjected

        program = fig1_program()
        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", True)
        with pytest.raises(native.NativeUnavailable):
            native.get_native_kernel(program)
        monkeypatch.setenv("REPRO_FAULT", "compile:raise")
        faults.reload()
        for _ in range(2):
            with pytest.raises(FaultInjected):
                native.get_native_kernel(program)

    def test_failing_compiler_cli_looks_kernels_up_like_jit(self, tmp_path):
        """``repro bench fig11 --count 2 --trip-count 67 --backend
        native --profile`` under a compiler that fails every compile
        (the vector-extension probe included) prints the jit run's
        figure and as many ``kernel_memory`` lookups (28, not 56)."""
        cc = tmp_path / "failing-cc"
        cc.write_text('#!/bin/sh\n'
                      'if [ "$1" = "--version" ]; then echo "failing-cc 1.0"; exit 0; fi\n'
                      'echo "induced toolchain failure" >&2\n'
                      'exit 1\n')
        cc.chmod(0o755)
        root = Path(__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(root / "src"), REPRO_CC=str(cc))

        def bench(backend):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "bench", "fig11", "--count", "2",
                 "--trip-count", "67", "--backend", backend, "--cache-dir", "",
                 "--profile"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            figure = proc.stdout.split("\n\n")[0]
            lookups = re.search(r"kernel_memory\s+\d+/(\d+) hits", proc.stdout)
            return figure, int(lookups.group(1)), proc.stdout

        jit_figure, jit_lookups, _ = bench("jit")
        native_figure, native_lookups, out = bench("native")
        assert native_figure == jit_figure
        assert native_lookups == jit_lookups == 28
        assert "degraded_to_jit          28" in out


class TestProfileIntegration:
    @needs_cc
    def test_cc_time_attributed_to_cc_phase(self):
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        profile = PhaseProfile()
        run_and_verify(fig1_program(), backend="native", profile=profile)
        assert profile.seconds.get("cc", 0.0) > 0.0
        assert profile.seconds.get("native_load", 0.0) > 0.0
        assert profile.counts.get("native_memory_misses", 0) >= 1
        text = profile.format()
        assert "cc" in text and "native_memory" in text

    @needs_cc
    def test_warm_run_reports_native_disk_hit(self):
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        program = fig1_program()
        run_and_verify(program, backend="native")
        native.clear_memory_cache()
        profile = PhaseProfile()
        run_and_verify(program, backend="native", profile=profile)
        assert profile.counts.get("native_disk_hits", 0) >= 1
        assert profile.hit_rate("native_disk") == 1.0
