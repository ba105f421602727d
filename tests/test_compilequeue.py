"""The batched native compile pipeline.

``test_native.py`` pins the per-kernel acquisition machinery; this
file pins the pipeline that amortizes it — multi-kernel translation
units behind one ``cc`` invocation (:func:`compile_requests` /
:func:`precompile`), one disk entry per built ``.so`` that every
batch-mate's meta names, compiler re-resolution under ``REPRO_CC``, the
concurrent-writer atomicity of disk entries, and the worker
right-sizing that fixed the jobs=2 sweep regression.  The differential
property holds both acquisition modes — per-kernel and precompiled —
byte-identical to the bytes oracle on random sweep configs.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import pickle
import random
import re
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.bench.figures import figure_configs
from repro.bench.runner import RunPolicy, _right_sized_jobs
from repro.bench.synth import synthesize
from repro.cache import DiskCache, get_cache, set_cache_dir
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="the native tier needs numpy")

if numpy_available():
    from repro.machine import compilequeue, jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")


@pytest.fixture(autouse=True)
def _fresh_pipeline():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    yield
    jit.clear_memory_cache()
    native.clear_memory_cache()


def so_entries(cache):
    """Keys of the native ``.so`` entries in ``cache``."""
    prefix = native._so_key("")
    keys = []
    for path in cache.root.glob("??/*.pkl"):
        key, _value = pickle.loads(path.read_bytes())
        if key.startswith(prefix):
            keys.append(key)
    return keys


def sweep_programs(count=2, trip=67, offset_reassoc=False):
    """Distinct-signature programs drawn from the fig11/fig12 space."""
    programs, seen = [], set()
    for _scheme, cfg in figure_configs(offset_reassoc, count=count,
                                       trip=trip):
        syn = synthesize(cfg.params, cfg.seed, cfg.V)
        result = simdize(syn.loop, cfg.V, cfg.options)
        sig = jit.program_signature(result.program)
        if sig not in seen:
            seen.add(sig)
            programs.append(result.program)
    return programs


class TestBatchedTranslationUnits:
    @needs_cc
    def test_precompile_batches_into_one_cc_invocation(self):
        """N cold signatures sharing (V, dtype) cost exactly one cc
        launch, and every kernel lands live in the memory cache."""
        programs = sweep_programs(count=2)
        assert len(programs) > 4
        before = dict(native.STATS)
        compiled = compilequeue.precompile(programs)
        assert compiled == len(programs)
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1
        assert native.STATS["tus"] == before["tus"] + 1
        assert native.STATS["tu_kernels"] == \
            before["tu_kernels"] + len(programs)
        for program in programs:
            kernel = native.get_native_kernel(program)
            assert kernel.cfn is not None
            assert kernel.meta.so_sha256

    @needs_cc
    def test_precompiled_kernels_match_bytes_oracle(self):
        programs = sweep_programs(count=1)
        compilequeue.precompile(programs)
        for program in programs:
            loop = program.source
            rand = random.Random(5)
            space = make_space(loop, program.V, rand)
            base = space.make_memory()
            fill_random(space, base, rand)
            runs = {}
            for name in ("bytes", "native"):
                mem = base.clone()
                run = get_backend(name).run(program, space, mem,
                                            RunBindings())
                runs[name] = (mem.snapshot(), run.counters.as_dict())
            assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_per_signature_disk_entries_survive_memory_clear(self):
        """Each batch-mate reloads from its own meta on disk — zero
        further cc invocations after the batch compile."""
        programs = sweep_programs(count=1)
        compilequeue.precompile(programs)
        native.clear_memory_cache()
        before = dict(native.STATS)
        for program in programs:
            kernel = native.get_native_kernel(program)
            assert kernel.cfn is not None
        assert native.STATS["cc_invocations"] == before["cc_invocations"]
        assert native.STATS["disk_hits"] == \
            before["disk_hits"] + len(programs)

    @needs_cc
    def test_batch_mates_share_one_so_entry_and_one_dlopen(self,
                                                           monkeypatch):
        """One cc invocation files one .so entry, and a process that
        loads every batch-mate from disk dlopens it once."""
        programs = sweep_programs(count=1)
        assert len(programs) >= 4
        assert compilequeue.precompile(programs) == len(programs)
        native.clear_memory_cache()
        cdll = ctypes.CDLL
        opened = []

        def spy(*args, **kwargs):
            opened.append(args[0])
            return cdll(*args, **kwargs)

        monkeypatch.setattr(native.ctypes, "CDLL", spy)
        before = dict(native.STATS)
        kernels = [native.get_native_kernel(p) for p in programs]
        assert all(kernel.cfn is not None for kernel in kernels)
        assert native.STATS["disk_hits"] == \
            before["disk_hits"] + len(programs)
        assert len(opened) == 1
        digests = {kernel.meta.so_sha256 for kernel in kernels}
        assert len(digests) == 1
        assert so_entries(get_cache()) == [native._so_key(digests.pop())]

    @needs_cc
    def test_evicting_one_group_leaves_batch_mates_loadable(self):
        """Deleting one signature's meta recompiles that signature
        alone, behind one cc call, while its batch-mates still load
        from the shared .so entry."""
        programs = sweep_programs(count=1)
        assert len(programs) >= 2
        compilequeue.precompile(programs)
        identity = native._compiler_identity()[1]
        victim_key = native._disk_key(
            jit.program_signature(programs[0]), identity)
        get_cache()._path(victim_key).unlink()
        native.clear_memory_cache()
        before = dict(native.STATS)
        for program in programs[1:]:                        # disk loads
            assert native.get_native_kernel(program).cfn is not None
        assert native.STATS["disk_hits"] == \
            before["disk_hits"] + len(programs) - 1
        assert native.STATS["cc_invocations"] == before["cc_invocations"]
        evicted = native.get_native_kernel(programs[0])    # recompile
        assert evicted.cfn is not None
        assert native.STATS["disk_misses"] == before["disk_misses"] + 1
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1

    @needs_cc
    def test_deleting_the_so_entry_rebuilds_every_batch_mate(self):
        """Without their .so entry every batch-mate's lookup misses,
        and precompile rebuilds them all behind one cc call."""
        programs = sweep_programs(count=1)
        compilequeue.precompile(programs)
        digest = native.get_native_kernel(programs[0]).meta.so_sha256
        get_cache()._path(native._so_key(digest)).unlink()
        native.clear_memory_cache()
        before = dict(native.STATS)
        assert compilequeue.precompile(programs) == len(programs)
        assert native.STATS["disk_hits"] == before["disk_hits"]
        assert native.STATS["disk_misses"] == \
            before["disk_misses"] + len(programs)
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1

    @needs_cc
    def test_batch_failure_isolates_the_culprit(self):
        """One unlowerable kernel in a batch falls back to singleton
        recompiles: batch-mates still land, only the culprit fails."""
        programs = sweep_programs(count=1)[:3]
        disk = get_cache()
        identity = native._compiler_identity()[1]
        requests = []
        for program in programs:
            signature = jit.program_signature(program)
            key = native._disk_key(signature, identity)
            requests.append(native.build_request(
                signature, key, jit.get_kernel(program), program))
        requests[1].kernel_src = "void broken(void) { this is not C; }"
        loaded, failures, cc_s, _load_s = compilequeue.compile_requests(
            requests, disk)
        assert set(loaded) == {requests[0].signature,
                               requests[2].signature}
        assert set(failures) == {requests[1].signature}
        assert "exit" in failures[requests[1].signature]
        # one failed batch attempt + one singleton per request
        assert cc_s > 0.0

    @needs_cc
    def test_native_profile_lists_the_jit_kernels_precompile_loads(
            self, tmp_path, capsys):
        """The prewarm materializes every jit kernel a native sweep
        runs, so ``--profile`` must report them: compiled from source
        on the cold pass, loaded as stored code objects on the warm
        one (memory caches cleared, as in a fresh process)."""
        from repro.cli import main

        argv = ["bench", "fig11", "--count", "2", "--trip-count", "67",
                "--backend", "native", "--profile",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert re.search(r"jit kernels: [1-9]\d* materialized, [1-9]\d* "
                         r"source compiles?", cold), cold
        jit.clear_memory_cache()
        native.clear_memory_cache()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert re.search(r"jit kernels: [1-9]\d* materialized, 0 source "
                         r"compiles", warm), warm
        assert "native_disk" in warm and "native pipeline:" not in warm


class TestCompilerResolution:
    @needs_cc
    def test_repro_cc_override_wins_and_tracks_env(self, monkeypatch):
        """REPRO_CC names the compiler; changing it mid-process
        re-resolves instead of serving the stale memo."""
        cc, _identity = native._compiler_identity()
        monkeypatch.setenv("REPRO_CC", cc)
        native.reset_compiler_cache()
        assert native._compiler_identity()[0] == cc
        monkeypatch.delenv("REPRO_CC")
        # memo keyed on the env request: deleting the var re-probes
        assert native._compiler_identity()[0] is not None

    @needs_cc
    def test_reset_compiler_cache_unpoisons_failures(self, monkeypatch):
        def broken_cc(cmd, **kwargs):
            return types.SimpleNamespace(returncode=1, stdout="",
                                         stderr="transient tool failure")

        program = simdize(build_fig1(trip=103), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        monkeypatch.setattr(compilequeue, "_run_cc", broken_cc)
        with pytest.raises(native.NativeUnavailable):
            native.get_native_kernel(program)
        assert native._FAILED
        monkeypatch.undo()
        native.reset_compiler_cache()
        assert not native._FAILED
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None


# ---------------------------------------------------------------------------
# Concurrent writers of one entry (multi-process put race)
# ---------------------------------------------------------------------------

def _race_payload(worker: int) -> bytes:
    return b"SO-%d" % worker * 4096


def _race_writer(root: str, key: str, worker: int, rounds: int) -> None:
    cache = DiskCache(root)
    for _ in range(rounds):
        cache.put(key, _race_payload(worker))


class TestArtifactRaces:
    def test_concurrent_group_writers_never_corrupt(self, tmp_path):
        """Four processes putting one bytes entry under one key leave
        exactly one intact entry: the survivor is some writer's
        complete payload (os.replace atomicity — no interleaving, no
        stray tmp files)."""
        root = tmp_path / "race-cache"
        root.mkdir()
        key = "deadbeef" * 8
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_race_writer,
                        args=(str(root), key, w, 25))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        cache = DiskCache(root)
        assert cache.get(key) in [_race_payload(w) for w in range(4)]
        assert list(root.rglob("*.tmp")) == []
        files = [path for path in root.rglob("*") if path.is_file()]
        assert files == [cache._path(key)]


# ---------------------------------------------------------------------------
# Worker right-sizing (the jobs=2 < serial fix)
# ---------------------------------------------------------------------------

class TestRightSizedJobs:
    def test_caps_at_cpu_count(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        assert _right_sized_jobs(8, RunPolicy()) == 2
        assert _right_sized_jobs(2, RunPolicy()) == 2
        assert _right_sized_jobs(1, RunPolicy()) == 1

    def test_timeout_policy_passes_through(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        assert _right_sized_jobs(4, RunPolicy(timeout=5.0)) == 4

    def test_armed_faults_pass_through(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_FAULT", "compile:raise")
        faults.reload()
        try:
            assert _right_sized_jobs(4, RunPolicy()) == 4
        finally:
            monkeypatch.delenv("REPRO_FAULT")
            faults.reload()

    def test_none_cpu_count_degrades_to_serial(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        assert _right_sized_jobs(4, RunPolicy()) == 1


# ---------------------------------------------------------------------------
# Differential: every acquisition mode is byte-identical
# ---------------------------------------------------------------------------

@needs_cc
class TestModeDifferential:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(offset_reassoc=st.booleans(),
           trip=st.integers(min_value=17, max_value=257),
           index=st.integers(min_value=0, max_value=23))
    def test_acquisition_mode_never_changes_bytes(self, tmp_path_factory,
                                                  offset_reassoc, trip,
                                                  index):
        """per-kernel vs precompiled acquisition: identical memory
        images and counters, both equal to the bytes oracle, on random
        fig11/fig12 configs."""
        pairs = figure_configs(offset_reassoc, count=1, trip=trip)
        _scheme, cfg = pairs[index % len(pairs)]
        syn = synthesize(cfg.params, cfg.seed, cfg.V)
        program = simdize(syn.loop, cfg.V, cfg.options).program
        loop = program.source
        rand = random.Random(cfg.seed ^ 0x5EED)
        space = make_space(loop, cfg.V, rand, syn.base_residues)
        base = space.make_memory()
        fill_random(space, base, rand)
        bindings = RunBindings(
            trip=cfg.params.trip if loop.runtime_upper else None)

        def run_once(name):
            mem = base.clone()
            run = get_backend(name).run(program, space, mem, bindings)
            return mem.snapshot(), run.counters.as_dict(), run.trip

        oracle = run_once("bytes")
        results = {}
        for mode in ("per-kernel", "precompiled"):
            set_cache_dir(tmp_path_factory.mktemp(f"mode-{mode}"))
            jit.clear_memory_cache()
            native.clear_memory_cache()
            if mode == "precompiled":
                assert compilequeue.precompile([program]) == 1
            results[mode] = run_once("native")
            kernel = native.get_native_kernel(program)
            assert kernel.cfn is not None, mode
        for mode, got in results.items():
            assert got == oracle, f"{mode} diverged from bytes oracle"


# ---------------------------------------------------------------------------
# The cc wall-clock budget (REPRO_CC_TIMEOUT)
# ---------------------------------------------------------------------------

class TestCcTimeout:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_TIMEOUT", raising=False)
        assert native.cc_timeout() == native._CC_TIMEOUT_DEFAULT
        monkeypatch.setenv("REPRO_CC_TIMEOUT", "7.5")
        assert native.cc_timeout() == 7.5
        for bad in ("0", "-3", "junk", ""):
            monkeypatch.setenv("REPRO_CC_TIMEOUT", bad)
            assert native.cc_timeout() == native._CC_TIMEOUT_DEFAULT

    @needs_cc
    def test_hung_cc_is_killed_and_run_degrades(self, tmp_path, monkeypatch):
        """A compiler that hangs is killed at the budget: the whole
        process group dies, the signature is charged as an ordinary cc
        failure (memoized, degradable), and the stats record the kill."""
        from repro import run_and_verify

        fake = tmp_path / "hangcc"
        fake.write_text(
            '#!/bin/sh\n'
            'for a in "$@"; do\n'
            '  [ "$a" = --version ] && { echo fakecc 1.0; exit 0; }\n'
            'done\n'
            'sleep 30\n')
        fake.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(fake))
        monkeypatch.setenv("REPRO_CC_TIMEOUT", "0.3")
        native.reset_compiler_cache()
        before = native.STATS["cc_timeouts"]
        program = simdize(build_fig1(trip=107), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        with pytest.raises(native.NativeUnavailable, match="timed out"):
            native.get_native_kernel(program)
        assert native.STATS["cc_timeouts"] > before
        # Same toolchain, resilient chain: the run degrades to jit and
        # still verifies instead of hanging for the sleep's 30 s.
        report = run_and_verify(program, backend="native")
        assert report.fallback is not None
        assert report.fallback["phase"] == "compile"
        assert report.fallback["tier"] == "jit"
        monkeypatch.undo()
        native.reset_compiler_cache()
