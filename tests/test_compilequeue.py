"""The batched native compile pipeline.

``test_native.py`` pins the per-kernel acquisition machinery; this
file pins the pipeline that amortizes it — multi-kernel translation
units behind one ``cc`` invocation (:func:`compile_requests` /
:func:`precompile`), per-signature artifact groups that stay
individually evictable, compiler re-resolution under ``REPRO_CC``, the
concurrent-writer atomicity of artifact groups, and the worker
right-sizing that fixed the jobs=2 sweep regression.  The differential
property holds both acquisition modes — per-kernel and precompiled —
byte-identical to the bytes oracle on random sweep configs.
"""

from __future__ import annotations

import multiprocessing
import random
import tempfile
import types
from pathlib import Path

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


def sweep_programs(count=2, trip=67, offset_reassoc=False):
    """Distinct-signature programs drawn from the fig11/fig12 space."""
    programs, seen = [], set()
    for _scheme, cfg in figure_configs(offset_reassoc, count=count,
                                       trip=trip):
        syn = synthesize(cfg.params, cfg.seed, cfg.V)
        result = simdize(syn.loop, cfg.V, cfg.options)
        sig = jit._cached_signature(result.program)
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
        """Each batch-mate reloads from its own disk group — zero
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
    def test_evicting_one_group_leaves_batch_mates_loadable(self):
        """The shared object is *copied* per signature group: dropping
        one signature's files cannot strand the others."""
        programs = sweep_programs(count=1)
        assert len(programs) >= 2
        compilequeue.precompile(programs)
        cache = get_cache()
        identity = native._compiler_identity()[1]
        victim_key = native._disk_key(
            jit._cached_signature(programs[0]), identity)
        stem = cache._path(victim_key)
        for path in stem.parent.glob(stem.stem + "*"):
            path.unlink()
        native.clear_memory_cache()
        survivor = native.get_native_kernel(programs[1])   # disk load
        assert survivor.cfn is not None
        before = dict(native.STATS)
        evicted = native.get_native_kernel(programs[0])    # recompile
        assert evicted.cfn is not None
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
            signature = jit._cached_signature(program)
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

    def test_precompile_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_PRECOMPILE", "0")
        assert not compilequeue.precompile_enabled()
        programs = sweep_programs(count=1)[:1]
        assert compilequeue.precompile(programs) == 0


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
# Concurrent artifact-group writers (multi-process put_artifact race)
# ---------------------------------------------------------------------------

def _race_writer(root: str, key: str, worker: int, rounds: int) -> None:
    cache = DiskCache(root)
    payload = (b"/* worker %d */\n" % worker) * 64
    with tempfile.NamedTemporaryFile(dir=root, delete=False) as tmp:
        tmp.write(b"SO-%d" % worker * 256)
        src = Path(tmp.name)
    for _ in range(rounds):
        cache.put_artifact(key, ".c", payload)
        cache.put_artifact_file(key, ".so", src)
        cache.put(key, {"worker": worker})


class TestArtifactRaces:
    def test_concurrent_group_writers_never_corrupt(self, tmp_path):
        """N processes hammering one key's artifact group leave exactly
        one intact group: every surviving file is some writer's
        complete payload (os.replace atomicity — no interleaving, no
        torn pairs, no stray tmp files)."""
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
        entry = cache.get(key)
        assert entry is not None and entry["worker"] in range(4)
        c_path = cache.artifact_path(key, ".c")
        so_path = cache.artifact_path(key, ".so")
        assert c_path is not None and so_path is not None
        c_bytes = c_path.read_bytes()
        assert c_bytes in [(b"/* worker %d */\n" % w) * 64
                           for w in range(4)]
        so_bytes = so_path.read_bytes()
        assert so_bytes in [b"SO-%d" % w * 256 for w in range(4)]
        leftovers = list(root.rglob("*.tmp"))
        assert leftovers == []
        # exactly one group under the key's digest stem
        stem = cache._path(key)
        group = sorted(p.name for p in stem.parent.iterdir()
                       if not p.name.endswith(".tmp"))
        assert group == sorted([stem.name, stem.stem + ".c",
                                stem.stem + ".so"])


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
