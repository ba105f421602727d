"""The vector-extension emitter: probing, unavailability, cache hygiene.

The native tier compiles every kernel against the vector-extension
helpers (``simdal_vec`` as an ``__attribute__((vector_size))`` type
with aligned loads/stores); ``test_differential.py``'s native axis and
``test_backend.py``'s figure-sweep parity hold it byte-identical to the
bytes oracle.  These tests pin the contract around it:

* **capability probing** — a toolchain that rejects the vector idioms
  (probed with a real ``cc`` wrapper that refuses any TU containing
  ``vector_size``) leaves native unavailable: one warning per process,
  every run degrades to jit with the oracle's bytes and counters;
* **cache hygiene** — ``reset_compiler_cache`` clears the flag and
  capability memos, ``REPRO_CC_FLAGS`` changes re-resolve without a
  reset, and the disk key separates flag sets;
* **persisted probes** — a process that finds the probe entry starts
  no probe ``cc`` and resolves the same flags and emitter, a new
  ``REPRO_CC_FLAGS`` value or ``reset_compiler_cache`` probes again,
  and a probe killed at ``REPRO_CC_TIMEOUT`` is never persisted.

Everything needing a compiler is guarded by ``needs_cc``; the memo
and disk-key tests run anywhere numpy does.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine import RunBindings, get_backend, numpy_available
from repro.machine.backend import get_resilient_backend
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

if numpy_available():
    from repro.machine import jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")
HAVE_SIMD = HAVE_CC and native.simd_supported()
needs_simd = pytest.mark.skipif(
    not HAVE_SIMD, reason="compiler fails the vector-extension probe")


@pytest.fixture(autouse=True)
def _fresh_caches():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    yield
    jit.clear_memory_cache()
    native.clear_memory_cache()


@pytest.fixture
def _fresh_probes():
    """For tests that repoint REPRO_CC / REPRO_CC_FLAGS: probe cold,
    and leave no poisoned memo behind for later tests."""
    native.reset_compiler_cache()
    yield
    native.reset_compiler_cache()


class TestProbeFallback:
    @pytest.fixture
    def novec_cc(self, tmp_path):
        """A real compiler wrapped to reject any TU that uses the
        vector extensions — models GCC < 12 / exotic toolchains."""
        cc, _ = native._compiler_identity()
        real = shutil.which(cc) or cc
        script = tmp_path / "novec-cc"
        script.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  case "$arg" in\n'
            "    *.c)\n"
            '      if grep -q vector_size "$arg"; then\n'
            '        echo "novec-cc: vector extensions unsupported" >&2\n'
            "        exit 1\n"
            "      fi ;;\n"
            "  esac\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        script.chmod(0o755)
        return str(script)

    @needs_cc
    def test_probe_failure_degrades_to_jit(self, monkeypatch, novec_cc,
                                           _fresh_probes, recwarn):
        """A compiler that builds plain C but fails the probe leaves
        native unavailable: one warning per process, every run degrades
        to jit with the oracle's bytes and counters, and a second
        process reads the persisted answer instead of probing."""
        monkeypatch.setenv("REPRO_CC", novec_cc)
        monkeypatch.setattr(native, "_WARNED", False)
        failures = native.STATS["simd_probe_failures"]
        assert native.simd_supported() is False
        assert native.STATS["simd_probe_failures"] == failures + 1
        assert native.emitter_mode() == "unavailable"

        program = simdize(build_fig1(trip=100), 16, SimdOptions()).program
        loop = program.source
        rand = random.Random(3)
        space = make_space(loop, program.V, rand)
        base = space.make_memory()
        fill_random(space, base, rand)

        def execute(backend):
            mem = base.clone()
            run = backend.run(program, space, mem, RunBindings())
            return (mem.snapshot(), run.counters.as_dict(), run.trip,
                    run.used_fallback), run.fallback

        oracle, _ = execute(get_backend("bytes"))
        for _ in range(2):
            got, fallback = execute(get_resilient_backend("native"))
            assert got == oracle
            assert fallback["tier"] == "jit"
            assert fallback["phase"] == "compile"
            assert "vector-extension probe" in fallback["reason"]
        warned = [w for w in recwarn.list
                  if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1
        assert "vector-extension probe" in str(warned[0].message)
        assert native.STATS["simd_probe_failures"] == failures + 1

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child["mode"] == "unavailable"
        assert child["probes"] == 0
        assert child["probe_cc"] == []


class TestCompilerCacheHygiene:
    def test_reset_clears_flag_and_simd_memos(self, _fresh_probes):
        native.compiler_flags()
        native.simd_supported()
        assert native._FLAGS is not None
        assert native._SIMD is not None
        native.reset_compiler_cache()
        assert native._CC is None
        assert native._FLAGS is None
        assert native._SIMD is None

    def test_cc_flags_env_change_reresolves(self, monkeypatch,
                                            _fresh_probes):
        """A changed REPRO_CC_FLAGS takes effect immediately — the
        memo is keyed on the env pair, no reset required."""
        monkeypatch.setenv("REPRO_CC_FLAGS", "-O2 -fno-tree-vectorize")
        assert native.compiler_flags() == ("-O3", "-O2",
                                           "-fno-tree-vectorize")
        monkeypatch.setenv("REPRO_CC_FLAGS", "-Os")
        assert native.compiler_flags() == ("-O3", "-Os")
        monkeypatch.delenv("REPRO_CC_FLAGS")
        flags = native.compiler_flags()
        assert flags[0] == "-O3"
        assert "-Os" not in flags  # back on the probed default

    def test_cc_flags_env_changes_disk_key(self, monkeypatch,
                                           _fresh_probes):
        monkeypatch.setenv("REPRO_CC_FLAGS", "-O2")
        key_o2 = native._disk_key("sig", "cc-id")
        monkeypatch.setenv("REPRO_CC_FLAGS", "-Os")
        key_os = native._disk_key("sig", "cc-id")
        assert key_o2 != key_os


#: Run in a fresh interpreter: resolve the probes with a spy on every
#: compiler subprocess, and print what was resolved and started.
_CHILD = """
import json
from repro.machine import native
started = []
real = native.run_cc
def spy(argv, budget=None):
    started.append(argv)
    return real(argv, budget)
native.run_cc = spy
print(json.dumps({
    "flags": list(native.compiler_flags()),
    "mode": native.emitter_mode(),
    "probes": native.STATS["flag_probes"] + native.STATS["simd_probes"],
    "probe_cc": [argv for argv in started if "--version" not in argv],
}))
"""


def _stored_probes():
    from repro.cache import get_cache

    _cc, identity = native._compiler_identity()
    return get_cache().get(native._probe_key(identity))


class TestPersistedProbes:
    @needs_cc
    def test_warm_process_starts_no_probe(self, _fresh_probes):
        flags = native.compiler_flags()      # probes cold, persists
        mode = native.emitter_mode()
        assert _stored_probes() is not None
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child["probe_cc"] == []
        assert child["probes"] == 0
        assert tuple(child["flags"]) == flags
        assert child["mode"] == mode

    @needs_cc
    def test_cc_flags_change_probes_again(self, monkeypatch, _fresh_probes):
        monkeypatch.delenv("REPRO_CC_FLAGS", raising=False)
        native.simd_supported()
        probes = native.STATS["simd_probes"]
        monkeypatch.setenv("REPRO_CC_FLAGS", "-O2")
        native.simd_supported()
        assert native.STATS["simd_probes"] == probes + 1
        # Back to the first value: its entry answers, no probe.
        monkeypatch.delenv("REPRO_CC_FLAGS")
        native.simd_supported()
        assert native.STATS["simd_probes"] == probes + 1

    @needs_simd
    def test_reset_probes_again_and_overwrites(self, monkeypatch,
                                               _fresh_probes):
        from repro.cache import get_cache

        flags = native.compiler_flags()
        assert native.simd_supported() is True
        _cc, identity = native._compiler_identity()
        key = native._probe_key(identity)
        get_cache().put(key, {"flags": flags, "simd": (flags, False)})
        # Memos cleared without a reset: the entry is what answers.
        for memo in ("_FLAGS", "_SIMD", "_PROBED"):
            monkeypatch.setattr(native, memo, None)
        probes = native.STATS["simd_probes"]
        assert native.simd_supported() is False
        assert native.STATS["simd_probes"] == probes
        native.reset_compiler_cache()
        assert native.simd_supported() is True
        assert native.STATS["simd_probes"] == probes + 1
        assert get_cache().get(key)["simd"] == (flags, True)

    @needs_cc
    def test_probe_timeout_is_not_persisted(self, tmp_path, monkeypatch,
                                            _fresh_probes):
        """A probe killed at the budget is "no" for this process only:
        it counts one ``cc_timeouts``, nothing is stored, and the next
        resolution probes again."""
        fake = tmp_path / "sleepcc"
        fake.write_text(
            '#!/bin/sh\n'
            'for a in "$@"; do\n'
            '  [ "$a" = --version ] && { echo sleepcc 1.0; exit 0; }\n'
            'done\n'
            'sleep 30\n')
        fake.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(fake))
        monkeypatch.setenv("REPRO_CC_FLAGS", "")
        monkeypatch.setenv("REPRO_CC_TIMEOUT", "0.3")
        for _ in range(2):
            timeouts = native.STATS["cc_timeouts"]
            probes = native.STATS["simd_probes"]
            assert native.simd_supported() is False
            assert native.STATS["cc_timeouts"] == timeouts + 1
            assert native.STATS["simd_probes"] == probes + 1
            assert _stored_probes() is None
            monkeypatch.setattr(native, "_SIMD", None)
