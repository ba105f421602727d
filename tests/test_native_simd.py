"""The vector-extension emitter mode: parity, probing, fallback.

The native tier now carries two emitters — the portable scalar-lane
one and a vector-extension one mapping ``simdal_vec`` onto
``__attribute__((vector_size))`` types with aligned loads/stores.
These tests pin the contract around the second mode:

* **differential parity** — scalar-lane, vector-extension, and the
  bytes oracle produce byte-identical memories and bit-identical
  counters, on fixed figures and on hypothesis-drawn loops;
* **capability probing** — a toolchain that rejects the vector
  idioms (probed with a real ``cc`` wrapper that refuses any TU
  containing ``vector_size``) silently lands the tier on the
  scalar-lane emitter with correct results, no degradation to jit;
* **cache hygiene** — ``reset_compiler_cache`` clears the flag and
  capability memos, ``REPRO_CC_FLAGS`` changes re-resolve without a
  reset, ``set_simd_mode`` drops the in-process kernel cache, and the
  disk key separates modes and flag sets;
* **persisted probes** — a process that finds the probe entry starts
  no probe ``cc`` and resolves the same flags and mode, a new
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
from hypothesis import HealthCheck, assume, given, settings

from repro.errors import PolicyError
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1
from test_differential import differential_case

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
    native.set_simd_mode(None)
    jit.clear_memory_cache()
    native.clear_memory_cache()


@pytest.fixture
def _fresh_probes():
    """For tests that repoint REPRO_CC / REPRO_CC_FLAGS: probe cold,
    and leave no poisoned memo behind for later tests."""
    native.reset_compiler_cache()
    yield
    native.reset_compiler_cache()


def run_both_modes(program, trip=None, seed=9):
    """(bytes, scalar-lane native, vector-ext native) outcome tuples
    for one program on clones of one random memory image."""
    loop = program.source
    rand = random.Random(seed)
    space = make_space(loop, program.V, rand)
    base = space.make_memory()
    fill_random(space, base, rand)
    bindings = RunBindings(trip=trip)

    def execute(name):
        mem = base.clone()
        run = get_backend(name).run(program, space, mem, bindings)
        return (mem.snapshot(), run.counters.as_dict(),
                run.trip, run.used_fallback)

    outcomes = {"bytes": execute("bytes")}
    for label, mode in (("scalar-lane", False), ("vector-ext", True)):
        native.set_simd_mode(mode)
        outcomes[label] = execute("native")
    native.set_simd_mode(None)
    return outcomes


def assert_all_equal(outcomes):
    b = outcomes["bytes"]
    for name, got in outcomes.items():
        if name == "bytes":
            continue
        assert b[0] == got[0], f"final memory differs (bytes vs {name})"
        assert b[1] == got[1], \
            f"operation counters differ (bytes vs {name})"
        assert b[2:] == got[2:]
        assert got[3] is False, f"{name} degraded instead of running native"


class TestModeParity:
    @needs_simd
    @pytest.mark.parametrize("policy", ["zero", "eager", "lazy", "dominant"])
    def test_fig1_both_modes_match_bytes(self, policy):
        program = simdize(build_fig1(trip=100), 16,
                          SimdOptions(policy=policy, reuse="sp")).program
        assert_all_equal(run_both_modes(program))

    @needs_simd
    def test_both_emitters_actually_ran(self):
        """The parity above must exercise *both* preludes, not one
        kernel twice: each mode emits its own C source."""
        before = (native.STATS["simd_kernels"],
                  native.STATS["scalar_kernels"])
        program = simdize(build_fig1(trip=67), 16, SimdOptions()).program
        run_both_modes(program)
        after = (native.STATS["simd_kernels"],
                 native.STATS["scalar_kernels"])
        assert after[0] > before[0], "no vector-ext kernel was emitted"
        assert after[1] > before[1], "no scalar-lane kernel was emitted"

    @needs_simd
    def test_figure_sweep_config_both_modes(self):
        """One Figure-11 sweep config (runtime alignment, runtime
        trip) through both emitters — the shape the fig11 CSV
        acceptance check exercises in bulk."""
        from repro.bench import figure_configs
        from repro.bench.runner import _cached_simdize
        from repro.bench.synth import synthesize

        label, config = next(iter(figure_configs(False, count=1, trip=67)))
        syn = synthesize(config.params, config.seed, config.V)
        result = _cached_simdize(syn.loop, config.V, config.options)
        rand = random.Random(config.seed ^ 0x5EED)
        space = make_space(syn.loop, config.V, rand, syn.base_residues)
        base = space.make_memory()
        fill_random(space, base, rand)
        trip = config.params.trip if syn.loop.runtime_upper else None
        bindings = RunBindings(trip=trip)

        outcomes = {}
        mem = base.clone()
        run = get_backend("bytes").run(result.program, space, mem, bindings)
        outcomes["bytes"] = (mem.snapshot(), run.counters.as_dict(),
                             run.trip, run.used_fallback)
        for name, mode in (("scalar-lane", False), ("vector-ext", True)):
            native.set_simd_mode(mode)
            mem = base.clone()
            run = get_backend("native").run(result.program, space, mem,
                                            bindings)
            outcomes[name] = (mem.snapshot(), run.counters.as_dict(),
                              run.trip, run.used_fallback)
        assert_all_equal(outcomes)

    @needs_simd
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(differential_case())
    def test_modes_agree_on_random_loops(self, case):
        syn, options = case
        try:
            result = simdize(syn.loop, 16, options)
        except PolicyError:
            assume(False)
        trip = syn.params.trip if syn.loop.runtime_upper else None
        outcomes = run_both_modes(result.program, trip=trip,
                                  seed=syn.seed ^ 0xA11)
        b = outcomes["bytes"]
        for name in ("scalar-lane", "vector-ext"):
            got = outcomes[name]
            assert b[0] == got[0], f"final memory differs (bytes vs {name})"
            assert b[1] == got[1]
            assert b[2] == got[2]


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
    def test_probe_failure_falls_back_silently(self, monkeypatch, novec_cc,
                                               _fresh_probes):
        monkeypatch.setenv("REPRO_CC", novec_cc)
        failures = native.STATS["simd_probe_failures"]
        assert native.simd_supported() is False
        assert native.STATS["simd_probe_failures"] == failures + 1
        assert native.emitter_mode() == "scalar-lane"

        # The tier still compiles and runs — on the scalar-lane
        # emitter, byte-identical to the oracle, no jit degradation.
        program = simdize(build_fig1(trip=100), 16, SimdOptions()).program
        loop = program.source
        rand = random.Random(3)
        space = make_space(loop, program.V, rand)
        base = space.make_memory()
        fill_random(space, base, rand)
        runs = {}
        for name in ("bytes", "native"):
            mem = base.clone()
            run = get_backend(name).run(program, space, mem, RunBindings())
            runs[name] = (mem.snapshot(), run.counters.as_dict(),
                          run.trip, run.used_fallback)
        assert runs["bytes"] == runs["native"]
        assert runs["native"][3] is False
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None

    @needs_cc
    def test_env_opt_out_forces_scalar_lane(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SIMD", "0")
        assert native.simd_enabled() is False
        assert native.emitter_mode() == "scalar-lane"

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SIMD", "0")
        native.set_simd_mode(True)
        assert native.simd_enabled() is True
        native.set_simd_mode(False)
        assert native.simd_enabled() is False


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
        native.set_simd_mode(False)
        monkeypatch.setenv("REPRO_CC_FLAGS", "-O2")
        key_o2 = native._disk_key("sig", "cc-id")
        monkeypatch.setenv("REPRO_CC_FLAGS", "-Os")
        key_os = native._disk_key("sig", "cc-id")
        assert key_o2 != key_os

    def test_disk_key_separates_modes(self):
        native.set_simd_mode(True)
        key_simd = native._disk_key("sig", "cc-id")
        native.set_simd_mode(False)
        key_scalar = native._disk_key("sig", "cc-id")
        assert ":simd:" in key_simd
        assert ":scalar:" in key_scalar
        assert key_simd != key_scalar

    @needs_cc
    def test_set_simd_mode_drops_kernel_cache(self):
        program = simdize(build_fig1(trip=50), 16, SimdOptions()).program
        native.set_simd_mode(False)
        native.get_native_kernel(program)
        assert len(native._NATIVE_CACHE) > 0
        native.set_simd_mode(True)
        assert len(native._NATIVE_CACHE) == 0


#: Run in a fresh interpreter: resolve the probes with a spy on every
#: compiler subprocess, and print what was resolved and started.
_CHILD = """
import json
from repro.machine import compilequeue, native
started = []
real = compilequeue._run_cc
def spy(argv, budget=None):
    started.append(argv)
    return real(argv, budget)
compilequeue._run_cc = spy
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
