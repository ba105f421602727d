"""The compile-once jit engine: kernel cache, disk persistence, parity.

``test_backend.py`` / ``test_differential.py`` already hold the jit
engine to bit-exact parity with the byte oracle; this file pins the
caching machinery around it — structural signatures, the in-process
LRU, the versioned disk cache (stale-version recompiles, corrupted
entries degrade to silent misses), and the profile attribution.  The
Figure 11/12 sweep acceptance criterion lives in ``test_backend.py``,
one test for all three array tiers.
"""

import copy
import random

import pytest

from repro.machine import RunBindings, get_backend, numpy_available
from repro.machine.backend import jit_compile_stats
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

if numpy_available():
    from repro.machine import jit


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    jit.clear_memory_cache()
    yield
    jit.clear_memory_cache()


def fig1_program(trip: int = 100, policy: str = "zero"):
    return simdize(build_fig1(trip=trip), 16,
                   SimdOptions(policy=policy, reuse="sp")).program


class TestSignature:
    def test_same_structure_same_signature(self):
        """Signatures are structural: a distinct but identical program
        object (register names included — simdize gensyms fresh names
        per call, so we copy) hashes the same."""
        program = fig1_program()
        twin = copy.deepcopy(program)
        assert program is not twin
        assert (jit.program_signature(program)
                == jit.program_signature(twin))

    def test_different_programs_differ(self):
        assert (jit.program_signature(fig1_program(policy="zero"))
                != jit.program_signature(fig1_program(policy="lazy")))
        assert (jit.program_signature(fig1_program(trip=100))
                != jit.program_signature(fig1_program(trip=101)))

    def test_signature_memoized_on_program(self):
        program = fig1_program()
        sig = jit.program_signature(program)
        assert program._jit_sig == sig
        assert jit.program_signature(program) is sig


class TestKernelCache:
    def test_same_signature_shares_kernel_object(self):
        """Two structurally identical programs compile exactly once and
        get the very same kernel closure back."""
        p1 = fig1_program()
        p2 = copy.deepcopy(p1)
        assert p1 is not p2
        before = dict(jit.STATS)
        k1 = jit.get_kernel(p1)
        k2 = jit.get_kernel(p2)
        assert k1 is k2
        assert jit.STATS["codegens"] == before["codegens"] + 1
        assert jit.STATS["memory_hits"] == before["memory_hits"] + 1

    def test_memory_cache_is_lru(self, monkeypatch):
        monkeypatch.setattr(jit, "_KERNEL_CACHE_MAX", 2)
        programs = [fig1_program(trip=t) for t in (30, 40, 50)]
        jit.get_kernel(programs[0])
        jit.get_kernel(programs[1])
        jit.get_kernel(programs[0])          # touch: 0 is now most recent
        jit.get_kernel(programs[2])          # evicts 1, not 0
        sigs = list(jit._KERNEL_CACHE)
        assert jit.program_signature(programs[0]) in sigs
        assert jit.program_signature(programs[1]) not in sigs
        assert jit.program_signature(programs[2]) in sigs

    def test_disk_roundtrip_skips_codegen(self):
        """A cleared memory cache reloads the spec from disk instead of
        re-deriving it."""
        program = fig1_program()
        before = dict(jit.STATS)
        jit.get_kernel(program)
        assert jit.STATS["codegens"] == before["codegens"] + 1
        jit.clear_memory_cache()
        jit.get_kernel(program)
        assert jit.STATS["codegens"] == before["codegens"] + 1  # unchanged
        assert jit.STATS["disk_hits"] == before["disk_hits"] + 1

    def test_stale_code_version_recompiles(self, monkeypatch):
        """Bumping KERNEL_CODE_VERSION invalidates every disk entry."""
        program = fig1_program()
        before = dict(jit.STATS)
        jit.get_kernel(program)
        jit.clear_memory_cache()
        monkeypatch.setattr(jit, "KERNEL_CODE_VERSION",
                            jit.KERNEL_CODE_VERSION + 1)
        jit.get_kernel(program)
        assert jit.STATS["codegens"] == before["codegens"] + 2
        assert jit.STATS["disk_misses"] == before["disk_misses"] + 2

    def test_corrupted_disk_entry_is_silent_miss(self):
        from repro.cache import get_cache

        program = fig1_program()
        jit.get_kernel(program)
        cache = get_cache()
        path = cache._path(jit._disk_key(jit.program_signature(program)))
        assert path.exists()
        path.write_bytes(b"this is not a pickle")
        jit.clear_memory_cache()
        before = dict(jit.STATS)
        kernel = jit.get_kernel(program)         # must not raise
        assert kernel.fn is not None or kernel.spec is not None
        assert jit.STATS["disk_misses"] == before["disk_misses"] + 1
        assert jit.STATS["codegens"] == before["codegens"] + 1

    def test_disk_loaded_kernel_still_bit_exact(self):
        """A kernel materialized from a pickled spec (not fresh codegen)
        reproduces the byte oracle exactly."""
        program = fig1_program(trip=77)
        jit.get_kernel(program)
        jit.clear_memory_cache()

        loop = program.source
        rand = random.Random(9)
        space = make_space(loop, 16, rand)
        base = space.make_memory()
        fill_random(space, base, rand)
        runs = {}
        for name in ("bytes", "jit"):
            mem = base.clone()
            run = get_backend(name).run(program, space, mem, RunBindings())
            runs[name] = (mem.snapshot(), run.counters.as_dict())
        assert runs["bytes"] == runs["jit"]

    def test_compile_stats_shape(self):
        stats = jit_compile_stats()
        assert isinstance(stats, dict)
        for key in ("codegens", "memory_hits", "memory_misses",
                    "disk_hits", "disk_misses", "compile_s"):
            assert key in stats


class TestProfileIntegration:
    def test_jit_compile_attributed_to_compile_phase(self):
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        profile = PhaseProfile()
        run_and_verify(fig1_program(), backend="jit", profile=profile)
        assert profile.seconds.get("compile", 0.0) > 0.0
        assert profile.counts.get("kernel_memory_misses", 0) >= 1
        text = profile.format()
        assert "compile" in text and "kernel" in text
