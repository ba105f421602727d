"""The compile-once jit engine: kernel cache, disk persistence, parity.

``test_backend.py`` / ``test_differential.py`` already hold the jit
engine to bit-exact parity with the byte oracle; this file pins the
caching machinery around it — structural signatures, the in-process
LRU, the versioned disk cache (stale-version recompiles, corrupted
entries degrade to silent misses), the marshalled code objects a warm
load runs instead of compiling the source (digest and type checks, the
source fallback, the interpreter tag in the key), the profile
attribution, and the section helpers' lane arithmetic against the
interpreter's ``vbinop``.  The
Figure 11/12 sweep acceptance criterion lives in ``test_backend.py``,
one test for all three array tiers.
"""

import copy
import hashlib
import marshal
import random
import sys
from dataclasses import replace

import pytest

from repro.ir.types import ALL_OPS, ALL_TYPES
from repro.machine import RunBindings, get_backend, numpy_available
from repro.machine.backend import jit_compile_stats
from repro.machine.vector import vbinop
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

if numpy_available():
    from repro.machine import jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    yield
    jit.clear_memory_cache()
    native.clear_memory_cache()


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


def fig11_case():
    """(program, space, memory, bindings) of the first Figure 11 config."""
    from repro.bench import figure_configs
    from repro.bench.synth import synthesize

    _label, config = next(iter(figure_configs(False, count=1, trip=67)))
    syn = synthesize(config.params, config.seed, config.V)
    program = simdize(syn.loop, config.V, config.options).program
    rand = random.Random(config.seed ^ 0x5EED)
    space = make_space(syn.loop, config.V, rand, syn.base_residues)
    base = space.make_memory()
    fill_random(space, base, rand)
    trip = config.params.trip if syn.loop.runtime_upper else None
    return program, space, base, RunBindings(trip=trip)


def fig1_case():
    program = fig1_program(trip=77)
    rand = random.Random(9)
    space = make_space(program.source, 16, rand)
    base = space.make_memory()
    fill_random(space, base, rand)
    return program, space, base, RunBindings()


def run_against_bytes(case, name):
    """(bytes outcome, ``name`` outcome) on clones of one memory image."""
    program, space, base, bindings = case
    runs = []
    for engine in ("bytes", name):
        mem = base.clone()
        run = get_backend(engine).run(program, space, mem, bindings)
        runs.append((mem.snapshot(), run.counters.as_dict(),
                     run.used_fallback))
    return runs


def stored_entry(program):
    from repro.cache import get_cache

    key = jit._disk_key(jit.program_signature(program))
    return get_cache(), key, get_cache().get(key)


class TestCodeObjectCache:
    @pytest.mark.parametrize("name", [
        "jit",
        pytest.param("native", marks=pytest.mark.skipif(
            not HAVE_CC, reason="no host C compiler")),
    ])
    @pytest.mark.parametrize("make_case", [fig1_case, fig11_case],
                             ids=["fig1", "fig11"])
    def test_warm_load_compiles_no_source(self, name, make_case):
        """A disk hit runs the stored code object: no compile(), and
        the same memory, counters and fallback as the bytes engine."""
        case = make_case()
        cold = run_against_bytes(case, name)
        assert cold[0] == cold[1]
        jit.clear_memory_cache()
        native.clear_memory_cache()
        before = dict(jit.STATS)
        warm = run_against_bytes(case, name)
        assert warm[0] == warm[1] == cold[1]
        assert jit.STATS["disk_hits"] == before["disk_hits"] + 1
        assert jit.STATS["source_compiles"] == before["source_compiles"]
        assert jit.STATS["codegens"] == before["codegens"]

    def test_entry_carries_code_the_kernel_does_not(self):
        program = fig1_program()
        kernel = jit.get_kernel(program)
        _disk, _key, entry = stored_entry(program)
        assert entry.code
        assert entry.code_sha256 == hashlib.sha256(entry.code).hexdigest()
        assert kernel.spec.code == b""
        jit.clear_memory_cache()
        assert jit.get_kernel(program).spec.code == b""

    @pytest.mark.parametrize("damage", [
        # One flipped byte inside the marshalled code, digest unchanged.
        lambda entry: replace(entry, code=entry.code[:40] + bytes(
            [entry.code[40] ^ 0xFF]) + entry.code[41:]),
        # Bytes that pass the digest but are no code object.
        lambda entry: replace(entry, code=marshal.dumps(0),
                              code_sha256=hashlib.sha256(
                                  marshal.dumps(0)).hexdigest()),
    ], ids=["flipped-byte", "not-code"])
    def test_bad_code_falls_back_to_source_and_repairs(self, damage):
        case = fig1_case()
        program = case[0]
        clean = run_against_bytes(case, "jit")
        disk, key, entry = stored_entry(program)
        disk.put(key, damage(entry))  # still a valid pickle
        jit.clear_memory_cache()
        before = dict(jit.STATS)
        assert run_against_bytes(case, "jit") == clean
        assert jit.STATS["disk_hits"] == before["disk_hits"] + 1
        assert jit.STATS["source_compiles"] == before["source_compiles"] + 1
        assert jit.STATS["codegens"] == before["codegens"]
        # The entry was rewritten: the next process-fresh load runs its
        # code again instead of failing the same way.
        jit.clear_memory_cache()
        assert run_against_bytes(case, "jit") == clean
        assert jit.STATS["source_compiles"] == before["source_compiles"] + 1

    def test_other_interpreter_entry_is_never_read(self, monkeypatch):
        """The key carries the bytecode tag importlib checks a .pyc
        with, so another interpreter's entry is a plain miss."""
        import importlib.util

        assert sys.implementation.cache_tag in jit._CODE_TAG
        assert importlib.util.MAGIC_NUMBER.hex() in jit._CODE_TAG
        program = fig1_program()
        monkeypatch.setattr(jit, "_CODE_TAG", "cpython-0:00000000")
        jit.get_kernel(program)
        monkeypatch.undo()
        jit.clear_memory_cache()
        before = dict(jit.STATS)
        jit.get_kernel(program)
        assert jit.STATS["disk_misses"] == before["disk_misses"] + 1
        assert jit.STATS["codegens"] == before["codegens"] + 1
        assert jit.STATS["source_compiles"] == before["source_compiles"] + 1


class TestByteBinops:
    """The section helpers match the interpreter's vbinop byte for byte."""

    @pytest.mark.parametrize("V", [8, 16, 32])
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
    def test_every_op_and_type_matches_vbinop(self, op, V):
        rng = random.Random(f"{op.name}:{V}")
        edges = (0, 1, 0x7F, 0x80, 0xFF)
        for dtype in ALL_TYPES:
            bbin = jit._make_byte_binop(op.name, dtype, V)
            for _ in range(200):
                a, b = (bytes(rng.choice((*edges, rng.randrange(256)))
                              for _ in range(V)) for _ in range(2))
                assert bbin(a, b) == vbinop(op, a, b, dtype, V), (
                    dtype.name, a.hex(), b.hex())
