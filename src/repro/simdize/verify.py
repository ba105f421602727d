"""Equivalence verification: simdized execution vs scalar reference.

This is the reproduction of the paper's coverage methodology
(Section 5.4): "The generated binaries were simulated on a
cycle-accurate simulator, and the results were verified."  We run the
scalar loop and the vector program on two identical memories and
require the *entire* memory images to match byte-for-byte — which
checks both that every stream byte got its correct value and that
nothing outside the streams (guard zones included) was clobbered.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from repro.errors import VerificationError
from repro.ir.expr import Loop
from repro.machine.arrays import ArraySpace
from repro.machine.backend import (
    ExecutionBackend,
    ResilientBackend,
    ScalarBackend,
    get_resilient_backend,
    get_resilient_scalar_backend,
    jit_compile_stats,
)
from repro.machine.counters import OpCounters
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings
from repro.profiling import PhaseProfile, timed
from repro.vir.program import VProgram


@dataclass
class EquivalenceReport:
    """Counts from a verified pair of executions."""

    scalar_ops: OpCounters
    vector_ops: OpCounters
    trip: int
    data_count: int
    used_fallback: bool
    #: Structured backend degradation, or None when the requested tier
    #: ran clean: ``{"tier": ran, "phase": failing phase, "reason":
    #: first error, "failed": tiers that failed}``.
    fallback: dict | None = None
    #: Same, for the scalar-reference axis (``numpy`` -> ``bytes``).
    scalar_fallback: dict | None = None

    @property
    def scalar_total(self) -> int:
        return self.scalar_ops.total

    @property
    def vector_total(self) -> int:
        return self.vector_ops.total

    @property
    def speedup(self) -> float:
        """Dynamic-instruction-count speedup (the paper's Table 1/2 metric)."""
        return self.scalar_total / self.vector_total

    @property
    def vector_opd(self) -> float:
        """Operations per datum of the simdized code (Figure 11/12 metric)."""
        return self.vector_total / self.data_count

    @property
    def scalar_opd(self) -> float:
        return self.scalar_total / self.data_count


def make_space(
    loop: Loop,
    V: int,
    rng: random.Random | None = None,
    runtime_residues: dict[str, int] | None = None,
) -> ArraySpace:
    """Place the loop's arrays; random residues for runtime-aligned ones."""
    rng = rng or random.Random(0)
    space = ArraySpace(V)
    residues = dict(runtime_residues or {})
    for decl in loop.arrays():
        if decl.runtime_aligned and decl.name not in residues:
            residues[decl.name] = rng.randrange(0, V, decl.dtype.size)
    space.place_all(loop.arrays(), residues)
    return space


def fill_random(space: ArraySpace, mem: Memory, rng: random.Random) -> None:
    """Give every array random in-range element values.

    Element values are uniform over the dtype's full range, so the fill
    is one bulk byte draw per array: every byte pattern *is* an
    in-range two's-complement value.  Deterministic for a given ``rng``
    state (but a different stream than the historical per-element
    ``randint`` loop, so seeds pin different — equally random — data).
    """
    for arr in space.arrays():
        mem.write(arr.base, rng.randbytes(arr.size_bytes))


def verify_equivalence(
    program: VProgram,
    space: ArraySpace,
    mem: Memory,
    bindings: RunBindings | None = None,
    backend: str | ExecutionBackend = "auto",
    scalar_backend: str | ScalarBackend = "auto",
    profile: PhaseProfile | None = None,
) -> EquivalenceReport:
    """Run both executions on clones of ``mem``; raise on any mismatch.

    ``backend`` selects the vector execution engine and
    ``scalar_backend`` the scalar-reference engine (names accepted by
    :func:`repro.machine.backend.get_backend` /
    :func:`~repro.machine.backend.get_scalar_backend`, or engine
    instances).  Counters and memory are backend-invariant on both
    axes, so the report is the same whichever engines ran — only the
    wall-clock differs.  With a ``profile``, the executions are timed
    into the ``execute`` phase — minus any jit kernel-compilation time,
    which is re-attributed to ``compile`` along with the kernel cache
    hit/miss counters — and the byte comparison into ``verify``.
    """
    bindings = bindings or RunBindings()
    loop = program.source
    engine = (
        get_resilient_backend(backend) if isinstance(backend, str) else backend
    )
    scalar_engine = (
        get_resilient_scalar_backend(scalar_backend)
        if isinstance(scalar_backend, str)
        else scalar_backend
    )

    scalar_mem = mem.clone()
    vector_mem = mem.clone()
    before = jit_compile_stats() if profile is not None else {}
    with timed(profile, "execute"):
        scalar_result = scalar_engine.run(loop, space, scalar_mem, bindings)
        vector_result = engine.run(program, space, vector_mem, bindings)
    if profile is not None:
        _attribute_jit_compile(profile, before, jit_compile_stats())
        _count_degradations(profile, vector_result, scalar_result)

    with timed(profile, "verify"):
        matched = scalar_mem.snapshot() == vector_mem.snapshot()
    if not matched:
        detail = _first_mismatch(scalar_mem, vector_mem, space)
        raise VerificationError(
            f"simdized execution diverges from scalar reference for loop "
            f"{loop.name!r}: {detail}"
        )
    return EquivalenceReport(
        scalar_ops=scalar_result.counters,
        vector_ops=vector_result.counters,
        trip=scalar_result.trip,
        data_count=scalar_result.data_count,
        used_fallback=vector_result.used_fallback,
        fallback=vector_result.fallback,
        scalar_fallback=scalar_result.fallback,
    )


def verify_equivalence_batch(
    items: list,
    backend: str = "auto",
    scalar_backend: str | ScalarBackend = "auto",
    profile: PhaseProfile | None = None,
) -> list[EquivalenceReport]:
    """:func:`verify_equivalence` over many configs in one call.

    ``items`` holds ``(program, space, mem, bindings)`` per config.
    Both sides run config by config (the vector side through
    :meth:`~repro.machine.backend.ResilientBackend.run_batch`), and
    each config's memory images are compared independently, so a
    single diverging config raises with the same diagnostics
    :func:`verify_equivalence` gives it.  Reports come back in input
    order, field-identical to per-config calls.
    """
    engine = ResilientBackend(backend)
    scalar_engine = (
        get_resilient_scalar_backend(scalar_backend)
        if isinstance(scalar_backend, str)
        else scalar_backend
    )
    scalar_mems = [mem.clone() for _, _, mem, _ in items]
    vector_mems = [mem.clone() for _, _, mem, _ in items]
    before = jit_compile_stats() if profile is not None else {}
    with timed(profile, "execute"):
        scalar_results = [
            scalar_engine.run(program.source, space, smem,
                              bindings or RunBindings())
            for (program, space, _, bindings), smem
            in zip(items, scalar_mems)
        ]
        vector_results = engine.run_batch([
            (program, space, vmem, bindings or RunBindings())
            for (program, space, _, bindings), vmem
            in zip(items, vector_mems)
        ])
    if profile is not None:
        _attribute_jit_compile(profile, before, jit_compile_stats())
        for scalar_result, vector_result in zip(scalar_results,
                                                vector_results):
            _count_degradations(profile, vector_result, scalar_result)

    reports = []
    for (program, space, _, _), smem, vmem, scalar_result, vector_result \
            in zip(items, scalar_mems, vector_mems,
                   scalar_results, vector_results):
        with timed(profile, "verify"):
            matched = smem.snapshot() == vmem.snapshot()
        if not matched:
            detail = _first_mismatch(smem, vmem, space)
            raise VerificationError(
                f"simdized execution diverges from scalar reference for "
                f"loop {program.source.name!r}: {detail}"
            )
        reports.append(EquivalenceReport(
            scalar_ops=scalar_result.counters,
            vector_ops=vector_result.counters,
            trip=scalar_result.trip,
            data_count=scalar_result.data_count,
            used_fallback=vector_result.used_fallback,
            fallback=vector_result.fallback,
            scalar_fallback=scalar_result.fallback,
        ))
    return reports


def _count_degradations(
    profile: PhaseProfile, vector_result, scalar_result
) -> None:
    """Fold backend-degradation records into the profile counters."""
    if vector_result.fallback is not None:
        profile.count("degraded")
        profile.count(f"degraded_to_{vector_result.fallback['tier']}")
    if scalar_result.fallback is not None:
        profile.count("scalar_degraded")


def _attribute_jit_compile(
    profile: PhaseProfile, before: dict, after: dict
) -> None:
    """Move jit kernel-compile time out of ``execute`` into ``compile``.

    The jit engine compiles lazily inside ``run()``, so without this
    the first execution of each program would charge codegen to the
    execute phase and hide the compile-once win the profile exists to
    show.  Also folds the engine's kernel-cache counters (process-wide
    deltas) into the profile's counter namespace.

    The stat dict is treated as open-ended: any ``*_s`` key is a
    lazily-incurred wall-clock phase to re-attribute out of
    ``execute`` (``_PHASE_FOR`` maps it to its reporting phase), and
    any other key is a counter delta.  Counters already namespaced
    (``native_*``) pass through unchanged so ``hit_rate()`` pairs line
    up; bare jit counters gain the historical ``kernel_`` prefix.  New
    engine tiers thus flow through without this function growing a
    fixed phase list.
    """
    if not after:
        return
    for stat in after:
        if stat.endswith("_s"):
            phase = _PHASE_FOR.get(stat)
            if phase is None:
                continue
            dt = after.get(stat, 0.0) - before.get(stat, 0.0)
            if dt > 0:
                profile.add(phase, dt)
                profile.add("execute", -dt)
        else:
            delta = after.get(stat, 0) - before.get(stat, 0)
            if not delta:
                continue
            name = stat if stat.startswith("native_") else f"kernel_{stat}"
            profile.count(name, delta)


#: Lazily-timed engine stats (``*_s`` keys from ``jit_compile_stats``)
#: and the profile phase each one reports under.
_PHASE_FOR = {
    "compile_s": "compile",
    "native_cc_s": "cc",
    "native_load_s": "native_load",
}


def _first_mismatch(a: Memory, b: Memory, space: ArraySpace) -> str:
    sa, sb = a.snapshot(), b.snapshot()
    for addr in range(len(sa)):
        if sa[addr] != sb[addr]:
            where = "outside any array"
            for arr in space.arrays():
                if arr.base <= addr < arr.base + arr.size_bytes:
                    idx = (addr - arr.base) // arr.decl.dtype.size
                    where = f"array {arr.name!r} element {idx}"
                    break
            return (
                f"first differing byte at address {addr} ({where}): "
                f"scalar={sa[addr]:#x} simdized={sb[addr]:#x}"
            )
    return "memories equal?"  # pragma: no cover - only called on mismatch
