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
        profile.fold_engine_stats(before, jit_compile_stats(),
                                  out_of="execute")
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


def _count_degradations(
    profile: PhaseProfile, vector_result, scalar_result
) -> None:
    """Fold backend-degradation records into the profile counters."""
    if vector_result.fallback is not None:
        profile.count("degraded")
        profile.count(f"degraded_to_{vector_result.fallback['tier']}")
    if scalar_result.fallback is not None:
        profile.count("scalar_degraded")


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
