"""Execution-backend protocols and registries.

Two *pairs* of engines interpret the same inputs:

* **Vector backends** (:class:`ExecutionBackend`) execute a
  :class:`~repro.vir.program.VProgram` — ``bytes`` is the byte-level
  reference interpreter (:mod:`repro.machine.interp`), ``numpy`` the
  batched array backend (:mod:`repro.machine.npbackend`), ``jit`` the
  compile-once kernel backend (:mod:`repro.machine.jit`) that lowers
  each program to a cached fused-NumPy closure, and ``native`` the
  machine-code backend (:mod:`repro.machine.native`) that compiles
  signature kernels with the system C toolchain — preferring the
  vector-extension emitter on capable compilers (true aligned SIMD
  against the 64-byte-aligned :class:`~repro.machine.memory.Memory`
  buffers), silently falling back to the scalar-lane emitter
  elsewhere.
* **Scalar backends** (:class:`ScalarBackend`) execute the original
  :class:`~repro.ir.expr.Loop` as the paper's byte-for-byte reference
  — ``bytes`` is the per-iteration interpreter
  (:func:`repro.machine.scalar.run_scalar`), ``numpy`` the whole-array
  engine (:mod:`repro.machine.npscalar`) that evaluates each
  statement's expression tree over shifted element windows.

In both registries ``"auto"`` resolves to ``numpy`` when available and
falls back to ``bytes`` otherwise, so the package keeps working with no
hard dependency beyond the standard library; the NumPy engines come
from the ``repro[fast]`` extra.

Every engine must produce identical final memory images **and**
identical :class:`~repro.machine.counters.OpCounters` to its ``bytes``
oracle — the cost model counts operations of the *program*, not of the
engine executing it (see ``DESIGN.md`` §5).
``tests/test_differential.py`` enforces this equivalence property over
random synthesized loops on both backend axes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import MachineError
from repro.ir.expr import Loop
from repro.machine.arrays import ArraySpace
from repro.machine.interp import VectorRunResult, run_vector
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings, ScalarRunResult, run_scalar
from repro.machine.trace import Trace
from repro.vir.program import VProgram

#: Names accepted wherever a backend is selected (CLI, verify, bench).
BACKEND_CHOICES = ("auto", "bytes", "numpy", "jit", "native")
#: Names accepted wherever a scalar-reference engine is selected.
SCALAR_BACKEND_CHOICES = ("auto", "bytes", "numpy")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a vector program on a machine state."""

    name: str

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        """Execute ``program`` on ``mem``; return dynamic operation counts."""
        ...  # pragma: no cover - protocol


class BytesBackend:
    """The byte-level reference interpreter, wrapped as a backend."""

    name = "bytes"

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        return run_vector(program, space, mem, bindings, trace)


def numpy_available() -> bool:
    """True when the optional ``numpy`` dependency can be imported."""
    try:
        import numpy  # noqa: F401
    except Exception:  # pragma: no cover - import failure path
        return False
    return True


def default_backend_name() -> str:
    """The backend ``"auto"`` resolves to on this interpreter."""
    return "numpy" if numpy_available() else "bytes"


def get_backend(name: str = "auto") -> ExecutionBackend:
    """Resolve a backend name to an engine instance.

    ``"auto"`` prefers the NumPy backend and silently falls back to the
    byte interpreter when NumPy is unavailable; asking for ``"numpy"``
    explicitly raises instead, so a user who forced the fast path finds
    out it is missing.
    """
    if name == "auto":
        name = default_backend_name()
    if name == "bytes":
        return BytesBackend()
    if name == "numpy":
        if not numpy_available():
            raise MachineError(
                "the numpy execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        from repro.machine.npbackend import NumpyBackend

        return NumpyBackend()
    if name == "jit":
        if not numpy_available():
            raise MachineError(
                "the jit execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        from repro.machine.jit import JitBackend

        return JitBackend()
    if name == "native":
        if not numpy_available():
            raise MachineError(
                "the native execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        # No compiler requirement here: a missing toolchain is a
        # run-time degradation (native → jit with one warning), not a
        # configuration error — hosts without cc still accept the flag.
        from repro.machine.native import NativeBackend

        return NativeBackend()
    raise MachineError(
        f"unknown execution backend {name!r}; choose from {BACKEND_CHOICES}"
    )


# ---------------------------------------------------------------------------
# Backend degradation chain
# ---------------------------------------------------------------------------
#
# A sweep config must never die because one engine tier misbehaved:
# the bytes interpreters are the semantic oracles and are always able
# to produce the answer the faster tiers were asked for.  The resilient
# wrappers run the requested tier and, on *any* failure, restore the
# pre-attempt memory image and transparently re-execute on the next
# tier down, recording a structured degradation on the result
# (``fallback = {tier, phase, reason, failed}``).  Errors on the last
# tier propagate unchanged — there is nothing left to degrade to, and
# a genuine program error (bad shift amount, unbound register) raises
# the same exception from the oracle that the fast tier raised.
#
# Native kernel acquisition is synchronous: a cc failure, a host with
# no compiler, or REPRO_FAULT=compile:raise fails the native attempt
# before any memory mutation, and the chain records the native → jit
# degradation on the result.

#: Ordered fallback tiers per requested vector backend.
DEGRADATION_CHAIN: dict[str, tuple[str, ...]] = {
    "native": ("native", "jit", "numpy", "bytes"),
    "jit": ("jit", "numpy", "bytes"),
    "numpy": ("numpy", "bytes"),
    "bytes": ("bytes",),
}

#: Ordered fallback tiers per requested scalar-reference backend.
SCALAR_DEGRADATION_CHAIN: dict[str, tuple[str, ...]] = {
    "numpy": ("numpy", "bytes"),
    "bytes": ("bytes",),
}


def _failure_phase(exc: BaseException) -> str:
    """Which pipeline phase an engine failure belongs to."""
    phase = getattr(exc, "phase", None)
    if isinstance(phase, str):
        return phase
    if isinstance(exc, SyntaxError) or type(exc).__name__ == "CodegenError":
        return "compile"
    return "execute"


def _degradation(tier: str, first_exc: BaseException,
                 failed: list[str]) -> dict:
    return {
        "tier": tier,
        "phase": _failure_phase(first_exc),
        "reason": f"{type(first_exc).__name__}: {first_exc}",
        "failed": tuple(failed),
    }


class _ResilientChain:
    """Shared tier-walking logic for both backend axes."""

    def __init__(self, tiers: tuple[str, ...], resolve):
        self.tiers = tiers
        self._resolve = resolve  # tier name -> engine (may raise)
        # The head tier resolves eagerly so an explicitly requested
        # but unavailable engine still raises the friendly error.
        self._engines: dict[str, object] = {tiers[0]: resolve(tiers[0])}

    def engine_for(self, tier: str):
        engine = self._engines.get(tier)
        if engine is None:
            engine = self._engines[tier] = self._resolve(tier)
        return engine

    def run_degrading(self, mem: Memory, attempt) -> tuple[object, dict | None]:
        """Call ``attempt(engine)`` down the chain; restore ``mem``
        between tiers.  Returns ``(result, degradation-or-None)``."""
        first_exc: BaseException | None = None
        failed: list[str] = []
        snapshot = mem.snapshot() if len(self.tiers) > 1 else None
        for pos, tier in enumerate(self.tiers):
            last = pos == len(self.tiers) - 1
            try:
                engine = self.engine_for(tier)
            except Exception as exc:
                # Tier unavailable on this interpreter (no numpy).
                if first_exc is None:
                    first_exc = exc
                failed.append(tier)
                if last:
                    raise
                continue
            try:
                result = attempt(engine)
            except Exception as exc:
                if last:
                    raise
                if first_exc is None:
                    first_exc = exc
                failed.append(tier)
                mem.raw()[:] = snapshot
                continue
            if failed:
                return result, _degradation(tier, first_exc, failed)
            return result, None
        raise MachineError("empty degradation chain")  # pragma: no cover


class ResilientBackend:
    """An :class:`ExecutionBackend` that degrades down a tier chain."""

    def __init__(self, name: str = "auto"):
        if name == "auto":
            name = default_backend_name()
        tiers = DEGRADATION_CHAIN.get(name)
        if tiers is None:
            raise MachineError(
                f"unknown execution backend {name!r}; "
                f"choose from {BACKEND_CHOICES}"
            )
        self._chain = _ResilientChain(tiers, get_backend)
        self.name = name

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        def attempt(engine):
            return engine.run(program, space, mem, bindings, trace)

        result, degradation = self._chain.run_degrading(mem, attempt)
        if degradation is not None:
            result.fallback = degradation
        return result

    def run_batch(self, runs: list) -> list:
        """Run ``(program, space, mem, bindings)`` tuples in order.

        Each run goes through :meth:`run`, so every config degrades on
        its own.  Nothing in the package calls this any more; it stays
        because ``perfbench/launcher.py`` wraps it by name.
        """
        return [self.run(program, space, mem, bindings)
                for program, space, mem, bindings in runs]


class ResilientScalarBackend:
    """A :class:`ScalarBackend` that degrades ``numpy`` to ``bytes``."""

    def __init__(self, name: str = "auto"):
        if name == "auto":
            name = default_backend_name()
        tiers = SCALAR_DEGRADATION_CHAIN.get(name)
        if tiers is None:
            raise MachineError(
                f"unknown scalar backend {name!r}; "
                f"choose from {SCALAR_BACKEND_CHOICES}"
            )
        self._chain = _ResilientChain(tiers, get_scalar_backend)
        self.name = name

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
    ) -> ScalarRunResult:
        def attempt(engine):
            return engine.run(loop, space, mem, bindings)

        result, degradation = self._chain.run_degrading(mem, attempt)
        if degradation is not None:
            result.fallback = degradation
        return result


def get_resilient_backend(name: str = "auto") -> ExecutionBackend:
    """A vector engine that survives tier failures by degrading.

    Requesting an explicitly unavailable head tier (``numpy``/``jit``
    without NumPy installed) still raises the friendly install hint —
    degradation covers *run-time* tier failures, not misconfiguration
    the user asked for by name.
    """
    return ResilientBackend(name)


def get_resilient_scalar_backend(name: str = "auto") -> ScalarBackend:
    """A scalar-reference engine that degrades ``numpy`` to ``bytes``."""
    return ResilientScalarBackend(name)


def jit_compile_stats() -> dict:
    """A snapshot of the compiled engines' compile/cache counters.

    Import-free on purpose: when a compiled tier's module was never
    loaded there is nothing to report and the (possibly numpy-less)
    interpreter must not be forced to import it.  The jit engine's
    counters appear under their own names; the native engine's are
    folded in under a ``native_`` prefix (``native_cc_s``,
    ``native_memory_hits``, the probe counters ``native_simd_probes``
    and ``native_flag_probes``, …) so one snapshot covers both tiers.
    """
    import sys

    module = sys.modules.get("repro.machine.jit")
    stats = dict(module.STATS) if module is not None else {}
    native = sys.modules.get("repro.machine.native")
    if native is not None:
        for stat, value in native.STATS.items():
            stats[f"native_{stat}"] = value
    return stats


# ---------------------------------------------------------------------------
# Scalar-reference engines
# ---------------------------------------------------------------------------

@runtime_checkable
class ScalarBackend(Protocol):
    """Anything that can execute the original scalar loop on a memory."""

    name: str

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
    ) -> ScalarRunResult:
        """Execute ``loop`` on ``mem``; return reference operation counts."""
        ...  # pragma: no cover - protocol


class BytesScalarBackend:
    """The per-iteration scalar reference, wrapped as a backend."""

    name = "bytes"

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
    ) -> ScalarRunResult:
        return run_scalar(loop, space, mem, bindings)


def get_scalar_backend(name: str = "auto") -> ScalarBackend:
    """Resolve a scalar-reference engine name to an engine instance.

    Mirrors :func:`get_backend`: ``"auto"`` prefers the whole-array
    NumPy engine and silently falls back to the per-iteration
    interpreter when NumPy is unavailable; asking for ``"numpy"``
    explicitly raises instead.
    """
    if name == "auto":
        name = default_backend_name()
    if name == "bytes":
        return BytesScalarBackend()
    if name == "numpy":
        if not numpy_available():
            raise MachineError(
                "the numpy scalar backend needs numpy installed "
                "(pip install 'repro[fast]'); use scalar_backend='bytes' "
                "or 'auto'"
            )
        from repro.machine.npscalar import NumpyScalarBackend

        return NumpyScalarBackend()
    raise MachineError(
        f"unknown scalar backend {name!r}; choose from {SCALAR_BACKEND_CHOICES}"
    )
