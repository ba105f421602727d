"""Native codegen backend: signature kernels compiled to machine code.

The jit tier (:mod:`repro.machine.jit`) stops at generated NumPy-Python
source.  This tier closes the paper's loop: for each structural program
signature it lowers the :class:`~repro.vir.program.VProgram` through
the C emitter (:mod:`repro.export.cgen` with the portable plain-C
dialect — the SSE/AltiVec emitters stay export-only) into a translation
unit holding the scalar reference loop, the simdized loop, and a
*steady-loop kernel* with the flat-buffer ABI this module calls, then
compiles it with the system toolchain (``cc -O3 -shared -fPIC``), loads
the shared object via :mod:`ctypes`, and invokes it on the run's
existing byte buffers with zero-copy pointer passing.

Division of labour — native is the jit engine with the hot path
swapped out.  It uses jit only through public names: the program
signature, and the jit kernel that runs the preheader, the
prologue/epilogue splice sections, and every run the C path declines.
The translation unit carries one entry point per signature, the steady
kernel ``simdal_steady_<digest>``; every run is jit's ``pre`` section
function, one ctypes call for the steady loop, then jit's ``post``.
The split that keeps figures exact:

* everything value-dependent — scalar registers, the sections, guard
  fallback and trip resolution — resolves in Python, so the section
  semantics live in the interpreter and jit only;
* batchability, the window table and the per-run window/collision
  check come from the shared steady-loop model
  (:mod:`repro.machine.steady`), so native batches and falls back on
  **exactly** the same runs as numpy and jit (the ``used_fallback``
  parity contract).  For every accepted run the colliding loads read
  pre-loop memory in sequential order too, so the C kernel executes
  the original statement sequence iteration by iteration and needs no
  snapshot buffer;
* nothing here counts: every result's counters come from
  :func:`repro.machine.interp.count_ops`, so OPD tables are
  byte-identical to the bytes oracle.

Every kernel is emitted with the vector-extension helpers
(:func:`~repro.export.portable.kernel_unit_prelude`) as a uniquely
named ``simdal_steady_<digest>`` function, so many signatures can
share one translation unit and one ``cc`` invocation.  One acquisition
core walks memory, then disk, then one batched ``cc`` for every miss;
it has two entries: :func:`get_native_kernel` for one run, and
:func:`precompile` for a sweep campaign, which the sweep runners call
before workers fork.

Kernels are cached at two tiers keyed on the structural signature:
an in-process LRU of loaded ``ctypes`` functions, and the shared disk
cache.  On disk each built ``.so`` is stored once, as one entry keyed
by the SHA-256 of its bytes, and each signature keeps one small meta
(symbols, invoke tables, ``.so`` digest) under a key versioned by
package version, :data:`NATIVE_CODE_VERSION`, and the *compiler
identity* (path plus ``--version`` line), so a toolchain upgrade can
never resurrect a stale object.  A process reads a ``.so`` entry at
most once: the bytes that pass the digest check go into a private
workdir copy, which is ``dlopen``ed once, and every signature built
into it binds from that one handle.  The compiler identity itself
re-resolves whenever ``REPRO_CC``/``CC`` change (and
:func:`reset_compiler_cache` drops it plus any memoized cc failures),
so a transient or fault-injected toolchain failure cannot poison later
legitimate compiles.  A missing ``.so`` entry is a miss; one that
fails its digest or ``dlopen`` is quarantined, never raised.  The
outcomes of the ``-march=native`` and vector-extension probes are
persisted in one more entry under the compiler identity (see
:func:`compiler_flags`), so a warm process starts no probe ``cc``.

Hosts without a C compiler, or whose compiler fails the
vector-extension probe (:func:`simd_supported`), and
``REPRO_FAULT=compile:*`` runs raise :class:`NativeUnavailable` from
kernel acquisition — before any memory mutation — which the resilient
chain turns into a structured ``native → jit`` degradation with one
warning per process.

This module is only imported when NumPy is present (it builds on the
jit tier and the NumPy steady-loop model); use
:func:`repro.machine.backend.get_backend` for gated access.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import itertools
import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import time
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.cache import get_cache
from repro.errors import FaultInjected, MachineError
from repro.export.portable import kernel_unit_prelude
from repro.ir.types import DataType
from repro.faults import fault as _fault
from repro.machine import interp, jit, steady
from repro.machine.alignedbuf import ALIGNMENT, aligned_view, as_ctypes_u8
from repro.machine import vector as vec
from repro.machine.jit import JitBackend
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    SConst,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
)
from repro.vir.vstmt import SetV, VStoreS

#: Bump when the emitted C kernel layout or ABI changes: disk entries
#: written by older code must never load.  v2: per-signature
#: ``simdal_steady_<digest>`` symbols (batched translation units).
#: v3: a whole-run driver (lowered prologue/epilogue sections) and a
#: class batch driver.
#: v4: two emitter modes (scalar-lane / vector-extension), ``restrict``
#: parameters, aligned ``_a`` loads/stores backed by the aligned-buffer
#: marshalling.
#: v5: the class batch driver is gone; each unit exports two functions
#: per signature.
#: v6: one disk entry per built ``.so`` (keyed by its SHA-256) and a
#: source-free meta per signature.
#: v7: ``wb[]`` follows the steady model's window-table order, and the
#: meta carries that table.
#: v8: the whole-run driver is gone; each unit exports one function per
#: signature, the steady kernel.
#: v9: the IR nodes in a meta pickle through their constructors.
NATIVE_CODE_VERSION = 9

#: Compile/cache counters (process-wide; surfaced with a ``native_``
#: prefix by :func:`repro.machine.backend.jit_compile_stats`).
STATS = {
    "codegens": 0,         # C kernels emitted from scratch
    "memory_hits": 0,      # loaded ctypes kernel reused
    "memory_misses": 0,
    "disk_hits": 0,        # meta lookups answered from the disk cache
    "disk_misses": 0,
    "cc_s": 0.0,           # foreground seconds inside the system compiler
    "load_s": 0.0,         # foreground seconds loading shared objects
    "cc_invocations": 0,   # compiler subprocesses launched
    "cc_timeouts": 0,      # invocations killed at REPRO_CC_TIMEOUT
    "tus": 0,              # translation units fed to those invocations
    "tu_kernels": 0,       # kernels carried by successful batches
    "precompiled": 0,      # kernels built by a campaign's precompile
    "simd_probes": 0,      # vector-extension capability probes compiled
    "simd_probe_failures": 0,  # probes the toolchain rejected
    "flag_probes": 0,      # -march=native flag probes compiled
}

#: Prefix of every steady-loop kernel symbol; the per-signature name
#: comes from :func:`kernel_symbol`.
KERNEL_SYMBOL = "simdal_steady"


def _sig_digest(signature: str) -> str:
    return hashlib.sha256(signature.encode()).hexdigest()[:16]


def kernel_symbol(signature: str) -> str:
    """The exported C symbol for a signature's steady kernel.

    Digest-suffixed so any set of signature kernels can coexist in one
    shared object — the batched compile pipeline links many kernels
    into one ``cc`` invocation.  Stable across processes (it hashes
    the structural signature only), so a ``.so`` written by one worker
    resolves in every other.
    """
    return f"{KERNEL_SYMBOL}_{_sig_digest(signature)}"


class NativeUnavailable(MachineError):
    """The native tier cannot produce a kernel on this host.

    Carries ``phase = "compile"`` so the resilient chain files the
    native → jit degradation under the compile phase.
    """

    phase = "compile"


class _CantEmit(Exception):
    """A steady form outside the C emitter's subset (delegate to jit)."""


# ---------------------------------------------------------------------------
# Steady-kernel C emission
# ---------------------------------------------------------------------------
#
# The kernel ABI (fixed; versioned by NATIVE_CODE_VERSION):
#
#   void simdal_steady(uint8_t *mem, int64_t lb, int64_t n,
#                      const int64_t *wb, const int64_t *scal,
#                      const uint8_t *cvec, uint8_t *vregs)
#
# * mem   — the run's whole memory image (Memory.raw(), zero-copy)
# * lb, n — steady lower bound and iteration count
# * wb    — one absolute V-aligned window base per table.keys entry
#           (window address at iteration t is wb[k] + t*stride)
# * scal  — checked runtime shift amounts then splice points, in table
#           order (loop-invariant: the steady sequence is SetV/VStoreS
#           only, so every SExpr operand is fixed for the whole run)
# * cvec  — one V-byte splat constant per splat-table entry
# * vregs — len(vreg_names) V-byte slots: Python seeds the registers
#           the loop reads before writing, C writes back every SetV
#           target's final value for the epilogue
#
# Statements execute in ORIGINAL sequence order, one iteration at a
# time — exactly the interpreter's semantics — so loop-carried reads
# and reductions need no special lowering, and every run the model's
# window check accepts produces the same bytes the batched tiers do.
# The prologue/epilogue sections around the call run in jit's
# generated ``pre``/``post`` functions.

@dataclass
class _NativeMeta:
    """Picklable invoke-time tables (this is what the disk cache holds)."""

    signature: str
    table: object = None     # steady.SteadyTable; wb[] is in its key order
    symbol: str = ""         # simdal_steady_<digest> in the TU
    so_sha256: str = ""      # SHA-256 of the .so that exports it
    vreg_names: tuple = ()   # vregs-buffer slot order
    seed_regs: tuple = ()    # read-before-write registers Python seeds
    out_regs: tuple = ()     # SetV targets C writes back
    shifts: tuple = ()       # runtime vshiftpair SExprs, scal[] order
    points: tuple = ()       # runtime vsplice SExprs, after shifts
    splats: tuple = ()       # (operand SExpr, dtype) per cvec block
    bad_amounts: tuple = ()  # (what, value) compile-time out-of-range


@dataclass
class _NativeKernel:
    """A jit kernel plus (when emission and cc succeeded) its C steady."""

    jk: jit.Kernel           # sections, and every run C does not take
    meta: _NativeMeta | None
    cfn: object | None       # ctypes steady fn, or None to delegate to jit
    plan: object = None      # lazy per-process _InvokePlan (never pickled)

    @property
    def pre(self):
        return self.jk.pre

    @property
    def post(self):
        return self.jk.post


class _KernelEmitter:
    """Lowers a batchable steady sequence to the C kernel + its tables."""

    def __init__(self, program: VProgram, shape: steady.SteadyShape):
        self.program = program
        self.shape = shape
        self.signature = jit.program_signature(program)
        self.V = shape.table.V
        self.stride = shape.table.stride
        self.dtype = program.source.dtype
        self.names: list[str] = []       # register -> vregs slot order
        self._slot: dict[str, int] = {}
        self.seeds: dict[str, None] = {}
        self.shifts: list = []
        self._shift_idx: dict = {}
        self.points: list = []
        self._point_idx: dict = {}
        self.splats: list = []
        self._splat_idx: dict = {}
        self.bad_amounts: list = []
        # Alignment suffixes for load/store helpers.  Buffer bases
        # (mem, vregs, cvec) come from the aligned
        # allocator, and every emitted offset — window bases
        # (V-truncated) and vregs/cvec slots (k*V) — is a multiple of
        # V, so slot accesses (_av) are V-aligned whenever V divides
        # the allocator's ALIGNMENT; window accesses (_aw) additionally
        # need the iteration stride to preserve the residue.  Both hold
        # for every current configuration; the guards keep a future
        # exotic V safe rather than fast.
        buf_aligned = self.V <= ALIGNMENT and ALIGNMENT % self.V == 0
        self._av = "_a" if buf_aligned else ""
        self._aw = "_a" if buf_aligned and self.stride % self.V == 0 else ""

    def slot(self, reg: str) -> int:
        idx = self._slot.get(reg)
        if idx is None:
            idx = self._slot[reg] = len(self.names)
            self.names.append(reg)
        return idx

    def _window(self, addr) -> str:
        k = self.shape.index[addr.array, addr.elem]
        return f"mem + wb[{k}] + t * {self.stride}"

    def _amount(self, amount, kind: str) -> str:
        what = "vshiftpair shift" if kind == "shift" else "vsplice point"
        if isinstance(amount, int):
            if 0 <= amount <= self.V:
                return str(amount)
            # Must still raise the jit engine's MachineError at invoke
            # time, from the same pre-mutation point.
            self.bad_amounts.append((what, amount))
            return "0"
        table = self.shifts if kind == "shift" else self.points
        index = self._shift_idx if kind == "shift" else self._point_idx
        idx = index.get(amount)
        if idx is None:
            idx = index[amount] = len(table)
            table.append(amount)
        offset = idx if kind == "shift" else len(self.shifts) + idx
        return f"scal[{offset}]"

    def vexpr(self, expr: VExpr, pos: int) -> str:
        if isinstance(expr, VLoadE):
            return f"simdal_load{self._aw}({self._window(expr.addr)})"
        if isinstance(expr, VRegE):
            defining = self.shape.assign_pos.get(expr.name)
            if defining is None or defining >= pos:
                # Invariant or loop-carried: Python seeds the pre-loop
                # value; sequential execution does the rest.
                self.seeds.setdefault(expr.name)
            return f"v{self.slot(expr.name)}"
        if isinstance(expr, VShiftPairE):
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            if isinstance(expr.shift, int) and 0 <= expr.shift <= self.V:
                # Literal amount: the _c macro is a compile-time byte
                # shuffle.
                return f"simdal_shiftpair_c({a}, {b}, {expr.shift})"
            s = self._amount(expr.shift, "shift")
            return f"simdal_shiftpair({a}, {b}, {s})"
        if isinstance(expr, VSpliceE):
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            if isinstance(expr.point, int) and 0 <= expr.point <= self.V:
                return f"simdal_splice_c({a}, {b}, {expr.point})"
            p = self._amount(expr.point, "point")
            return f"simdal_splice({a}, {b}, {p})"
        if isinstance(expr, VSplatE):
            if expr.dtype != self.dtype:
                raise _CantEmit("splat dtype differs from the loop dtype")
            key = (expr.operand, expr.dtype)
            idx = self._splat_idx.get(key)
            if idx is None:
                idx = self._splat_idx[key] = len(self.splats)
                self.splats.append(key)
            return f"simdal_load{self._av}(cvec + {idx * self.V})"
        if isinstance(expr, VIotaE):
            if expr.dtype != self.dtype:
                raise _CantEmit("iota dtype differs from the loop dtype")
            return f"simdal_iota(i + ({expr.bias}))"
        if isinstance(expr, VBinE):
            if expr.dtype != self.dtype:
                raise _CantEmit("binop dtype differs from the loop dtype")
            a = self.vexpr(expr.a, pos)
            b = self.vexpr(expr.b, pos)
            return f"simdal_op_{expr.op.name}({a}, {b})"
        raise _CantEmit(f"no C lowering for {type(expr).__name__}")

    def emit(self) -> tuple[str, _NativeMeta]:
        body: list[str] = []
        outs: list[str] = []
        for pos, stmt in enumerate(self.shape.seq):
            if isinstance(stmt, SetV):
                text = self.vexpr(stmt.expr, pos)
                body.append(f"        v{self.slot(stmt.reg)} = {text};")
                if stmt.reg not in outs:
                    outs.append(stmt.reg)
            elif isinstance(stmt, VStoreS):
                text = self.vexpr(stmt.src, pos)
                body.append(
                    f"        simdal_store{self._aw}"
                    f"({self._window(stmt.addr)}, {text});"
                )
            else:
                raise _CantEmit(f"no C lowering for {type(stmt).__name__}")
        V = self.V
        symbol = kernel_symbol(self.signature)
        pad = " " * (len(symbol) + 6)
        lines = [
            f"void {symbol}(uint8_t *restrict mem, int64_t lb, int64_t n,",
            f"{pad}const int64_t *restrict wb,",
            f"{pad}const int64_t *restrict scal,",
            f"{pad}const uint8_t *restrict cvec,",
            f"{pad}uint8_t *restrict vregs) {{",
            "    (void)lb; (void)wb; (void)scal; (void)cvec; (void)vregs;",
        ]
        for k in range(len(self.names)):
            lines.append(f"    simdal_vec v{k};")
        for name in self.seeds:
            lines.append(
                f"    v{self.slot(name)} = "
                f"simdal_load{self._av}(vregs + {self.slot(name) * V});"
            )
        lines.append("    for (int64_t t = 0; t < n; t++) {")
        lines.append(f"        int64_t i = lb + t * {self.shape.table.step};")
        lines.append("        (void)i;")
        lines.extend(body)
        lines.append("    }")
        for name in outs:
            lines.append(
                f"    simdal_store(vregs + {self.slot(name) * V}, "
                f"v{self.slot(name)});"
            )
        lines.append("}")
        meta = _NativeMeta(
            signature=self.signature,
            table=self.shape.table,
            symbol=symbol,
            vreg_names=tuple(self.names),
            seed_regs=tuple(self.seeds),
            out_regs=tuple(outs),
            shifts=tuple(self.shifts),
            points=tuple(self.points),
            splats=tuple(self.splats),
            bad_amounts=tuple(self.bad_amounts),
        )
        return "\n".join(lines) + "\n", meta


def emit_kernel(program: VProgram,
                shape: steady.SteadyShape) -> tuple[str, _NativeMeta]:
    """Just the steady-kernel C function plus its invoke tables.

    This is the unit of batching: :func:`compile_requests` concatenates
    many kernels (same V and dtype) behind one
    :func:`~repro.export.portable.kernel_unit_prelude`.  Raises
    :class:`_CantEmit` when the steady sequence cannot be lowered.
    """
    return _KernelEmitter(program, shape).emit()


@dataclass
class CompileRequest:
    """One signature kernel awaiting the batched build: everything
    :func:`compile_requests` needs, so it never touches the program."""

    signature: str      # structural signature (cache identity)
    key: str            # versioned disk-cache key
    V: int              # vector width — TU grouping axis
    dtype: DataType     # lane type — TU grouping axis
    kernel_src: str     # the kernel function (C)
    meta: _NativeMeta   # invoke tables; so_sha256 filled on success
    jk: jit.Kernel      # sections and fallback


def build_request(signature: str, key: str, jk: jit.Kernel,
                  program: VProgram) -> CompileRequest | None:
    """A :class:`CompileRequest` for this program, or None when the
    steady sequence cannot be lowered (the caller caches a permanent
    jit-delegating kernel instead)."""
    shape = steady.analyze(program)
    if shape is None:
        return None
    try:
        kernel_src, meta = emit_kernel(program, shape)
    except _CantEmit:
        return None
    STATS["codegens"] += 1
    return CompileRequest(signature=signature, key=key, V=program.V,
                          dtype=program.source.dtype, kernel_src=kernel_src,
                          meta=meta, jk=jk)


# ---------------------------------------------------------------------------
# Compiler discovery and identity
# ---------------------------------------------------------------------------

#: Memoized compiler resolution: (requested env value, (path-or-None,
#: identity hash)).  Keyed on the request so a ``REPRO_CC``/``CC``
#: change mid-process re-resolves instead of serving the stale probe.
_CC: tuple[str, tuple[str | None, str]] | None = None
_WARNED = False


def _cc_env() -> str:
    """The requested compiler: ``REPRO_CC`` overrides the ambient
    ``CC`` (build systems export ``CC`` for their own purposes; the
    repro-specific knob must win)."""
    return os.environ.get("REPRO_CC") or os.environ.get("CC") or ""


#: Default wall-clock budget for one compiler subprocess (seconds).
_CC_TIMEOUT_DEFAULT = 120.0


def cc_timeout() -> float:
    """Wall-clock budget for every ``cc`` subprocess (seconds).

    ``REPRO_CC_TIMEOUT`` overrides the 120 s default.  A hung compiler
    (broken ccache daemon, dead NFS mount behind the toolchain) used
    to stall the batch pipeline forever; every invocation — probes and
    kernel compiles alike — now runs under this budget, and an
    overrunning compile has its whole process group killed and is
    charged as an ordinary batch failure (singleton-recompile
    isolation included).
    """
    raw = os.environ.get("REPRO_CC_TIMEOUT", "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return _CC_TIMEOUT_DEFAULT


def run_cc(argv, budget=None):
    """Run one ``cc`` invocation with a wall-clock budget.

    The subprocess gets its own session so a hang (a wedged linker, an
    injected ``compile:timeout``) can be killed as a whole process
    group — ``cc`` is a driver that forks cc1/as/ld children, and
    killing only the driver would leak them.  Returns a completed-
    process-shaped object; on timeout ``returncode`` is None and
    ``stderr`` carries the budget, so callers charge the batch exactly
    like any other nonzero exit.  Kernel builds, the capability probes
    and the ``--version`` call all run here; ``budget`` (seconds)
    defaults to :func:`cc_timeout`.
    """
    if budget is None:
        budget = cc_timeout()
    # The context manager closes the pipes and reaps the process on
    # every exit, the timeout's included.
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                proc.kill()
            STATS["cc_timeouts"] += 1
            return subprocess.CompletedProcess(
                argv, None, "",
                f"cc timed out after {budget:g}s (REPRO_CC_TIMEOUT)")
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def _compiler_identity() -> tuple[str | None, str]:
    """(compiler executable, identity hash) — memoized per request.

    The identity hash (path + first ``--version`` line) versions every
    disk key, so objects compiled by one toolchain are invisible to
    another.
    """
    global _CC
    env = _cc_env()
    if _CC is not None and _CC[0] == env:
        return _CC[1]
    found = shutil.which(env) if env else None
    if found is None:
        for name in ("gcc", "cc", "clang"):
            found = shutil.which(name)
            if found:
                break
    if found is None:
        _CC = (env, (None, "none"))
        return _CC[1]
    banner = ""
    try:
        proc = run_cc([found, "--version"], budget=min(30.0, cc_timeout()))
    except (OSError, subprocess.SubprocessError):
        proc = None
    if proc is not None and proc.returncode is not None:
        text = proc.stdout or proc.stderr
        banner = text.splitlines()[0] if text else ""
    digest = hashlib.sha256(f"{found}\0{banner}".encode()).hexdigest()[:16]
    _CC = (env, (found, digest))
    return _CC[1]


# ---------------------------------------------------------------------------
# Compiler flags and the vector-extension capability probe
# ---------------------------------------------------------------------------

#: Memoized flag resolution: ((cc env request, REPRO_CC_FLAGS value),
#: flags tuple).  Keyed on both envs so changing either mid-process
#: re-probes instead of serving a stale answer (same doctrine as _CC).
_FLAGS: tuple[tuple[str, str | None], tuple[str, ...]] | None = None

#: Memoized vector-extension capability: (same env key, supported?).
_SIMD: tuple[tuple[str, str | None], bool] | None = None

#: The persisted probe entry as this process knows it: (disk key,
#: outcomes), where outcomes may hold ``"flags"`` (the resolved flags)
#: and ``"simd"`` (the flags probed with, supported?).
_PROBED: tuple[str, dict] | None = None

#: Set by :func:`reset_compiler_cache`: the next probe resolution
#: ignores the persisted entry, probes cold and overwrites it.
_REPROBE = False

_MARCH_PROBE_SRC = "int simdal_flag_probe;\n"


def _flags_env() -> str | None:
    return os.environ.get("REPRO_CC_FLAGS")


def _env_key() -> tuple[str, str | None]:
    return (_cc_env(), _flags_env())


def _try_compile(cc: str, args: list, source: str,
                 stem: str) -> bool | None:
    """One syntax-only probe: does ``cc args source`` compile?

    True or False as the compiler's exit status says; None when it gave
    no answer (killed at the budget, or could not be started).  Only an
    exit status is ever persisted.
    """
    path = _workdir() / f"{stem}.c"
    try:
        path.write_text(source)
        proc = run_cc([cc, *args, "-fsyntax-only", str(path)],
                      budget=min(60.0, cc_timeout()))
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode is None:
        return None
    return proc.returncode == 0


def _probe_key(identity: str) -> str:
    from repro import __version__

    return (f"native-probes:{__version__}:{NATIVE_CODE_VERSION}:"
            f"{identity}:{_flags_env()!r}")


def _probe_outcomes(identity: str) -> dict:
    """The probe outcomes persisted for this compiler and
    ``REPRO_CC_FLAGS`` value, read from disk once per key."""
    global _PROBED, _REPROBE
    key = _probe_key(identity)
    if _PROBED is None or _PROBED[0] != key:
        outcomes = {}
        disk = get_cache()
        if disk is not None and not _REPROBE:
            entry = disk.get(key)
            if isinstance(entry, dict):
                outcomes = entry
        _REPROBE = False
        _PROBED = (key, outcomes)
    return _PROBED[1]


def _persist_probe(identity: str, name: str, value) -> None:
    """Record one probe outcome the compiler gave as an exit status."""
    outcomes = _probe_outcomes(identity)
    outcomes[name] = value
    disk = get_cache()
    if disk is not None:
        disk.put(_probe_key(identity), dict(outcomes))


def compiler_flags() -> tuple[str, ...]:
    """The optimization flags every native cc invocation uses.

    ``-O3`` always; then ``-march=native`` when the toolchain accepts
    it (probed with a trivial unit), *unless* ``REPRO_CC_FLAGS`` is
    set — the env value (shell-split, appended after ``-O3``) replaces
    the probed default entirely, so it is both an extension point and
    the opt-out.  Memoized, keyed on the compiler/flags env pair; the
    probe's answer is also persisted in the disk cache under the
    compiler identity, so a warm process starts no probe ``cc``.  A
    probe that times out or cannot start counts as "no" for this
    process only.  :func:`reset_compiler_cache` clears the memo and
    makes the next resolution probe again.
    """
    global _FLAGS
    key = _env_key()
    if _FLAGS is not None and _FLAGS[0] == key:
        return _FLAGS[1]
    flags = ("-O3",)
    requested = _flags_env()
    if requested is not None:
        flags += tuple(shlex.split(requested))
    else:
        cc, identity = _compiler_identity()
        if cc is not None:
            stored = _probe_outcomes(identity).get("flags")
            if isinstance(stored, tuple) and all(
                    isinstance(flag, str) for flag in stored):
                flags = stored
            else:
                STATS["flag_probes"] += 1
                ok = _try_compile(cc, ["-O3", "-march=native"],
                                  _MARCH_PROBE_SRC, "probe_march")
                if ok:
                    flags += ("-march=native",)
                if ok is not None:
                    _persist_probe(identity, "flags", flags)
    _FLAGS = (key, flags)
    return flags


def _simd_probe_source() -> str:
    """A tiny TU exercising every vector-extension idiom the emitter
    relies on (vector_size types, __builtin_shufflevector, vector
    compares/selects, __builtin_assume_aligned)."""
    dtype = DataType("int16", 2, True)
    return kernel_unit_prelude(16, dtype) + (
        "simdal_vec simdal_simd_probe(simdal_vec a, simdal_vec b,\n"
        "                             int64_t k) {\n"
        "    simdal_vec r = simdal_op_add(simdal_shiftpair_c(a, b, 3),\n"
        "                                 simdal_splice_c(a, b, 5));\n"
        "    r = simdal_op_min(r, simdal_op_sadd(a, simdal_op_ssub(a, b)));\n"
        "    r = simdal_op_avg(r, simdal_op_max(a, b));\n"
        "    r = simdal_shiftpair(r, simdal_splice(a, b, k), k);\n"
        "    r = simdal_op_mul(r, simdal_splat(k));\n"
        "    uint8_t buf[SIMDAL_V] __attribute__((aligned(64)));\n"
        "    simdal_store_a(buf, r);\n"
        "    return simdal_op_xor(simdal_load_a(buf), simdal_iota(k));\n"
        "}\n"
    )


def simd_supported() -> bool:
    """Can the resolved compiler build the vector-extension helpers?

    The gate of the native tier: False without a compiler, and False
    for one that fails the probe — a test unit using every idiom the
    emitter emits.  GCC < 12 (no ``__builtin_shufflevector``) and
    non-GNU compilers fail it, and native is then unavailable: every
    run degrades to jit, with one warning per process.  Memoized alongside
    the compiler identity, and persisted with the flags it was probed
    under in the same disk entry as :func:`compiler_flags`' answer, so
    a warm process starts no probe ``cc``; a probe that times out or
    cannot start counts as unsupported for this process only.
    :func:`reset_compiler_cache` clears the memo and makes the next
    resolution probe again.
    """
    global _SIMD
    key = _env_key()
    if _SIMD is not None and _SIMD[0] == key:
        return _SIMD[1]
    cc, identity = _compiler_identity()
    ok = False
    if cc is not None:
        flags = compiler_flags()
        stored = _probe_outcomes(identity).get("simd")
        if (isinstance(stored, tuple) and len(stored) == 2
                and stored[0] == flags and isinstance(stored[1], bool)):
            ok = stored[1]
        else:
            STATS["simd_probes"] += 1
            answer = _try_compile(cc, list(flags), _simd_probe_source(),
                                  "probe_simd")
            ok = bool(answer)
            if not ok:
                STATS["simd_probe_failures"] += 1
            if answer is not None:
                _persist_probe(identity, "simd", (flags, answer))
    _SIMD = (key, ok)
    return ok


def emitter_mode() -> str:
    """``"vector-ext"``, the one emitter, or ``"unavailable"`` on a
    host where no compiler passes its probe."""
    return "vector-ext" if simd_supported() else "unavailable"


def reset_compiler_cache() -> None:
    """Forget the memoized compiler/flag/capability probes and cc
    failures.

    A fault-injected or transient toolchain failure must not poison
    later legitimate compiles in the same process: after repairing the
    toolchain (or pointing ``REPRO_CC``/``REPRO_CC_FLAGS`` somewhere
    sane) call this to retry cold.  Clears the flag resolution and the
    vector-extension capability probe along with the compiler identity
    — they are functions of the same toolchain — and the per-signature
    unavailability memo, and the next resolution ignores their
    persisted outcomes: it probes again and overwrites the disk entry.
    The warn-once flag survives — one native-unavailable warning per
    process is enough.
    """
    global _CC, _FLAGS, _SIMD, _PROBED, _REPROBE
    _CC = None
    _FLAGS = None
    _SIMD = None
    _PROBED = None
    _REPROBE = True
    _FAILED.clear()
    _UNAVAILABLE.clear()


def _compiler_problem() -> str | None:
    """Why native has no usable compiler, or None when it has one."""
    cc, _identity = _compiler_identity()
    if cc is None:
        return "no C compiler available for the native backend"
    if not simd_supported():
        return f"C compiler {cc} fails the vector-extension probe"
    return None


def _require_compiler() -> tuple[str, str]:
    """(compiler, identity), or :class:`NativeUnavailable` when there is
    no compiler or it fails the vector-extension probe."""
    global _WARNED
    reason = _compiler_problem()
    if reason is None:
        return _compiler_identity()
    if not _WARNED:
        _WARNED = True
        found = reason
        if _compiler_identity()[0] is None:
            found = "no C compiler found (tried $CC, gcc, cc, clang)"
        warnings.warn(
            f"{found}; the native backend degrades to the jit tier for "
            "this process",
            RuntimeWarning,
            stacklevel=4,
        )
    raise NativeUnavailable(reason)


_WORKDIR: Path | None = None

#: Monotonic suffix for shared objects written to the workdir.
_SO_SEQ = itertools.count()


def _workdir() -> Path:
    """A process-lifetime scratch dir: loaded .so paths must outlive us."""
    global _WORKDIR
    if _WORKDIR is None:
        _WORKDIR = Path(tempfile.mkdtemp(prefix="repro_native_"))
        atexit.register(shutil.rmtree, _WORKDIR, ignore_errors=True)
    return _WORKDIR


def _fresh_so_path(stem: str) -> Path:
    """A workdir path no earlier write used.

    Every ``.so`` this process builds or copies out of the cache gets
    its own name: rewriting a file that a live ``dlopen`` handle maps
    would truncate the mapped inode — instant SIGBUS on the next call.
    """
    return _workdir() / f"{stem}_{next(_SO_SEQ)}.so"


def _bind_symbol(lib, symbol: str):
    """Resolve and type one steady-kernel symbol in a loaded library."""
    fn = getattr(lib, symbol)
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_uint8),   # mem
        ctypes.c_int64,                   # lb
        ctypes.c_int64,                   # n
        ctypes.POINTER(ctypes.c_int64),   # wb
        ctypes.POINTER(ctypes.c_int64),   # scal
        ctypes.POINTER(ctypes.c_uint8),   # cvec
        ctypes.POINTER(ctypes.c_uint8),   # vregs
    ]
    return fn


# ---------------------------------------------------------------------------
# Two-tier kernel cache
# ---------------------------------------------------------------------------

_NATIVE_CACHE: OrderedDict[str, _NativeKernel] = OrderedDict()
_NATIVE_CACHE_MAX = 128

#: Kernels whose cc invocation failed this process, keyed by the full
#: *disk key* (signature + compiler identity): retrying every run would
#: pay a doomed subprocess per config, so the failure is memoized and
#: re-raised cheaply (degradation stays per-run).  Keying on the disk
#: key means switching toolchains via ``REPRO_CC``/``CC`` — or
#: :func:`reset_compiler_cache` — naturally un-poisons the signature.
_FAILED: dict[str, str] = {}

#: Why native cannot run a signature in this process — no usable
#: compiler, or a memoized build failure — keyed by the signature and
#: the toolchain request (``REPRO_CC``/``CC``, ``REPRO_CC_FLAGS``), so
#: switching toolchains un-poisons it as ``_FAILED``'s key does.  A
#: later run of the signature raises at once instead of re-entering
#: acquisition (a jit kernel lookup and a compiler check) just before
#: the resilient chain looks the same jit kernel up.
_UNAVAILABLE: dict[tuple[str, tuple[str, str | None]], str] = {}

#: Loaded shared objects by the SHA-256 of their bytes: every signature
#: built into one ``.so`` binds its symbols from one handle.
_LIBS: dict[str, ctypes.CDLL] = {}


def _disk_key(signature: str, cc_identity: str) -> str:
    from repro import __version__

    # The exact flag set is part of the object's identity: objects
    # built with different flags (-march, REPRO_CC_FLAGS) must not
    # cross-load.
    flags = hashlib.sha256(
        "\0".join(compiler_flags()).encode()
    ).hexdigest()[:8]
    return (f"native-kernel:{__version__}:{NATIVE_CODE_VERSION}:"
            f"{cc_identity}:{flags}:{signature}")


def _so_key(digest: str) -> str:
    """The disk key of the ``.so`` whose bytes hash to ``digest``."""
    return f"native-so:{digest}"


def _cache_put(signature: str, kernel: _NativeKernel) -> None:
    if len(_NATIVE_CACHE) >= _NATIVE_CACHE_MAX:
        _NATIVE_CACHE.popitem(last=False)
    _NATIVE_CACHE[signature] = kernel


def clear_memory_cache() -> None:
    """Drop loaded kernels, ``.so`` handles and memoized cc failures
    and unavailability (tests use this to force disk loads)."""
    _NATIVE_CACHE.clear()
    _LIBS.clear()
    _FAILED.clear()
    _UNAVAILABLE.clear()


def _library(disk, digest: str):
    """The loaded ``.so`` whose bytes hash to ``digest``, or None.

    The entry's bytes are checked against the digest and then written
    to a private workdir copy, so the object ``dlopen`` maps is exactly
    the one that passed.  A missing entry is a miss; one that fails the
    digest, or cannot be copied out and loaded, is quarantined (cache
    doctrine: corruption is a silent miss, never an exception).
    """
    lib = _LIBS.get(digest)
    if lib is not None:
        return lib
    key = _so_key(digest)
    data = disk.get(key)
    if not isinstance(data, bytes):
        return None
    if hashlib.sha256(data).hexdigest() != digest:
        disk.quarantine(key)
        return None
    start = time.perf_counter()
    try:
        path = _fresh_so_path(digest[:16])
        path.write_bytes(data)
        lib = ctypes.CDLL(str(path))
    except OSError:
        disk.quarantine(key)
        return None
    STATS["load_s"] += time.perf_counter() - start
    _LIBS[digest] = lib
    return lib


def _load_from_disk(disk, key: str, signature: str,
                    jk: jit.Kernel) -> _NativeKernel | None:
    """Warm path: a validated meta bound to its ``.so``, or None."""
    entry = disk.get(key)
    if (not isinstance(entry, _NativeMeta) or entry.signature != signature
            or not entry.symbol
            or not isinstance(entry.table, steady.SteadyTable)):
        return None
    lib = _library(disk, entry.so_sha256)
    if lib is None:
        return None
    try:
        cfn = _bind_symbol(lib, entry.symbol)
    except AttributeError:
        disk.quarantine(key)  # a meta naming a symbol its .so lacks
        return None
    return _NativeKernel(jk=jk, meta=entry, cfn=cfn)


def compile_requests(requests: list[CompileRequest], disk) -> int:
    """Build ``requests`` as batched TUs behind one ``cc`` invocation.

    Kernels sharing ``(V, lane dtype)`` share one ``.c`` file behind
    one prelude (the helper names are fixed and dtype-parameterized),
    and every group goes to a single ``cc`` that produces one ``.so``
    exporting every ``simdal_steady_<digest>``.  That ``.so`` is loaded
    once, every kernel it carries enters the memory cache, and the
    disk gets one entry holding its bytes under their digest plus one
    meta per signature naming it.  A failed batch of more than one
    request recompiles each as a singleton, so one bad unit cannot sink
    its batch-mates; a failed singleton memoizes its reason under its
    disk key.  Returns the number of kernels built.
    """
    cc, _identity = _require_compiler()
    units: OrderedDict[tuple, list] = OrderedDict()
    for req in requests:
        units.setdefault((req.V, req.dtype.name), []).append(req)
    batch_id = hashlib.sha256(
        "|".join(req.key for req in requests).encode()
    ).hexdigest()[:16]
    c_paths = []
    for (V, lane), group in units.items():
        path = _workdir() / f"tu_{batch_id}_{V}_{lane}.c"
        path.write_text(kernel_unit_prelude(V, group[0].dtype)
                        + "\n".join(req.kernel_src for req in group))
        c_paths.append(str(path))
    # Unique per invocation: a recompile of the same batch must never
    # have the linker truncate a file a live dlopen handle maps.
    so_path = _fresh_so_path(f"tu_{batch_id}")
    start = time.perf_counter()
    proc = run_cc([cc, *compiler_flags(), "-shared", "-fPIC",
                   "-o", str(so_path), *c_paths])
    STATS["cc_s"] += time.perf_counter() - start
    STATS["cc_invocations"] += 1
    if proc.returncode != 0:
        if len(requests) > 1:
            return sum(compile_requests([req], disk) for req in requests)
        _FAILED[requests[0].key] = (f"{cc} failed (exit {proc.returncode}): "
                                    f"{proc.stderr.strip()[:500]}")
        return 0
    STATS["tus"] += len(units)
    STATS["tu_kernels"] += len(requests)
    start = time.perf_counter()
    lib = ctypes.CDLL(str(so_path))
    kernels = [_NativeKernel(jk=req.jk, meta=req.meta,
                             cfn=_bind_symbol(lib, req.meta.symbol))
               for req in requests]
    STATS["load_s"] += time.perf_counter() - start
    data = so_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    _LIBS[digest] = lib
    for req, kernel in zip(requests, kernels):
        req.meta.so_sha256 = digest
        _cache_put(req.signature, kernel)
    if disk is not None:
        disk.put(_so_key(digest), data)
        for req in requests:
            disk.put(req.key, req.meta)
    return len(requests)


def _acquire(programs, per_run: bool) -> tuple[int, dict[str, str]]:
    """Memory, then disk, then one batched ``cc`` for every miss.

    The one acquisition path behind both entries,
    :func:`get_native_kernel` (``per_run``) and :func:`precompile`.
    Afterwards every program's kernel is in the memory cache, or its
    build failure is memoized.  Returns the number of kernels built and
    the failure reason of every signature left without a kernel.

    Per run, ``REPRO_FAULT=compile:*`` fires at each batchable miss and
    an unusable compiler raises :class:`NativeUnavailable`; for a
    campaign the fault fires once, before the batched ``cc``.
    """
    disk = get_cache()
    failed: dict[str, str] = {}
    pending: list[CompileRequest] = []
    seen = set()
    for program in programs:
        signature = jit.program_signature(program)
        if signature in seen or signature in _NATIVE_CACHE:
            continue
        seen.add(signature)
        if per_run and _compiler_problem() and steady.analyze(program) is not None:
            # A batchable loop with no usable compiler: fail before
            # looking up the jit kernel the resilient chain runs next.
            _fault("compile")
            _require_compiler()
        jk = jit.get_kernel(program)
        if jk.spec.table is None:
            # The steady loop itself is unbatchable: there is nothing for
            # a C kernel to run that jit's per-iteration path doesn't cover.
            _cache_put(signature, _NativeKernel(jk=jk, meta=None, cfn=None))
            continue
        if per_run:
            _fault("compile")  # REPRO_FAULT=compile:… fails the cc step
        _cc, identity = _require_compiler()
        key = _disk_key(signature, identity)
        if key in _FAILED:
            failed[signature] = _FAILED[key]
            continue
        if disk is not None:
            kernel = _load_from_disk(disk, key, signature, jk)
            STATS["disk_misses" if kernel is None else "disk_hits"] += 1
            if kernel is not None:
                _cache_put(signature, kernel)
                continue
        request = build_request(signature, key, jk, program)
        if request is None:
            _cache_put(signature, _NativeKernel(jk=jk, meta=None, cfn=None))
        else:
            pending.append(request)
    built = 0
    if pending:
        if not per_run:
            _fault("compile")
        built = compile_requests(pending, disk)
        for req in pending:
            if req.key in _FAILED:
                failed[req.signature] = _FAILED[req.key]
    return built, failed


def get_native_kernel(program: VProgram) -> _NativeKernel:
    """The loaded native kernel for this program's signature (cached).

    Raises :class:`NativeUnavailable` when the host has no usable
    compiler or this signature's build failed; the reason is memoized
    per signature, so later runs raise without acquiring.
    """
    signature = jit.program_signature(program)
    kernel = _NATIVE_CACHE.get(signature)
    if kernel is not None:
        _NATIVE_CACHE.move_to_end(signature)
        STATS["memory_hits"] += 1
        return kernel
    STATS["memory_misses"] += 1
    key = (signature, _env_key())
    reason = _UNAVAILABLE.get(key)
    if reason is not None:
        _fault("compile")  # fires per run, as on the acquisition path
        raise NativeUnavailable(reason)
    try:
        _built, failed = _acquire([program], per_run=True)
    except NativeUnavailable as exc:
        _UNAVAILABLE[key] = str(exc)
        raise
    if signature in failed:
        _UNAVAILABLE[key] = failed[signature]
        raise NativeUnavailable(failed[signature])
    return _NATIVE_CACHE[signature]


def precompile(programs, profile=None) -> int:
    """Acquire a sweep campaign's kernels behind one batched ``cc``.

    Populates the memory cache (and the shared disk cache) so the
    campaign's runs — including forked sweep workers — hit warm
    entries instead of paying one ``cc`` each.  Returns the number of
    kernels built; 0 when there is nothing to do or native is
    unavailable.  Never raises for a toolchain problem or an injected
    compile fault: the per-run acquisition meets those again, where
    the resilient chain records the degradation.

    Runs outside the verifier's stat windows, so it folds its own
    native and jit STATS deltas (compiler, load and jit materialize
    seconds, and the cache counters of the jit kernels it loads) into
    ``profile`` directly.
    """
    if not programs:
        return 0
    from repro.machine.backend import jit_compile_stats

    before = jit_compile_stats() if profile is not None else {}
    built = 0
    try:
        if simd_supported():    # probes, if any, count in the profile
            built, _failed = _acquire(programs, per_run=False)
    except (FaultInjected, NativeUnavailable):
        pass
    STATS["precompiled"] += built
    if profile is not None:
        profile.fold_engine_stats(before, jit_compile_stats())
    return built


def build_failure(program: VProgram) -> str | None:
    """Why this program's kernel failed to build with the current
    toolchain, or None (built, not tried, or native unavailable)."""
    cc, identity = _compiler_identity()
    if cc is None:
        return None
    return _FAILED.get(_disk_key(jit.program_signature(program), identity))


# ---------------------------------------------------------------------------
# Steady-loop invocation
# ---------------------------------------------------------------------------

# ctypes array *types* are surprisingly expensive to create (a new
# class per call); a sweep re-invokes kernels with a handful of
# distinct buffer lengths, so the types are cached process-wide.
_U8_ARRAYS: dict[int, type] = {}
_I64_ARRAYS: dict[int, type] = {}


def _u8_array(length: int) -> type:
    atype = _U8_ARRAYS.get(length)
    if atype is None:
        atype = _U8_ARRAYS[length] = ctypes.c_uint8 * length
    return atype


def _i64_array(length: int) -> type:
    atype = _I64_ARRAYS.get(length)
    if atype is None:
        atype = _I64_ARRAYS[length] = ctypes.c_int64 * length
    return atype


#: Cached-negative sentinel for the per-plan window-base memo.
_UNBATCHABLE = object()


class _InvokePlan:
    """Per-kernel invoke constants, derived from the meta tables once.

    Everything here is loop-invariant *and* run-invariant: register
    slot offsets, and — when every splat operand is a literal — the
    fully materialized cvec buffer (already a ctypes array, so warm
    invokes marshal nothing for it).

    ``wb_memo`` additionally memoizes the model's window check
    (:meth:`~repro.machine.steady.SteadyTable.window_bases`) per array
    space: it is a pure function of (table, space, lb, n, memory size)
    — array bases never move once placed and no runtime scalar enters
    it — so steady-state repeated runs (the sweep inner loop) skip the
    window/collision walk entirely.
    Rejections are memoized too, so the fallback surface is identical
    hot or cold.  Keyed weakly so retired spaces don't pin entries.
    """

    __slots__ = ("seed_offsets", "out_offsets", "vregs_len", "splats_dyn",
                 "c_cvec_const", "cvec_const", "wb_memo")

    def __init__(self, meta: _NativeMeta):
        V = meta.table.V
        self.wb_memo = weakref.WeakKeyDictionary()
        slots = {name: k for k, name in enumerate(meta.vreg_names)}
        self.seed_offsets = tuple((name, slots[name] * V)
                                  for name in meta.seed_regs)
        self.out_offsets = tuple((name, slots[name] * V)
                                 for name in meta.out_regs)
        self.vregs_len = max(1, len(meta.vreg_names) * V)
        if all(isinstance(operand, SConst) for operand, _ in meta.splats):
            consts = bytearray()
            for operand, dtype in meta.splats:
                consts += vec.vsplat(dtype.wrap(operand.value), dtype, V)
            self.cvec_const = bytes(consts)
            self.splats_dyn = None
            # The persistent ctypes array lives over an aligned view
            # (as_ctypes_u8 keeps the view, and thus the backing,
            # alive), so warm invokes hand the kernel a V-aligned cvec
            # base without copying.
            buf = aligned_view(max(1, len(consts)))
            buf[:len(consts)] = consts
            self.c_cvec_const = as_ctypes_u8(buf)
        else:
            self.splats_dyn = meta.splats
            self.cvec_const = None
            self.c_cvec_const = None


def _plan_for(kernel: _NativeKernel) -> _InvokePlan:
    plan = kernel.plan
    if plan is None:
        plan = kernel.plan = _InvokePlan(kernel.meta)
    return plan


def _steady_tables(kernel: _NativeKernel, env, lb: int, n: int):
    """Validated steady-call tables ``(wb, scal, cvec bytes)`` for one run.

    Pure reads: raises :class:`~repro.machine.steady.Unbatchable`
    (window check, memoized per space) or :class:`MachineError` (range
    checks) before anything is mutated, from the same pre-mutation
    points the batched tiers use, so every tier accepts and rejects
    exactly the same runs.
    """
    meta = kernel.meta
    V = meta.table.V
    plan = _plan_for(kernel)
    per_space = plan.wb_memo.get(env.space)
    if per_space is None:
        per_space = plan.wb_memo[env.space] = {}
    wb_key = (lb, n, env.mem.size)
    cached = per_space.get(wb_key)
    if cached is None:
        try:
            cached = meta.table.window_bases(env.space, env.mem.size, lb, n)
        except steady.Unbatchable:
            per_space[wb_key] = _UNBATCHABLE
            raise
        per_space[wb_key] = cached
    elif cached is _UNBATCHABLE:
        raise steady.Unbatchable
    bases, _snapshot = cached
    for what, value in meta.bad_amounts:
        steady.amount(env, value, V, what)  # raises: out of range
    amounts = [steady.amount(env, expr, V, "vshiftpair shift")
               for expr in meta.shifts]
    amounts += [steady.amount(env, expr, V, "vsplice point")
                for expr in meta.points]
    if plan.cvec_const is not None:
        cvec = plan.cvec_const
    else:
        consts = bytearray()
        for operand, dtype in plan.splats_dyn:
            value = interp.peek_s(env, operand)
            consts += vec.vsplat(dtype.wrap(value), dtype, V)
        cvec = bytes(consts)
    return bases, amounts, cvec


def _invoke(kernel: _NativeKernel, env: interp.Env, lb: int, n: int) -> None:
    """One C steady-loop call; every check precedes every mutation.

    Raises :class:`~repro.machine.steady.Unbatchable` (window check) or
    :class:`MachineError` (range checks, unset registers) exactly where
    the batched tiers would, so the fallback surface is shared.
    """
    V = kernel.meta.table.V
    plan = _plan_for(kernel)
    bases, amounts, cvec = _steady_tables(kernel, env, lb, n)
    if plan.c_cvec_const is not None:
        c_cvec = plan.c_cvec_const
    else:
        cbuf = aligned_view(max(1, len(cvec)))
        cbuf[:len(cvec)] = cvec
        c_cvec = as_ctypes_u8(cbuf)
    vregs = aligned_view(plan.vregs_len)
    for name, offset in plan.seed_offsets:
        vregs[offset:offset + V] = interp.read_vreg(env, name)

    mem_buf = env.mem.raw()
    c_mem = _u8_array(len(mem_buf)).from_buffer(mem_buf)
    c_vregs = _u8_array(plan.vregs_len).from_buffer(vregs)
    c_wb = _i64_array(max(1, len(bases)))(*bases)
    c_scal = _i64_array(max(1, len(amounts)))(*amounts)
    try:
        kernel.cfn(c_mem, lb, n, c_wb, c_scal, c_cvec, c_vregs)
    finally:
        # Release the buffer exports promptly (the memory view export
        # in particular must not outlive the call).
        del c_mem, c_vregs, c_cvec
    for name, offset in plan.out_offsets:
        env.vregs[name] = bytes(vregs[offset:offset + V])


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class NativeBackend(JitBackend):
    """Machine-code execution of vector programs (bit-exact vs bytes).

    Inherits the jit engine's run/guard/section machinery and swaps
    only the steady loop for the compiled C kernel: jit's ``pre``
    runs the preheader and prologue, one ``simdal_steady`` call runs
    the loop, and jit's ``post`` runs the epilogue.
    """

    name = "native"

    def _kernel_for(self, program):
        return get_native_kernel(program)

    def _steady(self, env, loop, kernel):
        if kernel.cfn is None:
            return steady.run_steady(env, loop, kernel.jk.fn)
        return steady.run_steady(env, loop, partial(_invoke, kernel))
