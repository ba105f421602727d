"""Compile-once kernel backend: vector programs as fused NumPy closures.

The batched engine (:mod:`repro.machine.npbackend`) interprets the
shared steady-loop model (:mod:`repro.machine.steady`) on **every**
``run()``: it re-analyzes the program, tree-walks the steady
expressions, and leaves the prologue/epilogue splice sections to the
byte interpreter's recursive ``_eval_v``.  For sweep workloads the
program is fixed while trip counts and memory images vary, so all of
that per-call work is redundant.  This engine does the paper's
compile-time/runtime split (§5) one level up: everything decidable
from the *program text* — the model's structural analysis, the order
of the lane calls, which shift amounts are literals, straight-lined
prologue/epilogue splices, structural operation counts — is decided
**once**, lowered to Python source, ``compile()``d, and cached; the
materialized kernel only does the per-*run* work (the model's window
check, then its lane functions).  "Batched" throughout means
vectorised across the steady loop's iterations: one kernel call
executes exactly one run.

Correctness contract is npbackend's, verbatim: final memory bytes and
:class:`~repro.machine.counters.OpCounters` are bit-identical to the
byte interpreter, and ``used_fallback`` matches the numpy engine — both
tiers take batchability, the window check (raising
:class:`~repro.machine.steady.Unbatchable` *before any memory
mutation* so the per-iteration fallback stays exact), the lane
semantics and the steady counters from :mod:`repro.machine.steady`,
and the inlined sections call the same byte-level
:mod:`repro.machine.vector` helpers the interpreter calls, with their
counter bumps precomputed into per-section constants.

Kernels are cached at two tiers keyed on the program's structural
signature (:func:`program_signature`):

* an in-process LRU of materialized closures (``_KERNEL_CACHE``), so
  repeated trips and policy ablations pay zero planning or dispatch;
* the shared disk cache (:mod:`repro.cache`) holding the picklable
  :class:`_KernelSpec` — generated source, the constant tables its
  helpers are rebuilt from, and the source's compiled code object as
  :mod:`marshal` bytes with their SHA-256 — under a key versioned by
  package version, :data:`KERNEL_CODE_VERSION` and the interpreter's
  bytecode tag (``sys.implementation.cache_tag`` plus
  ``importlib.util.MAGIC_NUMBER``, the pair importlib validates a
  ``.pyc`` with), so ``measure_many`` workers and repeated CLI runs
  skip codegen *and* ``compile()``.  A stale code version or another
  interpreter's entry simply never hits; a corrupted entry is a silent
  miss (cache doctrine); stored code bytes that miss their digest or
  do not load as a code object fall back to compiling the source, and
  the entry is rewritten with good bytes.

This module is only imported when NumPy is present; use
:func:`repro.machine.backend.get_backend` for gated access.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import sys
import time
import types
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.cache import get_cache
from repro.errors import MachineError
from repro.faults import fault as _fault
from repro.machine import interp, steady
from repro.machine import vector as vec
from repro.machine.counters import BRANCH, OpCounters
from repro.machine.interp import VectorRunResult
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    Addr,
    SBase,
    SBin,
    SConst,
    SExpr,
    SReg,
    SVar,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
)
from repro.vir.vstmt import Section, SetS, SetV, VStmt, VStoreS

#: Bump when the generated-kernel layout or helper semantics change:
#: disk entries written by older code must never materialize.
#: v3: kernels drop their config-batched half; one call runs one run.
#: v4: steady kernels call the shared model (:mod:`repro.machine.steady`)
#: and index windows in its table order.
#: v5: entries carry the marshalled code object of their source.
#: v6: the IR nodes in a spec pickle through their constructors.
KERNEL_CODE_VERSION = 6

#: The bytecode format this interpreter writes and reads: marshalled
#: code from another interpreter is unusable, so it keys every entry.
_CODE_TAG = (f"{sys.implementation.cache_tag}:"
             f"{importlib.util.MAGIC_NUMBER.hex()}")

#: Compile/cache counters (process-wide; snapshot via
#: :func:`repro.machine.backend.jit_compile_stats`).
STATS = {
    "codegens": 0,       # specs lowered from scratch
    "memory_hits": 0,    # materialized closure reused
    "memory_misses": 0,
    "disk_hits": 0,      # spec loaded from the disk cache
    "disk_misses": 0,
    "compile_s": 0.0,    # seconds spent lowering + materializing
    "source_compiles": 0,  # kernel sources passed to compile()
}


class _CantCompile(Exception):
    """An IR form with no emitted equivalent (defensive; IR is closed)."""


# ---------------------------------------------------------------------------
# Structural signatures
# ---------------------------------------------------------------------------
#
# The signature must distinguish every program property the emitted
# kernel bakes in: V, D, step, the upper-bound symbol (it decides which
# SVar reads the runtime trip), statement forms and order in every
# phase, addresses, op/dtype pairs, and scalar operand *structure* (an
# ``SConst(4)`` and a literal ``4`` count SCALAR differently in
# steady.count_sbins, so scalar expressions serialize with type tags —
# ``str()`` would collide ``SVar("n")`` with ``SReg("n")``).

def _sig_s(expr) -> str:
    if isinstance(expr, int):
        return str(expr)
    if expr is None:
        return "-"
    if isinstance(expr, SConst):
        return f"c{expr.value}"
    if isinstance(expr, SVar):
        return f"v:{expr.name}"
    if isinstance(expr, SBase):
        return f"base:{expr.array}"
    if isinstance(expr, SReg):
        return f"sr:{expr.name}"
    if isinstance(expr, SBin):
        return f"{expr.op}({_sig_s(expr.left)},{_sig_s(expr.right)})"
    return f"?{type(expr).__name__}"


def _sig_v(expr: VExpr) -> str:
    if isinstance(expr, VLoadE):
        return f"ld:{expr.addr.array}:{expr.addr.elem}"
    if isinstance(expr, VRegE):
        return f"r:{expr.name}"
    if isinstance(expr, VShiftPairE):
        return f"shp({_sig_v(expr.a)},{_sig_v(expr.b)},{_sig_s(expr.shift)})"
    if isinstance(expr, VSpliceE):
        return f"spl({_sig_v(expr.a)},{_sig_v(expr.b)},{_sig_s(expr.point)})"
    if isinstance(expr, VSplatE):
        return f"splat({_sig_s(expr.operand)},{expr.dtype.name})"
    if isinstance(expr, VBinE):
        return f"{expr.op.name}<{expr.dtype.name}>({_sig_v(expr.a)},{_sig_v(expr.b)})"
    if isinstance(expr, VIotaE):
        return f"iota({expr.bias},{expr.dtype.name})"
    return f"?{type(expr).__name__}"


def _sig_stmt(stmt: VStmt) -> str:
    if isinstance(stmt, SetS):
        return f"{stmt.reg}:={_sig_s(stmt.expr)}"
    if isinstance(stmt, SetV):
        return f"{stmt.reg}={_sig_v(stmt.expr)}"
    if isinstance(stmt, VStoreS):
        return f"st:{stmt.addr.array}:{stmt.addr.elem}={_sig_v(stmt.src)}"
    return f"?{type(stmt).__name__}"


def _sig_section(section: Section) -> str:
    head = f"[{_sig_s(section.cond)};{_sig_s(section.i_expr)}]"
    return head + ",".join(_sig_stmt(s) for s in section.stmts)


def program_signature(program: VProgram) -> str:
    """A string determining the program's compiled kernel.

    Two programs with equal signatures get the same kernel: every
    baked-in property (stride, windows, ops, counts, pointer count,
    section shapes) is a function of the serialized structure.
    Programs are immutable after simdize, so the string is memoized on
    the instance; a plain string keeps the program picklable.
    """
    sig = getattr(program, "_jit_sig", None)
    if sig is None:
        sig = program._jit_sig = _serialize(program)
    return sig


def _serialize(program: VProgram) -> str:
    parts = [
        f"V={program.V}",
        f"D={program.D}",
        f"up={program.source.upper!r}",
        "pre{" + ",".join(_sig_stmt(s) for s in program.preheader) + "}",
    ]
    parts.extend("pro" + _sig_section(s) for s in program.prologue)
    loop = program.steady
    if loop is None:
        parts.append("nosteady")
    else:
        parts.append(f"step={loop.step}")
        for stmt in list(loop.body) + list(loop.bottom):
            parts.append(_sig_stmt(stmt))
    parts.extend("epi" + _sig_section(s) for s in program.epilogue)
    return ";".join(parts)


# ---------------------------------------------------------------------------
# Kernel specification (picklable — this is what the disk cache holds)
# ---------------------------------------------------------------------------

@dataclass
class _KernelSpec:
    """Generated source plus the constant tables to rebuild its helpers.

    Everything here is picklable (strings, ints, dicts, frozen IR
    dataclasses), so a spec round-trips through the disk cache; the
    non-picklable parts — the NumPy helper closures — are rebuilt from
    these tables by :func:`_materialize`.  Only the copy written to
    disk carries ``code``: the in-memory spec of a materialized kernel
    never holds the marshalled bytes.
    """

    signature: str
    table: object          # steady.SteadyTable; None = never batches
    sections_ok: bool      # preheader/prologue/epilogue compiled
    V: int = 0
    source: str = ""       # one module: _kernel / _pre / _post defs
    code: bytes = b""      # marshal.dumps(compile(source)), disk copy only
    code_sha256: str = ""  # hex SHA-256 of ``code``
    # -- steady-kernel constants, one per _b{k}/_f{k}/... name ------------
    binops: tuple = ()     # (op name, DataType)
    folds: tuple = ()      # (op name, DataType)
    splats: tuple = ()     # (operand SExpr, DataType)
    iotas: tuple = ()      # (bias, DataType)
    amounts: tuple = ()    # shift/point values checked at run time
    # -- section tables --------------------------------------------------
    arrays: tuple = ()     # array names hoisted as aA{k}
    bbinops: tuple = ()    # (op name, DataType) per byte-mode vbinop
    bsplats: tuple = ()    # DataType per byte-mode splat factory
    biotas: tuple = ()     # (bias, DataType) per byte-mode iota factory
    counts: tuple = ()     # aggregated OpCounters dicts (_cnt{k})


@dataclass
class Kernel:
    """A materialized spec; any function is None when not compiled."""

    spec: _KernelSpec
    fn: object | None      # batched steady loop
    pre: object | None     # preheader + prologue sections
    post: object | None    # epilogue sections


# ---------------------------------------------------------------------------
# Steady-loop emission (array mode)
# ---------------------------------------------------------------------------

class _SteadyEmitter:
    """Lowers an analyzed steady loop to kernel source + constant tables.

    The source is npbackend's walk over the model, unrolled once: each
    line calls the :mod:`repro.machine.steady` lane function the walk
    would call, in the same order, with the structural decisions
    (statement order, folds, window indices, literal amounts) already
    made.  Repeated loads, register reads, splats, iotas and amounts
    bind one temp each.
    """

    def __init__(self, shape: steady.SteadyShape):
        self.shape = shape
        self.V = shape.table.V
        self.lines = ["B, mem_u8, read_u8 = _buffers(_table, env, lb, n)"]
        self.temps: dict = {}              # structural key -> temp name
        self.regvar: dict[str, str] = {}   # register -> result temp
        self.binops: list = []
        self.folds: list = []
        self.splats: list = []
        self.iotas: list = []
        self.amounts: list = []

    @staticmethod
    def _const(table: list, value) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _temp(self, key, rhs: str) -> str:
        """Bind ``rhs`` to a temp once per structural key; its name."""
        name = self.temps.get(key)
        if name is None:
            name = self.temps[key] = f"t{len(self.temps)}"
            self.lines.append(f"{name} = {rhs}")
        return name

    def _window(self, buffer: str, addr) -> str:
        k = self.shape.index[addr.array, addr.elem]
        return (f"_win({buffer}, B[{k}], n, "
                f"{self.shape.table.stride}, {self.V})")

    def _amount(self, value, what: str) -> str:
        """A literal in range, else a run-time checked temp (which still
        raises the model's MachineError for an out-of-range literal)."""
        if isinstance(value, int) and 0 <= value <= self.V:
            return str(value)
        k = self._const(self.amounts, value)
        return self._temp(("amount", what, k),
                          f"_amount(env, _am{k}, {self.V}, {what!r})")

    def emit(self, expr: VExpr, pos: int) -> str:
        """Source text of one expression occurrence at statement ``pos``."""
        V = self.V
        if isinstance(expr, VLoadE):
            key = ("load", expr.addr.array, expr.addr.elem)
            return self._temp(key, self._window("read_u8", expr.addr))
        if isinstance(expr, VRegE):
            name = expr.name
            defining = self.shape.assign_pos.get(name)
            if defining is None:  # loop-invariant: preheader/prologue value
                return self._temp(("inv", name), f"_reg(env, {name!r}, {V})")
            if defining < pos:
                return self.regvar[name]
            # Loop-carried; the definer is already emitted (topological
            # order), so its temp is in scope.
            return self._temp(("carry", name), f"_carry(env, {name!r}, "
                              f"{self.regvar[name]}, n, {V})")
        if isinstance(expr, VShiftPairE):
            a, b = self.emit(expr.a, pos), self.emit(expr.b, pos)
            s = self._amount(expr.shift, "vshiftpair shift")
            return f"_shp({a}, {b}, {s}, {V})"
        if isinstance(expr, VSpliceE):
            a, b = self.emit(expr.a, pos), self.emit(expr.b, pos)
            p = self._amount(expr.point, "vsplice point")
            return f"_spl({a}, {b}, {p})"
        if isinstance(expr, VSplatE):
            k = self._const(self.splats, (expr.operand, expr.dtype))
            return self._temp(("splat", k), f"_sp{k}(env)")
        if isinstance(expr, VBinE):
            a, b = self.emit(expr.a, pos), self.emit(expr.b, pos)
            k = self._const(self.binops, (expr.op.name, expr.dtype))
            return f"_b{k}({a}, {b})"
        # VIotaE: the analysis admits no other form.
        k = self._const(self.iotas, (expr.bias, expr.dtype))
        return self._temp(("iota", k), f"_io{k}(lb, n)")


def _emit_steady(shape: steady.SteadyShape, spec_fields: dict) -> str:
    """The batched steady kernel's source; its constants go to
    ``spec_fields``."""
    em = _SteadyEmitter(shape)
    for pos in shape.order:
        stmt = shape.seq[pos]
        rhs = shape.reductions.get(pos)
        if rhs is None:
            text = em.emit(stmt.expr, pos)
        else:
            k = em._const(em.folds, (stmt.expr.op.name, stmt.expr.dtype))
            text = f"_f{k}(env, {stmt.reg!r}, {em.emit(rhs, pos)}, n)"
        em.lines.append(f"R{pos} = {text}")
        em.regvar[stmt.reg] = f"R{pos}"
    for pos, stmt in enumerate(shape.seq):
        if isinstance(stmt, VStoreS):
            text = em.emit(stmt.src, pos)
            em.lines.append(f"{em._window('mem_u8', stmt.addr)}[:] = {text}")
    # Final register values feed the epilogue.
    for pos in shape.order:
        em.lines.append(f"env.vregs[{shape.seq[pos].reg!r}] = "
                        f"R{pos}[-1].tobytes()")
    spec_fields.update(
        binops=tuple(em.binops),
        folds=tuple(em.folds),
        splats=tuple(em.splats),
        iotas=tuple(em.iotas),
        amounts=tuple(em.amounts),
    )
    return ("def _kernel(env, lb, n):\n"
            + "".join(f"    {line}\n" for line in em.lines))


# ---------------------------------------------------------------------------
# Section emission (byte mode)
# ---------------------------------------------------------------------------

#: Scalar ops inlined as Python source, matching S_OPS semantics.
_S_INLINE = {
    "add": "({} + {})", "sub": "({} - {})", "mul": "({} * {})",
    "div": "({} // {})", "mod": "({} % {})", "and": "({} & {})",
    "min": "min({}, {})", "max": "max({}, {})",
    "lt": "int({} < {})", "le": "int({} <= {})",
    "gt": "int({} > {})", "ge": "int({} >= {})",
}


class _SectionEmitter:
    """Straight-lines preheader/prologue/epilogue to byte-mode source.

    The emitted code calls the same :mod:`repro.machine.vector` and
    :class:`~repro.machine.memory.Memory` primitives the interpreter
    calls — same byte semantics, same exceptions — but with the
    recursive dispatch flattened away and all counter bumps aggregated
    into per-block constants (``_cnt{k}``) computed at compile time
    from the model's structural counter rules.
    """

    def __init__(self, V: int, upper):
        self.V = V
        self.upper_var = upper if isinstance(upper, str) else None
        self.arrays: list[str] = []
        self._array_idx: dict = {}
        self.bbinops: list = []
        self._bbinop_idx: dict = {}
        self.bsplats: list = []
        self._bsplat_idx: dict = {}
        self.biotas: list = []
        self._biota_idx: dict = {}
        self.counts: list = []

    def _array(self, name: str) -> str:
        idx = self._array_idx.get(name)
        if idx is None:
            idx = len(self.arrays)
            self.arrays.append(name)
            self._array_idx[name] = idx
        return f"aA{idx}"

    def _ref(self, table: list, index: dict, key, prefix: str) -> str:
        idx = index.get(key)
        if idx is None:
            idx = len(table)
            table.append(key)
            index[key] = idx
        return f"{prefix}{idx}"

    def _count(self, counters: OpCounters) -> str | None:
        if not counters.counts:
            return None
        idx = len(self.counts)
        self.counts.append(dict(counters.counts))
        return f"_cnt{idx}"

    # -- expression source -----------------------------------------------

    def scalar_src(self, expr: SExpr) -> str:
        if isinstance(expr, SConst):
            return repr(expr.value)
        if isinstance(expr, SVar):
            if expr.name == self.upper_var:
                return "env.trip"
            return f"b.scalar({expr.name!r})"
        if isinstance(expr, SBase):
            return f"{self._array(expr.array)}.base"
        if isinstance(expr, SReg):
            return f"_rs(sregs, {expr.name!r})"
        if isinstance(expr, SBin):
            template = _S_INLINE.get(expr.op)
            if template is None:
                raise _CantCompile(expr.op)
            return template.format(
                self.scalar_src(expr.left), self.scalar_src(expr.right)
            )
        raise _CantCompile(type(expr).__name__)

    def _addr_src(self, addr: Addr, has_i: bool) -> str:
        if not has_i:
            # interp._addr_value raises here; preserve message and point.
            return f"_die({f'address {addr} used in a section with no loop counter'!r})"
        return f"{self._array(addr.array)}.addr(i0 + {addr.elem})"

    def vexpr_src(self, expr: VExpr, has_i: bool) -> str:
        V = self.V
        if isinstance(expr, VLoadE):
            return f"vload({self._addr_src(expr.addr, has_i)}, {V})"
        if isinstance(expr, VRegE):
            return f"_rv(vregs, {expr.name!r})"
        if isinstance(expr, VShiftPairE):
            shift = (expr.shift if isinstance(expr.shift, int)
                     else self.scalar_src(expr.shift))
            return (f"_vshiftpair({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)}, {shift}, {V})")
        if isinstance(expr, VSpliceE):
            point = (expr.point if isinstance(expr.point, int)
                     else self.scalar_src(expr.point))
            return (f"_vsplice({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)}, {point}, {V})")
        if isinstance(expr, VSplatE):
            fn = self._ref(self.bsplats, self._bsplat_idx, expr.dtype, "_spb")
            return f"{fn}({self.scalar_src(expr.operand)})"
        if isinstance(expr, VBinE):
            fn = self._ref(self.bbinops, self._bbinop_idx,
                           (expr.op.name, expr.dtype), "_bb")
            return (f"{fn}({self.vexpr_src(expr.a, has_i)}, "
                    f"{self.vexpr_src(expr.b, has_i)})")
        if isinstance(expr, VIotaE):
            if not has_i:
                return f"_die({'viota used in a section with no loop counter'!r})"
            fn = self._ref(self.biotas, self._biota_idx,
                           (expr.bias, expr.dtype), "_iob")
            return f"{fn}(i0)"
        raise _CantCompile(type(expr).__name__)

    # -- statements and sections ------------------------------------------

    def _stmt_lines(self, stmt: VStmt, has_i: bool, out: list[str],
                    indent: str) -> None:
        if isinstance(stmt, SetS):
            out.append(f"{indent}sregs[{stmt.reg!r}] = "
                       f"{self.scalar_src(stmt.expr)}")
        elif isinstance(stmt, SetV):
            if stmt.is_copy:
                out.append(f"{indent}vregs[{stmt.reg!r}] = "
                           f"_rv(vregs, {stmt.expr.name!r})")
            else:
                out.append(f"{indent}vregs[{stmt.reg!r}] = "
                           f"{self.vexpr_src(stmt.expr, has_i)}")
        elif isinstance(stmt, VStoreS):
            # Value before address, like interp._exec_stmts, so a bad
            # source register raises before a missing loop counter does.
            out.append(f"{indent}stv = {self.vexpr_src(stmt.src, has_i)}")
            out.append(f"{indent}vstore({self._addr_src(stmt.addr, has_i)}, "
                       f"stv, {self.V})")
        else:
            raise _CantCompile(type(stmt).__name__)

    def _count_stmts(self, stmts: list[VStmt]) -> OpCounters:
        """One execution's counter bumps, mirroring interp._exec_stmts."""
        pc = OpCounters()
        for stmt in stmts:
            steady.count_stmt(pc, stmt)
        return pc

    def emit_function(self, name: str, preheader: list[VStmt],
                      sections: list[Section]) -> str:
        body: list[str] = []
        if preheader:
            pc = self._count_stmts(preheader)
            for stmt in preheader:
                self._stmt_lines(stmt, False, body, "    ")
            cnt = self._count(pc)
            if cnt is not None:
                body.append(f"    _bump_all(c, {cnt})")
        for section in sections:
            body.append(f"    # {section.label}")
            has_i = section.i_expr is not None
            taken = OpCounters()
            if has_i:
                steady.count_sbins(taken, section.i_expr)
            taken.merge(self._count_stmts(section.stmts))
            if section.cond is not None:
                # The interpreter bumps BRANCH and evaluates the
                # condition (counting its SBins) whether or not the
                # section runs; only the body is conditional.
                head = OpCounters()
                head.bump(BRANCH)
                steady.count_sbins(head, section.cond)
                body.append(f"    _bump_all(c, {self._count(head)})")
                body.append(f"    if {self.scalar_src(section.cond)}:")
                indent = "        "
            else:
                indent = "    "
            inner: list[str] = []
            if has_i:
                inner.append(f"{indent}i0 = {self.scalar_src(section.i_expr)}")
            for stmt in section.stmts:
                self._stmt_lines(stmt, has_i, inner, indent)
            cnt = self._count(taken)
            if cnt is not None:
                inner.append(f"{indent}_bump_all(c, {cnt})")
            if not inner:
                inner.append(f"{indent}pass")
            body.extend(inner)
        hoists = [
            "    c = env.counters",
            "    vregs = env.vregs",
            "    sregs = env.sregs",
            "    b = env.bindings",
            "    mem = env.mem",
            "    vload = mem.vload",
            "    vstore = mem.vstore",
            "    space = env.space",
        ]
        hoists += [
            f"    aA{idx} = space[{arr!r}]"
            for idx, arr in enumerate(self.arrays)
        ]
        if not body:
            body = ["    pass"]
        return f"def {name}(env):\n" + "\n".join(hoists + body) + "\n"


def _emit_sections(program: VProgram, spec_fields: dict) -> bool:
    """Emit _pre/_post into ``spec_fields``; False when a form can't."""
    em = _SectionEmitter(program.V, program.source.upper)
    try:
        pre = em.emit_function("_pre", list(program.preheader),
                               list(program.prologue))
        post = em.emit_function("_post", [], list(program.epilogue))
    except _CantCompile:
        return False
    spec_fields.update(
        arrays=tuple(em.arrays),
        bbinops=tuple(em.bbinops),
        bsplats=tuple(em.bsplats),
        biotas=tuple(em.biotas),
        counts=tuple(em.counts),
    )
    spec_fields["_pre_src"] = pre
    spec_fields["_post_src"] = post
    return True


def _compile_spec(program: VProgram, signature: str) -> _KernelSpec:
    """Lower a program to a kernel spec (once per signature)."""
    fields: dict = {}
    sources = []
    shape = steady.analyze(program)
    if shape is not None:
        sources.append(_emit_steady(shape, fields))
    sections_ok = _emit_sections(program, fields)
    if sections_ok:
        sources.append(fields.pop("_pre_src"))
        sources.append(fields.pop("_post_src"))
    return _KernelSpec(
        signature=signature,
        table=shape.table if shape is not None else None,
        sections_ok=sections_ok,
        V=program.V,
        source="\n".join(sources),
        **fields,
    )


# ---------------------------------------------------------------------------
# Byte-mode helper factories (rebuilt from the spec's section tables)
# ---------------------------------------------------------------------------
#
# Each factory bakes a spec constant into a closure whose semantics
# mirror one interp evaluation case byte-for-byte.  The factories — not
# the closures — are what survives pickling: _materialize rebuilds the
# namespace from the spec's tables on load.

def _make_byte_binop(name: str, dtype, V: int):
    """vec.vbinop's lane semantics over one V-byte pair, via NumPy.

    Reuses the model's lane closures (:func:`repro.machine.steady.binop`),
    so the sections and the steady loop share one proven arithmetic
    model instead of the interpreter's per-lane Python loop.  Modular
    add and sub, the common ops, take the whole-vector integer path of
    :func:`_make_byte_addsub`, which skips NumPy's per-call overhead.
    """
    if name in ("add", "sub"):
        return _make_byte_addsub(name, dtype, V)
    rows = steady.binop(name, dtype)

    def bbin(a, b):
        ra = np.frombuffer(a, dtype=np.uint8).reshape(1, V)
        rb = np.frombuffer(b, dtype=np.uint8).reshape(1, V)
        return rows(ra, rb).tobytes()

    return bbin


def _make_byte_addsub(name: str, dtype, V: int):
    """Lane-wise modular add or sub of two V-byte vectors as two ints.

    With each lane's top bit masked off, the low bits' carries (add) or
    borrows (sub, from a minuend whose top bits are set) stay inside
    their lane; the top bit a lane would get modulo ``2**bits`` is then
    restored by xor with the operands' top bits.
    """
    top = 1 << (dtype.bits - 1)
    high = int.from_bytes(top.to_bytes(dtype.size, "little")
                          * (V // dtype.size), "little")
    low = ((1 << 8 * V) - 1) ^ high
    from_bytes = int.from_bytes

    if name == "add":
        def bbin(a, b):
            x, y = from_bytes(a, "little"), from_bytes(b, "little")
            return (((x & low) + (y & low))
                    ^ ((x ^ y) & high)).to_bytes(V, "little")
    else:
        def bbin(a, b):
            x, y = from_bytes(a, "little"), from_bytes(b, "little")
            return (((x | high) - (y & low))
                    ^ ((x ^ ~y) & high)).to_bytes(V, "little")

    return bbin


def _make_byte_splat(dtype, V: int):
    wrap = dtype.wrap

    def splat(value):
        return vec.vsplat(wrap(value), dtype, V)

    return splat


def _make_byte_iota(bias: int, dtype, V: int):
    """interp._eval_v's VIotaE case, with the constants pre-bound."""
    B = V // dtype.size
    size = dtype.size
    wrap = dtype.wrap

    def iota(i):
        m = ((i + bias) * size) // V
        return vec.from_lanes([wrap(m * B + lane) for lane in range(B)], dtype)

    return iota


def _read_sreg(sregs, name):
    try:
        return sregs[name]
    except KeyError:
        raise MachineError(
            f"scalar register {name!r} read before being set"
        ) from None


def _read_vreg(vregs, name):
    try:
        return vregs[name]
    except KeyError:
        raise MachineError(
            f"vector register {name!r} read before being set"
        ) from None


def _die(message):
    raise MachineError(message)


def _bump_all(counters, counts):
    for category, amount in counts.items():
        counters.bump(category, amount)


def _compile_source(spec: _KernelSpec) -> types.CodeType:
    STATS["source_compiles"] += 1
    return compile(spec.source, "<repro-jit-kernel>", "exec")


def _stored_code(entry: _KernelSpec) -> types.CodeType | None:
    """The code object a disk entry carries, or None to compile anew.

    Pickle does not checksum its payload, and running a damaged code
    object can crash the interpreter instead of raising, so the bytes
    must match their digest before :func:`marshal.loads` sees them,
    and what it returns must be a code object.  The bytes are dropped
    from the entry either way: the in-memory kernel never keeps them.
    """
    data, digest = entry.code, entry.code_sha256
    entry.code, entry.code_sha256 = b"", ""
    if not data or hashlib.sha256(data).hexdigest() != digest:
        return None
    try:
        code = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _materialize(spec: _KernelSpec, code: types.CodeType) -> tuple:
    """Run a spec's compiled source against its rebuilt helper namespace."""
    ns: dict = {
        "_vshiftpair": vec.vshiftpair,
        "_vsplice": vec.vsplice,
        "_rs": _read_sreg,
        "_rv": _read_vreg,
        "_die": _die,
        "_bump_all": _bump_all,
    }
    table = spec.table
    if table is not None:
        ns.update(_table=table, _buffers=steady.buffers, _win=steady.window,
                  _reg=steady.reg_row, _carry=steady.carried,
                  _shp=steady.shiftpair, _spl=steady.splice,
                  _amount=steady.amount)
        for idx, (name, dtype) in enumerate(spec.binops):
            ns[f"_b{idx}"] = steady.binop(name, dtype)
        for idx, (name, dtype) in enumerate(spec.folds):
            ns[f"_f{idx}"] = steady.fold(name, dtype, table.V)
        for idx, (operand, dtype) in enumerate(spec.splats):
            ns[f"_sp{idx}"] = steady.splat(operand, dtype, table.V)
        for idx, (bias, dtype) in enumerate(spec.iotas):
            ns[f"_io{idx}"] = steady.iota(bias, dtype, table.step, table.V)
        for idx, value in enumerate(spec.amounts):
            ns[f"_am{idx}"] = value
    if spec.sections_ok:
        for idx, (name, dtype) in enumerate(spec.bbinops):
            ns[f"_bb{idx}"] = _make_byte_binop(name, dtype, spec.V)
        for idx, dtype in enumerate(spec.bsplats):
            ns[f"_spb{idx}"] = _make_byte_splat(dtype, spec.V)
        for idx, (bias, dtype) in enumerate(spec.biotas):
            ns[f"_iob{idx}"] = _make_byte_iota(bias, dtype, spec.V)
        for idx, counts in enumerate(spec.counts):
            ns[f"_cnt{idx}"] = counts
    exec(code, ns)
    return ns.get("_kernel"), ns.get("_pre"), ns.get("_post")


# ---------------------------------------------------------------------------
# Two-tier kernel cache
# ---------------------------------------------------------------------------

_KERNEL_CACHE: OrderedDict[str, Kernel] = OrderedDict()
_KERNEL_CACHE_MAX = 256


def _disk_key(signature: str) -> str:
    from repro import __version__

    return (f"jit-kernel:{__version__}:{KERNEL_CODE_VERSION}:{_CODE_TAG}:"
            f"{signature}")


def get_kernel(program: VProgram) -> Kernel:
    """The compiled kernel for this program's signature (cached)."""
    signature = program_signature(program)
    kernel = _KERNEL_CACHE.get(signature)
    if kernel is not None:
        _KERNEL_CACHE.move_to_end(signature)  # LRU: recent use survives
        STATS["memory_hits"] += 1
        return kernel
    STATS["memory_misses"] += 1
    _fault("compile")  # REPRO_FAULT=compile:… fails the kernel build here
    start = time.perf_counter()
    key = _disk_key(signature)
    disk = get_cache()
    spec = code = fns = None
    if disk is not None:
        entry = disk.get(key)
        if isinstance(entry, _KernelSpec) and entry.signature == signature:
            spec, code = entry, _stored_code(entry)
            STATS["disk_hits"] += 1
        else:
            STATS["disk_misses"] += 1
    if spec is None:
        spec = _compile_spec(program, signature)
        STATS["codegens"] += 1
    if code is not None:
        try:
            fns = _materialize(spec, code)
        except Exception:
            pass  # stored code that cannot define the kernel: recompile
    if fns is None:
        # A miss, or an entry whose code is unusable: compile the source
        # once and (re)write the entry with that code.  Dumping caches a
        # copy of each function's bytecode on its code object, which the
        # kernel would keep alive, so it runs the unmarshalled twin, as
        # a warm load does.
        data = marshal.dumps(_compile_source(spec))
        fns = _materialize(spec, marshal.loads(data))
        if disk is not None:
            disk.put(key, replace(
                spec, code=data, code_sha256=hashlib.sha256(data).hexdigest()))
    fn, pre, post = fns
    STATS["compile_s"] += time.perf_counter() - start
    kernel = Kernel(spec=spec, fn=fn, pre=pre, post=post)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.popitem(last=False)
    _KERNEL_CACHE[signature] = kernel
    return kernel


def clear_memory_cache() -> None:
    """Drop materialized kernels (tests use this to force disk loads)."""
    _KERNEL_CACHE.clear()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class JitBackend:
    """Compile-once execution of vector programs (bit-exact vs bytes).

    The ``_kernel_for`` / ``_steady`` hooks are the entire subclass
    surface: the native backend (:mod:`repro.machine.native`) overrides
    them to swap the steady loop for a compiled C kernel while
    inheriting the guard, section, and trip machinery unchanged.
    """

    name = "jit"

    def _kernel_for(self, program):
        return get_kernel(program)

    def _steady(self, env, loop, kernel) -> bool:
        return steady.run_steady(env, loop, kernel.spec.table, kernel.fn)

    def run(
        self,
        program,
        space,
        mem,
        bindings=None,
        trace=None,
    ) -> VectorRunResult:
        def finish(env) -> bool:
            """Preheader/prologue, steady loop, epilogue for one guarded
            env.  The kernel is acquired only past the guard: a guarded
            scalar run never compiles one."""
            kernel = self._kernel_for(program)
            if kernel.pre is not None:
                kernel.pre(env)
            else:
                interp._exec_stmts(env, program.preheader, i=None)
                for section in program.prologue:
                    interp._exec_section(env, section)
            fell_back = False
            if program.steady is not None:
                fell_back = self._steady(env, program.steady, kernel)
            if kernel.post is not None:
                kernel.post(env)
            else:
                for section in program.epilogue:
                    interp._exec_section(env, section)
            return fell_back

        return steady.run_guarded(program, space, mem, bindings, trace,
                                  finish)
