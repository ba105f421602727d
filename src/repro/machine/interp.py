"""Interpreter for vector programs: executes and counts dynamic operations.

This is the reproduction's stand-in for the paper's PowerPC+VMX
cycle-accurate simulator.  It executes the structured vector program on
a byte-addressable memory with AltiVec truncation semantics and tallies
every operation by category (see :mod:`repro.machine.counters` and the
cost model in ``DESIGN.md`` §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError
from repro.ir.expr import Loop
from repro.machine.arrays import ArraySpace
from repro.machine.counters import (
    BRANCH,
    CALL,
    OpCounters,
    SCALAR,
    VARITH,
    VCOPY,
    VLOAD,
    VPERM,
    VSEL,
    VSPLAT,
    VSTORE,
)
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings, run_scalar
from repro.machine.trace import Trace
from repro.machine import vector as vec
from repro.vir.program import VProgram, SteadyLoop
from repro.vir.vexpr import (
    Addr,
    SBase,
    SBin,
    SConst,
    SExpr,
    SReg,
    SVar,
    S_OPS,
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


@dataclass
class VectorRunResult:
    """Outcome of executing a vector program.

    ``used_fallback`` is True when the engine took an exactness
    fallback instead of its primary path: the guarded scalar run for
    trips at or below ``guard_min_trip`` (both engines), or — on the
    batched NumPy backend — per-iteration steady-loop execution for
    programs its planner cannot batch.  Counters and memory are
    identical either way; the flag only reports *how* they were made.

    ``fallback`` is set by the resilient backend chain
    (:func:`repro.machine.backend.get_resilient_backend`) when a
    higher engine tier failed and a lower one produced this result:
    ``{"tier": ran, "phase": where-it-failed, "reason": first error,
    "failed": (tiers that failed, in order)}``.  ``None`` means the
    requested tier ran clean.
    """

    counters: OpCounters
    trip: int
    used_fallback: bool
    fallback: dict | None = None

    @property
    def ops(self) -> int:
        return self.counters.total


class Env:
    """Mutable execution state: register files and memory handles."""

    def __init__(self, program: VProgram, space: ArraySpace, mem: Memory,
                 bindings: RunBindings, trace: Trace | None = None):
        self.program = program
        self.space = space
        self.mem = mem
        self.bindings = bindings
        self.sregs: dict[str, int] = {}
        self.vregs: dict[str, bytes] = {}
        self.counters = OpCounters()
        self.trip = bindings.resolve_trip(program.source)
        self.trace = trace
        self.current_i: int | None = None


def run_vector(
    program: VProgram,
    space: ArraySpace,
    mem: Memory,
    bindings: RunBindings | None = None,
    trace: Trace | None = None,
) -> VectorRunResult:
    """Execute ``program`` on ``mem``; return dynamic operation counts.

    When the program carries a runtime guard and the trip count is at or
    below it, the original scalar loop runs instead (the paper's
    ``ub > 3B`` fallback) and its scalar operations are counted.
    Passing a :class:`~repro.machine.trace.Trace` records every memory
    and reorganization operation with its phase and address.
    """
    env = Env(program, space, mem, bindings or RunBindings(), trace)
    env.counters.bump(CALL, 2)  # one call + one return, as the paper measures

    if program.guard_min_trip is not None:
        env.counters.bump(BRANCH)
        if env.trip <= program.guard_min_trip:
            scalar = run_scalar(program.source, space, mem, env.bindings)
            env.counters.merge(scalar.counters)
            return VectorRunResult(env.counters, env.trip, used_fallback=True)
    elif env.trip != program.source.upper and isinstance(program.source.upper, int):
        raise MachineError("compile-time trip count mismatch")

    exec_stmts(env, program.preheader, i=None)
    for section in program.prologue:
        exec_section(env, section)
    if program.steady is not None:
        _exec_steady(env, program.steady)
    for section in program.epilogue:
        exec_section(env, section)
    return VectorRunResult(env.counters, env.trip, used_fallback=False)


# ---------------------------------------------------------------------------
# Execution helpers.  The public ones carry the evaluation order every
# tier shares: numpy, jit, native and the steady model call them.
# ---------------------------------------------------------------------------

def exec_section(env: Env, section: Section) -> None:
    if env.trace is not None:
        env.trace.set_phase(section.label)
    if section.cond is not None:
        env.counters.bump(BRANCH)
        if not eval_s(env, section.cond):
            return
    i = eval_s(env, section.i_expr) if section.i_expr is not None else None
    exec_stmts(env, section.stmts, i)


def _exec_steady(env: Env, steady: SteadyLoop) -> None:
    lb = eval_s(env, steady.lb)
    ub = eval_s(env, steady.ub)
    pointers = env.program.pointer_count()
    if env.trace is not None:
        env.trace.set_phase("steady")
    for i in range(lb, ub, steady.step):
        # Modelled per-iteration overhead: one bump per induction
        # pointer plus the loop's compare-and-branch (DESIGN.md §5).
        env.counters.bump(SCALAR, pointers)
        env.counters.bump(BRANCH)
        exec_stmts(env, steady.body, i)
        exec_stmts(env, steady.bottom, i)


def exec_stmts(env: Env, stmts: list[VStmt], i: int | None) -> None:
    for stmt in stmts:
        if isinstance(stmt, SetS):
            env.sregs[stmt.reg] = eval_s(env, stmt.expr)
        elif isinstance(stmt, SetV):
            if stmt.is_copy:
                env.counters.bump(VCOPY)
                env.vregs[stmt.reg] = read_vreg(env, stmt.expr.name)
            else:
                env.vregs[stmt.reg] = _eval_v(env, stmt.expr, i)
        elif isinstance(stmt, VStoreS):
            value = _eval_v(env, stmt.src, i)
            env.counters.bump(VSTORE)
            address = _addr_value(env, stmt.addr, i)
            if env.trace is not None:
                env.trace.record("vstore", address - address % env.program.V, i)
            env.mem.vstore(address, value, env.program.V)
        else:
            raise MachineError(f"unknown statement {type(stmt).__name__}")


def _addr_value(env: Env, addr: Addr, i: int | None) -> int:
    if i is None:
        raise MachineError(f"address {addr} used in a section with no loop counter")
    bound = env.space[addr.array]
    return bound.addr(i + addr.elem)


def read_vreg(env: Env, name: str) -> bytes:
    try:
        return env.vregs[name]
    except KeyError:
        raise MachineError(f"vector register {name!r} read before being set") from None


def eval_s(env: Env, expr: SExpr) -> int:
    if isinstance(expr, SConst):
        return expr.value
    if isinstance(expr, SVar):
        loop: Loop = env.program.source
        if isinstance(loop.upper, str) and expr.name == loop.upper:
            return env.trip
        return env.bindings.scalar(expr.name)
    if isinstance(expr, SBase):
        return env.space[expr.array].base
    if isinstance(expr, SReg):
        try:
            return env.sregs[expr.name]
        except KeyError:
            raise MachineError(f"scalar register {expr.name!r} read before being set") from None
    if isinstance(expr, SBin):
        left = eval_s(env, expr.left)
        right = eval_s(env, expr.right)
        env.counters.bump(SCALAR)
        return S_OPS[expr.op](left, right)
    raise MachineError(f"unknown scalar expression {type(expr).__name__}")


def _eval_v(env: Env, expr: VExpr, i: int | None) -> bytes:
    V = env.program.V
    if isinstance(expr, VLoadE):
        env.counters.bump(VLOAD)
        address = _addr_value(env, expr.addr, i)
        if env.trace is not None:
            env.trace.record("vload", address - address % V, i,
                             site=(expr.addr.array, expr.addr.elem))
        return env.mem.vload(address, V)
    if isinstance(expr, VRegE):
        return read_vreg(env, expr.name)
    if isinstance(expr, VShiftPairE):
        a = _eval_v(env, expr.a, i)
        b = _eval_v(env, expr.b, i)
        shift = expr.shift if isinstance(expr.shift, int) else eval_s(env, expr.shift)
        env.counters.bump(VPERM)
        return vec.vshiftpair(a, b, shift, V)
    if isinstance(expr, VSpliceE):
        a = _eval_v(env, expr.a, i)
        b = _eval_v(env, expr.b, i)
        point = expr.point if isinstance(expr.point, int) else eval_s(env, expr.point)
        env.counters.bump(VSEL)
        return vec.vsplice(a, b, point, V)
    if isinstance(expr, VSplatE):
        value = eval_s(env, expr.operand)
        env.counters.bump(VSPLAT)
        return vec.vsplat(expr.dtype.wrap(value), expr.dtype, V)
    if isinstance(expr, VBinE):
        a = _eval_v(env, expr.a, i)
        b = _eval_v(env, expr.b, i)
        env.counters.bump(VARITH)
        return vec.vbinop(expr.op, a, b, expr.dtype, V)
    if isinstance(expr, VIotaE):
        if i is None:
            raise MachineError("viota used in a section with no loop counter")
        # Strength-reduced counter vector: one lane add per evaluation.
        env.counters.bump(VARITH)
        dtype = expr.dtype
        B = V // dtype.size
        m = ((i + expr.bias) * dtype.size) // V
        lanes = [dtype.wrap(m * B + lane) for lane in range(B)]
        return vec.from_lanes(lanes, dtype)
    raise MachineError(f"unknown vector expression {type(expr).__name__}")
