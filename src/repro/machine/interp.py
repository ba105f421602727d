"""Interpreter for vector programs: executes and counts dynamic operations.

This is the reproduction's stand-in for the paper's PowerPC+VMX
cycle-accurate simulator.  It executes the structured vector program on
a byte-addressable memory with AltiVec truncation semantics and tallies
every operation by category (see :mod:`repro.machine.counters` and the
cost model in ``DESIGN.md`` §5).

:func:`count_ops` derives the same tallies without executing: the
numpy, jit and native tiers take their counters from it, and this
interpreter keeps counting as it runs, as the oracle it is checked
against.
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
from repro.machine.scalar import RunBindings, reference_counters, run_scalar
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
    if isinstance(expr, SBin):
        left = eval_s(env, expr.left)
        right = eval_s(env, expr.right)
        env.counters.bump(SCALAR)
        return S_OPS[expr.op](left, right)
    return peek_s(env, expr)


def peek_s(env: Env, expr: SExpr) -> int:
    """:func:`eval_s` without the SCALAR bumps, for an operand whose
    operations are counted by structure instead."""
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
        return S_OPS[expr.op](peek_s(env, expr.left), peek_s(env, expr.right))
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


# ---------------------------------------------------------------------------
# Static counts: what run_vector tallies, derived without executing
# ---------------------------------------------------------------------------

#: Per vector expression form: the category one evaluation bumps, and
#: the scalar operand it evaluates.
_V_COUNTS = {VLoadE: (VLOAD, None), VShiftPairE: (VPERM, "shift"),
             VSpliceE: (VSEL, "point"), VSplatE: (VSPLAT, "operand"),
             VBinE: (VARITH, None), VIotaE: (VARITH, None),
             VRegE: (None, None)}


def count_ops(program: VProgram, space: ArraySpace,
              bindings: RunBindings | None = None) -> OpCounters:
    """The counters :func:`run_vector` tallies, without running it.

    Only what decides a count is evaluated: the scalar statements, the
    section conditions and the steady bounds.  Every vector statement
    is counted by its structure, the steady body once per iteration,
    and at or below the runtime guard the scalar loop counts as
    :func:`~repro.machine.scalar.reference_counters` says.  No memory
    is read, so operations per datum are a property of the program
    and its bindings, whichever tier produced the memory image.

    The structural half depends on the program alone; it is derived
    once and kept on the program, as the jit signature is, so a
    repeated run only evaluates a few scalar expressions.
    """
    env = Env(program, space, None, bindings or RunBindings())
    counters = env.counters
    counters.bump(CALL, 2)
    if program.guard_min_trip is not None:
        counters.bump(BRANCH)
        if env.trip <= program.guard_min_trip:
            counters.merge(reference_counters(program.source, env.trip))
            return counters
    plan = getattr(program, "_op_counts", None)
    if plan is None:
        plan = program._op_counts = _count_plan(program)
    for cond, bounds, counts, sets in plan:
        if bounds is not None:  # the steady loop
            lb, ub, step = bounds
            times = len(range(peek_s(env, lb), peek_s(env, ub), step))
        else:
            times = 1 if cond is None or peek_s(env, cond) else 0
        for category, count in counts:
            counters.bump(category, count * times)
        if sets:
            for _ in range(times):
                for stmt in sets:
                    env.sregs[stmt.reg] = peek_s(env, stmt.expr)
    return counters


def _count_plan(program: VProgram) -> tuple:
    """The structural half of :func:`count_ops`, as picklable tuples.

    A step ``(cond, bounds, counts, sets)`` is what one block counts
    each time it runs and the scalar statements it evaluates, in
    program order; the steady loop's ``bounds`` are ``(lb, ub, step)``.
    What every vectorized run counts — the preheader, the
    unconditional sections, each condition and the steady bounds —
    sums into the first step.
    """
    fixed = OpCounters()
    steps: list = []

    def add(cond, bounds, counts, stmts, i_expr=None) -> None:
        _count_s(counts, i_expr)
        _count_stmts(counts, stmts)
        if cond is not None:
            fixed.bump(BRANCH)
            _count_s(fixed, cond)
        elif bounds is None:
            fixed.merge(counts)
            counts = OpCounters()
        sets = tuple(s for s in stmts if isinstance(s, SetS))
        if cond is not None or bounds is not None or sets:
            steps.append((cond, bounds, tuple(counts.counts.items()), sets))

    add(None, None, OpCounters(), program.preheader)
    for section in program.prologue:
        add(section.cond, None, OpCounters(), section.stmts, section.i_expr)
    loop = program.steady
    if loop is not None:
        _count_s(fixed, loop.lb)
        _count_s(fixed, loop.ub)
        per_iter = OpCounters()
        # The modelled per-iteration overhead, as _exec_steady bumps it.
        per_iter.bump(SCALAR, program.pointer_count())
        per_iter.bump(BRANCH)
        add(None, (loop.lb, loop.ub, loop.step), per_iter,
            list(loop.body) + list(loop.bottom))
    for section in program.epilogue:
        add(section.cond, None, OpCounters(), section.stmts, section.i_expr)
    return ((None, None, tuple(fixed.counts.items()), ()), *steps)


def _count_stmts(counters: OpCounters, stmts) -> None:
    """Bump what one :func:`exec_stmts` of ``stmts`` counts."""
    for stmt in stmts:
        if isinstance(stmt, SetS):
            _count_s(counters, stmt.expr)
        elif isinstance(stmt, SetV) and stmt.is_copy:
            counters.bump(VCOPY)
        elif isinstance(stmt, SetV):
            _count_v(counters, stmt.expr)
        elif isinstance(stmt, VStoreS):
            _count_v(counters, stmt.src)
            counters.bump(VSTORE)
        else:
            raise MachineError(f"unknown statement {type(stmt).__name__}")


def _count_v(counters: OpCounters, expr: VExpr) -> None:
    """Bump what one :func:`_eval_v` of ``expr`` counts."""
    try:
        category, operand = _V_COUNTS[type(expr)]
    except KeyError:
        raise MachineError(
            f"unknown vector expression {type(expr).__name__}") from None
    if category is not None:
        counters.bump(category)
    if operand is not None:
        _count_s(counters, getattr(expr, operand))
    for child in expr.children():
        _count_v(counters, child)


def _count_s(counters: OpCounters, operand) -> None:
    """Bump what :func:`eval_s` counts evaluating ``operand``: one
    SCALAR per ``SBin``; a literal amount (or none) counts nothing."""
    if isinstance(operand, SBin):
        counters.bump(SCALAR)
        _count_s(counters, operand.left)
        _count_s(counters, operand.right)
