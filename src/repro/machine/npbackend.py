"""Batched NumPy execution backend for vector programs.

This engine executes the same :class:`~repro.vir.program.VProgram` as
the byte interpreter (:mod:`repro.machine.interp`) but represents
vectors as ``uint8`` ndarray rows and — the big win — executes **all
iterations of the steady-state loop in one batched call**: every static
load and store becomes a strided 2-D window over the array space
(``shape (n, V)``, ``strides (step*D, 1)``), and each reorganization op
becomes a whole-array slice/concatenate/arithmetic op.  Preheader,
prologue and epilogue run through the interpreter unchanged.

What batches, which runs fall back, how each row is computed and how
the steady loop is counted all come from the shared steady-loop model
(:mod:`repro.machine.steady`).  This module interprets that model: on
every run it analyzes the program and walks its steady expressions
through the model's lane functions.  The jit tier compiles the same
walk once per program signature.

Correctness contract: final memory bytes and
:class:`~repro.machine.counters.OpCounters` are identical to the byte
interpreter's; ``used_fallback`` reports runs that took the exact
per-iteration path instead.

This module is only imported when NumPy is present; use
:func:`repro.machine.backend.get_backend` for gated access.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.machine import interp, steady
from repro.machine.arrays import ArraySpace
from repro.machine.interp import VectorRunResult
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings
from repro.machine.trace import Trace
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    VBinE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
)
from repro.vir.vstmt import VStoreS


class NumpyBackend:
    """Array-batched execution of vector programs (bit-exact vs bytes)."""

    name = "numpy"

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        return steady.run_guarded(program, space, mem, bindings, trace,
                                  _finish)


def _finish(env: interp._Env) -> bool:
    """Sections through the interpreter, the steady loop batched."""
    program = env.program
    interp._exec_stmts(env, program.preheader, i=None)
    for section in program.prologue:
        interp._exec_section(env, section)
    fell_back = False
    if program.steady is not None:
        shape = steady.analyze(program)
        if shape is None:
            fell_back = steady.run_steady(env, program.steady, None, None)
        else:
            fell_back = steady.run_steady(env, program.steady, shape.table,
                                          partial(_execute, shape))
    for section in program.epilogue:
        interp._exec_section(env, section)
    return fell_back


def _execute(shape: steady.SteadyShape, env: interp._Env, lb: int,
             n: int) -> None:
    """One batched steady loop: the model's lane functions, walked."""
    table = shape.table
    V, stride = table.V, table.stride
    bases, mem_u8, read_u8 = steady.buffers(table, env, lb, n)
    rows: dict[str, np.ndarray] = {}

    def rows_of(expr, pos: int) -> np.ndarray:
        if isinstance(expr, VLoadE):
            k = shape.index[expr.addr.array, expr.addr.elem]
            return steady.window(read_u8, bases[k], n, stride, V)
        if isinstance(expr, VRegE):
            defining = shape.assign_pos.get(expr.name)
            if defining is None:  # loop-invariant: preheader/prologue value
                return steady.reg_row(env, expr.name, V)
            if defining < pos:
                return rows[expr.name]  # same-iteration value
            return steady.carried(env, expr.name, rows[expr.name], n, V)
        if isinstance(expr, VShiftPairE):
            a, b = rows_of(expr.a, pos), rows_of(expr.b, pos)
            shift = steady.amount(env, expr.shift, V, "vshiftpair shift")
            return steady.shiftpair(a, b, shift, V)
        if isinstance(expr, VSpliceE):
            a, b = rows_of(expr.a, pos), rows_of(expr.b, pos)
            point = steady.amount(env, expr.point, V, "vsplice point")
            return steady.splice(a, b, point)
        if isinstance(expr, VSplatE):
            return steady.splat(expr.operand, expr.dtype, V)(env)
        if isinstance(expr, VBinE):
            a, b = rows_of(expr.a, pos), rows_of(expr.b, pos)
            return steady.binop(expr.op.name, expr.dtype)(a, b)
        # VIotaE: the analysis admits no other form.
        return steady.iota(expr.bias, expr.dtype, table.step, V)(lb, n)

    for pos in shape.order:
        stmt = shape.seq[pos]
        rhs = shape.reductions.get(pos)
        if rhs is None:
            rows[stmt.reg] = rows_of(stmt.expr, pos)
        else:
            fold = steady.fold(stmt.expr.op.name, stmt.expr.dtype, V)
            rows[stmt.reg] = fold(env, stmt.reg, rows_of(rhs, pos), n)
    for pos, stmt in enumerate(shape.seq):
        if isinstance(stmt, VStoreS):
            value = rows_of(stmt.src, pos)
            k = shape.index[stmt.addr.array, stmt.addr.elem]
            steady.window(mem_u8, bases[k], n, stride, V)[:] = value
    # Final register values feed the epilogue (run by the interpreter).
    for pos in shape.order:
        reg = shape.seq[pos].reg
        env.vregs[reg] = rows[reg][-1].tobytes()
