"""Scalar reference executor: golden semantics + ideal scalar op counts.

Executing the loop IR directly, one original iteration at a time, gives

* the ground-truth memory state every simdization must reproduce
  byte-for-byte, and
* the paper's "idealistic scalar instruction count" baseline (SEQ):
  one operation per load, per arithmetic node, and per store — no
  address or loop overhead — e.g. 6 loads + 5 adds + 1 store = 12
  operations per datum for the Section 5.5 single-statement loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.ir.expr import BinOp, Const, Expr, Loop, LoopIndex, Reduction, Ref, ScalarVar
from repro.machine.arrays import ArraySpace
from repro.machine.counters import OpCounters, SARITH, SLOAD, SSTORE
from repro.machine.memory import Memory


@dataclass
class RunBindings:
    """Runtime values for a loop execution.

    ``trip`` must be given when the loop's upper bound is symbolic; for
    a compile-time bound it may be omitted (or must match).  ``scalars``
    binds the loop-invariant :class:`~repro.ir.expr.ScalarVar` operands.
    """

    trip: int | None = None
    scalars: dict[str, int] = field(default_factory=dict)

    def resolve_trip(self, loop: Loop) -> int:
        if isinstance(loop.upper, int):
            if self.trip is not None and self.trip != loop.upper:
                raise MachineError(
                    f"trip count mismatch: loop has compile-time trip "
                    f"{loop.upper}, bindings say {self.trip}"
                )
            return loop.upper
        if self.trip is None:
            raise MachineError(f"runtime trip count {loop.upper!r} is unbound")
        if self.trip < 0:
            raise MachineError(f"negative trip count {self.trip}")
        return self.trip

    def scalar(self, name: str) -> int:
        try:
            return self.scalars[name]
        except KeyError:
            raise MachineError(f"runtime scalar {name!r} is unbound") from None


@dataclass
class ScalarRunResult:
    """Outcome of a scalar reference execution."""

    counters: OpCounters
    trip: int
    #: Number of data elements computed (one per statement per iteration).
    data_count: int = 0
    #: Degradation record from the resilient scalar chain, or None
    #: (same shape as ``VectorRunResult.fallback``).
    fallback: dict | None = None

    @property
    def ops(self) -> int:
        return self.counters.total


def run_scalar(
    loop: Loop,
    space: ArraySpace,
    mem: Memory,
    bindings: RunBindings | None = None,
) -> ScalarRunResult:
    """Execute ``loop`` iteration-by-iteration on ``mem``; return op counts."""
    bindings = bindings or RunBindings()
    trip = bindings.resolve_trip(loop)
    counters = OpCounters()

    bound = {arr.name: space[arr.name] for arr in loop.arrays()}

    def eval_expr(expr: Expr, i: int) -> int:
        dtype = loop.dtype
        if isinstance(expr, Ref):
            counters.bump(SLOAD)
            return bound[expr.array.name].load(mem, i + expr.offset)
        if isinstance(expr, Const):
            return dtype.wrap(expr.value)
        if isinstance(expr, ScalarVar):
            return dtype.wrap(bindings.scalar(expr.name))
        if isinstance(expr, LoopIndex):
            # The counter lives in a register; using it as a value is free.
            return dtype.wrap(i)
        if isinstance(expr, BinOp):
            left = eval_expr(expr.left, i)
            right = eval_expr(expr.right, i)
            counters.bump(SARITH)
            return expr.op.apply(left, right, dtype)
        raise MachineError(f"unknown expression node {type(expr).__name__}")

    reductions = [s for s in loop.statements if isinstance(s, Reduction)]
    if reductions:
        # Ideal scalar reductions keep the accumulator in a register:
        # one load of the initial value and one final store, with one
        # accumulate op per iteration.
        accs: list[int] = []
        for stmt in reductions:
            counters.bump(SLOAD)
            accs.append(bound[stmt.target.array.name].load(mem, stmt.target.offset))
        for i in range(trip):
            for k, stmt in enumerate(reductions):
                value = eval_expr(stmt.expr, i)
                counters.bump(SARITH)
                accs[k] = stmt.op.apply(accs[k], value, loop.dtype)
        for k, stmt in enumerate(reductions):
            counters.bump(SSTORE)
            bound[stmt.target.array.name].store(mem, stmt.target.offset, accs[k])
    else:
        for i in range(trip):
            for stmt in loop.statements:
                value = eval_expr(stmt.expr, i)
                counters.bump(SSTORE)
                bound[stmt.target.array.name].store(mem, i + stmt.target.offset, value)

    return ScalarRunResult(counters=counters, trip=trip,
                           data_count=trip * len(loop.statements))


def reference_counters(loop: Loop, trip: int) -> OpCounters:
    """The exact :class:`OpCounters` :func:`run_scalar` tallies, derived
    structurally — no execution.

    The scalar reference re-walks the statement bodies every iteration,
    so its dynamic counts are ``trip × (per-iteration statement counts)``
    plus, for reductions, the one-time accumulator load/store.  Batched
    scalar engines report these counters so OPD and speedup stay
    bit-identical to the oracle whichever engine produced the memory
    image (the cost model counts operations of the *loop*, not of the
    engine executing it).
    """
    counters = OpCounters()
    loads = arith = stores = fixed_loads = fixed_stores = 0
    for stmt in loop.statements:
        loads += len(stmt.loads())
        arith += sum(1 for n in stmt.expr.walk() if isinstance(n, BinOp))
        if isinstance(stmt, Reduction):
            arith += 1        # the accumulate op
            fixed_loads += 1  # initial accumulator load
            fixed_stores += 1 # final accumulator store
        else:
            stores += 1
    if loads * trip + fixed_loads:
        counters.bump(SLOAD, loads * trip + fixed_loads)
    if arith * trip:
        counters.bump(SARITH, arith * trip)
    if stores * trip + fixed_stores:
        counters.bump(SSTORE, stores * trip + fixed_stores)
    return counters


def ideal_scalar_ops(loop: Loop, trip: int) -> int:
    """Analytic ideal scalar op count (loads + arith + stores) — no execution."""
    return reference_counters(loop, trip).total


def ideal_scalar_opd(loop: Loop) -> float:
    """Ideal scalar operations per datum (trip-count independent)."""
    return ideal_scalar_ops(loop, trip=1) / len(loop.statements)
