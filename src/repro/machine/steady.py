"""The steady-state loop model shared by the numpy, jit and native tiers.

Every execution tier must leave memory exactly as the bytes oracle
(:mod:`repro.machine.interp`) does, and the array tiers must batch and
fall back on the same runs.  This module is the one place that says
how.  :mod:`~repro.machine.npbackend` interprets the model on every
run, :mod:`~repro.machine.jit` compiles it to Python source once per
program signature, and :mod:`~repro.machine.native` lowers it to C.

* :func:`analyze` is the structural batchability analysis.  A steady
  loop batches when its iteration byte stride ``step*D`` is a positive
  multiple of ``V`` (truncated windows then advance uniformly), its
  body and bottom hold only ``SetV``/``VStoreS`` statements over
  expression forms with a lane-wise batched form, each vector register
  is assigned at most once per iteration, and the register dependency
  graph is acyclic except for reduction self-cycles
  ``acc = op(acc, rhs)`` over an exactly reassociable op, which batch
  as a seeded lane-wise fold.  Its :class:`SteadyTable` holds the
  window table.
* :meth:`SteadyTable.window_bases` is the per-run window/collision
  check.  It raises :class:`Unbatchable` before anything is mutated,
  so the per-iteration fallback stays exact.
* :func:`amount` evaluates a steady shift amount or splice point,
  without counting it.
* The array-lane semantics work on ``uint8`` rows: shape ``(n, V)``,
  one row per iteration, or ``(1, V)`` for iteration-invariant values,
  which ufuncs and window stores broadcast.  :func:`binop`,
  :func:`fold`, :func:`iota` and :func:`splat` bind their compile-time
  constants once; :func:`window`, :func:`reg_row`, :func:`carried`,
  :func:`shiftpair` and :func:`splice` take everything per call.
* :func:`run_guarded` and :func:`run_steady` are the run skeleton: the
  guard check, then lb/ub and the batched call or the per-iteration
  fallback.  No tier counts: every result's counters come from
  :func:`repro.machine.interp.count_ops`.

This module is only imported when NumPy is present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.errors import MachineError
from repro.machine import interp
from repro.machine import vector as vec
from repro.machine.interp import VectorRunResult, run_vector
from repro.machine.npscalar import NumpyScalarBackend
from repro.machine.scalar import RunBindings
from repro.vir.vexpr import (
    SExpr,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
    walk,
)
from repro.vir.vstmt import SetV, VStoreS


class Unbatchable(Exception):
    """This run cannot batch.

    Raised only before any memory or register mutation, so the caller
    can fall back to exact per-iteration execution.
    """


#: Vector ops with a lane-wise batched form.
_LANE_OPS = frozenset(("add", "sub", "mul", "min", "max", "and", "or",
                       "xor", "avg", "sadd", "ssub"))

#: Reduction ops whose lane-wise fold is exact under reassociation:
#: add/mul are modular, min/max/and/or/xor are order-insensitive.
_FOLD_OPS = frozenset(("add", "mul", "min", "max", "and", "or", "xor"))


# ---------------------------------------------------------------------------
# Structural analysis and the window table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyTable:
    """The run-time half of a batchable steady loop (picklable).

    ``keys`` lists each accessed ``(array, elem)`` once.  A load or a
    store is ``(key index, statement position)``; window ``t`` of key
    ``k`` starts at ``bases[k] + t*stride``.
    """

    V: int
    step: int
    stride: int
    keys: tuple
    loads: tuple
    stores: tuple

    def window_bases(self, space, mem_size: int, lb: int,
                     n: int) -> tuple[list[int], bool]:
        """Check one run's windows: ``(bases, snapshot)``, or raise
        :class:`Unbatchable`.

        Windows are V-aligned and V bytes long, so two windows are equal
        or disjoint, and the windows of two accesses whose first windows
        lie ``d`` bytes apart meet iff ``d`` is a multiple of the stride
        and ``|d| <= (n-1)*stride``.  The rules:

        * every window of every access lies inside memory;
        * a load meeting a store is safe exactly when the interpreter's
          load observes pre-loop memory: the store happens in a later
          iteration (``d > 0``) or later in the same iteration
          (``d == 0``, the load's statement not after the store's; a
          storing statement's own loads evaluate before its write).
          Such loads read a pre-loop snapshot (``snapshot`` is True).
          The backward cases are flow dependences ``validate_loop``
          rejects; they are refused here so an invalid program still
          gets exact per-iteration semantics;
        * two store statements meeting across iterations interleave in
          program order, which a batch would not.  Identical first
          windows (``d == 0``) are safe: the later statement's whole
          batch wins either way.
        """
        V, stride = self.V, self.stride
        span = (n - 1) * stride
        bases = []
        for array, elem in self.keys:
            a0 = space[array].addr(lb + elem)
            a0 -= a0 % V
            if a0 < 0 or a0 + span + V > mem_size:
                raise Unbatchable
            bases.append(a0)
        snapshot = False
        for store, s_pos in self.stores:
            sa = bases[store]
            for load, l_pos in self.loads:
                d = bases[load] - sa
                if d % stride or abs(d) > span:
                    continue  # never the same window
                if d < 0 or (d == 0 and l_pos > s_pos):
                    raise Unbatchable
                snapshot = True
            for other, _ in self.stores:
                d = bases[other] - sa
                if d != 0 and d % stride == 0 and abs(d) <= span:
                    raise Unbatchable
        return bases, snapshot


@dataclass
class SteadyShape:
    """The structural analysis of a batchable steady loop."""

    seq: tuple        # body + bottom statements, in program order
    assign_pos: dict  # vector register -> defining position
    order: tuple      # SetV positions, every definer before its readers
    reductions: dict  # SetV position -> the rhs its fold reduces
    index: dict       # (array, elem) -> key index in table.keys
    table: SteadyTable


def analyze(program) -> SteadyShape | None:
    """The steady loop's structural analysis; None when no run batches."""
    loop = program.steady
    if loop is None or loop.step <= 0:
        return None
    V = program.V
    stride = loop.step * program.D
    if stride % V:
        return None
    seq = tuple(loop.body) + tuple(loop.bottom)
    assign_pos: dict[str, int] = {}
    index: dict[tuple, int] = {}
    loads: list = []
    stores: list = []

    def key(addr) -> int:
        return index.setdefault((addr.array, addr.elem), len(index))

    for pos, stmt in enumerate(seq):
        if isinstance(stmt, SetV):
            if stmt.reg in assign_pos:
                return None
            assign_pos[stmt.reg] = pos
            expr = stmt.expr
        elif isinstance(stmt, VStoreS):
            expr = stmt.src
        else:
            return None  # SetS or unknown: loop-variant scalar state
        for node in walk(expr):
            if isinstance(node, VLoadE):
                loads.append((key(node.addr), pos))
            elif isinstance(node, VBinE):
                if node.op.name not in _LANE_OPS:
                    return None
            elif not isinstance(
                node, (VRegE, VShiftPairE, VSpliceE, VSplatE, VIotaE)
            ):
                return None
        if isinstance(stmt, VStoreS):
            stores.append((key(stmt.addr), pos))

    reductions: dict[int, VExpr] = {}
    for pos, stmt in enumerate(seq):
        if isinstance(stmt, SetV):
            rhs = _fold_rhs(seq, pos)
            if rhs is not None:
                reductions[pos] = rhs
    order = _topo_order(seq, assign_pos, reductions)
    if order is None:
        return None
    table = SteadyTable(V, loop.step, stride, tuple(index), tuple(loads),
                        tuple(stores))
    return SteadyShape(seq, assign_pos, order, reductions, index, table)


def _fold_rhs(seq: tuple, pos: int) -> VExpr | None:
    """The foldable operand when ``seq[pos]`` is ``acc = op(acc, rhs)``.

    Requires an exactly reassociable op, the accumulator on exactly one
    side, and no other read of the accumulator anywhere in the steady
    sequence (rhs included): then the loop-carried self-cycle is a pure
    fold and the batch reduces the rhs block in one call.
    """
    stmt = seq[pos]
    expr = stmt.expr
    if not isinstance(expr, VBinE) or expr.op.name not in _FOLD_OPS:
        return None
    a_is_acc = isinstance(expr.a, VRegE) and expr.a.name == stmt.reg
    b_is_acc = isinstance(expr.b, VRegE) and expr.b.name == stmt.reg
    if a_is_acc == b_is_acc:  # both or neither
        return None
    rhs = expr.b if a_is_acc else expr.a
    if any(isinstance(n, VRegE) and n.name == stmt.reg for n in walk(rhs)):
        return None
    for other_pos, other in enumerate(seq):
        if other_pos == pos:
            continue
        e = other.expr if isinstance(other, SetV) else other.src
        if any(isinstance(n, VRegE) and n.name == stmt.reg for n in walk(e)):
            return None
    return rhs


def _topo_order(seq: tuple, assign_pos: dict[str, int],
                reductions: dict[int, VExpr]) -> tuple | None:
    """Order SetV positions so every read's defining rows exist first.

    Every register read — same-iteration or loop-carried — needs the
    *complete* rows of its defining statement, so each read is an edge
    definer -> reader.  A fold consumes its accumulator's self-read, so
    that self-edge is dropped; any other cycle has no batched form.
    """
    positions = sorted(assign_pos.values())
    indeg = {pos: 0 for pos in positions}
    adj: dict[int, list[int]] = {pos: [] for pos in positions}
    for pos in positions:
        for node in walk(seq[pos].expr):
            if isinstance(node, VRegE):
                src = assign_pos.get(node.name)
                if src == pos and pos in reductions:
                    continue  # the fold consumes the self-cycle
                if src is not None:
                    adj[src].append(pos)
                    indeg[pos] += 1
    ready = [pos for pos in positions if indeg[pos] == 0]
    order: list[int] = []
    while ready:
        pos = ready.pop()
        order.append(pos)
        for succ in adj[pos]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(positions):
        return None
    return tuple(order)


def amount(env, value, V: int, what: str) -> int:
    """A shift amount or splice point, literal or peeked, in ``[0, V]``."""
    if not isinstance(value, int):
        value = interp.peek_s(env, value)
    if not 0 <= value <= V:
        raise MachineError(f"{what} {value} outside [0, {V}]")
    return value


# ---------------------------------------------------------------------------
# Array-lane semantics on uint8 rows
# ---------------------------------------------------------------------------

def _lanes(rows: np.ndarray, fmt: str) -> np.ndarray:
    """Reinterpret uint8 rows as lanes; copies only when view() can't."""
    try:
        return rows.view(fmt)
    except ValueError:
        return np.ascontiguousarray(rows).view(fmt)


_BITWISE = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}
_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
          "min": np.minimum, "max": np.maximum}


def binop(name: str, dtype):
    """Lane-wise ``name`` on rows, matching BinaryOp.apply + DataType.wrap."""
    if name in _BITWISE:
        return _BITWISE[name]
    ufmt = f"<u{dtype.size}"
    lane_fmt = f"<i{dtype.size}" if dtype.signed else ufmt
    if name in ("add", "sub", "mul"):
        func = _ARITH[name]

        def modular(a, b):
            # Two's-complement wraparound == unsigned modular arithmetic.
            return func(_lanes(a, ufmt), _lanes(b, ufmt)).view(np.uint8)

        return modular
    if name in ("min", "max"):
        func = _ARITH[name]

        def ordered(a, b):
            return func(_lanes(a, lane_fmt),
                        _lanes(b, lane_fmt)).view(np.uint8)

        return ordered
    if name not in ("avg", "sadd", "ssub"):  # IR op set is closed
        raise MachineError(f"no batched lowering for vector op {name!r}")
    mask = (1 << dtype.bits) - 1
    lo, hi = dtype.min_value, dtype.max_value

    def saturating(a, b):
        wa = _lanes(a, lane_fmt).astype(np.int64)
        wb = _lanes(b, lane_fmt).astype(np.int64)
        if name == "avg":
            out = (wa + wb) >> 1  # arithmetic shift floors, like Python's >>
        elif name == "sadd":
            out = np.clip(wa + wb, lo, hi)
        else:  # ssub
            out = np.clip(wa - wb, lo, hi)
        out &= mask  # re-encode two's complement
        return out.astype(ufmt).view(np.uint8)

    return saturating


def fold(name: str, dtype, V: int):
    """``acc = op(acc, rhs)`` over all iterations as one lane-wise fold.

    The returned ``f(env, reg, rows, n)`` folds the rhs rows into the
    register's pre-loop value — exact because the permitted ops
    reassociate exactly — and returns the final value as ``(1, V)``:
    nothing else may read the accumulator.
    """
    if name in _BITWISE:
        ufunc, fmt = _BITWISE[name], None
    else:
        ufunc = _ARITH[name]
        sign = "i" if dtype.signed and name in ("min", "max") else "u"
        fmt = f"<{sign}{dtype.size}"

    def fold_rows(env, reg, rows, n):
        block = np.concatenate(
            (reg_row(env, reg, V), np.broadcast_to(rows, (n, V))), axis=0)
        if fmt is None:
            return ufunc.reduce(block, axis=0, keepdims=True)
        lanes = block.view(fmt)
        # Pin the accumulation dtype: add/multiply.reduce would otherwise
        # promote narrow lanes to the platform int and lose the wraparound.
        out = ufunc.reduce(lanes, axis=0, keepdims=True, dtype=lanes.dtype)
        return out.view(np.uint8)

    return fold_rows


def iota(bias: int, dtype, step: int, V: int):
    """``viota(i + bias)`` rows for ``i = lb, lb+step, ...``: ``f(lb, n)``."""
    B = V // dtype.size
    mask = (1 << dtype.bits) - 1
    fmt = f"<u{dtype.size}"

    def iota_rows(lb, n):
        i_vals = lb + step * np.arange(n, dtype=np.int64)
        m = (i_vals + bias) * dtype.size // V  # numpy // floors like Python
        lanes = m[:, None] * B + np.arange(B, dtype=np.int64)
        lanes &= mask  # modular wrap, like DataType.wrap
        return lanes.astype(fmt).view(np.uint8)

    return iota_rows


def splat(operand: SExpr, dtype, V: int):
    """The invariant row of ``vsplat(operand)``: ``f(env)``."""
    def splat_row(env):
        data = vec.vsplat(dtype.wrap(interp.peek_s(env, operand)), dtype, V)
        return np.frombuffer(data, dtype=np.uint8).reshape(1, V)

    return splat_row


def reg_row(env, name: str, V: int) -> np.ndarray:
    """A register's current value as one invariant row."""
    return np.frombuffer(interp.read_vreg(env, name),
                         dtype=np.uint8).reshape(1, V)


def carried(env, name: str, rows: np.ndarray, n: int, V: int) -> np.ndarray:
    """A loop-carried read: row ``t`` holds iteration ``t-1``'s value,
    row 0 the register's pre-loop value."""
    full = np.broadcast_to(rows, (n, V))
    return np.concatenate((reg_row(env, name, V), full[:-1]), axis=0)


def window(buffer: np.ndarray, a0: int, n: int, stride: int,
           V: int) -> np.ndarray:
    """An access's truncated V-byte window per iteration, as ``(n, V)``.

    A strided view of ``buffer``; the ndarray constructor checks the
    extent and costs a fifth of ``as_strided``.
    """
    return np.ndarray((n, V), np.uint8, buffer, a0, (stride, 1))


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast an invariant row against a variant block."""
    if a.shape[0] == b.shape[0]:
        return a, b
    rows = max(a.shape[0], b.shape[0])
    return (np.broadcast_to(a, (rows, a.shape[1])),
            np.broadcast_to(b, (rows, b.shape[1])))


def shiftpair(a: np.ndarray, b: np.ndarray, shift: int,
              V: int) -> np.ndarray:
    """``vshiftpair`` per row: bytes ``shift .. shift+V`` of ``a ‖ b``."""
    a, b = _pair(a, b)
    return np.concatenate((a, b), axis=1)[:, shift:shift + V]


def splice(a: np.ndarray, b: np.ndarray, point: int) -> np.ndarray:
    """``vsplice`` per row: ``a``'s bytes before ``point``, then ``b``'s."""
    a, b = _pair(a, b)
    return np.concatenate((a[:, :point], b[:, point:]), axis=1)


def buffers(table: SteadyTable, env, lb: int, n: int):
    """Check one run and expose memory: ``(bases, mem_u8, read_u8)``.

    ``read_u8`` serves the loads: loads never observe the batch's own
    stores (:meth:`SteadyTable.window_bases`), so when a store window
    meets a load window they read one pre-loop snapshot, otherwise the
    live memory.  Raises :class:`Unbatchable` before any mutation.
    """
    bases, snapshot = table.window_bases(env.space, env.mem.size, lb, n)
    mem_u8 = np.frombuffer(env.mem.raw(), dtype=np.uint8)
    return bases, mem_u8, (mem_u8.copy() if snapshot else mem_u8)


# ---------------------------------------------------------------------------
# The run skeleton
# ---------------------------------------------------------------------------

def run_guarded(program, space, mem, bindings, trace,
                finish) -> VectorRunResult:
    """One run's guard check, then ``finish(env)``.

    The same skeleton as :func:`repro.machine.interp.run_vector`: at or
    below the runtime guard's trip the scalar loop runs, on the batched
    scalar engine, whose memory is the oracle's.  ``finish`` runs the
    preheader, sections and steady loop and returns whether the
    per-iteration fallback ran.  The counters come from
    :func:`~repro.machine.interp.count_ops`, after the run, so a run
    that raises raises what the tier raised.  Traced runs stay on the
    byte interpreter: batched execution has no per-access event stream.
    """
    if trace is not None:
        return run_vector(program, space, mem, bindings, trace)
    faults.fault("execute")  # before any state mutates: degradation-safe
    env = interp.Env(program, space, mem, bindings or RunBindings(), None)
    if (program.guard_min_trip is not None
            and env.trip <= program.guard_min_trip):
        NumpyScalarBackend().run(program.source, space, mem, env.bindings)
        fell_back = True
    else:
        fell_back = finish(env)
    return VectorRunResult(interp.count_ops(program, space, env.bindings),
                           env.trip, used_fallback=fell_back)


def run_steady(env, loop, execute) -> bool:
    """The steady loop, batched when it can be; True when the
    per-iteration path ran.

    ``execute(env, lb, n)`` is a tier's batched loop for a program
    :func:`analyze` accepted (None otherwise); it raises
    :class:`Unbatchable` before any mutation when this run cannot
    batch.  The per-iteration path runs the interpreter's own
    statement helpers.
    """
    lb = interp.peek_s(env, loop.lb)
    ub = interp.peek_s(env, loop.ub)
    if loop.step > 0:
        n = len(range(lb, ub, loop.step))
        if n == 0:
            return False
        if execute is not None:
            try:
                execute(env, lb, n)
            except Unbatchable:
                pass  # nothing mutated yet: replay per iteration
            else:
                return False
    for i in range(lb, ub, loop.step):
        interp.exec_stmts(env, loop.body, i)
        interp.exec_stmts(env, loop.bottom, i)
    return True
