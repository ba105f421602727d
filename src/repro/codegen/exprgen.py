"""Expression code generation: the paper's ``GenSimdExpr`` (Figure 7).

The generator lowers reorganization-graph nodes to vector-IR
expressions.  The interesting case is ``vshiftstream``, which is
realized as a ``vshiftpair`` of two *adjacent registers* of the source
stream — the paper's current/next pair for left shifts and
previous/current pair for right shifts.

One generalization over the paper's Figure 7 pseudocode is needed for
full correctness: *which* two adjacent registers are combined depends
on the residue of the loop counter modulo the blocking factor.  The
paper's prev/curr / curr/next choice is exact when the counter is a
multiple of ``B`` (the multi-statement scheme, ``LB = B``), but the
single-statement scheme starts the steady loop at ``LB = (V − P)/D``
which is generally *not* ≡ 0 (mod B), shifting every stream's
effective byte offset by ``(LB·D) mod V``.  We therefore compute a
register-pair index ``k0`` and emit

    vshiftpair(gen(i + k0·B), gen(i + (k0+1)·B), (From − To) mod V)

with (all arithmetic in bytes, ``ρ = ((i mod B)·D) mod V`` the
section's counter residue, ``δ = From − To``):

    k0 = ⌊((From + ρ) mod V − δ) / V⌋ + ⌊δ / V⌋  ∈  {−1, 0}

which reduces to the paper's rule for ``ρ = 0``.  Under runtime
alignments only the zero-shift policy is allowed and the general
scheme guarantees ``ρ = 0``: loads shift left with ``k0 = 0`` and
amount ``From``; stores shift right with ``k0 = −1`` and amount
``V − To`` (which degenerates to selecting the current register when
``To == 0`` — see ``DESIGN.md`` §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.offsets import KnownOffset, RuntimeOffset
from repro.errors import CodegenError
from repro.ir.expr import Const, ScalarVar
from repro.codegen.context import CodegenCtx
from repro.reorg.graph import RIota, RLoad, RNode, ROp, RShiftStream, RSplat
from repro.vir.vexpr import (
    Addr,
    SConst,
    SExpr,
    SVar,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VShiftPairE,
    VSplatE,
    s_sub,
)


@dataclass(frozen=True)
class ShiftPlan:
    """Compile-time decision for one stream shift.

    The ``vshiftpair`` combines the source stream's registers at
    displacements ``k0·B`` and ``(k0+1)·B``; ``amount`` is the byte
    count, an int or a hoisted scalar register.  ``None`` as a plan
    means the shift is a compile-time no-op.
    """

    k0: int
    amount: int | SExpr


def plan_shift(ctx: CodegenCtx, node: RShiftStream, residue: int) -> ShiftPlan | None:
    """Decide register pair and amount for a ``vshiftstream`` node.

    ``residue`` is the loop-counter residue (in elements, mod B) of the
    program point the generated code will execute at.  Memoized per
    node and residue in ``ctx.plans``.
    """
    key = (id(node), residue)
    if key not in ctx.plans:
        ctx.plans[key] = (node, _plan_shift(ctx, node, residue))
    return ctx.plans[key][1]


def _plan_shift(ctx: CodegenCtx, node: RShiftStream, residue: int) -> ShiftPlan | None:
    V = ctx.V
    rho = (residue % ctx.B) * ctx.D
    src_off = node.src.offset(V)
    to = node.to

    if isinstance(src_off, KnownOffset) and isinstance(to, KnownOffset):
        if src_off.value == to.value:
            return None
        delta = src_off.value - to.value  # in (-V, V), nonzero
        amount = delta % V
        r = (src_off.value + rho) % V
        k0 = (r - delta) // V + (delta // V)
        return ShiftPlan(k0, amount)

    if rho != 0:
        raise CodegenError(
            "runtime stream shifts require a counter residue of 0 "
            "(the general bounds scheme)"
        )

    if isinstance(src_off, RuntimeOffset) and to == KnownOffset(0):
        # Misaligned load shifted to zero: left shift of the
        # current/next pair by the runtime offset itself.
        return ShiftPlan(0, ctx.offset_sexpr(src_off))

    if src_off == KnownOffset(0) and isinstance(to, RuntimeOffset):
        # Stream shifted from zero to the store's runtime alignment:
        # right shift of the previous/current pair by V - To.
        to_expr = ctx.offset_sexpr(to)
        amount = ctx.hoist(("rsh", to.array, to.residue), "sh_",
                           s_sub(SConst(V), to_expr))
        return ShiftPlan(-1, amount)

    raise CodegenError(
        f"cannot determine shift operands from {src_off} to {to} at compile "
        "time; runtime alignments require the zero-shift policy (Section 4.4)"
    )


def gen_expr(ctx: CodegenCtx, node: RNode, disp: int = 0, residue: int = 0) -> VExpr:
    """Non-pipelined ``GenSimdExpr``: lower ``node`` displaced by ``disp``
    elements (``disp = k*B`` realizes the paper's ``i -> i + kB``) for a
    program point whose counter is ≡ ``residue`` (mod B).

    Each (node, displacement, residue) is lowered once per run
    (``ctx.lowered``); later requests share the expression."""
    key = (id(node), disp, residue)
    done = ctx.lowered.get(key)
    if done is not None:
        return done[1]
    if isinstance(node, RLoad):
        expr: VExpr = VLoadE(Addr(node.ref.array.name, node.ref.offset + disp))
    elif isinstance(node, RSplat):
        expr = gen_splat(ctx, node)
    elif isinstance(node, RIota):
        expr = VIotaE(disp, ctx.loop.dtype)
    elif isinstance(node, ROp):
        expr = fold_op(node, [gen_expr(ctx, child, disp, residue) for child in node.inputs])
    elif isinstance(node, RShiftStream):
        expr = gen_shift_stream(ctx, node, disp, residue)
    else:
        raise CodegenError(f"unknown graph node {type(node).__name__}")
    ctx.lowered[key] = (node, expr)
    return expr


def gen_splat(ctx: CodegenCtx, node: RSplat) -> VExpr:
    if isinstance(node.operand, Const):
        operand: SExpr = SConst(ctx.loop.dtype.wrap(node.operand.value))
    elif isinstance(node.operand, ScalarVar):
        operand = SVar(node.operand.name)
    else:
        raise CodegenError(f"bad splat operand {node.operand}")
    return VSplatE(operand, ctx.loop.dtype)


def gen_shift_stream(ctx: CodegenCtx, node: RShiftStream, disp: int, residue: int) -> VExpr:
    """Lower a stream shift by combining two adjacent stream registers."""
    plan = plan_shift(ctx, node, residue)
    if plan is None:
        return gen_expr(ctx, node.src, disp, residue)
    lo = gen_expr(ctx, node.src, disp + plan.k0 * ctx.B, residue)
    hi = gen_expr(ctx, node.src, disp + (plan.k0 + 1) * ctx.B, residue)
    return VShiftPairE(lo, hi, plan.amount)


def fold_op(node: ROp, inputs: list[VExpr]) -> VExpr:
    """Combine n-ary graph inputs into binary vector arithmetic."""
    if not inputs:
        raise CodegenError(f"operation {node} has no inputs")
    result = inputs[0]
    for operand in inputs[1:]:
        result = VBinE(node.op, result, operand, node.dtype)
    return result
