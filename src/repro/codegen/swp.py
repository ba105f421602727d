"""Software-pipelined expression generation (paper Figure 10).

A stream shift combines two adjacent registers of its source stream:
``first`` (smaller iteration) and ``second`` (larger iteration).  The
pipelined generator computes only ``second`` inside the steady-state
loop, holds it in a loop-carried register, and turns this iteration's
``second`` into the next iteration's ``first`` with a bottom-of-loop
copy — so data of a static stream is loaded exactly once in steady
state (the paper's no-reload guarantee).  The copies themselves are
later removed by the unroll pass's register rotation, as the paper
removes them by unrolling plus forward propagation.

The paper spills ``first``/``second`` through stack locals ``old`` and
``new``; we keep them in virtual vector registers, which is what the
register allocator of the real back end achieves anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.context import CodegenCtx
from repro.codegen.exprgen import gen_expr, gen_splat, plan_shift, fold_op
from repro.errors import CodegenError
from repro.reorg.graph import RIota, RLoad, RNode, ROp, RShiftStream, RSplat
from repro.vir.vexpr import Addr, VExpr, VIotaE, VLoadE, VRegE, VShiftPairE
from repro.vir.vstmt import SetV, VStmt


@dataclass
class SwpPieces:
    """Statements produced around a pipelined expression.

    ``init`` runs once, in a prologue section executed with the loop
    counter at the steady-state lower bound; ``body`` and ``bottom``
    run every steady-state iteration (``bottom`` holds the carried
    copies).
    """

    init: list[VStmt] = field(default_factory=list)
    body: list[VStmt] = field(default_factory=list)
    bottom: list[VStmt] = field(default_factory=list)
    #: (shift node, displacement) -> shared vshiftpair result, so equal
    #: shifts across statements reuse one carried register pair.
    cache: dict[object, VExpr] = field(default_factory=dict)


def gen_expr_sp(
    ctx: CodegenCtx, node: RNode, disp: int, residue: int, pieces: SwpPieces
) -> VExpr:
    """Software-pipelined ``GenSimdExprSP`` (Figure 10)."""
    if isinstance(node, RLoad):
        return VLoadE(Addr(node.ref.array.name, node.ref.offset + disp))
    if isinstance(node, RSplat):
        return gen_splat(ctx, node)
    if isinstance(node, RIota):
        return VIotaE(disp, ctx.loop.dtype)
    if isinstance(node, ROp):
        inputs = [gen_expr_sp(ctx, child, disp, residue, pieces) for child in node.inputs]
        return fold_op(node, inputs)
    if isinstance(node, RShiftStream):
        return gen_shift_stream_sp(ctx, node, disp, residue, pieces)
    raise CodegenError(f"unknown graph node {type(node).__name__}")


def gen_shift_stream_sp(
    ctx: CodegenCtx, node: RShiftStream, disp: int, residue: int, pieces: SwpPieces
) -> VExpr:
    """Pipelined stream shift: carry ``second`` to the next iteration.

    Identical (structurally equal) shifts at the same displacement —
    e.g. the same array reference appearing in several statements —
    share one carried register pair, so their stream is loaded once.
    """
    plan = plan_shift(ctx, node, residue)
    if plan is None:
        return gen_expr_sp(ctx, node.src, disp, residue, pieces)

    cache_key = (node, disp)
    cached = pieces.cache.get(cache_key)
    if cached is not None:
        return cached

    first_disp = disp + plan.k0 * ctx.B
    second_disp = first_disp + ctx.B

    old = ctx.fresh("vold")
    new = ctx.fresh("vnew")
    # first: precomputed non-pipelined, stored to `old` in the prologue
    # (Figure 10 lines 12/15/17).
    first = gen_expr(ctx, node.src, first_disp, residue)
    pieces.init.append(SetV(old, first))
    # second: computed pipelined inside the loop, stored to `new`
    # (lines 13/16/18).
    second = gen_expr_sp(ctx, node.src, second_disp, residue, pieces)
    pieces.body.append(SetV(new, second))
    # copy `new` to `old` at the bottom of the loop (line 19).
    pieces.bottom.append(SetV(old, VRegE(new)))
    result = VShiftPairE(VRegE(old), VRegE(new), plan.amount)
    pieces.cache[cache_key] = result
    return result
