"""Memory normalization (paper Section 5.5, *MemNorm*).

"Addresses used in vector memory operations are normalized to their
lower 16-byte aligned memory locations to facilitate traditional
redundancy elimination."

A truncating vector load at ``base + (i + e)·D`` reads the same aligned
vector as the load at ``base + (i + e − lane)·D`` where ``lane`` is the
element's position within its vector.  Rewriting every load to the
normalized (lane-0) form is semantically a no-op on this hardware but
makes loads that hit the same vector *structurally equal*, so the CSE
pass merges them — e.g. ``a[i]`` and ``a[i+1]`` when both fall in one
16-byte line.

The lane is compile-time computable only when the array's base
alignment is declared and the section's loop-counter residue modulo
``B`` is known; other loads are left untouched.
"""

from __future__ import annotations

from repro.ir.expr import ArrayDecl
from repro.vir.program import VProgram
from repro.vir.vexpr import Addr, SConst, VExpr, VLoadE, map_operands
from repro.vir.vstmt import VStmt, map_expr


def normalize_memory(program: VProgram) -> VProgram:
    arrays = {arr.name: arr for arr in program.source.arrays()}
    B = program.B

    if program.steady is not None:
        residue = program.steady_residue
        program.steady.body = _normalize_stmts(program.steady.body, arrays, B, residue)
    for sec in program.prologue + program.epilogue:
        if isinstance(sec.i_expr, SConst):
            residue = sec.i_expr.value % B
            sec.stmts = _normalize_stmts(sec.stmts, arrays, B, residue)
    return program


def _normalize_stmts(
    stmts: list[VStmt], arrays: dict[str, ArrayDecl], B: int, residue: int
) -> list[VStmt]:
    def rewrite(expr: VExpr) -> VExpr:
        if type(expr) is not VLoadE:
            return map_operands(expr, rewrite)
        addr = expr.addr
        decl = arrays.get(addr.array)
        if decl is None or decl.align is None:
            return expr
        lane = (decl.align // decl.dtype.size + addr.elem + residue) % B
        return VLoadE(Addr(addr.array, addr.elem - lane)) if lane else expr

    # Store addresses keep their natural form; stores are unique per
    # statement so normalization buys no redundancy there.
    return [map_expr(stmt, rewrite) for stmt in stmts]
