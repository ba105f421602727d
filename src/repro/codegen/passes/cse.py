"""Local common-subexpression elimination and invariant hoisting.

Two redundancy eliminations on the steady-state body:

* **loop-invariant hoisting** — pure vector subexpressions that do not
  depend on the loop counter (splats of constants or runtime scalars,
  and arithmetic over them) are computed once in the preheader;
* **CSE** — pure subexpressions occurring more than once in the body
  (typically identical truncating loads after memory normalization,
  and identical shift expressions across statements) are computed once
  into a temporary register.

Only *pure* expressions (no register references) participate: a
register may be redefined between two structurally equal reads, so
merging impure expressions would need dataflow reasoning that local
value numbering does not provide.  Prologue and epilogue sections get
the same treatment independently (they execute at different loop
counter values, so sharing across sections would be wrong).
"""

from __future__ import annotations

from repro.vir.program import VProgram
from repro.vir.vexpr import ExprFacts, VExpr, VRegE, map_operands
from repro.vir.vstmt import SetV, VStmt, VStoreS, map_expr


def eliminate_common_subexprs(program: VProgram) -> VProgram:
    """Hoist invariants to the preheader; CSE the body and each section."""
    facts = ExprFacts()
    if program.steady is not None:
        hoisted = _hoist_invariants(program, program.steady.body, facts)
        program.steady.body = _cse_stmts(program, hoisted, "vcse_", facts)
    for sec in program.prologue + program.epilogue:
        sec.stmts = _cse_stmts(program, sec.stmts, f"vcse_{sec.label}_", facts)
    return program


# ---------------------------------------------------------------------------
# Invariant hoisting
# ---------------------------------------------------------------------------

def _hoist_invariants(program: VProgram, stmts: list[VStmt], facts: ExprFacts) -> list[VStmt]:
    """Replace each invariant (pure and independent of the loop counter:
    splats and arithmetic over them) by a preheader register."""
    mapping: dict[int, VRegE] = {}

    def rewrite(expr: VExpr) -> VExpr:
        n = facts.number(expr)
        if not facts.splats[n]:
            return expr     # invariants are built from splats
        if facts.pure[n] and not facts.varying[n]:
            reg = mapping.get(n)
            if reg is None:
                name = program.fresh_temp("cse", "vinv")
                program.preheader.append(SetV(name, expr))
                reg = mapping[n] = VRegE(name)
            return reg
        return map_operands(expr, rewrite)

    return [map_expr(stmt, rewrite) for stmt in stmts]


# ---------------------------------------------------------------------------
# CSE proper
# ---------------------------------------------------------------------------

def _cse_stmts(
    program: VProgram, stmts: list[VStmt], prefix: str, facts: ExprFacts
) -> list[VStmt]:
    counts: dict[int, int] = {}
    pure, operands = facts.pure, facts.operands
    for stmt in stmts:
        expr = _stmt_expr(stmt)
        if expr is None:
            continue
        stack = [facts.number(expr)]
        while stack:
            n = stack.pop()
            if pure[n]:
                counts[n] = counts.get(n, 0) + 1
            stack += operands[n]

    defined: dict[int, VRegE] = {}
    out: list[VStmt] = []

    def rewrite(expr: VExpr) -> VExpr:
        n = facts.number(expr)
        reg = defined.get(n)
        if reg is not None:
            return reg
        if counts.get(n, 0) >= 2:
            name = program.fresh_temp("cse", prefix)
            out.append(SetV(name, map_operands(expr, rewrite)))
            reg = defined[n] = VRegE(name)
            return reg
        return map_operands(expr, rewrite)

    for stmt in stmts:
        out.append(map_expr(stmt, rewrite))
    return out


def _stmt_expr(stmt: VStmt) -> VExpr | None:
    if isinstance(stmt, SetV):
        return stmt.expr
    if isinstance(stmt, VStoreS):
        return stmt.src
    return None
