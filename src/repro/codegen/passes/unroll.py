"""Steady-loop unrolling with register rotation.

The paper removes the software-pipelining copy operations "by unrolling
the loop twice and forward propagating the copy".  This pass implements
the general form: unroll the steady loop by a factor ``U``, symbolically
forward-propagating the bottom-of-loop copies through the unrolled
instances and renaming so that each loop-carried register's final value
is produced directly into that register whenever safe.  For the
software-pipelined ``old``/``new`` pairs any even factor eliminates
every copy; longer predictive-commoning rotation chains keep at most
``chain_length − 1`` residual copies per ``U`` iterations.

Iterations that do not fill a whole unrolled step run in conditional
fix-up sections between the loop and the epilogue (using the original,
non-unrolled body so the carried state stays in the canonical
registers).
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.vir.program import VProgram
from repro.vir.vexpr import (
    BINARY_KINDS,
    SConst,
    SExpr,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    map_operands,
    s_add,
    s_bin,
    s_div,
    s_mod,
    s_mul,
    s_sub,
)
from repro.vir.vstmt import Section, SetV, VStmt, VStoreS


def unroll_steady(program: VProgram, factor: int) -> VProgram:
    """Unroll the steady loop by ``factor`` (> 1)."""
    if factor <= 1:
        return program
    steady = program.steady
    if steady is None:
        return program
    if any(not isinstance(s, (SetV, VStoreS)) for s in steady.body + steady.bottom):
        raise CodegenError("unroll expects a body of vector defs and stores")
    for stmt in steady.bottom:
        if not (isinstance(stmt, SetV) and stmt.is_copy):
            raise CodegenError("unroll expects only register copies at the bottom")

    B = steady.step
    carried = _carried_regs(steady.body, steady.bottom)
    original_body = list(steady.body)
    original_bottom = list(steady.bottom)

    new_body, final_env, last_original_read = _expand(
        steady.body, steady.bottom, factor, B
    )
    new_body, residual = _finalize_carried(new_body, final_env, carried, last_original_read)

    # Bounds: the unrolled loop runs floor(N / U) steps of U iterations.
    n_iter = _iter_count(steady.lb, steady.ub, B)
    full = s_sub(n_iter, s_mod(n_iter, SConst(factor)))
    new_ub = s_add(steady.lb, s_mul(full, SConst(B)))

    # Fix-up sections for the N mod U leftover iterations.
    leftover = s_mod(n_iter, SConst(factor))
    fixups: list[Section] = []
    for j in range(factor - 1):
        cond = s_bin("gt", leftover, SConst(j))
        if isinstance(cond, SConst) and cond.value == 0:
            continue
        i_expr = s_add(steady.lb, s_mul(s_add(full, SConst(j)), SConst(B)))
        fixups.append(
            Section(
                f"unroll_fixup_{j}",
                stmts=list(original_body) + list(original_bottom),
                i_expr=i_expr,
                cond=None if isinstance(cond, SConst) else cond,
            )
        )

    steady.body = new_body
    steady.bottom = residual
    steady.ub = new_ub
    steady.step = B * factor
    program.epilogue = fixups + program.epilogue
    program.unroll = factor
    return program


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _iter_count(lb: SExpr, ub: SExpr, step: int) -> SExpr:
    """``max(0, ceil((ub - lb) / step))`` as a folding scalar expression."""
    span = s_sub(ub, lb)
    raw = s_div(s_add(span, SConst(step - 1)), SConst(step))
    return s_bin("max", raw, SConst(0))


def _carried_regs(body: list[VStmt], bottom: list[VStmt]) -> set[str]:
    """Registers read before being (re)defined across one iteration."""
    defined: set[str] = set()
    carried: set[str] = set()
    for stmt in body + bottom:
        expr = stmt.expr if isinstance(stmt, SetV) else stmt.src  # type: ignore[union-attr]
        for name in _reg_reads(expr):
            if name not in defined:
                carried.add(name)
        if isinstance(stmt, SetV):
            defined.add(stmt.reg)
    return carried


def _reg_reads(expr: VExpr) -> list[str]:
    """The names of the registers ``expr`` reads, one per read."""
    names: list[str] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is VRegE:
            names.append(node.name)
        elif type(node) in BINARY_KINDS:
            stack.append(node.b)
            stack.append(node.a)
    return names


def _expand(
    body: list[VStmt], bottom: list[VStmt], factor: int, B: int
) -> tuple[list[VStmt], dict[str, VExpr], dict[str, int]]:
    """Emit ``factor`` renamed instances, propagating bottom copies.

    Returns the new statement list, the final value of every register
    name (as an operand), and — for safety analysis — the position of
    the last read of each *original* (unversioned) register name.
    """
    env: dict[str, VExpr] = {}
    out: list[VStmt] = []
    last_original_read: dict[str, int] = {}
    delta = 0

    def note_reads(expr: VExpr) -> None:
        for name in _reg_reads(expr):
            last_original_read[name] = len(out)

    def subst(expr: VExpr) -> VExpr:
        """Displace addresses by ``delta`` elements and resolve register reads."""
        kind = type(expr)
        if kind is VLoadE:
            return VLoadE(expr.addr.displaced(delta)) if delta else expr
        if kind is VIotaE:
            return VIotaE(expr.bias + delta, expr.dtype) if delta else expr
        if kind is VRegE:
            return env.get(expr.name, expr)
        return map_operands(expr, subst)

    for u in range(factor):
        delta = u * B
        for stmt in body:
            if isinstance(stmt, SetV):
                rhs = subst(stmt.expr)
                note_reads(rhs)
                versioned = f"{stmt.reg}.u{u}"
                out.append(SetV(versioned, rhs))
                env[stmt.reg] = VRegE(versioned)
            elif isinstance(stmt, VStoreS):
                rhs = subst(stmt.src)
                note_reads(rhs)
                out.append(VStoreS(stmt.addr.displaced(delta), rhs))
        for stmt in bottom:
            assert isinstance(stmt, SetV) and isinstance(stmt.expr, VRegE)
            env[stmt.reg] = env.get(stmt.expr.name, VRegE(stmt.expr.name))
    return out, env, last_original_read


def _finalize_carried(
    body: list[VStmt],
    env: dict[str, VExpr],
    carried: set[str],
    last_original_read: dict[str, int],
) -> tuple[list[VStmt], list[VStmt]]:
    """Rename final defs back to carried registers, or emit residual copies.

    Renaming a versioned definition to the carried name is safe only if
    every read of the carried register's *incoming* value happens before
    that definition (otherwise the redefined value would be observed too
    early) — a residual copy of that incoming value included — and no
    other carried register claims the same definition.
    """
    def_pos = {s.reg: k for k, s in enumerate(body) if isinstance(s, SetV)}
    rename: dict[str, str] = {}
    residual: list[VStmt] = []
    claimed: set[str] = set()
    # Carried registers whose incoming value a residual copy reads.
    copied = {env[reg].name for reg in carried
              if isinstance(env.get(reg), VRegE)
              and env[reg].name not in def_pos}

    for reg in sorted(carried):
        final = env.get(reg)
        if final is None or (isinstance(final, VRegE) and final.name == reg):
            continue
        assert isinstance(final, VRegE)
        source = final.name
        pos = def_pos.get(source)
        safe = (
            pos is not None
            and source not in claimed
            and last_original_read.get(reg, -1) < pos
            and reg not in copied
        )
        if safe:
            rename[source] = reg
            claimed.add(source)
        else:
            residual.append(SetV(reg, VRegE(source)))

    if not rename:
        return body, _sequence(residual)

    def rn_expr(expr: VExpr) -> VExpr:
        if type(expr) is VRegE:
            name = rename.get(expr.name)
            return expr if name is None else VRegE(name)
        return map_operands(expr, rn_expr)

    renamed_body: list[VStmt] = []
    for stmt in body:
        if isinstance(stmt, SetV):
            renamed_body.append(SetV(rename.get(stmt.reg, stmt.reg), rn_expr(stmt.expr)))
        else:
            assert isinstance(stmt, VStoreS)
            renamed_body.append(VStoreS(stmt.addr, rn_expr(stmt.src)))
    residual = [SetV(s.reg, rn_expr(s.expr)) for s in residual]  # type: ignore[arg-type]
    return renamed_body, _sequence(residual)


def _sequence(copies: list[VStmt]) -> list[VStmt]:
    """Order the residual copies, which act as one parallel copy, so
    that no copy overwrites a register another copy has yet to read.

    Each step takes the first copy in the given order whose target no
    other pending copy reads, so an order that is already safe stays as
    it is.
    """
    pending = list(copies)
    ordered: list[VStmt] = []
    while pending:
        for k, copy in enumerate(pending):
            if not any(other.expr.name == copy.reg  # type: ignore[union-attr]
                       for other in pending if other is not copy):
                break
        else:
            raise CodegenError("residual register copies form a cycle")
        ordered.append(pending.pop(k))
    return ordered
