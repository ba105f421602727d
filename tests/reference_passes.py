"""Reference implementations of predictive commoning, CSE and DCE.

These are the straightforward forms of the three vector-IR passes:
every question about a node (is it pure, does it depend on the loop
counter, what is its successor ``e[i+B]``) is answered by walking or
rebuilding its subtree again, and DCE rescans the whole program until
nothing changes.  They are quadratic, and kept here only as an oracle:
``test_lowering.py`` lowers random loops with the library's passes and
with these, and the printed programs must match.

Temporaries are numbered per program on both sides: each pass takes a
fresh counter per call, as the library does per program.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from repro.vir.program import VProgram
from repro.vir.vexpr import (
    SBin,
    SExpr,
    SReg,
    VBinE,
    VExpr,
    VIotaE,
    VLoadE,
    VRegE,
    VShiftPairE,
    VSpliceE,
    VSplatE,
    displace,
    is_pure,
    walk,
)
from repro.vir.vstmt import Section, SetS, SetV, VStmt, VStoreS


def _namer():
    numbers = count(1)
    return lambda prefix: f"{prefix}{next(numbers)}"


def _rebuild(expr: VExpr, rewrite) -> VExpr:
    if isinstance(expr, VBinE):
        return VBinE(expr.op, rewrite(expr.a), rewrite(expr.b), expr.dtype)
    if isinstance(expr, VShiftPairE):
        return VShiftPairE(rewrite(expr.a), rewrite(expr.b), expr.shift)
    if isinstance(expr, VSpliceE):
        return VSpliceE(rewrite(expr.a), rewrite(expr.b), expr.point)
    return expr


def _rewrite_stmts(stmts: list[VStmt], rewrite) -> list[VStmt]:
    out: list[VStmt] = []
    for stmt in stmts:
        if isinstance(stmt, SetV) and not stmt.is_copy:
            out.append(SetV(stmt.reg, rewrite(stmt.expr)))
        elif isinstance(stmt, VStoreS):
            out.append(VStoreS(stmt.addr, rewrite(stmt.src)))
        else:
            out.append(stmt)
    return out


# ---------------------------------------------------------------------------
# Predictive commoning
# ---------------------------------------------------------------------------

def predictive_commoning(program: VProgram, max_rounds: int = 64) -> VProgram:
    steady = program.steady
    if steady is None:
        return program
    fresh = _namer()
    init_stmts: list[VStmt] = []
    for _ in range(max_rounds):
        chain = _best_chain(steady.body, program.B)
        if chain is None:
            break
        _apply_chain(program, chain, init_stmts, fresh)
    if init_stmts:
        program.prologue.append(Section("pc_init", stmts=init_stmts, i_expr=steady.lb))
    return program


def _pc_stmt_expr(stmt: VStmt) -> VExpr | None:
    if isinstance(stmt, SetV) and not stmt.is_copy:
        return stmt.expr
    if isinstance(stmt, VStoreS):
        return stmt.src
    return None


def _depends_on_i(expr: VExpr) -> bool:
    return any(isinstance(n, (VLoadE, VIotaE)) for n in walk(expr))


def _best_chain(body: list[VStmt], B: int) -> list[VExpr] | None:
    present: Counter[VExpr] = Counter()
    for stmt in body:
        expr = _pc_stmt_expr(stmt)
        if expr is not None:
            for node in walk(expr):
                if is_pure(node) and _depends_on_i(node):
                    present[node] += 1
    chains: list[list[VExpr]] = []
    for expr in present:
        if displace(expr, -B) in present:
            continue
        succ = displace(expr, B)
        if succ not in present:
            continue
        chain = [expr]
        while succ in present:
            chain.append(succ)
            succ = displace(succ, B)
        chains.append(chain)
    if not chains:
        return None

    def profit(chain: list[VExpr]) -> tuple[int, int]:
        size = sum(1 for _ in walk(chain[0]))
        return ((len(chain) - 1) * size, size)

    return max(chains, key=profit)


def _apply_chain(program, chain, init_stmts, fresh) -> None:
    steady = program.steady
    m = len(chain) - 1
    regs = [fresh("vpc") for _ in chain]
    replacement = {chain[k]: VRegE(regs[k]) for k in range(len(chain))}

    def rewrite(expr: VExpr) -> VExpr:
        if expr in replacement:
            return replacement[expr]
        return _rebuild(expr, rewrite)

    steady.body = [SetV(regs[m], chain[m])] + _rewrite_stmts(steady.body, rewrite)
    for k in range(m):
        init_stmts.append(SetV(regs[k], chain[k]))
    for k in range(m):
        steady.bottom.append(SetV(regs[k], VRegE(regs[k + 1])))


# ---------------------------------------------------------------------------
# CSE and invariant hoisting
# ---------------------------------------------------------------------------

def eliminate_common_subexprs(program: VProgram) -> VProgram:
    fresh = _namer()
    if program.steady is not None:
        body = _hoist_invariants(program, program.steady.body, fresh)
        program.steady.body = _cse_stmts(body, "vcse_", fresh)
    for sec in program.prologue + program.epilogue:
        sec.stmts = _cse_stmts(sec.stmts, f"vcse_{sec.label}_", fresh)
    return program


def _is_invariant(expr: VExpr) -> bool:
    if isinstance(expr, (VLoadE, VIotaE, VRegE)):
        return False
    if isinstance(expr, VSplatE):
        return True
    return all(_is_invariant(c) for c in expr.children())


def _hoist_invariants(program, stmts, fresh) -> list[VStmt]:
    mapping: dict[VExpr, VRegE] = {}

    def rewrite(expr: VExpr) -> VExpr:
        if _is_invariant(expr):
            if expr not in mapping:
                reg = fresh("vinv")
                program.preheader.append(SetV(reg, expr))
                mapping[expr] = VRegE(reg)
            return mapping[expr]
        return _rebuild(expr, rewrite)

    return _rewrite_stmts(stmts, rewrite)


def _cse_stmts(stmts: list[VStmt], prefix: str, fresh) -> list[VStmt]:
    counts: Counter[VExpr] = Counter()
    for stmt in stmts:
        expr = stmt.expr if isinstance(stmt, SetV) else \
            stmt.src if isinstance(stmt, VStoreS) else None
        if expr is not None:
            for node in walk(expr):
                if is_pure(node):
                    counts[node] += 1

    defined: dict[VExpr, VRegE] = {}
    out: list[VStmt] = []

    def rewrite(expr: VExpr) -> VExpr:
        if expr in defined:
            return defined[expr]
        if is_pure(expr) and counts[expr] >= 2:
            reg = fresh(prefix)
            out.append(SetV(reg, _rebuild(expr, rewrite)))
            defined[expr] = VRegE(reg)
            return defined[expr]
        return _rebuild(expr, rewrite)

    for stmt in stmts:
        out.extend(_rewrite_stmts([stmt], rewrite))
    return out


# ---------------------------------------------------------------------------
# DCE to a fixpoint
# ---------------------------------------------------------------------------

def eliminate_dead_code(program: VProgram) -> VProgram:
    while _sweep(program):
        pass
    return program


def _sweep(program: VProgram) -> bool:
    used_v: set[str] = set()
    used_s: set[str] = set()

    def scan_s(expr: SExpr | int | None) -> None:
        if isinstance(expr, SReg):
            used_s.add(expr.name)
        elif isinstance(expr, SBin):
            scan_s(expr.left)
            scan_s(expr.right)

    def scan_v(expr: VExpr) -> None:
        for node in walk(expr):
            if isinstance(node, VRegE):
                used_v.add(node.name)
            elif isinstance(node, VShiftPairE):
                scan_s(node.shift)
            elif isinstance(node, VSpliceE):
                scan_s(node.point)
            elif isinstance(node, VSplatE):
                scan_s(node.operand)

    def scan_stmts(stmts: list[VStmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, SetS):
                scan_s(stmt.expr)
            elif isinstance(stmt, SetV):
                scan_v(stmt.expr)
            elif isinstance(stmt, VStoreS):
                scan_v(stmt.src)

    scan_stmts(program.preheader)
    for sec in program.prologue + program.epilogue:
        scan_s(sec.i_expr)
        scan_s(sec.cond)
        scan_stmts(sec.stmts)
    if program.steady is not None:
        scan_s(program.steady.lb)
        scan_s(program.steady.ub)
        scan_stmts(program.steady.body)
        scan_stmts(program.steady.bottom)

    removed = False

    def prune(stmts: list[VStmt]) -> list[VStmt]:
        nonlocal removed
        kept = [s for s in stmts
                if not (isinstance(s, SetV) and s.reg not in used_v)
                and not (isinstance(s, SetS) and s.reg not in used_s)]
        removed = removed or len(kept) != len(stmts)
        return kept

    program.preheader = prune(program.preheader)
    for sec in program.prologue + program.epilogue:
        sec.stmts = prune(sec.stmts)
    if program.steady is not None:
        program.steady.body = prune(program.steady.body)
        program.steady.bottom = prune(program.steady.bottom)
    program.prologue = [s for s in program.prologue if s.stmts]
    program.epilogue = [s for s in program.epilogue if s.stmts]
    return removed
