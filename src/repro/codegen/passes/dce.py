"""Dead-code elimination for vector programs.

Removes ``SetV``/``SetS`` definitions whose registers are never read
anywhere in the program, and then the definitions that only those
read, until every remaining definition is read.  Deliberately
conservative: a register read anywhere — any section, the steady
body, bottom copies, or scalar positions (shift amounts, splice
points, bounds, conditions) — is live, and registers that only read
each other (a rotation cycle) stay.

The pass counts every register's reads once, then works through a
worklist: removing a definition drops the reads it made, and a
register whose count reaches zero has all its definitions removed.
That is the fixpoint of "remove every definition nobody reads",
reached with one walk of the program.
"""

from __future__ import annotations

from collections import Counter

from repro.vir.program import VProgram
from repro.vir.vexpr import SBin, SReg, VBinE, VRegE, VShiftPairE, VSpliceE, VSplatE
from repro.vir.vstmt import SetS, SetV, VStoreS

#: A register: ``("v", name)`` for a vector one, ``("s", name)`` for a scalar one.
Reg = tuple[str, str]


def eliminate_dead_code(program: VProgram) -> VProgram:
    owners: list[tuple[object, str]] = [(program, "preheader")]
    owners += [(sec, "stmts") for sec in program.prologue + program.epilogue]
    reads: Counter[Reg] = Counter()
    for sec in program.prologue + program.epilogue:
        reads.update(_reads(sec.i_expr) + _reads(sec.cond))
    if program.steady is not None:
        owners += [(program.steady, "body"), (program.steady, "bottom")]
        reads.update(_reads(program.steady.lb) + _reads(program.steady.ub))

    lists = [getattr(owner, attr) for owner, attr in owners]
    defs: dict[Reg, list[tuple[int, int]]] = {}
    made: dict[tuple[int, int], list[Reg]] = {}   # definition -> its reads
    # Unrolling's fix-up sections repeat the steady body's statement
    # objects: read each object once.
    seen: dict[int, tuple[object, list[Reg]]] = {}
    for k, stmts in enumerate(lists):
        for j, stmt in enumerate(stmts):
            known = seen.get(id(stmt))
            if known is None:
                expr = stmt.src if isinstance(stmt, VStoreS) else stmt.expr
                known = seen[id(stmt)] = (stmt, _reads(expr))
            names = known[1]
            reads.update(names)
            if isinstance(stmt, (SetV, SetS)):
                reg = ("v" if isinstance(stmt, SetV) else "s", stmt.reg)
                defs.setdefault(reg, []).append((k, j))
                made[(k, j)] = names

    dead: set[tuple[int, int]] = set()
    work = [reg for reg in defs if not reads[reg]]
    while work:
        for pos in defs[work.pop()]:
            dead.add(pos)
            for reg in made[pos]:
                reads[reg] -= 1
                if not reads[reg] and reg in defs:
                    work.append(reg)

    if dead:
        for k, (owner, attr) in enumerate(owners):
            setattr(owner, attr, [s for j, s in enumerate(lists[k]) if (k, j) not in dead])
    program.prologue = [s for s in program.prologue if s.stmts]
    program.epilogue = [s for s in program.epilogue if s.stmts]
    return program


def _reads(expr) -> list[Reg]:
    """The registers a vector or scalar expression reads, one per read."""
    names: list[Reg] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is VRegE:
            names.append(("v", node.name))
        elif kind is SReg:
            names.append(("s", node.name))
        elif kind is VBinE:
            stack += (node.a, node.b)
        elif kind is VShiftPairE:
            stack += (node.a, node.b, node.shift)
        elif kind is VSpliceE:
            stack += (node.a, node.b, node.point)
        elif kind is VSplatE:
            stack.append(node.operand)
        elif kind is SBin:
            stack += (node.left, node.right)
    return names
