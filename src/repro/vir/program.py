"""The structured vector program produced by SIMD code generation.

A :class:`VProgram` mirrors the shape the paper's code generator emits
(Sections 4.2–4.5): a preheader of loop-invariant scalar setup (runtime
alignments, shift amounts, splice points), prologue sections holding the
peeled-and-spliced first simdized iteration plus software-pipelining
initialisation, a steady-state loop, and epilogue sections for the
partial last stores.  A runtime guard (``ub > 3B``, Section 4.4) backs
off to the original scalar loop when the trip count is too small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.expr import Loop
from repro.vir.vexpr import Addr, SExpr, VExpr, VLoadE, VSpliceE, VShiftPairE, VBinE, walk
from repro.vir.vstmt import Section, SetS, SetV, VStmt, VStoreS


@dataclass
class SteadyLoop:
    """``for (i = lb; i < ub; i += step) { body; bottom; }``.

    ``bottom`` holds the software-pipelining copies (``old = new``) that
    the paper places "at the bottom of the loop" (Figure 10, line 19);
    keeping them separate lets the unroll pass rotate them away.
    """

    lb: SExpr
    ub: SExpr
    step: int
    body: list[VStmt] = field(default_factory=list)
    bottom: list[VStmt] = field(default_factory=list)


@dataclass
class VProgram:
    """A complete simdized loop, ready for the interpreter or printer."""

    source: Loop
    V: int
    preheader: list[VStmt] = field(default_factory=list)
    prologue: list[Section] = field(default_factory=list)
    steady: SteadyLoop | None = None
    epilogue: list[Section] = field(default_factory=list)
    #: Run the scalar loop instead when the runtime trip count is <= this.
    guard_min_trip: int | None = None
    #: Unroll factor already applied to the steady body (cost bookkeeping).
    unroll: int = 1
    #: Residue of the steady loop counter modulo B (``LB mod B``); lets
    #: passes reason about which aligned vector an address truncates to.
    steady_residue: int = 0
    #: Last number handed out per temporary-name counter (see
    #: :meth:`fresh_temp`).
    temp_counts: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def D(self) -> int:
        return self.source.dtype.size

    @property
    def B(self) -> int:
        """Blocking factor: data elements per vector (paper eq. 7)."""
        return self.V // self.D

    def fresh_temp(self, counter: str, prefix: str) -> str:
        """A new register name: ``prefix`` and the next number of this
        program's ``counter``.

        The passes name their temporaries here, so a name depends on
        the program alone and never on what the process lowered
        before: structurally equal programs print, and key kernels,
        the same.
        """
        n = self.temp_counts.get(counter, 0) + 1
        self.temp_counts[counter] = n
        return f"{prefix}{n}"

    # -- introspection helpers (used by passes, cost model, and tests) ----

    def body_exprs(self) -> list[VExpr]:
        """Top-level vector expressions of the steady body, in order."""
        out: list[VExpr] = []
        for stmt in self.steady.body if self.steady else []:
            if isinstance(stmt, SetV):
                out.append(stmt.expr)
            elif isinstance(stmt, VStoreS):
                out.append(stmt.src)
        return out

    def body_addrs(self) -> list[Addr]:
        """Every address referenced by the steady body (loads and stores)."""
        addrs: list[Addr] = []
        for stmt in self.steady.body if self.steady else []:
            if isinstance(stmt, SetV):
                addrs.extend(n.addr for n in walk(stmt.expr) if isinstance(n, VLoadE))
            elif isinstance(stmt, VStoreS):
                addrs.extend(n.addr for n in walk(stmt.src) if isinstance(n, VLoadE))
                addrs.append(stmt.addr)
        return addrs

    def pointer_count(self) -> int:
        """Modelled induction pointers: one per distinct array in the body.

        Strength-reduced real code keeps one bumped base pointer per
        array and folds small element displacements into the load's
        immediate field, so this is the per-iteration address overhead.
        """
        return len({a.array for a in self.body_addrs()})

    def all_sections(self) -> list[Section]:
        return list(self.prologue) + list(self.epilogue)

    def count_static(self, kind: type) -> int:
        """Static occurrences of a statement/expression kind, whole program."""
        total = 0
        exprs: list[VExpr] = []
        stmt_lists: list[list[VStmt]] = [self.preheader]
        stmt_lists += [sec.stmts for sec in self.prologue]
        if self.steady:
            stmt_lists += [self.steady.body, self.steady.bottom]
        stmt_lists += [sec.stmts for sec in self.epilogue]
        for stmts in stmt_lists:
            for stmt in stmts:
                if isinstance(stmt, kind):
                    total += 1
                if isinstance(stmt, SetV):
                    exprs.append(stmt.expr)
                elif isinstance(stmt, VStoreS):
                    exprs.append(stmt.src)
        if issubclass(kind, VExpr):
            for expr in exprs:
                total += sum(1 for n in walk(expr) if isinstance(n, kind))
        return total

    def static_shift_count(self) -> int:
        """Static vshiftpair count — what the shift-placement policies minimize."""
        return self.count_static(VShiftPairE)
