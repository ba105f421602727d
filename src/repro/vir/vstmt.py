"""Vector-IR statements and program sections."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import constructor_reduce
from repro.vir.vexpr import Addr, SExpr, VExpr, VRegE


class VStmt:
    """Base class of vector-IR statements."""

    __slots__ = ()
    __reduce__ = constructor_reduce


@dataclass(frozen=True, slots=True)
class SetS(VStmt):
    """Define scalar register ``reg`` with the value of ``expr``."""

    reg: str
    expr: SExpr

    def __str__(self) -> str:
        return f"{self.reg} = {self.expr};"


@dataclass(frozen=True, slots=True)
class SetV(VStmt):
    """Define vector register ``reg`` with the value of ``expr``."""

    reg: str
    expr: VExpr

    def __str__(self) -> str:
        return f"{self.reg} = {self.expr};"

    @property
    def is_copy(self) -> bool:
        """True for pure register moves (software-pipelining rotation fodder)."""
        return isinstance(self.expr, VRegE)


@dataclass(frozen=True, slots=True)
class VStoreS(VStmt):
    """Full-width truncating vector store of ``src`` at ``addr``."""

    addr: Addr
    src: VExpr

    def __str__(self) -> str:
        return f"vstore({self.addr}, {self.src});"


@dataclass
class Section:
    """A straight-line run of statements executed with a fixed loop counter.

    ``i_expr`` gives the original-iteration-space counter value the
    section's addresses are evaluated with (``None`` when no statement
    uses an address).  ``cond`` makes the section conditional — used by
    the multi-statement epilogue, whose extra full store only executes
    when the per-statement left-over exceeds one vector (paper
    Section 4.3), and by unrolling's odd-iteration fix-up.
    """

    label: str
    stmts: list[VStmt] = field(default_factory=list)
    i_expr: SExpr | None = None
    cond: SExpr | None = None

    def __str__(self) -> str:
        head = f"{self.label}:"
        if self.i_expr is not None:
            head += f"  /* i = {self.i_expr} */"
        if self.cond is not None:
            head += f"  /* if ({self.cond}) */"
        body = "\n".join(f"  {s}" for s in self.stmts)
        return f"{head}\n{body}" if body else head
