"""The data reorganization graph (paper Section 3.3).

A data reorganization graph is the statement's expression tree
augmented with data reordering nodes.  Every node carries a *stream
offset*; a graph is valid when

* (C.2) the store's source offset equals the store address alignment,
* (C.3) all inputs of a ``vop`` have pairwise-matching offsets,

with the splat offset ⊥ matching anything.  The shift-placement
policies (:mod:`repro.reorg.policies`) produce valid graphs by
inserting :class:`RShiftStream` nodes; the SIMD code generator then
lowers the graph (:mod:`repro.codegen`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.align.analysis import ref_offset
from repro.align.offsets import ANY, KnownOffset, Offset
from repro.errors import GraphError
from repro.ir.expr import Const, Expr, Loop, Ref, ScalarVar
from repro.ir.types import BinaryOp, DataType, constructor_reduce


class RNode:
    """Base class of reorganization-graph nodes."""

    __slots__ = ()
    __reduce__ = constructor_reduce

    def offset(self, V: int) -> Offset:
        """This node's stream offset property."""
        raise NotImplementedError

    def children(self) -> tuple["RNode", ...]:
        return ()

    def walk(self) -> Iterator["RNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True, slots=True)
class RLoad(RNode):
    """``vload`` of a stride-one memory stream (paper eq. 1)."""

    ref: Ref

    def offset(self, V: int) -> Offset:
        return ref_offset(self.ref, V)

    def __str__(self) -> str:
        return f"vload({self.ref})"


@dataclass(frozen=True, slots=True)
class RSplat(RNode):
    """``vsplat`` of a loop-invariant scalar; offset is ⊥ (paper eq. 6)."""

    operand: Expr  # Const or ScalarVar

    def __post_init__(self) -> None:
        if not isinstance(self.operand, (Const, ScalarVar)):
            raise GraphError(f"vsplat operand must be loop-invariant, got {self.operand}")

    def offset(self, V: int) -> Offset:
        return ANY

    def __str__(self) -> str:
        return f"vsplat({self.operand})"


@dataclass(frozen=True, slots=True)
class RIota(RNode):
    """The vectorized loop counter (extension; ``ir.LoopIndex``).

    Behaves like a load from a virtual, vector-aligned iteration-number
    array: its stream offset is 0, and shift placement treats it like
    any other stream (a shifted iota is just two adjacent iota
    registers combined, which the code generator emits generically).
    """

    def offset(self, V: int) -> Offset:
        return KnownOffset(0)

    def __str__(self) -> str:
        return "viota(i)"


@dataclass(frozen=True, slots=True)
class ROp(RNode):
    """A regular ``vop``; offset is the common offset of its inputs (eq. 4)."""

    op: BinaryOp
    inputs: tuple[RNode, ...]
    dtype: DataType

    def children(self) -> tuple[RNode, ...]:
        return self.inputs

    def offset(self, V: int) -> Offset:
        for child in self.inputs:
            off = child.offset(V)
            if not off.is_any:
                return off
        return ANY

    def __str__(self) -> str:
        args = ", ".join(str(c) for c in self.inputs)
        return f"v{self.op.name}({args})"


@dataclass(frozen=True, slots=True)
class RShiftStream(RNode):
    """``vshiftstream``: change a register stream's offset to ``to`` (eq. 5)."""

    src: RNode
    to: Offset

    def __post_init__(self) -> None:
        if self.to.is_any:
            raise GraphError("vshiftstream target offset must be a defined offset")

    def children(self) -> tuple[RNode, ...]:
        return (self.src,)

    def offset(self, V: int) -> Offset:
        return self.to

    def __str__(self) -> str:
        return f"vshiftstream({self.src}, {self.to})"


@dataclass(frozen=True, slots=True)
class RStore(RNode):
    """``vstore`` of the ``src`` stream to a stride-one reference (C.2)."""

    ref: Ref
    src: RNode

    def children(self) -> tuple[RNode, ...]:
        return (self.src,)

    def offset(self, V: int) -> Offset:
        return ref_offset(self.ref, V)

    def __str__(self) -> str:
        return f"vstore({self.ref}, {self.src})"


@dataclass
class StatementGraph:
    """The reorganization graph of one loop statement."""

    store: RStore
    statement_index: int

    def shift_nodes(self) -> list[RShiftStream]:
        return [n for n in self.store.walk() if isinstance(n, RShiftStream)]

    def load_nodes(self) -> list[RLoad]:
        return [n for n in self.store.walk() if isinstance(n, RLoad)]

    def shift_count(self) -> int:
        """Static ``vshiftstream`` count — the quantity policies minimize."""
        return len(self.shift_nodes())


@dataclass
class LoopGraph:
    """Reorganization graphs for every statement of a loop."""

    loop: Loop
    V: int
    statements: list[StatementGraph] = field(default_factory=list)

    @property
    def B(self) -> int:
        return self.V // self.loop.dtype.size

    def shift_count(self) -> int:
        return sum(sg.shift_count() for sg in self.statements)

    def __str__(self) -> str:
        lines = [f"LoopGraph(V={self.V}, B={self.B})"]
        for sg in self.statements:
            lines.append(f"  S{sg.statement_index}: {sg.store}")
        return "\n".join(lines)
