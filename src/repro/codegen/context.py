"""Shared state of a code-generation run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.offsets import KnownOffset, Offset, RuntimeOffset
from repro.errors import CodegenError
from repro.ir.expr import Loop
from repro.vir.vexpr import SBase, SConst, SExpr, SReg, s_add, s_and
from repro.vir.vstmt import SetS, VStmt


@dataclass
class CodegenCtx:
    """Name generation, hoisting, and machine parameters for one codegen run.

    Runtime quantities that are loop-invariant — stream offsets computed
    by "anding memory addresses with literal V−1" (paper Section 3.3),
    shift amounts, splice points — are *hoisted*: defined once in the
    program preheader and referenced through scalar registers
    everywhere else, the way the real compiler keeps them in registers.
    """

    loop: Loop
    V: int
    preheader: list[VStmt] = field(default_factory=list)
    #: Data length and blocking factor, fixed for the run.
    D: int = field(init=False)
    B: int = field(init=False)
    #: (id(graph node), displacement, residue) -> (node, lowered
    #: expression): a node is lowered once per displacement and
    #: residue however many sections ask, and the expressions share
    #: it.  The entry holds the node, so its ``id`` stays its own.
    lowered: dict[tuple[int, int, int], tuple[object, object]] = field(default_factory=dict)
    #: (id(shift node), residue) -> (node, shift plan), the same way.
    plans: dict[tuple[int, int], tuple[object, object]] = field(default_factory=dict)
    _counters: dict[str, int] = field(default_factory=dict)
    _hoisted: dict[object, SReg] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.D = self.loop.dtype.size
        self.B = self.V // self.D

    def fresh(self, prefix: str) -> str:
        """A new unique register name with the given prefix."""
        n = self._counters.get(prefix, 0)
        self._counters[prefix] = n + 1
        return f"{prefix}{n}"

    def hoist(self, key: object, prefix: str, expr: SExpr) -> SExpr:
        """Define ``expr`` once in the preheader; return the register.

        Compile-time constants are returned as-is (nothing to hoist).
        Repeated hoists of the same ``key`` share one register.
        """
        if isinstance(expr, SConst):
            return expr
        if key in self._hoisted:
            return self._hoisted[key]
        reg = SReg(self.fresh(prefix))
        self.preheader.append(SetS(reg.name, expr))
        self._hoisted[key] = reg
        return reg

    def offset_sexpr(self, offset: Offset) -> SExpr:
        """A scalar expression (hoisted if runtime) for a stream offset.

        A :class:`RuntimeOffset` is fully determined by its key: for any
        reference ``arr[i+c]`` with ``c ≡ residue (mod B)``, the offset
        is ``(base(arr) + residue*D) mod V`` because congruent element
        offsets differ by whole vectors.
        """
        if isinstance(offset, KnownOffset):
            return SConst(offset.value % self.V)
        if isinstance(offset, RuntimeOffset):
            raw = s_and(
                s_add(SBase(offset.array), SConst(offset.residue * self.D)),
                SConst(self.V - 1),
            )
            return self.hoist(("off", offset.array, offset.residue), "off_", raw)
        raise CodegenError(f"cannot materialize offset {offset}")
