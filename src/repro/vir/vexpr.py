"""Vector-IR expressions: scalar address/bound expressions and vector values.

The vector IR is the simdizer's output language.  A program is a
structured skeleton (preheader / prologue sections / steady loop /
epilogue sections, see :mod:`repro.vir.program`) whose statements use
the expression forms defined here:

* :class:`SExpr` — scalar integer expressions (addresses, runtime
  alignments, shift amounts, splice points, loop bounds);
* :class:`VExpr` — vector values built from truncating loads, the
  paper's generic reorganization ops, and lane arithmetic.

Addresses are kept symbolic: :class:`Addr` denotes
``base(array) + (i + elem) * D`` where ``i`` is the loop counter bound
by the enclosing program section.  Substituting ``i -> i + B`` (the
paper's ``Substitute`` helper, Figure 7) is therefore just ``elem + B``
— see :func:`displace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.errors import CodegenError
from repro.ir.types import BinaryOp, DataType, constructor_reduce


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------

class SExpr:
    """Base class of scalar integer expressions."""

    __slots__ = ()
    __reduce__ = constructor_reduce


@dataclass(frozen=True, slots=True)
class SConst(SExpr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class SVar(SExpr):
    """A runtime scalar binding (e.g. the symbolic trip count ``ub``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SBase(SExpr):
    """The runtime base address of an array."""

    array: str

    def __str__(self) -> str:
        return f"&{self.array}[0]"


@dataclass(frozen=True, slots=True)
class SReg(SExpr):
    """A scalar register defined earlier by a ``SetS`` statement."""

    name: str

    def __str__(self) -> str:
        return self.name


#: Scalar operators and their Python semantics (exact integer math).
S_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b,   # floor division, b > 0 in all uses
    "mod": lambda a, b: a % b,    # Python mod: result sign follows b > 0
    "and": lambda a, b: a & b,
    "min": min,
    "max": max,
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "eq": lambda a, b: int(a == b),
}

_S_SYMBOLS = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%", "and": "&",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==",
}


@dataclass(frozen=True, slots=True)
class SBin(SExpr):
    op: str
    left: SExpr
    right: SExpr

    def __post_init__(self) -> None:
        if self.op not in S_OPS:
            raise CodegenError(f"unknown scalar op {self.op!r}")

    def __str__(self) -> str:
        sym = _S_SYMBOLS.get(self.op)
        if sym is None:
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {sym} {self.right})"


def s_add(a: SExpr, b: SExpr) -> SExpr:
    return _fold("add", a, b)


def s_sub(a: SExpr, b: SExpr) -> SExpr:
    return _fold("sub", a, b)


def s_mul(a: SExpr, b: SExpr) -> SExpr:
    return _fold("mul", a, b)


def s_div(a: SExpr, b: SExpr) -> SExpr:
    return _fold("div", a, b)


def s_mod(a: SExpr, b: SExpr) -> SExpr:
    return _fold("mod", a, b)


def s_and(a: SExpr, b: SExpr) -> SExpr:
    return _fold("and", a, b)


def _fold(op: str, a: SExpr, b: SExpr) -> SExpr:
    """Build an :class:`SBin`, constant-folding when both sides are literal."""
    if isinstance(a, SConst) and isinstance(b, SConst):
        return SConst(S_OPS[op](a.value, b.value))
    return SBin(op, a, b)


def s_bin(op: str, a: SExpr, b: SExpr) -> SExpr:
    """Generic constant-folding scalar-expression builder."""
    return _fold(op, a, b)


#: Operand positions accepting a compile-time int or a scalar expression.
ShiftAmount = Union[int, SExpr]


def as_sexpr(value: "int | SExpr") -> SExpr:
    return SConst(value) if isinstance(value, int) else value


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Addr:
    """The stride-one address ``base(array) + (i + elem) * D``.

    ``i`` is the (original-iteration-space) loop counter supplied by the
    executing section; the vector unit truncates the low bits on access.
    """

    array: str
    elem: int

    __reduce__ = constructor_reduce

    def displaced(self, delta: int) -> "Addr":
        """The address with ``i -> i + delta`` substituted."""
        return replace(self, elem=self.elem + delta)

    def __str__(self) -> str:
        if self.elem == 0:
            return f"&{self.array}[i]"
        sign = "+" if self.elem > 0 else "-"
        return f"&{self.array}[i{sign}{abs(self.elem)}]"


# ---------------------------------------------------------------------------
# Vector expressions
# ---------------------------------------------------------------------------

class VExpr:
    """Base class of vector-valued expressions."""

    __slots__ = ()
    __reduce__ = constructor_reduce

    def children(self) -> tuple["VExpr", ...]:
        return ()


@dataclass(frozen=True, slots=True)
class VLoadE(VExpr):
    """Truncating vector load (paper's ``vload``)."""

    addr: Addr

    def __str__(self) -> str:
        return f"vload({self.addr})"


@dataclass(frozen=True, slots=True)
class VShiftPairE(VExpr):
    """Select bytes ``shift..shift+V-1`` of ``a ++ b`` (paper's ``vshiftpair``)."""

    a: VExpr
    b: VExpr
    shift: ShiftAmount

    def children(self) -> tuple[VExpr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"vshiftpair({self.a}, {self.b}, {self.shift})"


@dataclass(frozen=True, slots=True)
class VSpliceE(VExpr):
    """First ``point`` bytes of ``a`` then rest of ``b`` (paper's ``vsplice``)."""

    a: VExpr
    b: VExpr
    point: ShiftAmount

    def children(self) -> tuple[VExpr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"vsplice({self.a}, {self.b}, {self.point})"


@dataclass(frozen=True, slots=True)
class VSplatE(VExpr):
    """Replicate a loop-invariant scalar into every lane."""

    operand: SExpr
    dtype: DataType

    def __str__(self) -> str:
        return f"vsplat({self.operand})"


@dataclass(frozen=True, slots=True)
class VBinE(VExpr):
    """Lane-wise arithmetic on two vectors."""

    op: BinaryOp
    a: VExpr
    b: VExpr
    dtype: DataType

    def children(self) -> tuple[VExpr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"v{self.op.name}({self.a}, {self.b})"


@dataclass(frozen=True, slots=True)
class VIotaE(VExpr):
    """The vectorized loop counter (extension; see ``ir.LoopIndex``).

    Denotes the register of the virtual offset-0 iteration-number
    stream at loop counter ``i + bias``: with ``m = ⌊(i + bias)·D / V⌋``
    its lanes hold ``m·B, m·B+1, …, m·B+B−1`` — the iteration numbers
    whose values share the vector "window" containing iteration
    ``i + bias``.  Real hardware materializes this as a strength-reduced
    counter vector (one lane-wise add per iteration), which is how the
    cost model charges it.
    """

    bias: int
    dtype: DataType

    def __str__(self) -> str:
        if self.bias == 0:
            return "viota(i)"
        sign = "+" if self.bias > 0 else "-"
        return f"viota(i {sign} {abs(self.bias)})"


@dataclass(frozen=True, slots=True)
class VRegE(VExpr):
    """A vector register defined earlier by a ``SetV`` statement."""

    name: str

    def __str__(self) -> str:
        return self.name


def displace(expr: VExpr, delta: int) -> VExpr:
    """Substitute ``i -> i + delta`` in every address of ``expr``.

    Register references are left untouched — callers must only displace
    pure (register-free) expressions, which is asserted here, because a
    register's defining statement would need displacement too.
    """
    if delta == 0:
        return expr
    if isinstance(expr, VLoadE):
        return VLoadE(expr.addr.displaced(delta))
    if isinstance(expr, VShiftPairE):
        return VShiftPairE(displace(expr.a, delta), displace(expr.b, delta), expr.shift)
    if isinstance(expr, VSpliceE):
        return VSpliceE(displace(expr.a, delta), displace(expr.b, delta), expr.point)
    if isinstance(expr, VSplatE):
        return expr
    if isinstance(expr, VIotaE):
        return VIotaE(expr.bias + delta, expr.dtype)
    if isinstance(expr, VBinE):
        return VBinE(expr.op, displace(expr.a, delta), displace(expr.b, delta), expr.dtype)
    if isinstance(expr, VRegE):
        raise CodegenError(f"cannot displace register reference {expr}")
    raise CodegenError(f"unknown vector expression {type(expr).__name__}")


def is_pure(expr: VExpr) -> bool:
    """True when the expression contains no register references."""
    if isinstance(expr, VRegE):
        return False
    return all(is_pure(child) for child in expr.children())


def walk(expr: VExpr):
    """Yield ``expr`` and all vector-typed descendants, preorder."""
    yield expr
    for child in expr.children():
        yield from walk(child)
