"""Scalar loop IR: arrays, expression trees, statements.

This is the input language of the simdizer, mirroring the paper's
Section 4.1 assumptions: an innermost normalized loop whose memory
references are loop-invariant scalars or stride-one array references
``a[i + c]``, all of one uniform element length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import IRError
from repro.ir.types import BinaryOp, DataType, constructor_reduce


@dataclass(frozen=True, slots=True)
class ArrayDecl:
    """A named array symbol.

    ``align`` is the compile-time-known base-address residue modulo the
    target vector length ``V`` (the paper's compile-time alignment), or
    ``None`` when the base alignment is only known at runtime.  Per the
    paper's natural-alignment assumption, a known ``align`` must be a
    multiple of the element size.

    ``length`` is the number of elements backing storage must provide;
    the machine allocator additionally pads with guard vectors so that
    truncated vector loads just outside the accessed stream (produced
    by stream shifts near loop boundaries) never fault, exactly like an
    in-page access on real hardware.
    """

    name: str
    dtype: DataType
    length: int
    align: int | None = 0

    __reduce__ = constructor_reduce

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise IRError(f"array name {self.name!r} is not an identifier")
        if self.length <= 0:
            raise IRError(f"array {self.name!r} must have positive length")
        if self.align is not None:
            if self.align < 0:
                raise IRError(f"array {self.name!r} has negative alignment")
            if self.align % self.dtype.size != 0:
                raise IRError(
                    f"array {self.name!r}: base alignment {self.align} is not "
                    f"naturally aligned to element size {self.dtype.size}"
                )

    @property
    def runtime_aligned(self) -> bool:
        """True when the base alignment is only discoverable at runtime."""
        return self.align is None


class Expr:
    """Base class of scalar loop-IR expressions."""

    __slots__ = ()
    __reduce__ = constructor_reduce

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True, slots=True)
class Ref(Expr):
    """A stride-one reference ``array[i + offset]``.

    Its address at original iteration ``i`` is
    ``base(array) + (i + offset) * D``.
    """

    array: ArrayDecl
    offset: int = 0

    def __str__(self) -> str:
        if self.offset == 0:
            return f"{self.array.name}[i]"
        sign = "+" if self.offset > 0 else "-"
        return f"{self.array.name}[i{sign}{abs(self.offset)}]"


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """A loop-invariant integer literal."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ScalarVar(Expr):
    """A loop-invariant runtime scalar (bound at execution time)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LoopIndex(Expr):
    """The loop counter used as a *value* (``a[i] = i * 2``).

    The paper's Section 4.1 assumptions exclude this ("the loop counter
    can only appear in the address computation") and its Section 7
    lists it as future work; this reproduction implements it as an
    extension, vectorizing the counter into an iota register stream.
    """

    def __str__(self) -> str:
        return "i"


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    """A two-operand lane operation applied elementwise."""

    op: BinaryOp
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        if self.op.name in ("min", "max", "avg"):
            return f"{self.op.name}({self.left}, {self.right})"
        return f"({self.left} {self.op.symbol} {self.right})"


#: Anything acceptable where an expression operand is expected.
ExprLike = Union[Expr, int]


def as_expr(value: ExprLike) -> Expr:
    """Coerce a Python int into a :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value)
    raise IRError(f"cannot use {value!r} as a loop-IR expression")


@dataclass(frozen=True, slots=True)
class Statement:
    """One assignment ``target = expr`` executed each loop iteration."""

    target: Ref
    expr: Expr

    __reduce__ = constructor_reduce

    def __str__(self) -> str:
        return f"{self.target} = {self.expr};"

    def refs(self) -> list[Ref]:
        """All stride-one references in the statement, loads then the store."""
        return self.loads() + [self.target]

    def loads(self) -> list[Ref]:
        """All load references in evaluation order (duplicates preserved)."""
        return [node for node in self.expr.walk() if isinstance(node, Ref)]

    def invariants(self) -> list[Expr]:
        """All loop-invariant leaf operands (consts and scalar vars)."""
        return [n for n in self.expr.walk() if isinstance(n, (Const, ScalarVar))]


@dataclass(frozen=True, slots=True)
class Reduction:
    """A reduction statement ``array[index] op= expr`` (extension).

    ``target`` is a *fixed-index* reference: unlike a
    :class:`Statement` target, its offset is an absolute element index
    independent of the loop counter.  ``op`` must be associative and
    commutative with an identity element (add/mul/min/max/and/or/xor),
    so the vectorizer may reassociate the accumulation into per-lane
    partial results folded horizontally after the loop — bit-exactly,
    since lane arithmetic is modular.

    The paper's Section 7 lists "accesses to scalar variables …
    occurring in non-address computation" as future work; reductions
    are the most important instance and this reproduction implements
    them (see :mod:`repro.codegen.reduction`).
    """

    target: Ref
    op: BinaryOp
    expr: Expr

    __reduce__ = constructor_reduce

    def __str__(self) -> str:
        sym = self.op.symbol
        head = f"{self.target.array.name}[{self.target.offset}]"
        if self.op.name in ("min", "max"):
            return f"{head} = {self.op.name}({head}, {self.expr});"
        return f"{head} {sym}= {self.expr};"

    def refs(self) -> list[Ref]:
        """The statement's stream references — loads only: the fixed-index
        target is not a stride-one stream."""
        return self.loads()

    def loads(self) -> list[Ref]:
        return [node for node in self.expr.walk() if isinstance(node, Ref)]

    def invariants(self) -> list[Expr]:
        return [n for n in self.expr.walk() if isinstance(n, (Const, ScalarVar))]


#: Either kind of loop-body statement.
AnyStatement = Union[Statement, Reduction]


@dataclass
class Loop:
    """A normalized innermost loop ``for (i = 0; i < upper; i++) {stmts}``.

    ``upper`` is the trip count: a compile-time int, or the name of a
    runtime scalar for the paper's unknown-loop-bound case.

    A loop contains either regular statements or reductions, never a
    mix — the two need different steady-state structures (stores must
    block on the store alignment; reductions accumulate full blocks
    from iteration 0).
    """

    upper: int | str
    statements: list[AnyStatement]
    index: str = "i"
    name: str = "loop"
    scalar_vars: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        validate_loop(self)

    def __str__(self) -> str:
        body = "\n".join(f"  {stmt}" for stmt in self.statements)
        return f"for ({self.index} = 0; {self.index} < {self.upper}; {self.index}++) {{\n{body}\n}}"

    @property
    def dtype(self) -> DataType:
        """The loop's uniform element type (the paper's *D* comes from this)."""
        return self.statements[0].target.array.dtype

    @property
    def runtime_upper(self) -> bool:
        return isinstance(self.upper, str)

    @property
    def has_reductions(self) -> bool:
        return any(isinstance(s, Reduction) for s in self.statements)

    def arrays(self) -> list[ArrayDecl]:
        """All distinct arrays, in first-appearance order."""
        seen: dict[str, ArrayDecl] = {}
        for stmt in self.statements:
            seen.setdefault(stmt.target.array.name, stmt.target.array)
            for ref in stmt.loads():
                seen.setdefault(ref.array.name, ref.array)
        return list(seen.values())

    def store_arrays(self) -> set[str]:
        return {stmt.target.array.name for stmt in self.statements}

    def load_arrays(self) -> set[str]:
        return {ref.array.name for stmt in self.statements for ref in stmt.loads()}

    def runtime_alignment(self) -> bool:
        """True when any referenced array has a runtime-only base alignment."""
        return any(arr.runtime_aligned for arr in self.arrays())

    def signature(self) -> str:
        """A stable structural key for memoizing work keyed on this loop.

        Two loops with equal signatures simdize identically: the
        signature captures the trip bound, every array's type/extent/
        alignment class, the statement bodies, and the declared runtime
        scalars — everything the simdizer reads.  Concrete runtime
        residues and data values are deliberately excluded (the
        simdizer never sees them).
        """
        arrays = ";".join(
            f"{a.name}:{a.dtype.name}:{a.length}:"
            f"{'rt' if a.align is None else a.align}"
            for a in self.arrays()
        )
        stmts = "|".join(str(s) for s in self.statements)
        return f"{self.upper}§{arrays}§{stmts}§{','.join(self.scalar_vars)}"

    def min_index(self) -> int:
        """Smallest element offset referenced (may be negative)."""
        return min(ref.offset for stmt in self.statements for ref in stmt.refs())

    def max_index_excl(self, trip: int) -> int:
        """One past the largest element index touched for a given trip count."""
        return max(ref.offset for stmt in self.statements for ref in stmt.refs()) + trip


def validate_loop(loop: Loop) -> None:
    """Check the Section 4.1 simdizability assumptions, raising :class:`IRError`.

    * at least one statement, each a stride-one store of an expression;
    * all references share one uniform element length (no conversions);
    * stored arrays are never loaded and never stored twice (the loop
      must be free of loop-carried dependences — the paper assumes the
      surrounding compiler established this before simdization);
    * runtime scalar variables used in expressions are declared;
    * array extents cover every element the loop touches when the trip
      count is known at compile time.
    """
    if not loop.statements:
        raise IRError("loop has no statements")
    if isinstance(loop.upper, int) and loop.upper <= 0:
        raise IRError(f"loop trip count must be positive, got {loop.upper}")
    if isinstance(loop.upper, str) and not loop.upper.isidentifier():
        raise IRError(f"symbolic trip count {loop.upper!r} is not an identifier")

    kinds = {type(s) for s in loop.statements}
    if kinds == {Statement, Reduction}:
        raise IRError(
            "loops mixing regular statements and reductions are not "
            "simdizable as one unit; split the loop first"
        )

    dtype = loop.statements[0].target.array.dtype
    store_seen: set[str] = set()
    for stmt in loop.statements:
        for ref in stmt.refs() + [stmt.target]:
            if ref.array.dtype != dtype:
                raise IRError(
                    f"mixed element types: {ref.array.name} is {ref.array.dtype}, "
                    f"loop is {dtype} (the paper forbids data conversions)"
                )
        if isinstance(stmt, Reduction):
            if not (stmt.op.associative and stmt.op.commutative):
                raise IRError(
                    f"reduction op {stmt.op.name!r} must be associative and "
                    "commutative"
                )
            if not 0 <= stmt.target.offset < stmt.target.array.length:
                raise IRError(
                    f"reduction target {stmt.target.array.name}"
                    f"[{stmt.target.offset}] outside the array"
                )
        if stmt.target.array.name in store_seen:
            raise IRError(
                f"array {stmt.target.array.name!r} stored by two statements; "
                "output dependences are not supported"
            )
        store_seen.add(stmt.target.array.name)

    overlap = loop.store_arrays() & loop.load_arrays()
    if overlap:
        if loop.has_reductions:
            raise IRError(
                f"arrays {sorted(overlap)} are both accumulated and loaded; "
                "reduction targets must be disjoint from operand streams"
            )
        # Blocked execution tolerates some dependences (same-iteration
        # and self anti dependences); reject only the provably unsafe
        # ones, with the full classification as the diagnostic.
        from repro.deps.analysis import blocking_dependences

        blockers = blocking_dependences(loop.statements)
        if blockers:
            detail = "; ".join(dep.describe() for dep in blockers[:3])
            raise IRError(f"loop-carried dependences block simdization: {detail}")

    declared = set(loop.scalar_vars)
    if isinstance(loop.upper, str):
        declared.add(loop.upper)
    for stmt in loop.statements:
        for node in stmt.expr.walk():
            if isinstance(node, ScalarVar) and node.name not in declared:
                raise IRError(f"undeclared runtime scalar {node.name!r}")
            if isinstance(node, Ref) and node is not stmt.target:
                pass

    if isinstance(loop.upper, int):
        for stmt in loop.statements:
            refs = stmt.loads() if isinstance(stmt, Reduction) else stmt.refs()
            for ref in refs:
                low = ref.offset
                high = ref.offset + loop.upper - 1
                if low < 0 or high >= ref.array.length:
                    raise IRError(
                        f"reference {ref} touches [{low}, {high}] outside "
                        f"array {ref.array.name!r} of length {ref.array.length}"
                    )
