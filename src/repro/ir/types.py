"""Scalar element types and binary operators for the loop IR.

The paper targets SIMD units operating on packed fixed-length vectors
of 1-, 2-, and 4-byte integer elements.  All arithmetic wraps modulo
``2**(8*size)`` exactly like the hardware lanes do, so the scalar
reference executor and the vector interpreter agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError


def constructor_reduce(node):
    """The ``__reduce__`` of every frozen, slotted IR dataclass.

    A node pickles as a call of its own class with its field values in
    ``__init__`` order (``__match_args__``; no IR field is keyword-only
    or ``init=False``).  Loading a pickled program then runs each
    class's constructor, whose ``__post_init__`` hooks are pure checks,
    instead of the per-object ``fields()`` walk of the ``__setstate__``
    that ``slots=True`` generates, and the payload carries no field
    names.
    """
    return type(node), tuple([getattr(node, name)
                              for name in node.__match_args__])


@dataclass(frozen=True, slots=True)
class DataType:
    """An element type: ``name`` for printing, ``size`` in bytes, signedness.

    ``size`` is the paper's *D*, the uniform data length of all memory
    references in a simdizable loop.
    """

    name: str
    size: int
    signed: bool

    __reduce__ = constructor_reduce

    def __post_init__(self) -> None:
        if self.size not in (1, 2, 4, 8):
            raise IRError(f"unsupported element size {self.size}")

    @property
    def bits(self) -> int:
        return self.size * 8

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into this type's representable range (two's complement)."""
        value &= (1 << self.bits) - 1
        if self.signed and value > self.max_value:
            value -= 1 << self.bits
        return value

    def to_bytes(self, value: int) -> bytes:
        """Encode ``value`` as little-endian lane bytes."""
        return (value & ((1 << self.bits) - 1)).to_bytes(self.size, "little")

    def from_bytes(self, data: bytes) -> int:
        """Decode little-endian lane bytes into a Python int of this type."""
        if len(data) != self.size:
            raise IRError(f"expected {self.size} bytes for {self.name}, got {len(data)}")
        return self.wrap(int.from_bytes(data, "little"))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


INT8 = DataType("int8", 1, signed=True)
INT16 = DataType("int16", 2, signed=True)
INT32 = DataType("int32", 4, signed=True)
UINT8 = DataType("uint8", 1, signed=False)
UINT16 = DataType("uint16", 2, signed=False)
UINT32 = DataType("uint32", 4, signed=False)

ALL_TYPES = (INT8, INT16, INT32, UINT8, UINT16, UINT32)

_BY_NAME = {t.name: t for t in ALL_TYPES}
# Friendly aliases used by the mini-C frontend.
_BY_NAME["char"] = INT8
_BY_NAME["short"] = INT16
_BY_NAME["int"] = INT32
_BY_NAME["unsigned char"] = UINT8
_BY_NAME["unsigned short"] = UINT16
_BY_NAME["unsigned int"] = UINT32


def type_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by canonical or C-style alias name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise IRError(f"unknown element type {name!r}") from None


@dataclass(frozen=True, slots=True)
class BinaryOp:
    """A two-operand lane operation.

    ``associative``/``commutative`` drive the common-offset
    reassociation optimization (paper Section 5.5, *OffsetReassoc*),
    which may only regroup operands of associative-commutative chains.
    """

    name: str
    symbol: str
    associative: bool
    commutative: bool

    __reduce__ = constructor_reduce

    def apply(self, a: int, b: int, dtype: DataType) -> int:
        """Evaluate the operation on two lane values, wrapping like hardware."""
        func = _OP_FUNCS[self.name]
        return dtype.wrap(func(a, b, dtype))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.symbol


def _saturate(value: int, t: DataType) -> int:
    return min(max(value, t.min_value), t.max_value)


_OP_FUNCS = {
    "add": lambda a, b, t: a + b,
    "sub": lambda a, b, t: a - b,
    "mul": lambda a, b, t: a * b,
    "min": lambda a, b, t: min(a, b),
    "max": lambda a, b, t: max(a, b),
    "and": lambda a, b, t: a & b,
    "or": lambda a, b, t: a | b,
    "xor": lambda a, b, t: a ^ b,
    "avg": lambda a, b, t: (a + b) >> 1,
    "sadd": lambda a, b, t: _saturate(a + b, t),
    "ssub": lambda a, b, t: _saturate(a - b, t),
}

ADD = BinaryOp("add", "+", associative=True, commutative=True)
SUB = BinaryOp("sub", "-", associative=False, commutative=False)
MUL = BinaryOp("mul", "*", associative=True, commutative=True)
MIN = BinaryOp("min", "min", associative=True, commutative=True)
MAX = BinaryOp("max", "max", associative=True, commutative=True)
AND = BinaryOp("and", "&", associative=True, commutative=True)
OR = BinaryOp("or", "|", associative=True, commutative=True)
XOR = BinaryOp("xor", "^", associative=True, commutative=True)
AVG = BinaryOp("avg", "avg", associative=False, commutative=True)
# Saturating arithmetic (multimedia's signature ops: vec_adds / paddsb).
# Saturation breaks associativity, so these never participate in
# common-offset reassociation or reductions.
SADD = BinaryOp("sadd", "sadd", associative=False, commutative=True)
SSUB = BinaryOp("ssub", "ssub", associative=False, commutative=False)

ALL_OPS = (ADD, SUB, MUL, MIN, MAX, AND, OR, XOR, AVG, SADD, SSUB)

_OPS_BY_NAME = {op.name: op for op in ALL_OPS}
_OPS_BY_SYMBOL = {op.symbol: op for op in ALL_OPS}


def op_identity(op: BinaryOp, dtype: DataType) -> int:
    """The identity element of an associative-commutative op on ``dtype``.

    Used by reduction vectorization to initialize lane accumulators and
    to mask the lanes of a partial tail block.
    """
    identities = {
        "add": 0,
        "mul": 1,
        "min": dtype.max_value,
        "max": dtype.min_value,
        "and": dtype.wrap(-1) if dtype.signed else dtype.max_value,
        "or": 0,
        "xor": 0,
    }
    try:
        return identities[op.name]
    except KeyError:
        raise IRError(
            f"op {op.name!r} has no identity usable for reductions"
        ) from None


def op_by_name(name: str) -> BinaryOp:
    """Look up a :class:`BinaryOp` by name (``"add"``) or symbol (``"+"``)."""
    op = _OPS_BY_NAME.get(name) or _OPS_BY_SYMBOL.get(name)
    if op is None:
        raise IRError(f"unknown binary op {name!r}")
    return op
