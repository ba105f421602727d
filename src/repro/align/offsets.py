"""The stream-offset lattice.

A *stream offset* (paper Section 3.2) is the byte offset, within its
vector register, of the first desired value of a register stream.  We
track it symbolically with three shapes:

* :class:`KnownOffset` — a compile-time constant in ``[0, V)``;
* :class:`RuntimeOffset` — known only at runtime, identified by a key
  so that *relatively aligned* streams (same array, congruent element
  offsets) compare equal even though the concrete value is unknown;
* :class:`AnyOffset` — the paper's ⊥ for ``vsplat`` streams, whose
  lanes all hold the same value and therefore match any offset in
  constraints (C.2) and (C.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlignmentError
from repro.ir.types import constructor_reduce


class Offset:
    """Base class of stream offsets."""

    __slots__ = ()
    __reduce__ = constructor_reduce

    @property
    def is_known(self) -> bool:
        return isinstance(self, KnownOffset)

    @property
    def is_runtime(self) -> bool:
        return isinstance(self, RuntimeOffset)

    @property
    def is_any(self) -> bool:
        return isinstance(self, AnyOffset)


@dataclass(frozen=True, slots=True)
class KnownOffset(Offset):
    """A compile-time stream offset in ``[0, V)``."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise AlignmentError(f"negative stream offset {self.value}")

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class RuntimeOffset(Offset):
    """A runtime stream offset.

    ``array`` names the runtime-aligned array the offset derives from and
    ``residue`` is the element-offset residue modulo the blocking factor;
    two runtime offsets with equal fields denote the *same* runtime value
    (relative alignment), anything else must be assumed different.
    """

    array: str
    residue: int

    def __str__(self) -> str:
        return f"@{self.array}%{self.residue}"


@dataclass(frozen=True, slots=True)
class AnyOffset(Offset):
    """The wildcard offset of replicated (splat) streams."""

    def __str__(self) -> str:
        return "⊥"


ANY = AnyOffset()
ZERO = KnownOffset(0)


def compatible(a: Offset, b: Offset) -> bool:
    """Do two stream offsets satisfy the matching constraint (C.3)?

    ``AnyOffset`` matches everything; otherwise the offsets must be
    identical (same known value, or provably the same runtime value).
    """
    if a.is_any or b.is_any:
        return True
    return a == b


def merge(a: Offset, b: Offset) -> Offset:
    """The common offset of two compatible streams (used by ``vop`` nodes)."""
    if not compatible(a, b):
        raise AlignmentError(f"offsets {a} and {b} are incompatible")
    return b if a.is_any else a


def merge_all(offsets: list[Offset]) -> Offset:
    """Fold :func:`merge` over a list; empty or all-splat lists yield ⊥."""
    result: Offset = ANY
    for off in offsets:
        result = merge(result, off)
    return result
