"""Seeded mini-C loops for the ``serve-mixed`` traffic.

Each loop is one statement ``d[i+o] = s0[i+o0] op s1[i+o1] ...`` over
one element type, with 2-6 loads, offsets 0-7 and a trip count of
200-999: the properties the simdizer's work depends on (stream count,
relative alignment, element size, loop length).

The draws are stratified: draw ``k`` of a generator takes its load
count, element type and trip band from ``k`` alone and only the
offsets, operators and the trip within its band from the seed.  Every
seed therefore asks for the same mix of work, and runs with different
seeds differ in the loops, not in how much there is to do.  Specs are
unique per generator, so a "fresh" loop is never one the server has
seen before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ELEMENT_TYPES = ("int", "short")
OPERATORS = ("+", "-", "&", "^")
LOAD_COUNTS = (2, 3, 4, 5, 6)
TRIP_BANDS = 32            # bands of 25 iterations over 200-999


@dataclass(frozen=True)
class LoopSpec:
    ctype: str
    trip: int
    store_offset: int
    load_offsets: tuple[int, ...]
    ops: tuple[str, ...]

    def source(self) -> str:
        size = self.trip + 8
        names = [f"s{k}" for k in range(len(self.load_offsets))]
        decls = " ".join(f"{self.ctype} {name}[{size}];"
                         for name in ["d", *names])
        expr = f"{names[0]}[i+{self.load_offsets[0]}]"
        for name, off, op in zip(names[1:], self.load_offsets[1:], self.ops):
            expr += f" {op} {name}[i+{off}]"
        return (f"{decls}\nfor (i = 0; i < {self.trip}; i++) "
                f"{{ d[i+{self.store_offset}] = {expr}; }}\n")


class SourceGenerator:
    """Draws distinct, stratified loop specs from one seeded stream."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seen: set[LoopSpec] = set()
        self._draws = 0

    def draw(self) -> LoopSpec:
        k = self._draws
        self._draws += 1
        loads = LOAD_COUNTS[k % len(LOAD_COUNTS)]
        ctype = ELEMENT_TYPES[(k // len(LOAD_COUNTS)) % len(ELEMENT_TYPES)]
        band = (k * 7) % TRIP_BANDS
        rng = self._rng
        while True:
            spec = LoopSpec(
                ctype=ctype,
                trip=200 + 25 * band + rng.randrange(25),
                store_offset=rng.randrange(8),
                load_offsets=tuple(rng.randrange(8) for _ in range(loads)),
                ops=tuple(rng.choice(OPERATORS) for _ in range(loads - 1)),
            )
            if spec not in self._seen:
                self._seen.add(spec)
                return spec
