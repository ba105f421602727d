"""Tests for the stream-offset lattice and alignment analysis."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.align import (
    ANY,
    KnownOffset,
    RuntimeOffset,
    ZERO,
    compatible,
    distinct_alignments,
    loop_offsets,
    merge,
    merge_all,
    misaligned_fraction,
    misaligned_stream_count,
    ref_offset,
    ref_offset_sexpr,
)
from repro.errors import AlignmentError
from repro.ir import ArrayDecl, INT16, INT32, LoopBuilder, Ref, figure1_loop
from repro.machine import ArraySpace
from repro.machine.interp import eval_s, Env  # noqa: F401 - exercised below
from repro.vir.vexpr import SBase, SBin, SConst


class TestOffsetLattice:
    def test_known_equality(self):
        assert KnownOffset(4) == KnownOffset(4)
        assert KnownOffset(4) != KnownOffset(8)
        assert KnownOffset(0) == ZERO

    def test_negative_rejected(self):
        with pytest.raises(AlignmentError):
            KnownOffset(-4)

    def test_compatibility_rules(self):
        assert compatible(ANY, KnownOffset(12))
        assert compatible(KnownOffset(12), ANY)
        assert compatible(ANY, ANY)
        assert compatible(KnownOffset(4), KnownOffset(4))
        assert not compatible(KnownOffset(4), KnownOffset(8))
        assert compatible(RuntimeOffset("b", 1), RuntimeOffset("b", 1))
        assert not compatible(RuntimeOffset("b", 1), RuntimeOffset("b", 2))
        assert not compatible(RuntimeOffset("b", 1), RuntimeOffset("c", 1))
        # runtime offsets never provably equal a known offset
        assert not compatible(RuntimeOffset("b", 0), KnownOffset(0))

    def test_merge(self):
        assert merge(ANY, KnownOffset(8)) == KnownOffset(8)
        assert merge(KnownOffset(8), ANY) == KnownOffset(8)
        with pytest.raises(AlignmentError):
            merge(KnownOffset(8), KnownOffset(4))
        assert merge_all([]) == ANY
        assert merge_all([ANY, KnownOffset(4), KnownOffset(4)]) == KnownOffset(4)

    def test_predicates(self):
        assert KnownOffset(0).is_known and not KnownOffset(0).is_runtime
        assert RuntimeOffset("a", 0).is_runtime
        assert ANY.is_any


class TestRefOffsets:
    def test_paper_figure1_offsets(self):
        loop = figure1_loop()
        stmt = loop.statements[0]
        offs = loop_offsets(loop, 16)
        assert offs[stmt.target] == KnownOffset(12)       # a[i+3]
        b_ref, c_ref = stmt.loads()
        assert offs[b_ref] == KnownOffset(4)              # b[i+1]
        assert offs[c_ref] == KnownOffset(8)              # c[i+2]

    def test_base_alignment_participates(self):
        a = ArrayDecl("a", INT32, 32, align=8)
        assert ref_offset(Ref(a, 1), 16) == KnownOffset(12)
        assert ref_offset(Ref(a, 2), 16) == KnownOffset(0)

    def test_runtime_relative_alignment_keys(self):
        a = ArrayDecl("a", INT32, 64, align=None)
        assert ref_offset(Ref(a, 1), 16) == ref_offset(Ref(a, 5), 16)
        assert ref_offset(Ref(a, 1), 16) != ref_offset(Ref(a, 2), 16)

    def test_bad_vector_length(self):
        a = ArrayDecl("a", INT32, 8)
        with pytest.raises(AlignmentError):
            ref_offset(Ref(a, 0), 6)

    @given(st.integers(0, 3), st.integers(0, 20), st.sampled_from([INT16, INT32]))
    def test_offset_matches_concrete_address(self, align_idx, elem, dtype):
        V = 16
        align = align_idx * dtype.size
        decl = ArrayDecl("arr", dtype, 64, align=align)
        off = ref_offset(Ref(decl, elem), V)
        space = ArraySpace(V)
        space.place(decl)
        addr = space["arr"].addr(elem)
        assert isinstance(off, KnownOffset)
        assert off.value == addr % V

    def test_runtime_sexpr_masks_base(self):
        a = ArrayDecl("a", INT32, 64, align=None)
        expr = ref_offset_sexpr(Ref(a, 1), 16)
        assert isinstance(expr, SBin) and expr.op == "and"
        # compile-time arrays fold to a constant
        b = ArrayDecl("b", INT32, 64, align=4)
        assert ref_offset_sexpr(Ref(b, 1), 16) == SConst(8)


class TestLoopAnalysis:
    def test_misaligned_fraction(self):
        loop = figure1_loop()
        assert misaligned_fraction(loop, 16) == 1.0
        lb = LoopBuilder(trip=10)
        a = lb.array("a", "int32", 32)
        b = lb.array("b", "int32", 32)
        lb.assign(a[0], b[0] + b[1])
        assert misaligned_fraction(lb.build(), 16) == pytest.approx(1 / 3)

    def test_distinct_alignments(self):
        loop = figure1_loop()
        assert distinct_alignments(loop, 16, 0) == 3
        lb = LoopBuilder(trip=10)
        a = lb.array("a", "int32", 64)
        b = lb.array("b", "int32", 64)
        c = lb.array("c", "int32", 64)
        lb.assign(a[1], b[1] + c[5])
        assert distinct_alignments(lb.build(), 16, 0) == 1

    def test_misaligned_stream_count_dedupes_congruent(self):
        lb = LoopBuilder(trip=10)
        a = lb.array("a", "int32", 64)
        b = lb.array("b", "int32", 64)
        lb.assign(a[0], b[1] + b[5])  # same stream offset class? no: 1 != 5 mod 4... they are congruent
        loop = lb.build()
        # b[1] and b[5] are congruent mod B=4 -> one misaligned stream;
        # the store a[0] is aligned.
        assert misaligned_stream_count(loop, 16, 0) == 1
