"""Tests for software pipelining, PC, CSE, MemNorm, unrolling, and DCE."""

from repro.ir import LoopBuilder, figure1_loop
from repro.machine import run_vector
from repro.simdize import SimdOptions, simdize
from repro.vir import VLoadE, VShiftPairE, walk
from repro.vir.vstmt import SetV, VStoreS

from conftest import check_loop, sequential_memory


def body_loads(program):
    loads = []
    for stmt in program.steady.body:
        expr = stmt.expr if isinstance(stmt, SetV) else stmt.src
        loads += [n for n in walk(expr) if isinstance(n, VLoadE)]
    return loads


def bottom_copies(program):
    return [s for s in program.steady.bottom if isinstance(s, SetV) and s.is_copy]


class TestSoftwarePipelining:
    def test_no_reload_guarantee(self):
        """Data of a static stream is loaded once per steady iteration.

        The paper: "Our code generation scheme guarantees to never load
        the same data associated with a single static access twice."
        """
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="sp"))
        # steady body: exactly one load per misaligned stream (b and c)
        assert len(body_loads(result.program)) == 2

    def test_dynamic_load_count_is_minimal(self):
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="sp"))
        space, mem = sequential_memory(loop)
        out = run_vector(result.program, space, mem)
        # streams cover ~100 elements = ~25 vectors each; allow the
        # prologue/epilogue/init boundary vectors.
        steady_iters = len(range(1, 97, 4))
        assert out.counters["vload"] <= 2 * steady_iters + 20

    def test_without_reuse_loads_double(self):
        loop = figure1_loop(trip=100)
        sp = simdize(loop, options=SimdOptions(policy="zero", reuse="sp"))
        none = simdize(loop, options=SimdOptions(policy="zero", reuse="none"))
        assert len(body_loads(none.program)) >= 2 * len(body_loads(sp.program))

    def test_bottom_copies_present_without_unroll(self):
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="sp", unroll=1))
        assert len(bottom_copies(result.program)) == 3  # b, c, and the add

    def test_init_section_at_steady_lower_bound(self):
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="sp", unroll=1))
        init = [s for s in result.program.prologue if s.label == "swp_init"]
        assert len(init) == 1
        assert init[0].i_expr == result.program.steady.lb

    def test_shared_shift_across_statements(self):
        # Two statements using the same misaligned reference share one
        # carried register pair (and thus one load per iteration).
        lb = LoopBuilder(trip=64)
        a = lb.array("a", "int32", 96)
        b = lb.array("b", "int32", 96)
        x = lb.array("x", "int32", 96)
        y = lb.array("y", "int32", 96)
        lb.assign(a[0], x[1] + y[2])
        lb.assign(b[0], x[1] + y[3])
        loop = lb.build()
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="sp", unroll=1))
        loads = body_loads(result.program)
        # x loaded once, y twice (different offsets congruence classes)
        arrays = sorted(l.addr.array for l in loads)
        assert arrays.count("x") == 1
        check_loop(loop, SimdOptions(policy="zero", reuse="sp"))


class TestPredictiveCommoning:
    def test_pc_matches_sp_counts(self):
        """The paper: PC in addition to SP brings no additional benefit —
        both exploit the same reuse; our counts must agree."""
        loop = figure1_loop(trip=100)
        space1, mem1 = sequential_memory(loop)
        space2, mem2 = sequential_memory(loop)
        sp = simdize(loop, options=SimdOptions(policy="zero", reuse="sp"))
        pc = simdize(loop, options=SimdOptions(policy="zero", reuse="pc"))
        out_sp = run_vector(sp.program, space1, mem1)
        out_pc = run_vector(pc.program, space2, mem2)
        assert out_sp.counters.total == out_pc.counters.total
        assert mem1.snapshot() == mem2.snapshot()

    def test_sp_plus_pc_no_extra_benefit(self):
        loop = figure1_loop(trip=100)
        space1, mem1 = sequential_memory(loop)
        space2, mem2 = sequential_memory(loop)
        sp = simdize(loop, options=SimdOptions(policy="lazy", reuse="sp"))
        both = simdize(loop, options=SimdOptions(policy="lazy", reuse="sp+pc"))
        a = run_vector(sp.program, space1, mem1).counters.total
        b = run_vector(both.program, space2, mem2).counters.total
        assert b <= a + 2

    def test_pc_init_section_created(self):
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(policy="zero", reuse="pc", unroll=1))
        assert any(s.label == "pc_init" for s in result.program.prologue)


class TestUnrolling:
    def test_unroll2_removes_sp_copies(self):
        loop = figure1_loop(trip=100)
        rolled = simdize(loop, options=SimdOptions(reuse="sp", unroll=1))
        unrolled = simdize(loop, options=SimdOptions(reuse="sp", unroll=2))
        assert len(bottom_copies(rolled.program)) > 0
        assert len(bottom_copies(unrolled.program)) == 0
        assert unrolled.program.steady.step == 8
        assert unrolled.program.unroll == 2

    def test_unroll_equivalence_all_factors(self):
        loop = figure1_loop(trip=103, length=140)
        for factor in (1, 2, 3, 4, 5, 8):
            check_loop(loop, SimdOptions(reuse="sp", unroll=factor))
            check_loop(loop, SimdOptions(reuse="pc", unroll=factor))
            check_loop(loop, SimdOptions(reuse="none", unroll=factor))

    def test_fixup_sections_cover_leftovers(self):
        # steady iterations = 24 (i = 1..97 step 4); unroll 5 leaves 4.
        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(reuse="sp", unroll=5))
        fixups = [s for s in result.program.epilogue if s.label.startswith("unroll_fixup")]
        assert len(fixups) == 4
        check_loop(loop, SimdOptions(reuse="sp", unroll=5))

    def test_long_pc_chains_rotate_as_one_parallel_copy(self):
        """The residual copies of a rotation chain named across a digit
        boundary (``vpc9 <- vpc10 <- vpc11``) still read each register
        before it is overwritten."""
        from repro.bench.synth import SynthParams, synthesize

        params = SynthParams(loads=3, statements=2, trip=16, bias=1.0,
                             reuse=1.0, runtime_alignment=True)
        syn = synthesize(params, seed=0)
        check_loop(syn.loop, SimdOptions(policy="zero", reuse="pc", unroll=2),
                   residues=syn.base_residues)

    def test_rotation_copy_reads_the_incoming_value(self):
        """A body definition is not renamed into a carried register
        whose incoming value a residual copy still reads."""
        from repro.codegen.passes.unroll import unroll_steady
        from repro.ir.types import ADD, INT32
        from repro.vir import (Addr, SConst, Section, SteadyLoop, VBinE,
                               VProgram, VRegE)

        loop = figure1_loop(trip=20, length=48)

        def program():
            # v1..v4 hold b[i], b[i+4], b[i+8], b[i+12]; the body reads
            # only v1 and v2, so v4's incoming value is read by the
            # rotation alone.
            init = [SetV(f"v{k + 1}", VLoadE(Addr("b", 4 * k)))
                    for k in range(4)]
            body = [SetV("vn", VLoadE(Addr("b", 16))),
                    VStoreS(Addr("a", 0),
                            VBinE(ADD, VRegE("v1"), VRegE("v2"), INT32))]
            bottom = [SetV("v1", VRegE("v2")), SetV("v2", VRegE("v3")),
                      SetV("v3", VRegE("v4")), SetV("v4", VRegE("vn"))]
            return VProgram(
                source=loop, V=16,
                prologue=[Section("init", init, i_expr=SConst(0))],
                steady=SteadyLoop(SConst(0), SConst(16), 4, body, bottom))

        memories = []
        for factor in (1, 2):
            space, mem = sequential_memory(loop)
            run_vector(unroll_steady(program(), factor), space, mem)
            memories.append(mem.snapshot())
        assert memories[0] == memories[1]


class TestMemNormAndCse:
    def test_memnorm_merges_same_vector_loads(self):
        lb = LoopBuilder(trip=64)
        a = lb.array("a", "int32", 96)
        c = lb.array("c", "int32", 96)
        b = lb.array("b", "int32", 96)
        lb.assign(a[0], b[0] + 1)
        lb.assign(c[0], b[1] + 2)   # b[0] and b[1] share a 16-byte line
        loop = lb.build()
        on = simdize(loop, options=SimdOptions(reuse="none", memnorm=True))
        off = simdize(loop, options=SimdOptions(reuse="none", memnorm=False))
        assert len(body_loads(on.program)) < len(body_loads(off.program))
        check_loop(loop, SimdOptions(reuse="none", memnorm=True))

    def test_cse_dedupes_identical_loads(self):
        lb = LoopBuilder(trip=64)
        a = lb.array("a", "int32", 96)
        c = lb.array("c", "int32", 96)
        b = lb.array("b", "int32", 96)
        lb.assign(a[0], b[4] + b[4])
        lb.assign(c[0], b[4] + 3)
        loop = lb.build()
        result = simdize(loop, options=SimdOptions(reuse="none", cse=True))
        assert len(body_loads(result.program)) == 1

    def test_invariants_hoisted_to_preheader(self):
        lb = LoopBuilder(trip=64)
        a = lb.array("a", "int32", 96)
        b = lb.array("b", "int32", 96)
        alpha = lb.scalar("alpha")
        lb.assign(a[0], b[0] * alpha + 7)
        loop = lb.build()
        result = simdize(loop, options=SimdOptions(cse=True))
        preheader_defs = [s for s in result.program.preheader if isinstance(s, SetV)]
        assert len(preheader_defs) == 2  # vsplat(alpha), vsplat(7)
        check_loop(loop, scalars={"alpha": 3})

    def test_dce_removes_dead_defs(self):
        from repro.codegen.passes.dce import eliminate_dead_code
        from repro.vir import VProgram, SteadyLoop, SConst

        loop = figure1_loop(trip=100)
        result = simdize(loop, options=SimdOptions(reuse="sp"))
        program = result.program
        program.steady.body.insert(0, SetV("dead_reg", VLoadE(program.body_addrs()[0])))
        before = len(program.steady.body)
        eliminate_dead_code(program)
        assert len(program.steady.body) == before - 1
