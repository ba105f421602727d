"""Tests for the benchmark harness: synthesizer, LB model, runner, tables."""

import pytest

from repro.align import ref_offset, KnownOffset
from repro.bench import (
    SynthParams,
    lower_bound,
    measure_loop,
    measure_many,
    measure_row,
    measure_suite,
    seq_opd,
    synthesize,
    synthesize_suite,
)
from repro.bench.figures import figure, figure_configs
from repro.errors import BenchError
from repro.ir.types import INT16, INT32
from repro.machine.backend import numpy_available
from repro.profiling import PhaseProfile
from repro.simdize import SimdOptions


class TestSynthesizer:
    def test_shape_parameters_honoured(self):
        params = SynthParams(loads=5, statements=3, trip=64)
        loop = synthesize(params, seed=3).loop
        assert len(loop.statements) == 3
        for stmt in loop.statements:
            assert len(stmt.loads()) == 5
        assert loop.upper == 64

    def test_intended_alignments_realized(self):
        params = SynthParams(loads=4, statements=2, trip=64, bias=0.5, reuse=0.5)
        syn = synthesize(params, seed=7)
        for (name, offset), want in syn.ref_alignments.items():
            decl = next(a for a in syn.loop.arrays() if a.name == name)
            from repro.ir.expr import Ref

            got = ref_offset(Ref(decl, offset), 16)
            assert got == KnownOffset(want), (name, offset)

    def test_full_bias_gives_single_alignment(self):
        params = SynthParams(loads=4, statements=2, trip=64, bias=1.0, reuse=0.0)
        syn = synthesize(params, seed=11)
        aligns = set(syn.ref_alignments.values())
        assert len(aligns) == 1

    def test_reuse_shares_arrays_across_statements(self):
        params = SynthParams(loads=4, statements=4, trip=64, reuse=1.0)
        loop = synthesize(params, seed=5).loop
        arrays = loop.load_arrays()
        assert len(arrays) < 4 * 4  # heavy sharing

    def test_no_reuse_gives_distinct_arrays(self):
        params = SynthParams(loads=4, statements=4, trip=64, reuse=0.0)
        loop = synthesize(params, seed=5).loop
        assert len(loop.load_arrays()) == 16

    def test_within_statement_arrays_distinct(self):
        params = SynthParams(loads=6, statements=3, trip=64, reuse=1.0)
        loop = synthesize(params, seed=9).loop
        for stmt in loop.statements:
            names = [r.array.name for r in stmt.loads()]
            assert len(names) == len(set(names))

    def test_runtime_modes(self):
        params = SynthParams(loads=2, trip=64, runtime_alignment=True,
                             runtime_trip=True)
        syn = synthesize(params, seed=1)
        assert syn.loop.runtime_alignment()
        assert syn.loop.runtime_upper
        assert set(syn.base_residues) == {a.name for a in syn.loop.arrays()}

    def test_suite_has_distinct_seeds(self):
        suite = synthesize_suite(SynthParams(loads=2, trip=30), count=5)
        assert len({s.seed for s in suite}) == 5

    def test_bad_params_rejected(self):
        with pytest.raises(BenchError):
            SynthParams(loads=0)
        with pytest.raises(BenchError):
            SynthParams(loads=1, bias=1.5)
        with pytest.raises(BenchError):
            SynthParams(loads=1, statements=0)

    def test_label(self):
        assert SynthParams(loads=8, statements=4).label == "S4*L8"


class TestLowerBound:
    def test_figure1_lower_bound(self):
        from repro.ir import figure1_loop

        loop = figure1_loop()
        lb = lower_bound(loop, 16, zero_shift=False)
        # 2 load streams + 1 store + (3 distinct alignments - 1) shifts
        # + 1 add, all over 4 data
        assert lb.loads == pytest.approx(2 / 4)
        assert lb.stores == pytest.approx(1 / 4)
        assert lb.shifts == pytest.approx(2 / 4)
        assert lb.arith == pytest.approx(1 / 4)
        assert lb.opd == pytest.approx(6 / 4)

    def test_zero_shift_counts_misaligned_streams(self):
        from repro.ir import figure1_loop

        lb = lower_bound(figure1_loop(), 16, zero_shift=True)
        assert lb.shifts == pytest.approx(3 / 4)  # b, c, and the store

    def test_runtime_zero_counts_all_streams(self):
        params = SynthParams(loads=6, statements=1, trip=64,
                             runtime_alignment=True)
        syn = synthesize(params, seed=0)
        lb_rt = lower_bound(syn.loop, 16, zero_shift=True,
                            runtime_alignment=True, residues=syn.base_residues)
        # 6 loads + 1 store all must be shifted
        assert lb_rt.shifts == pytest.approx(7 / 4)

    def test_paper_runtime_l6_lower_bound(self):
        """Figure 11's runtime LB is 4.750 opd for S1*L6 suites."""
        suite = synthesize_suite(
            SynthParams(loads=6, statements=1, trip=64, runtime_alignment=True),
            count=20,
        )
        values = [
            lower_bound(s.loop, 16, zero_shift=True, runtime_alignment=True,
                        residues=s.base_residues).opd
            for s in suite
        ]
        assert sum(values) / len(values) == pytest.approx(4.75, abs=0.01)

    def test_same_vector_loads_dedupe(self):
        from repro.ir import LoopBuilder

        lb_ = LoopBuilder(trip=40)
        a = lb_.array("a", "int32", 64)
        b = lb_.array("b", "int32", 64)
        lb_.assign(a[0], b[0] + b[1])  # same 16-byte line
        bound = lower_bound(lb_.build(), 16)
        assert bound.loads == pytest.approx(1 / 4)

    def test_seq_opd(self):
        params = SynthParams(loads=6, statements=1, trip=64)
        assert seq_opd(synthesize(params, seed=0).loop) == 12.0

    def test_runtime_residues_required(self):
        params = SynthParams(loads=2, trip=64, runtime_alignment=True)
        syn = synthesize(params, seed=0)
        with pytest.raises(BenchError, match="residue"):
            lower_bound(syn.loop, 16)


class TestRunnerAndTables:
    def test_measurement_fields_consistent(self):
        params = SynthParams(loads=3, statements=1, trip=61)
        syn = synthesize(params, seed=2)
        m = measure_loop(syn, SimdOptions(policy="lazy", reuse="sp", unroll=2))
        assert m.opd == pytest.approx(m.vector_ops / m.data_count)
        assert m.speedup == pytest.approx(m.scalar_ops / m.vector_ops)
        assert m.opd >= m.lb.opd * 0.99
        assert m.opd == pytest.approx(
            m.lb.opd + m.shift_overhead + m.other_overhead, rel=1e-6)

    def test_suite_aggregation_is_ratio_of_sums(self):
        suite = synthesize_suite(SynthParams(loads=2, trip=61), count=3)
        res = measure_suite(suite, SimdOptions(reuse="sp", unroll=2))
        ops = sum(m.vector_ops for m in res.measurements)
        data = sum(m.data_count for m in res.measurements)
        assert res.opd == pytest.approx(ops / data)

    def test_measured_opd_never_below_lower_bound(self):
        suite = synthesize_suite(SynthParams(loads=4, trip=61), count=6)
        for options in (SimdOptions(policy="zero", reuse="sp", unroll=4),
                        SimdOptions(policy="dominant", reuse="pc", unroll=4)):
            res = measure_suite(suite, options)
            for m in res.measurements:
                assert m.opd >= m.lb.opd - 1e-9

    def test_table_row_shape(self):
        row = measure_row(1, 2, INT32, count=3, trip=61)
        assert row.label == "S1*L2"
        assert row.compile_best.speedup >= row.all_compile["ZERO-sp"].speedup
        assert set(row.all_runtime) == {"ZERO-pc", "ZERO-sp"}
        assert "S1*L2" in row.format()

    def test_short_int_rows_reach_higher_speedups(self):
        int_row = measure_row(1, 4, INT32, count=3, trip=121)
        short_row = measure_row(1, 4, INT16, count=3, trip=121)
        assert short_row.compile_best.speedup > int_row.compile_best.speedup

    def test_figure_bars(self):
        fig = figure(offset_reassoc=False, count=2, trip=61)
        labels = [bar.label for bar in fig.bars]
        assert "LAZY-pc" in labels and "ZERO-sp(runtime)" in labels
        assert fig.seq_opd == 12.0
        best = fig.best()
        assert best.total <= fig.bar("ZERO").total
        assert "total" in fig.format()


class TestSimdizeCache:
    """The per-process simdize memo is a bounded LRU, not a FIFO."""

    @pytest.fixture(autouse=True)
    def _small_empty_cache(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner, "_SIMDIZE_CACHE_MAX", 3)
        runner._SIMDIZE_CACHE.clear()
        yield
        runner._SIMDIZE_CACHE.clear()

    @staticmethod
    def _loops(n):
        from repro.ir import LoopBuilder

        loops = []
        for k in range(n):
            lb = LoopBuilder(trip=40 + k)
            a = lb.array("a", "int32", 128)
            b = lb.array("b", "int32", 128)
            lb.assign(a[1], b[2])
            loops.append(lb.build())
        return loops

    def test_hit_refreshes_recency(self):
        """Touching an old entry saves it from the next eviction."""
        from repro.bench.runner import _SIMDIZE_CACHE, _cached_simdize

        loops = self._loops(4)
        options = SimdOptions()
        for loop in loops[:3]:
            _cached_simdize(loop, 16, options)
        assert len(_SIMDIZE_CACHE) == 3
        _cached_simdize(loops[0], 16, options)   # hit: loops[0] now newest
        _cached_simdize(loops[3], 16, options)   # overflow: evicts loops[1]
        keys = {sig for sig, _, _ in _SIMDIZE_CACHE}
        assert loops[0].signature() in keys      # survived (a FIFO would drop it)
        assert loops[1].signature() not in keys  # the true least-recent went
        assert loops[3].signature() in keys
        assert len(_SIMDIZE_CACHE) == 3

    def test_hit_returns_same_object_and_counts(self):
        from repro.bench.runner import _cached_simdize
        from repro.profiling import PhaseProfile

        loop = self._loops(1)[0]
        profile = PhaseProfile()
        first = _cached_simdize(loop, 16, SimdOptions(), profile)
        second = _cached_simdize(loop, 16, SimdOptions(), profile)
        assert first is second
        assert profile.counts["simdize_memo_misses"] == 1
        assert profile.counts["simdize_memo_hits"] == 1

    def test_disk_cache_survives_memo_clear(self):
        """A cleared memo refills from the disk cache without re-running
        the simdizer (the cross-worker sharing path)."""
        from repro.bench import runner
        from repro.profiling import PhaseProfile

        loop = self._loops(1)[0]
        first = runner._cached_simdize(loop, 16, SimdOptions())
        runner._SIMDIZE_CACHE.clear()
        profile = PhaseProfile()
        second = runner._cached_simdize(loop, 16, SimdOptions(), profile)
        assert profile.counts.get("simdize_disk_hits", 0) == 1
        assert second is not first            # deserialized copy …
        assert (second.program.source.signature()
                == first.program.source.signature())  # … of the same result


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestSweepWorkers:
    """A sweep's rows and profile counts do not depend on its workers."""

    def test_worker_count_independent(self):
        configs = [c for _, c in figure_configs(True, count=2, trip=53)]
        serial = measure_many(configs, jobs=1)
        parallel = measure_many(configs, jobs=2)
        assert serial == parallel

    def test_worker_profiles_aggregate(self):
        configs = [c for _, c in figure_configs(False, count=1, trip=53)]
        profile = PhaseProfile()
        measure_many(configs, jobs=2, profile=profile)
        # Every config is looked up in the simdize memo exactly once,
        # in whichever process it ran; a merge that overwrote one
        # worker's counters with another's would lose some.
        lookups = (profile.counts.get("simdize_memo_hits", 0)
                   + profile.counts.get("simdize_memo_misses", 0))
        assert lookups == len(configs)
