"""Reproduction of the paper's Table 1 and Table 2 (Section 5.6).

Each table row is a 50-loop benchmark ``S{s}*L{l}`` (reuse and bias at
30 %, trip counts around 1000).  For every row we measure all policy ×
reuse schemes, pick the best performer — the paper reports only the
best — and print actual and LB speedups for both compile-time and
runtime alignment, exactly mirroring the table layout:

    Table 1: 4 int32 per vector (peak speedup 4)
    Table 2: 8 int16 per vector (peak speedup 8)

Speedups are dynamic-instruction-count ratios aggregated as the total
scalar operations over all loops divided by the total simdized
operations (the paper's footnote 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.runner import SuiteResult, measure_suite
from repro.bench.synth import SynthParams, synthesize_suite
from repro.ir.types import DataType, INT16, INT32
from repro.simdize.options import SimdOptions

#: The rows of Tables 1 and 2: (statements, loads).
TABLE_ROWS: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 4), (1, 6), (2, 4), (4, 4), (4, 8),
)

#: Candidate schemes for compile-time alignment (policy, reuse).
COMPILE_TIME_SCHEMES: tuple[tuple[str, str], ...] = (
    ("eager", "pc"), ("eager", "sp"),
    ("lazy", "pc"), ("lazy", "sp"),
    ("dominant", "pc"), ("dominant", "sp"),
    ("zero", "pc"), ("zero", "sp"),
)

#: Candidate schemes under runtime alignment (zero-shift only).
RUNTIME_SCHEMES: tuple[tuple[str, str], ...] = (
    ("zero", "pc"), ("zero", "sp"),
)

#: The unroll factor all table measurements use (removes the SP/PC
#: copies and amortizes the modelled loop overhead, standing in for the
#: production compiler's unroller).
BENCH_UNROLL = 4


@dataclass
class TableRow:
    """One row of Table 1/2: best schemes for both alignment settings."""

    label: str
    compile_best: SuiteResult
    runtime_best: SuiteResult
    all_compile: dict[str, SuiteResult] = field(default_factory=dict)
    all_runtime: dict[str, SuiteResult] = field(default_factory=dict)

    def format(self) -> str:
        c, r = self.compile_best, self.runtime_best
        return (
            f"{self.label:7s} {c.scheme:12s} {c.speedup:5.2f} {c.lb_speedup:5.2f}   "
            f"{r.scheme:10s} {r.speedup:5.2f} {r.lb_speedup:5.2f}"
        )


@dataclass
class TableResult:
    title: str
    peak: int
    rows: list[TableRow]

    def format(self) -> str:
        lines = [
            self.title,
            f"(peak speedup is {self.peak})",
            f"{'Loop':7s} {'Best policy':12s} {'Act.':>5s} {'LB':>5s}   "
            f"{'Best rt':10s} {'Act.':>5s} {'LB':>5s}",
        ]
        lines += [row.format() for row in self.rows]
        return "\n".join(lines)


def _scheme_label(policy: str, reuse: str) -> str:
    short = {"zero": "ZERO", "eager": "EAGER", "lazy": "LAZY", "dominant": "DOM"}
    return f"{short[policy]}-{reuse}"


def measure_row(
    statements: int,
    loads: int,
    dtype: DataType,
    count: int = 50,
    trip: int = 997,
    V: int = 16,
    base_seed: int = 0,
    unroll: int = BENCH_UNROLL,
    jobs: int = 1,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile=None,
    run_policy=None,
) -> TableRow:
    """Measure one ``S{s}*L{l}`` row under every candidate scheme."""
    common = dict(loads=loads, statements=statements, trip=trip,
                  bias=0.3, reuse=0.3, dtype=dtype)
    ct_suite = synthesize_suite(SynthParams(**common), count, base_seed, V)
    rt_suite = synthesize_suite(
        SynthParams(**common, runtime_alignment=True), count, base_seed, V
    )

    all_compile: dict[str, SuiteResult] = {}
    for policy, reuse in COMPILE_TIME_SCHEMES:
        label = _scheme_label(policy, reuse)
        options = SimdOptions(policy=policy, reuse=reuse, unroll=unroll)
        all_compile[label] = measure_suite(ct_suite, options, V, scheme=label,
                                           jobs=jobs, backend=backend,
                                           scalar_backend=scalar_backend,
                                           profile=profile,
                                           run_policy=run_policy)

    all_runtime: dict[str, SuiteResult] = {}
    for policy, reuse in RUNTIME_SCHEMES:
        label = _scheme_label(policy, reuse)
        options = SimdOptions(policy=policy, reuse=reuse, unroll=unroll)
        all_runtime[label] = measure_suite(rt_suite, options, V, scheme=label,
                                           jobs=jobs, backend=backend,
                                           scalar_backend=scalar_backend,
                                           profile=profile,
                                           run_policy=run_policy)

    best_ct = max(all_compile.values(), key=lambda r: r.speedup)
    best_rt = max(all_runtime.values(), key=lambda r: r.speedup)
    return TableRow(
        label=f"S{statements}*L{loads}",
        compile_best=best_ct,
        runtime_best=best_rt,
        all_compile=all_compile,
        all_runtime=all_runtime,
    )


def table1(count: int = 50, trip: int = 997, base_seed: int = 0,
           unroll: int = BENCH_UNROLL, jobs: int = 1,
           backend: str = "auto", scalar_backend: str = "auto",
           profile=None, run_policy=None) -> TableResult:
    """Table 1: speedups with 4 int32 elements per 16-byte register."""
    rows = [
        measure_row(s, l, INT32, count, trip, 16, base_seed, unroll,
                    jobs=jobs, backend=backend, scalar_backend=scalar_backend,
                    profile=profile, run_policy=run_policy)
        for s, l in TABLE_ROWS
    ]
    return TableResult(
        "Table 1: speedup of simdized vs scalar code (4 ints per register)",
        peak=4,
        rows=rows,
    )


def table2(count: int = 50, trip: int = 997, base_seed: int = 0,
           unroll: int = BENCH_UNROLL, jobs: int = 1,
           backend: str = "auto", scalar_backend: str = "auto",
           profile=None, run_policy=None) -> TableResult:
    """Table 2: speedups with 8 int16 elements per 16-byte register."""
    rows = [
        measure_row(s, l, INT16, count, trip, 16, base_seed, unroll,
                    jobs=jobs, backend=backend, scalar_backend=scalar_backend,
                    profile=profile, run_policy=run_policy)
        for s, l in TABLE_ROWS
    ]
    return TableResult(
        "Table 2: speedup of simdized vs scalar code (8 short ints per register)",
        peak=8,
        rows=rows,
    )
