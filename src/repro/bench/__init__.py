"""Benchmark harness: synthesized loops, metrics, tables, and figures."""

from repro.bench.ablation import (
    OptionAblation,
    PeelingAblation,
    memnorm_ablation,
    peeling_ablation,
    reuse_ablation,
    unroll_ablation,
)
from repro.bench.coverage import CoverageResult, coverage_sweep
from repro.bench.figures import (
    FigureBar,
    FigureResult,
    figure,
    figure11,
    figure12,
    figure_configs,
)
from repro.bench.lowerbound import LowerBound, lower_bound, peak_speedup, seq_opd
from repro.bench.runner import (
    Measurement,
    SuiteResult,
    SweepConfig,
    measure_loop,
    measure_many,
    measure_suite,
)
from repro.bench.synth import (
    MAX_OFFSET,
    SynthParams,
    SynthesizedLoop,
    synthesize,
    synthesize_suite,
)
from repro.bench.tables import (
    TABLE_ROWS,
    TableResult,
    TableRow,
    measure_row,
    table1,
    table2,
)

__all__ = [
    "OptionAblation", "PeelingAblation", "memnorm_ablation",
    "peeling_ablation", "reuse_ablation", "unroll_ablation",
    "CoverageResult", "coverage_sweep",
    "FigureBar", "FigureResult", "figure", "figure11", "figure12",
    "figure_configs",
    "LowerBound", "lower_bound", "peak_speedup", "seq_opd",
    "Measurement", "SuiteResult", "SweepConfig",
    "measure_loop", "measure_many", "measure_suite",
    "MAX_OFFSET", "SynthParams", "SynthesizedLoop", "synthesize",
    "synthesize_suite",
    "TABLE_ROWS", "TableResult", "TableRow", "measure_row", "table1", "table2",
]
