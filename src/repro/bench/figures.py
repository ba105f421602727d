"""Reproduction of the paper's Figure 11 and Figure 12 (Section 5.5).

The figures evaluate policy × code-generation-optimization combinations
on 50 single-statement loops with six int32 loads each (bias 30 %),
reporting operations per datum broken into three stacked components:

* the Section 5.3 **lower bound** (bottom),
* the **shift overhead** the policy introduces above the bound
  (middle; identically zero for zero-shift, whose deterministic shift
  count is folded into its LB),
* the remaining **compiler overhead** (top).

Figure 11 runs with common-offset reassociation off, Figure 12 with it
on.  The ``SEQ`` bar is the ideal scalar OPD (12 for these loops) and
``ZERO(runtime)`` reverts to the zero-shift policy with alignments
hidden from the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import (
    Measurement,
    SuiteResult,
    SweepConfig,
    measure_many,
)
from repro.errors import BenchError
from repro.bench.synth import SynthParams, synthesize_suite
from repro.ir.types import INT32
from repro.simdize.options import SimdOptions

#: Scheme bars of Figures 11/12: (label, policy, reuse).  Schemes
#: without PC/SP "introduce redundant operations and perform poorly"
#: — they are the paper's plain policy bars.
FIGURE_SCHEMES: tuple[tuple[str, str, str], ...] = (
    ("ZERO", "zero", "none"),
    ("EAGER", "eager", "none"),
    ("LAZY", "lazy", "none"),
    ("DOM", "dominant", "none"),
    ("ZERO-pc", "zero", "pc"),
    ("EAGER-pc", "eager", "pc"),
    ("LAZY-pc", "lazy", "pc"),
    ("DOM-pc", "dominant", "pc"),
    ("ZERO-sp", "zero", "sp"),
    ("EAGER-sp", "eager", "sp"),
    ("LAZY-sp", "lazy", "sp"),
    ("DOM-sp", "dominant", "sp"),
)

FIGURE_UNROLL = 4


@dataclass
class FigureBar:
    label: str
    lb: float
    shift_overhead: float
    other_overhead: float
    total: float

    def format(self) -> str:
        return (
            f"{self.label:16s} total={self.total:6.3f}  "
            f"[LB {self.lb:5.3f} | shift +{self.shift_overhead:5.3f} "
            f"| other +{self.other_overhead:5.3f}]"
        )


@dataclass
class FigureResult:
    title: str
    seq_opd: float
    bars: list[FigureBar]

    def format(self) -> str:
        lines = [self.title, f"SEQ (ideal scalar) opd = {self.seq_opd:.3f}"]
        lines += [bar.format() for bar in self.bars]
        return "\n".join(lines)

    def bar(self, label: str) -> FigureBar:
        for bar in self.bars:
            if bar.label == label:
                return bar
        raise KeyError(label)

    def best(self) -> FigureBar:
        return min(self.bars, key=lambda b: b.total)


def _bar(result: SuiteResult, label: str) -> FigureBar:
    return FigureBar(
        label=label,
        lb=result.lb_opd,
        shift_overhead=result.shift_overhead,
        other_overhead=result.other_overhead,
        total=result.opd,
    )


def figure_configs(
    offset_reassoc: bool,
    count: int = 50,
    trip: int = 997,
    V: int = 16,
    base_seed: int = 0,
    unroll: int = FIGURE_UNROLL,
    loads: int = 6,
) -> list[tuple[str, SweepConfig]]:
    """Every (bar label, sweep config) pair of a Figure 11/12 run.

    Exposed separately so callers (the speed benchmark, external
    sweeps) can schedule the exact figure workload themselves.
    """
    ct_params = SynthParams(loads=loads, statements=1, trip=trip,
                            bias=0.3, reuse=0.3, dtype=INT32)
    rt_params = SynthParams(loads=loads, statements=1, trip=trip, bias=0.3,
                            reuse=0.3, dtype=INT32, runtime_alignment=True)
    labelled: list[tuple[str, SweepConfig]] = []
    for label, policy, reuse in FIGURE_SCHEMES:
        options = SimdOptions(policy=policy, reuse=reuse,
                              offset_reassoc=offset_reassoc, unroll=unroll)
        for k in range(count):
            labelled.append(
                (label, SweepConfig(ct_params, base_seed + k, options, V, label))
            )
    for reuse in ("pc", "sp"):
        label = f"ZERO-{reuse}(runtime)"
        options = SimdOptions(policy="zero", reuse=reuse,
                              offset_reassoc=offset_reassoc, unroll=unroll)
        for k in range(count):
            labelled.append(
                (label, SweepConfig(rt_params, base_seed + k, options, V, label))
            )
    return labelled


def figure(
    offset_reassoc: bool,
    count: int = 50,
    trip: int = 997,
    V: int = 16,
    base_seed: int = 0,
    unroll: int = FIGURE_UNROLL,
    loads: int = 6,
    jobs: int = 1,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile=None,
    run_policy=None,
) -> FigureResult:
    """Measure every Figure 11/12 scheme bar.

    All (scheme × loop) configurations go through one
    :func:`~repro.bench.runner.measure_many` call, so ``jobs > 1``
    parallelizes across the whole figure, not per bar.  ``run_policy``
    is the sweep's :class:`~repro.bench.runner.RunPolicy`; configs that
    still fail after its retries are dropped from their bar's aggregate
    (a bar with no surviving configs raises).
    """
    labelled = figure_configs(offset_reassoc, count, trip, V, base_seed,
                              unroll, loads)
    measurements = measure_many([c for _, c in labelled], jobs=jobs,
                                backend=backend,
                                scalar_backend=scalar_backend,
                                profile=profile, run_policy=run_policy)
    by_label: dict[str, list] = {}
    for (label, _), m in zip(labelled, measurements):
        if isinstance(m, Measurement):
            by_label.setdefault(label, []).append(m)
    empty = [label for label, _ in labelled if label not in by_label]
    if empty:
        raise BenchError(
            f"every config of scheme(s) {sorted(set(empty))} failed after "
            f"retries; see the failure summary above"
        )
    bars = [
        _bar(SuiteResult(scheme=label, measurements=ms), label)
        for label, ms in by_label.items()
    ]

    params = SynthParams(loads=loads, statements=1, trip=trip,
                         bias=0.3, reuse=0.3, dtype=INT32)
    suite = synthesize_suite(params, count, base_seed, V)
    title = (
        "Figure 12: operations per datum (OffsetReassoc ON)"
        if offset_reassoc
        else "Figure 11: operations per datum (OffsetReassoc OFF)"
    )
    return FigureResult(title=title, seq_opd=_seq_opd(suite), bars=bars)


def _seq_opd(suite) -> float:
    from repro.bench.lowerbound import seq_opd

    total = sum(seq_opd(s.loop) for s in suite)
    return total / len(suite)


def figure11(count: int = 50, trip: int = 997, **kwargs) -> FigureResult:
    """Figure 11: scheme comparison with OffsetReassoc off."""
    return figure(False, count, trip, **kwargs)


def figure12(count: int = 50, trip: int = 997, **kwargs) -> FigureResult:
    """Figure 12: scheme comparison with OffsetReassoc on."""
    return figure(True, count, trip, **kwargs)
