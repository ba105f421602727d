"""Static operation counts equal the byte interpreter's dynamic ones.

:func:`repro.machine.interp.count_ops` derives a run's counters from
the program and its bindings alone, and every array tier (numpy, jit,
native) reports them; the byte interpreter counts as it executes and
stays the oracle.  These tests compare the two directly, so they need
neither NumPy nor any array tier (``test_backend.py`` and
``test_differential.py`` check the same counters through the tiers).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench import figure_configs
from repro.bench.synth import SynthParams, synthesize, synthesize_suite
from repro.bench.tables import (
    BENCH_UNROLL,
    COMPILE_TIME_SCHEMES,
    RUNTIME_SCHEMES,
    TABLE_ROWS,
)
from repro.ir import INT16, INT32, LoopBuilder
from repro.machine import RunBindings
from repro.machine.interp import count_ops, run_vector
from repro.simdize import SimdOptions, make_space, simdize

from test_driver_equivalence import loop_and_options

#: The CLI's ``repro bench`` defaults.
COUNT, TRIP = 10, 509


def assert_counts_match(program, space, bindings, what=""):
    """count_ops equals what one byte-interpreted run tallies."""
    run = run_vector(program, space, space.make_memory(), bindings)
    static = count_ops(program, space, bindings)
    assert static.as_dict() == run.counters.as_dict(), what


def check_synthesized(syn, options, V=16):
    """One benchmark config, set up as ``measure_loop`` sets it up."""
    program = simdize(syn.loop, V, options).program
    space = make_space(syn.loop, V, random.Random(syn.seed ^ 0x5EED),
                       syn.base_residues)
    trip = syn.params.trip if syn.loop.runtime_upper else None
    assert_counts_match(program, space, RunBindings(trip=trip),
                        f"seed {syn.seed}, {options}")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_and_options())
def test_matches_interpreter_on_random_loops(case):
    """Runtime alignment and trips, reductions, iota, every policy and
    pass combination, and trips on both sides of the guard."""
    syn, options = case
    program = simdize(syn.loop, 16, options).program
    space = make_space(syn.loop, 16, random.Random(syn.seed),
                       syn.base_residues)
    trip = syn.params.trip if syn.params.runtime_trip else None
    assert_counts_match(program, space, RunBindings(trip=trip))


@pytest.mark.parametrize("offset_reassoc", [False, True],
                         ids=["fig11", "fig12"])
def test_matches_interpreter_on_figure_configs(offset_reassoc):
    for label, config in figure_configs(offset_reassoc, count=COUNT,
                                        trip=TRIP):
        syn = synthesize(config.params, config.seed, config.V)
        check_synthesized(syn, config.options, config.V)


@pytest.mark.parametrize("dtype", [INT32, INT16], ids=["table1", "table2"])
def test_matches_interpreter_on_table_configs(dtype):
    schemes = ([(False, s) for s in COMPILE_TIME_SCHEMES]
               + [(True, s) for s in RUNTIME_SCHEMES])
    for statements, loads in TABLE_ROWS:
        for runtime_alignment, (policy, reuse) in schemes:
            params = SynthParams(loads=loads, statements=statements,
                                 trip=TRIP, bias=0.3, reuse=0.3, dtype=dtype,
                                 runtime_alignment=runtime_alignment)
            options = SimdOptions(policy=policy, reuse=reuse,
                                  unroll=BENCH_UNROLL)
            for syn in synthesize_suite(params, count=2):
                check_synthesized(syn, options)


@pytest.mark.parametrize("options", [
    SimdOptions(reuse="sp", unroll=2),
    SimdOptions(policy="zero", reuse="pc", unroll=3),
    SimdOptions(reuse="none", bounds_scheme="general"),
], ids=["sp-unroll2", "zero-pc-unroll3", "general-bounds"])
def test_one_program_counts_every_trip(options):
    """Every trip from an empty loop, across the guard, to two vectors
    of steady iterations and partial epilogues, on one program."""
    lb = LoopBuilder(trip="n")
    a = lb.array("a", "int32", 128)
    b = lb.array("b", "int32", 128)
    c = lb.array("c", "int32", 128)
    lb.assign(a[3], b[1] + c[2])
    loop = lb.build()
    program = simdize(loop, 16, options).program
    space = make_space(loop, 16, random.Random(0))
    for trip in range(program.guard_min_trip + 2 * program.V + 1):
        assert_counts_match(program, space, RunBindings(trip=trip),
                            f"trip {trip}")
