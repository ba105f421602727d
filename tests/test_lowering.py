"""Lowering is a pure function of (loop, V, options), in linear work.

* A config prints the same program, and keys the same kernel, however
  many other loops the process lowered before it: the passes number
  their temporaries per program.
* The passes agree with the quadratic reference passes of
  ``reference_passes.py`` on the random loops of
  ``test_driver_equivalence.py``.
* Each pass's work grows at most linearly with the program it sees,
  as unrolling or the number of loads grows it.  Work is counted, not
  timed: every Python and builtin call a pass makes, under
  ``sys.setprofile``.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import reference_passes
from repro.bench.figures import figure_configs
from repro.bench.synth import synthesize
from repro.codegen.passes import commoning, cse, dce, memnorm, unroll
from repro.simdize import simdize
from repro.vir import format_program, walk
from repro.vir.vstmt import SetV, VStoreS
from test_driver_equivalence import loop_and_options

ROOT = Path(__file__).resolve().parent.parent

#: fig11 at the CLI defaults (count 10, trip 509); config 45 is ZERO-pc,
#: whose program gets PC and CSE temporaries.
FIG11 = [config for _, config in figure_configs(False, count=10, trip=509)]

_HISTORY = r"""
import json
from repro.bench.figures import figure_configs
from repro.bench.synth import synthesize
from repro.machine import jit
from repro.simdize import simdize
from repro.vir import format_program

configs = [c for _, c in figure_configs(False, count=10, trip=509)]

def lower(config):
    loop = synthesize(config.params, config.seed, config.V).loop
    program = simdize(loop, config.V, config.options).program
    return format_program(program), jit.program_signature(program)

first = lower(configs[45])
for config in configs[:30]:
    lower(config)
print(json.dumps({"first": first, "later": lower(configs[45])}))
"""


def test_lowering_does_not_depend_on_history():
    """In a fresh interpreter, fig11 config 45 prints the same program
    and has the same kernel signature whether it is lowered first or
    after 30 other configs."""
    pytest.importorskip("numpy")
    assert FIG11[45].scheme == "ZERO-pc"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _HISTORY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    text = got["first"][0]
    assert "vpc1" in text and "vcse_prologue_s0_1" in text
    assert got["later"] == got["first"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_and_options())
def test_passes_match_the_reference_passes(case):
    """The linear-time PC, CSE and DCE print the programs the quadratic
    reference passes print, temporaries numbered per program on both
    sides."""
    syn, options = case
    got = format_program(simdize(syn.loop, 16, options).program)
    with mock.patch.object(commoning, "predictive_commoning",
                           reference_passes.predictive_commoning), \
            mock.patch.object(cse, "eliminate_common_subexprs",
                              reference_passes.eliminate_common_subexprs), \
            mock.patch.object(dce, "eliminate_dead_code",
                              reference_passes.eliminate_dead_code):
        want = format_program(simdize(syn.loop, 16, options).program)
    assert got == want


# ---------------------------------------------------------------------------
# Linear work
# ---------------------------------------------------------------------------

PASSES = [
    (memnorm, "normalize_memory"),
    (commoning, "predictive_commoning"),
    (cse, "eliminate_common_subexprs"),
    (unroll, "unroll_steady"),
    (dce, "eliminate_dead_code"),
]


def _node_count(program) -> int:
    """Statements plus vector-expression nodes, every occurrence."""
    lists = [program.preheader] + [s.stmts for s in program.all_sections()]
    if program.steady is not None:
        lists += [program.steady.body, program.steady.bottom]
    total = 0
    for stmts in lists:
        for stmt in stmts:
            total += 1
            if isinstance(stmt, SetV):
                total += sum(1 for _ in walk(stmt.expr))
            elif isinstance(stmt, VStoreS):
                total += sum(1 for _ in walk(stmt.src))
    return total


def _pass_work(loop, V, options) -> dict[str, tuple[int, int]]:
    """Per pass: (calls made, nodes of its input plus its output)."""
    work: dict[str, tuple[int, int]] = {}

    def counted(name, fn):
        def run(program, *args):
            before = _node_count(program)
            calls = 0

            def hook(frame, event, arg):
                nonlocal calls
                if event in ("call", "c_call"):
                    calls += 1

            sys.setprofile(hook)
            try:
                out = fn(program, *args)
            finally:
                sys.setprofile(None)
            work[name] = (calls, before + _node_count(out))
            return out
        return run

    patches = [mock.patch.object(module, name, counted(name, getattr(module, name)))
               for module, name in PASSES]
    for patch in patches:
        patch.start()
    try:
        simdize(loop, V, options)
    finally:
        for patch in patches:
            patch.stop()
    return work


def _assert_linear(per_node: dict[str, list[float]]) -> None:
    """Each pass makes at most twice as many calls per node as at the
    smallest program it ran on."""
    assert set(per_node) == {name for _, name in PASSES}
    for name, ratios in per_node.items():
        assert max(ratios) <= 2 * ratios[0], (name, ratios)


def test_pass_work_grows_linearly_with_unrolling():
    """fig11 config 45 at unroll 1, 2, 4 and 8.  Unrolling grows the
    programs the unroll pass and DCE see 2–4×, so a pass whose calls
    grew with the square of its program would make more than twice as
    many per node."""
    config = FIG11[45]
    loop = synthesize(config.params, config.seed, config.V).loop
    per_node: dict[str, list[float]] = {}
    for factor in (1, 2, 4, 8):
        work = _pass_work(loop, config.V, replace(config.options, unroll=factor))
        for name, (calls, nodes) in work.items():
            per_node.setdefault(name, []).append(calls / nodes)
    assert len(per_node["unroll_steady"]) == 3    # not run at unroll 1
    _assert_linear(per_node)


def test_pass_work_grows_linearly_with_loads():
    """fig11 config 45's loop drawn with 3, 6, 12 and 24 loads, at
    unroll 2: more loads make deeper expressions, more CSE candidates
    and more displacement chains for PC to common, one round each."""
    config = FIG11[45]
    per_node: dict[str, list[float]] = {}
    for loads in (3, 6, 12, 24):
        params = replace(config.params, loads=loads)
        loop = synthesize(params, config.seed, config.V).loop
        work = _pass_work(loop, config.V, replace(config.options, unroll=2))
        for name, (calls, nodes) in work.items():
            per_node.setdefault(name, []).append(calls / nodes)
    _assert_linear(per_node)
