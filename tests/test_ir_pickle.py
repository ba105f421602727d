"""The IR's in-memory and on-disk representation.

Every frozen IR dataclass (``ir``, ``vir``, ``reorg``, ``align``) is
slotted and pickles as a call of its own constructor: a node carries no
``__dict__`` for the cyclic collector to walk, and a disk-cache entry
stores field values, not field names.  The instances checked here come
from real simdize results, so a node class that keeps a ``__dict__`` or
falls back to default pickling fails by name.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import random
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.bench.figures import figure_configs
from repro.bench.synth import synthesize
from repro.cache import DiskCache
from repro.errors import PolicyError
from repro.lang import compile_source
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize
from repro.vir.printer import format_program

from test_differential import differential_case

IR_MODULES = ("repro.ir.expr", "repro.ir.types", "repro.vir.vexpr",
              "repro.vir.vstmt", "repro.reorg.graph", "repro.align.offsets")

FIG1 = """
int a[128]; int b[128]; int c[128];
for (i = 0; i < 100; i++) { a[i + 3] = b[i + 1] + c[i + 2]; }
"""

#: Loops that reach the node kinds fig1 and a fig11 loop leave out:
#: runtime scalars and trip (SVar, ScalarVar), splatted constants,
#: the loop counter as a value (iota), and a reduction.
EXTRA_SOURCES = (
    "int a[300]; int b[300]; int k; int n;\n"
    "for (i = 0; i < n; i++) { a[i + 1] = b[i + 2] * k + i + 7; }",
    "int s[4]; int b[300];\n"
    "for (i = 0; i < 250; i++) { s[1] += b[i + 3]; }",
)


def frozen_ir_classes() -> set[type]:
    classes = set()
    for name in IR_MODULES:
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == name
                    and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen):
                classes.add(obj)
    return classes


def _walk(obj, seen: set[int], out: list) -> None:
    if isinstance(obj, (str, int, float, type(None))) or id(obj) in seen:
        return
    seen.add(id(obj))
    out.append(obj)
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _walk(getattr(obj, field.name), seen, out)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            _walk(item, seen, out)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _walk(key, seen, out)
            _walk(value, seen, out)


def _simdize_results():
    results = [simdize(compile_source(FIG1), 16, SimdOptions())]
    for label, config in figure_configs(False, count=1, trip=67):
        if label in ("DOM", "ZERO-sp(runtime)"):
            syn = synthesize(config.params, config.seed, config.V)
            results.append(simdize(syn.loop, config.V, config.options))
    results += [simdize(compile_source(source), 16, SimdOptions())
                for source in EXTRA_SOURCES]
    return results


def ir_instances() -> list:
    """Every frozen IR node reachable from the results' program, graph
    and loop, plus the stream offset of every graph node."""
    frozen = frozen_ir_classes()
    seen: set[int] = set()
    out: list = []
    for result in _simdize_results():
        _walk(result.program, seen, out)
        _walk(result.graph, seen, out)
        for sg in result.graph.statements:
            for node in sg.store.walk():
                _walk(node.offset(result.graph.V), seen, out)
    return [obj for obj in out if type(obj) in frozen]


INSTANCES: dict[str, list] = {}
for _node in ir_instances():
    INSTANCES.setdefault(type(_node).__name__, []).append(_node)


def test_the_walk_reaches_every_frozen_ir_class():
    names = {cls.__name__ for cls in frozen_ir_classes()}
    assert not names - set(INSTANCES), \
        f"no instance of {sorted(names - set(INSTANCES))} reached"


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_nodes_are_slotted_and_pickle_through_their_constructor(name):
    for node in INSTANCES[name]:
        assert not hasattr(node, "__dict__")
        assert node.__reduce__()[0] is type(node)
        loaded = pickle.loads(pickle.dumps(node, pickle.HIGHEST_PROTOCOL))
        assert type(loaded) is type(node)
        assert loaded == node
        assert hash(loaded) == hash(node)


def _run(engine: str, program, syn):
    rand = random.Random(syn.seed ^ 0xD1FF)
    space = make_space(syn.loop, 16, rand, syn.base_residues)
    mem = space.make_memory()
    fill_random(space, mem, rand)
    trip = syn.params.trip if syn.loop.runtime_upper else None
    run = get_backend(engine).run(program, space, mem, RunBindings(trip=trip))
    return mem.snapshot(), run.counters.as_dict(), run.trip, run.used_fallback


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(differential_case())
def test_disk_cache_round_trip_runs_byte_identical(case):
    syn, options = case
    try:
        result = simdize(syn.loop, 16, options)
    except PolicyError:
        assume(False)
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        cache.put("simdize:round-trip", result)
        loaded = cache.get("simdize:round-trip")
    assert loaded is not None and loaded is not result
    assert format_program(loaded.program) == format_program(result.program)
    assert loaded.graph.shift_count() == result.graph.shift_count()
    oracle = _run("bytes", result.program, syn)
    engines = ("bytes", "jit") if numpy_available() else ("bytes",)
    for engine in engines:
        assert _run(engine, loaded.program, syn) == oracle, engine
