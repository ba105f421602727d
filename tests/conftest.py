"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest

from repro.ir import LoopBuilder, Loop
from repro.machine import ArraySpace, RunBindings
from repro.simdize import SimdOptions, fill_random, make_space, simdize, verify_equivalence


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def build_fig1(trip: int = 100, length: int = 128) -> Loop:
    lb = LoopBuilder(trip=trip, name="fig1")
    a = lb.array("a", "int32", length)
    b = lb.array("b", "int32", length)
    c = lb.array("c", "int32", length)
    lb.assign(a[3], b[1] + c[2])
    return lb.build()


def check_loop(
    loop: Loop,
    options: SimdOptions | None = None,
    V: int = 16,
    seed: int = 0,
    trip: int | None = None,
    scalars: dict[str, int] | None = None,
    residues: dict[str, int] | None = None,
):
    """Simdize + execute + byte-verify; return (SimdizeResult, report)."""
    options = options or SimdOptions()
    result = simdize(loop, V, options)
    rand = random.Random(seed)
    space = make_space(loop, V, rand, residues)
    mem = space.make_memory()
    fill_random(space, mem, rand)
    bindings = RunBindings(trip=trip, scalars=scalars or {})
    report = verify_equivalence(result.program, space, mem, bindings)
    return result, report


def sequential_memory(loop: Loop, V: int = 16, residues: dict[str, int] | None = None):
    """An ArraySpace + memory where array[k] == k (handy for exact checks)."""
    space = ArraySpace(V)
    rand = random.Random(1)
    res = dict(residues or {})
    for decl in loop.arrays():
        if decl.runtime_aligned and decl.name not in res:
            res[decl.name] = rand.randrange(0, V, decl.dtype.size)
    space.place_all(loop.arrays(), res)
    mem = space.make_memory()
    for arr in space.arrays():
        arr.write_all(mem, [arr.decl.dtype.wrap(k) for k in range(arr.decl.length)])
    return space, mem


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Point the artifact disk cache at a per-test tmpdir.

    Keeps test runs from reading or polluting ~/.cache/repro, and makes
    cache-behavior tests deterministic (every test starts cold).
    """
    from repro.cache import reset_cache_dir

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    reset_cache_dir()
    yield
    reset_cache_dir()


_COLLECT_ENV: dict = {}


def pytest_configure(config):
    """Point the disk cache at a temporary directory while test modules
    import.

    Module-level compiler probes (``HAVE_SIMD`` guards) run at
    collection, before any fixture, and persist their outcomes in the
    disk cache; this keeps them out of ``~/.cache/repro`` too.
    """
    _COLLECT_ENV["old"] = os.environ.get("REPRO_CACHE_DIR")
    _COLLECT_ENV["dir"] = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE_DIR"] = _COLLECT_ENV["dir"]


def pytest_unconfigure(config):
    old = _COLLECT_ENV.get("old")
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
    shutil.rmtree(_COLLECT_ENV.get("dir", ""), ignore_errors=True)
