"""Traced launcher: run one ``repro`` command with spans around each layer.

Usage::

    python perfbench/launcher.py --trace-out FILE -- bench fig11 --backend jit

It imports ``repro.cli``, wraps every layer's entry points where their
callers look them up, runs ``repro.cli.main`` on the arguments after
``--`` and, when ``main`` returns, writes the spans to FILE as Chrome
trace-event JSON, with the program's own counters (``jit.STATS``,
``native.STATS``, ``DiskCache.stats()``) under ``otherData``.  Spans
are kept in memory until then.

Each span is one complete (``"X"``) event whose ``args`` hold its
``id``, its ``parent`` (the span open when it began, in the same
thread or in the thread that handed the work to an executor), its
``sample`` (the request that caused it; ``serve`` assigns one per
connection) and ``value``, a count the wrapper reads from the result
(shifts placed, statements emitted, hits, runs).

Names imported with ``from … import`` are bound in the importer at
import time, so each name is patched in every module that holds it,
not only where it is defined.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

_SPANS: list[list] = []
_LOCK = threading.Lock()
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_SAMPLE: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_sample", default=0)
_SAMPLES = itertools.count(1)


def _steady_stmts(program) -> int:
    steady = program.steady
    return 0 if steady is None else len(steady.body) + len(steady.bottom)


def _runs(result) -> list[int]:
    """[runs executed, runs that fell back to a lower tier]."""
    results = result if isinstance(result, list) else [result]
    degraded = sum(1 for r in results if r.fallback is not None)
    return [len(results), degraded]


def _traced(name: str, fn, value=None, new_sample: bool = False):
    """Wrap a sync or async callable in a span named ``name``."""

    def begin():
        token_sample = _SAMPLE.set(next(_SAMPLES)) if new_sample else None
        record = [name, threading.get_ident(), time.time(), None,
                  _CURRENT.get(), _SAMPLE.get(), None]
        with _LOCK:
            _SPANS.append(record)
            index = len(_SPANS) - 1
        return record, _CURRENT.set(index), token_sample

    def end(record, token, token_sample, result):
        record[3] = time.time()
        if value is not None and result is not None:
            record[6] = value(result)
        _CURRENT.reset(token)
        if token_sample is not None:
            _SAMPLE.reset(token_sample)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            record, token, token_sample = begin()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end(record, token, token_sample, result)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record, token, token_sample = begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end(record, token, token_sample, result)
    return wrapper


def _patch(owners, attr: str, name: str, value=None,
           new_sample: bool = False) -> None:
    """Replace ``attr`` on every owner (modules or classes) that holds it."""
    for owner in owners:
        original = getattr(owner, attr)
        setattr(owner, attr, _traced(name, original, value, new_sample))


def install() -> None:
    import repro.bench
    import repro.bench.figures
    import repro.bench.runner
    import repro.cli
    import repro.lang
    import repro.serve.app
    from repro.cache import DiskCache
    from repro.machine import compilequeue, jit, native
    from repro.machine.backend import ResilientBackend, ResilientScalarBackend
    from repro.machine.memory import Memory

    _patch([repro.bench], "figure11", "bench")
    _patch([repro.bench], "figure12", "bench")
    _patch([repro.bench.figures], "synthesize_suite", "bench.synth")
    _patch([repro.lang, repro.cli], "compile_source", "lang")
    _patch([repro.bench.runner], "_cached_simdize", "simdize.lookup")
    _patch([repro.bench.runner], "simdize", "simdize")
    # ``repro.simdize`` the attribute is the function, not the package.
    pipeline = importlib.import_module("repro.simdize.driver")
    _patch([pipeline], "build_loop_graph", "reorg")
    _patch([pipeline], "reassociate", "reorg")
    _patch([pipeline], "apply_policy", "reorg",
           value=lambda graph: graph.shift_count())
    _patch([pipeline], "validate_graph", "reorg")
    _patch([pipeline], "generate_program", "codegen")
    _patch([pipeline], "run_passes", "codegen", value=_steady_stmts)
    _patch([jit], "get_kernel", "jit")
    _patch([native], "get_native_kernel", "native")
    _patch([compilequeue], "precompile", "native")
    _patch([ResilientBackend], "run", "execute", value=_runs)
    _patch([ResilientBackend], "run_batch", "execute", value=_runs)
    _patch([ResilientScalarBackend], "run", "scalar")
    _patch([Memory], "snapshot", "verify")
    # A miss returns None, which leaves the span's value unset.
    _patch([DiskCache], "get", "cache.get", value=lambda entry: 1)
    _patch([DiskCache], "put", "cache.put")
    app = repro.serve.app.ServeApp
    _patch([app], "handle_connection", "serve.request", new_sample=True)

    offload = app._offload

    async def _offload_in_context(self, fn, *args):
        # run_in_executor does not carry context variables into the
        # worker thread; spans there must still know their request.
        return await offload(self, contextvars.copy_context().run, fn, *args)

    app._offload = _offload_in_context


def counters() -> dict:
    from repro.cache import get_cache
    from repro.machine import jit, native

    cache = get_cache()
    return {
        "jit": dict(jit.STATS),
        "native": {k: v for k, v in native.STATS.items()
                   if isinstance(v, (int, float))},
        "cache": cache.stats() if cache is not None else {},
    }


def main(argv: list[str]) -> int:
    split = argv.index("--")
    trace_out = Path(argv[argv.index("--trace-out") + 1])
    repro_args = argv[split + 1:]

    import repro.cli

    cli_imported = time.time()
    install()
    code = 1
    try:
        code = repro.cli.main(repro_args)
    finally:
        main_end = time.time()
        with _LOCK:
            spans = list(_SPANS)
        events = [
            # A span still open (a connection cut by shutdown) ends here.
            {"name": name, "ph": "X", "pid": os.getpid(), "tid": tid,
             "ts": start * 1e6, "dur": ((end or main_end) - start) * 1e6,
             "args": {"id": index, "parent": parent, "sample": sample,
                      "value": value}}
            for index, (name, tid, start, end, parent, sample, value)
            in enumerate(spans)
        ]
        trace_out.write_text(json.dumps({
            "traceEvents": events,
            "otherData": {"cli_imported": cli_imported,
                          "counters": counters()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
