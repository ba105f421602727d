"""Batched compile pipeline for the native tier.

:mod:`repro.machine.native` compiles one kernel per structural
signature; one ``cc -O3 -shared`` subprocess per kernel made a cold
24-signature sweep spend ~5.4 s inside the toolchain.  This module
amortizes that wall two ways:

* **Multi-kernel translation units.**  :func:`compile_requests` groups
  pending kernels by ``(V, lane dtype)`` — the portable helper block is
  fixed-name and dtype-parameterized, so kernels sharing the pair live
  behind one prelude — writes one ``.c`` per group, and feeds *all*
  groups to a **single** ``cc`` invocation producing one ``.so`` that
  exports every ``simdal_steady_<digest>`` symbol.  It loads that
  ``.so`` once and hands the handle, its bytes and the signatures'
  metas to :mod:`repro.machine.native`, which owns the disk layout
  (one entry per built ``.so``, one meta per signature).
* **Precompile-ahead.**  :func:`precompile` lets the sweep runners
  collect a campaign's signature classes up front and compile them as
  one batch *before* workers fork, so forked workers find warm disk
  entries instead of redoing identical compiles.

Failure isolation: a batched ``cc`` failure with more than one kernel
recompiles each request as a singleton, so one bad unit cannot poison
its batch-mates.  Timings are returned to the caller, which accounts
them under ``cc_s``/``load_s``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import subprocess
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.cache import get_cache
from repro.errors import FaultInjected
from repro.faults import fault as _fault


def _nat():
    # native imports this module at its top; importing back lazily
    # breaks the cycle (native is always fully initialized by the time
    # any pipeline function runs).
    from repro.machine import native

    return native


# ---------------------------------------------------------------------------
# Batched translation units
# ---------------------------------------------------------------------------

def _run_cc(argv, budget=None):
    """Run one ``cc`` invocation with a wall-clock budget.

    The subprocess gets its own session so a hang (a wedged linker, an
    injected ``compile:timeout``) can be killed as a whole process
    group — ``cc`` is a driver that forks cc1/as/ld children, and
    killing only the driver would leak them.  Returns a completed-
    process-shaped object; on timeout ``returncode`` is None and
    ``stderr`` carries the budget, so callers charge the batch exactly
    like any other nonzero exit.  Kernel compiles, the capability
    probes and the ``--version`` call all run here; ``budget``
    (seconds) defaults to :func:`~repro.machine.native.cc_timeout`.
    """
    native = _nat()
    if budget is None:
        budget = native.cc_timeout()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            proc.kill()
        proc.wait()
        native.STATS["cc_timeouts"] += 1
        return subprocess.CompletedProcess(
            argv, None, "",
            f"cc timed out after {budget:g}s (REPRO_CC_TIMEOUT)")
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


@dataclass
class CompileRequest:
    """One signature kernel awaiting compilation.

    Built by :func:`repro.machine.native.build_request`; carries
    everything the pipeline needs so compilation itself never touches
    the program again.
    """

    signature: str      # structural signature (cache identity)
    key: str            # versioned disk-cache key
    symbol: str         # simdal_steady_<digest> exported by the TU
    V: int              # vector width — TU grouping axis
    lane: str           # dtype name — TU grouping axis
    kernel_src: str     # the kernel function body (C)
    prelude: str        # kernel_unit_prelude(V, dtype)
    meta: object        # _NativeMeta (so_sha256 filled on success)
    jk: object          # jit.Kernel (sections + fallback)


def compile_requests(requests, disk):
    """Compile ``requests`` as batched TUs behind one ``cc`` invocation.

    Returns ``(loaded, failures, cc_s, load_s)`` where ``loaded`` maps
    signature → ``(ctypes function, meta)`` and ``failures`` maps
    signature → reason.  On a batched compiler failure with more than
    one request, every request is retried as a singleton so the one
    broken unit is isolated and its batch-mates still land.  The built
    ``.so`` is loaded once; native registers the handle and, when
    ``disk`` is a cache, files the ``.so`` and every meta there.
    """
    native = _nat()
    loaded: dict[str, tuple] = {}
    failures: dict[str, str] = {}
    if not requests:
        return loaded, failures, 0.0, 0.0
    cc, _identity = native._require_compiler()
    work = native._workdir()
    units: OrderedDict[tuple, list] = OrderedDict()
    for req in requests:
        units.setdefault((req.V, req.lane), []).append(req)
    batch_id = hashlib.sha256(
        "|".join(req.key for req in requests).encode()
    ).hexdigest()[:16]
    c_paths = []
    for (V, lane), group in units.items():
        path = work / f"tu_{batch_id}_{V}_{lane}.c"
        path.write_text(group[0].prelude
                        + "\n".join(req.kernel_src for req in group))
        c_paths.append(path)
    # Unique per invocation: a recompile of the same batch must never
    # have the linker truncate a file a live dlopen handle maps.
    so_path = native._fresh_so_path(f"tu_{batch_id}")
    start = time.perf_counter()
    proc = _run_cc(
        [cc, *native.compiler_flags(), "-shared", "-fPIC",
         "-o", str(so_path)]
        + [str(path) for path in c_paths],
    )
    cc_s = time.perf_counter() - start
    native.STATS["cc_invocations"] += 1
    if proc.returncode != 0:
        if len(requests) == 1:
            req = requests[0]
            failures[req.signature] = (
                f"{cc} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
            return loaded, failures, cc_s, 0.0
        # One bad kernel must not sink its batch-mates: isolate the
        # culprit by recompiling every request as a singleton.
        load_s = 0.0
        for req in requests:
            sub_loaded, sub_failed, sub_cc, sub_load = compile_requests(
                [req], disk)
            loaded.update(sub_loaded)
            failures.update(sub_failed)
            cc_s += sub_cc
            load_s += sub_load
        return loaded, failures, cc_s, load_s
    native.STATS["tus"] += len(units)
    native.STATS["tu_kernels"] += len(requests)
    start = time.perf_counter()
    lib = ctypes.CDLL(str(so_path))
    for req in requests:
        loaded[req.signature] = (native._bind_symbol(lib, req.meta.symbol),
                                 req.meta)
    load_s = time.perf_counter() - start
    native._adopt_build(lib, so_path.read_bytes(),
                        [(req.key, req.meta) for req in requests], disk)
    return loaded, failures, cc_s, load_s


# ---------------------------------------------------------------------------
# Precompile-ahead (the sweep runners call this before workers fork)
# ---------------------------------------------------------------------------

def precompile(programs, profile=None) -> int:
    """Compile every cold signature in ``programs`` as one batch.

    Populates the native memory cache (and the shared disk cache) so
    subsequent runs — including forked sweep workers — hit warm
    entries instead of paying one ``cc`` each.  Returns the number of
    kernels compiled; 0 when there is nothing to do or no compiler
    exists.

    Runs outside the verifier's stat windows, so it folds its own
    native and jit STATS deltas (compiler, load and jit materialize
    seconds, and the cache counters of the jit kernels it loads) into
    ``profile`` directly.
    """
    native = _nat()
    if not programs:
        return 0
    if native._compiler_identity()[0] is None:
        return 0
    from repro.machine import jit
    from repro.machine.backend import jit_compile_stats

    before = jit_compile_stats() if profile is not None else {}
    disk = get_cache()
    requests = []
    seen = set()
    compiled = 0
    try:
        for program in programs:
            signature = jit.program_signature(program)
            if signature in seen or signature in native._NATIVE_CACHE:
                continue
            seen.add(signature)
            jk = jit.get_kernel(program)
            if jk.spec.table is None:
                native._cache_put(
                    signature, native._NativeKernel(jk=jk, meta=None,
                                                    cfn=None))
                continue
            key = native._disk_key(signature,
                                   native._compiler_identity()[1])
            if key in native._FAILED:
                continue
            if disk is not None:
                kernel = native._load_from_disk(disk, key, signature, jk)
                if kernel is not None:
                    native.STATS["disk_hits"] += 1
                    native._cache_put(signature, kernel)
                    continue
                native.STATS["disk_misses"] += 1
            request = native.build_request(signature, key, jk, program)
            if request is None:
                native._cache_put(
                    signature, native._NativeKernel(jk=jk, meta=None,
                                                    cfn=None))
                continue
            requests.append(request)
        if requests:
            _fault("compile")
            loaded, failures, cc_s, load_s = compile_requests(requests,
                                                              disk)
            native.STATS["cc_s"] += cc_s
            native.STATS["load_s"] += load_s
            for req in requests:
                pair = loaded.get(req.signature)
                if pair is None:
                    native._FAILED[req.key] = failures.get(
                        req.signature, "batched native compile failed")
                    continue
                cfn, meta = pair
                native._cache_put(
                    req.signature,
                    native._NativeKernel(jk=req.jk, meta=meta, cfn=cfn))
                compiled += 1
            native.STATS["precompiled"] += compiled
    except FaultInjected:
        # An injected compile fault lands on the per-run acquisition
        # path instead, where the resilient chain records the
        # degradation — precompilation must never fail a sweep.
        pass
    if profile is not None:
        profile.fold_engine_stats(before, jit_compile_stats())
    return compiled
