"""Lightweight phase-timing profile for the measurement pipeline.

A :class:`PhaseProfile` accumulates wall-clock seconds per pipeline
phase — ``synthesize`` / ``simdize`` / ``compile`` / ``execute`` /
``verify`` — plus event counters (cache hits and misses), so a sweep
can report *where* its time went and how well the compile-side caches
worked instead of asserting it.  Everything is optional: every
pipeline entry point takes ``profile=None`` and skips all bookkeeping
when no profile is passed, so the hot path pays nothing by default.

Profiles merge, which is how ``measure_many`` aggregates the profiles
its worker processes send back with their measurements.

A profile also counts the cyclic garbage collector's pauses while its
:meth:`PhaseProfile.gc_pauses` window is open (the CLI opens it around
a ``--profile`` command).  Collections that interpreter shutdown runs
after the command returns fall outside every such window.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Pipeline phases in reporting order.  ``cc`` and ``native_load``
#: only appear when the native tier runs: C-compiler wall time and
#: shared-object load/validate time, re-attributed out of ``execute``
#: the same way lazy jit codegen is.
PHASES = ("synthesize", "simdize", "compile", "cc", "native_load",
          "execute", "verify")

#: Lazily-timed engine stats (``*_s`` keys of
#: :func:`repro.machine.backend.jit_compile_stats`) and the phase each
#: one reports under.
_ENGINE_PHASES = {
    "compile_s": "compile",
    "native_cc_s": "cc",
    "native_load_s": "native_load",
}


@dataclass
class PhaseProfile:
    """Accumulated seconds per phase and event counters."""

    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, dt: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    @contextmanager
    def gc_pauses(self):
        """Count the cyclic collector's pauses into this profile.

        While the block runs, one ``gc.callbacks`` hook adds each
        collection's pause to ``gc_pause_ns`` and counts it under
        ``gc_collections_<generation>``; the hook is removed on the way
        out, however the block ends.
        """
        started = 0

        def hook(phase: str, info: dict) -> None:
            nonlocal started
            if phase == "start":
                started = time.perf_counter_ns()
                return
            self.count("gc_pause_ns", time.perf_counter_ns() - started)
            self.count(f"gc_collections_{info['generation']}")

        gc.callbacks.append(hook)
        try:
            yield self
        finally:
            gc.callbacks.remove(hook)

    def fold_engine_stats(self, before: dict, after: dict,
                          out_of: str | None = None) -> None:
        """Fold the deltas between two engine-stat snapshots.

        ``before``/``after`` come from
        :func:`repro.machine.backend.jit_compile_stats`.  Each ``*_s``
        stat named in ``_ENGINE_PHASES`` is lazily-incurred wall
        clock: its delta is added to its reporting phase and, when the
        work ran inside another phase's window (``out_of``, e.g.
        ``execute``), taken out of that phase so nothing is charged
        twice.  Any other stat is a counter delta: names already
        namespaced (``native_*``) pass through so ``hit_rate()`` pairs
        line up, and bare jit counters gain the ``kernel_`` prefix.
        """
        for stat, value in after.items():
            if stat.endswith("_s"):
                phase = _ENGINE_PHASES.get(stat)
                if phase is None:
                    continue
                dt = value - before.get(stat, 0.0)
                if dt > 0:
                    self.add(phase, dt)
                    if out_of is not None:
                        self.add(out_of, -dt)
            else:
                delta = value - before.get(stat, 0)
                if delta:
                    name = (stat if stat.startswith("native_")
                            else f"kernel_{stat}")
                    self.count(name, delta)

    def merge(self, other: "PhaseProfile | None") -> None:
        if other is None:
            return
        for phase, dt in other.seconds.items():
            self.add(phase, dt)
        for name, k in other.counts.items():
            self.count(name, k)

    def hit_rate(self, name: str) -> float | None:
        """Hits over lookups for counter pair ``{name}_hits``/``{name}_misses``."""
        hits = self.counts.get(f"{name}_hits", 0)
        misses = self.counts.get(f"{name}_misses", 0)
        total = hits + misses
        return hits / total if total else None

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``BENCH_interp.json``)."""
        return {
            "seconds": {k: round(v, 4) for k, v in self.seconds.items()},
            "counts": dict(self.counts),
        }

    def format(self) -> str:
        """A human-readable phase table with cache hit rates."""
        lines = ["phase timings:"]
        known = [p for p in PHASES if p in self.seconds]
        extra = sorted(set(self.seconds) - set(known))
        total = self.total_seconds
        for phase in known + extra:
            dt = self.seconds[phase]
            share = f"{dt / total * 100:5.1f}%" if total else "     -"
            lines.append(f"  {phase:<12s} {dt:9.4f} s  {share}")
        lines.append(f"  {'total':<12s} {total:9.4f} s")
        cache_lines = []
        for name in ("simdize_memo", "simdize_disk", "kernel_memory",
                     "kernel_disk", "native_memory", "native_disk"):
            rate = self.hit_rate(name)
            if rate is not None:
                hits = self.counts.get(f"{name}_hits", 0)
                misses = self.counts.get(f"{name}_misses", 0)
                cache_lines.append(
                    f"  {name:<14s} {hits}/{hits + misses} hits "
                    f"({rate * 100:.0f}%)"
                )
        if cache_lines:
            lines.append("cache hit rates:")
            lines.extend(cache_lines)
        evictions = self.counts.get("disk_evictions", 0)
        scans = self.counts.get("disk_scans", 0)
        if evictions or scans:
            lines.append(f"  disk cache     {evictions} evictions, "
                         f"{scans} scans (REPRO_CACHE_MAX_BYTES)")
        materialized = self.counts.get("kernel_memory_misses", 0)
        if materialized:
            # A warm disk entry carries its code object: 0 compiles.
            compiles = self.counts.get("kernel_source_compiles", 0)
            lines.append(f"jit kernels: {materialized} materialized, "
                         f"{compiles} source "
                         f"compile{'s' if compiles != 1 else ''}")
        probes = self.counts.get("native_simd_probes", 0)
        flag_probes = self.counts.get("native_flag_probes", 0)
        if probes or flag_probes:
            # Probe compiles started; a warm process reads the
            # persisted outcomes and starts none.
            failures = self.counts.get("native_simd_probe_failures", 0)
            failed = f" ({failures} failed)" if failures else ""
            lines.append(f"native probes: {probes} simd{failed}, "
                         f"{flag_probes} flag")
        invocations = self.counts.get("native_cc_invocations", 0)
        if invocations:
            kernels = self.counts.get("native_tu_kernels", 0)
            tus = self.counts.get("native_tus", 0)
            line = (f"native pipeline: {kernels} kernels in {tus} "
                    f"translation units via {invocations} cc "
                    f"invocation{'s' if invocations != 1 else ''}")
            lines.append(line)
            precompiled = self.counts.get("native_precompiled", 0)
            if precompiled:
                lines.append(f"  {'precompiled':<16s} {precompiled}")
        collections = [self.counts.get(f"gc_collections_{generation}", 0)
                       for generation in range(3)]
        if any(collections):
            total_collections = sum(collections)
            pause_s = self.counts.get("gc_pause_ns", 0) / 1e9
            lines.append(f"gc pauses: {pause_s:.3f} s in {total_collections} "
                         f"collection{'s' if total_collections != 1 else ''} "
                         f"({collections[2]} full)")
        resilience = []
        degraded_to = sorted(
            k for k in self.counts if k.startswith("degraded_to_")
        )
        for name in ("degraded", *degraded_to,
                     "scalar_degraded", "retries",
                     "task_splits", "pool_restarts", "serial_fallbacks",
                     "failed_configs", "checkpoint_hits",
                     "disk_corrupt_quarantined"):
            k = self.counts.get(name, 0)
            if k:
                resilience.append(f"  {name:<24s} {k}")
        if resilience:
            lines.append("resilience:")
            lines.extend(resilience)
        return "\n".join(lines)


@contextmanager
def timed(profile: PhaseProfile | None, phase: str):
    """Time a block into ``profile``; no-op when ``profile`` is None."""
    if profile is None:
        yield
        return
    with profile.phase(phase):
        yield
