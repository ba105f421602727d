"""Fold the launcher's span files into per-layer metrics and one Chrome trace.

A layer's self time is its span's duration minus the durations of the
spans it caused; ``other.ms`` is the sample time no span covers.  All
times and counts are per sample (one CLI command, or one HTTP request)
of the timed window, except the ``native.cc_*`` metrics, which also
count the set-up because that is where ``cc`` runs, the hit ratios, and
``cache.files``/``cache.mb``, the cache dir's size when the window ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from common import median

#: Span name -> the layer whose self time it adds to.
SELF_TIME = {
    "bench": "bench.self_ms",
    "bench.synth": "bench.synth_ms",
    "lang": "lang.ms",
    "reorg": "reorg.ms",
    "codegen": "codegen.ms",
    "simdize": "simdize.ms",
    "simdize.lookup": "simdize.ms",
    "jit": "jit.acquire_ms",
    "native": "native.acquire_ms",
    "execute": "execute.ms",
    "scalar": "scalar.ms",
    "verify": "verify.ms",
    "cache.get": "cache.get_ms",
    "cache.put": "cache.put_ms",
    "serve.request": "serve.wait_ms",
}

#: Every per-layer metric a traced run prints, with its unit.
LAYER_UNITS = {
    "startup.ms": "ms",
    "bench.configs": "count", "bench.synth_ms": "ms", "bench.self_ms": "ms",
    "lang.calls": "count", "lang.ms": "ms",
    "reorg.ms": "ms", "reorg.shifts": "count",
    "codegen.ms": "ms", "codegen.steady_stmts": "count",
    "simdize.calls": "count", "simdize.ms": "ms",
    "simdize.reuse_ratio": "ratio",
    "jit.codegens": "count", "jit.acquire_ms": "ms",
    "jit.memory_hit_ratio": "ratio", "jit.disk_hit_ratio": "ratio",
    "native.cc_invocations": "count", "native.cc_ms": "ms",
    "native.probes": "count", "native.acquire_ms": "ms",
    "native.memory_hit_ratio": "ratio", "native.disk_hit_ratio": "ratio",
    "native.whole_runs": "count",
    "execute.runs": "count", "execute.ms": "ms", "execute.degraded": "count",
    "scalar.ms": "ms", "verify.ms": "ms",
    "cache.gets": "count", "cache.hit_ratio": "ratio", "cache.get_ms": "ms",
    "cache.puts": "count", "cache.put_ms": "ms", "cache.files": "count",
    "cache.mb": "MB", "cache.evictions": "count",
    "serve.hot_p50_ms": "ms", "serve.fresh_p50_ms": "ms",
    "serve.simdize_p50_ms": "ms", "serve.p99_ms": "ms",
    "serve.coalesced_ratio": "ratio", "serve.rows_per_batch": "rows",
    "serve.shed": "count", "serve.late_p99_ms": "ms", "serve.wait_ms": "ms",
    "other.ms": "ms",
    "trace.overhead_ms": "ms", "trace.overhead_share": "ratio",
}


@dataclass
class Process:
    """One traced child: its span file and what the parent saw of it."""

    trace_file: Path
    spawned_at: float
    wall_s: float | None = None      # CLI children: spawn to exit
    in_window: bool = True
    window_start: float = 0.0        # serve: ignore spans before this


@dataclass
class Fold:
    totals: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    stats: dict[str, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    cc: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    startup_ms: list[float] = field(default_factory=list)
    covered_s: float = 0.0
    events: list[dict] = field(default_factory=list)


def _fold_process(pid: int, proc: Process, acc: Fold) -> None:
    doc = json.loads(proc.trace_file.read_text())
    spans = doc["traceEvents"]
    extra = doc["otherData"]
    startup_s = extra["cli_imported"] - proc.spawned_at
    native = extra["counters"]["native"]
    acc.cc["invocations"] += native["cc_invocations"]
    acc.cc["seconds"] += native["cc_s"]
    acc.events.append({"name": "startup", "ph": "X", "pid": pid, "tid": 0,
                       "ts": proc.spawned_at * 1e6, "dur": startup_s * 1e6})
    if proc.wall_s is not None:
        acc.events.append({"name": "command", "ph": "X", "pid": pid,
                           "tid": 0, "ts": proc.spawned_at * 1e6,
                           "dur": proc.wall_s * 1e6})
    child_us = [0.0] * len(spans)
    for span in spans:
        if span["args"]["parent"] is not None:
            child_us[span["args"]["parent"]] += span["dur"]
    t = acc.totals
    for span in spans:
        acc.events.append({**span, "pid": pid})
        name, args = span["name"], span["args"]
        parent, value = args["parent"], args["value"]
        if not proc.in_window or span["ts"] < proc.window_start * 1e6:
            continue
        self_us = max(0.0, span["dur"] - child_us[args["id"]])
        t[SELF_TIME[name]] += self_us / 1000.0
        t[f"{name}#n"] += 1
        if name == "cache.get" and value:
            t["cache.hits"] += 1
        elif name == "execute" and value and (
                parent is None or spans[parent]["name"] != "execute"):
            # A batch that runs config by config nests its runs' spans.
            t["execute.runs"] += value[0]
            t["execute.degraded"] += value[1]
        elif name == "reorg" and value is not None:
            t["reorg.shifts"] += value
        elif name == "codegen" and value is not None:
            t["codegen.steady_stmts"] += value
        if parent is None:
            acc.covered_s += span["dur"] / 1e6
    if proc.in_window:
        for group, values in extra["counters"].items():
            for key, value in values.items():
                acc.stats[group][key] += value
        acc.startup_ms.append(startup_s * 1000.0)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def fold(processes: list[Process], samples: int, sample_s: float,
         cache_dir: Path | None, trace_out: Path) -> dict[str, float]:
    """Per-layer metrics over ``samples`` window samples lasting
    ``sample_s`` seconds in total; writes the Chrome trace to ``trace_out``.

    For CLI children the sample time includes each child's start-up;
    for the server it is the client-side request latencies, of which
    the server's request spans cover the part spent inside it.
    """
    acc = Fold()
    for pid, proc in enumerate(processes, start=1):
        _fold_process(pid, proc, acc)
    # Trace viewers want small timestamps: start the trace at zero.
    base = min((event["ts"] for event in acc.events), default=0.0)
    for event in acc.events:
        event["ts"] -= base
    t, jit, native = acc.totals, acc.stats["jit"], acc.stats["native"]
    cli = bool(processes) and processes[0].wall_s is not None
    startup_s = sum(acc.startup_ms) / 1000.0 if cli else 0.0
    n = max(1, samples)
    lookups = t["simdize.lookup#n"]
    metrics = {layer: t[layer] / n for layer in set(SELF_TIME.values())}
    metrics.update({
        "startup.ms": median(acc.startup_ms) if acc.startup_ms else 0.0,
        "lang.calls": t["lang#n"] / n,
        "reorg.shifts": t["reorg.shifts"] / n,
        "codegen.steady_stmts": t["codegen.steady_stmts"] / n,
        "simdize.calls": t["simdize#n"] / n,
        "simdize.reuse_ratio": (1.0 - t["simdize#n"] / lookups
                                if lookups else 0.0),
        "jit.codegens": jit["codegens"] / n,
        "jit.memory_hit_ratio": _ratio(jit["memory_hits"],
                                       jit["memory_misses"]),
        "jit.disk_hit_ratio": _ratio(jit["disk_hits"], jit["disk_misses"]),
        "native.cc_invocations": acc.cc["invocations"],
        "native.cc_ms": acc.cc["seconds"] * 1000.0,
        "native.probes": (native["simd_probes"] + native["flag_probes"]) / n,
        # cc runs inside the native layer's spans; it is reported apart.
        "native.acquire_ms": max(0.0, (t["native.acquire_ms"]
                                       - native["cc_s"] * 1000.0) / n),
        "native.memory_hit_ratio": _ratio(native["memory_hits"],
                                          native["memory_misses"]),
        "native.disk_hit_ratio": _ratio(native["disk_hits"],
                                        native["disk_misses"]),
        "native.whole_runs": native["whole_runs"] / n,
        "execute.runs": t["execute.runs"] / n,
        "execute.degraded": t["execute.degraded"] / n,
        "cache.gets": t["cache.get#n"] / n,
        "cache.hit_ratio": (t["cache.hits"] / t["cache.get#n"]
                            if t["cache.get#n"] else 0.0),
        "cache.puts": t["cache.put#n"] / n,
        "cache.evictions": acc.stats["cache"]["evictions"] / n,
        "other.ms": max(0.0, sample_s - startup_s - acc.covered_s)
        * 1000.0 / n,
    })
    files, size = 0, 0
    if cache_dir is not None and cache_dir.is_dir():
        for path in cache_dir.rglob("*"):
            if path.is_file():
                files += 1
                size += path.stat().st_size
    metrics["cache.files"] = files
    metrics["cache.mb"] = size / 1e6
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps({"traceEvents": acc.events,
                                     "displayTimeUnit": "ms"}))
    return metrics
