"""End-to-end benchmark of ``repro bench`` and ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figs-warm-native --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``figs-warm-native``, ``figs-cold-jit``, ``serve-mixed``
(see README.md).  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the workload runs twice, untraced and then through the
traced launcher, and the metrics are the per-layer ones plus the
tracing overhead.  The lines before it give each metric's sample
count, the host record and, for a traced run, the Chrome trace file.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, RunDir, host_record, require_program

WORKLOADS = ("figs-warm-native", "figs-cold-jit", "serve-mixed")


def _run_figs(workload: str, args, run: RunDir):
    import figs
    import tracing

    start = figs.warm_native if workload == "figs-warm-native" \
        else figs.cold_jit
    if not args.trace:
        out = start(args.seed, args.seconds, run)
        return out, figs.end_to_end(out), {}, None
    trace_dir = run.fresh("trace")
    traced = start(args.seed, args.seconds, run, trace_dir)
    # The untraced twin reuses the warm cache instead of rebuilding it,
    # so it reports the traced run's set-up.
    plain = start(args.seed, args.seconds, run, warm_cache=traced.cache_dir)
    plain.setup_s = plain.setup_s or traced.setup_s
    processes = [
        tracing.Process(trace_file, result.spawned_at, result.seconds,
                        in_window=(phase == "window"))
        for phase, result, trace_file in traced.children
    ]
    layers = tracing.fold(processes, len(traced.command_s),
                          sum(traced.command_s), traced.cache_dir,
                          _trace_path(workload, args.seed))
    layers["bench.configs"] = traced.configs
    _overhead(layers, figs.end_to_end(traced), figs.end_to_end(plain))
    return _Both(traced, plain), figs.end_to_end(plain), {}, layers


def _run_serve(args, run: RunDir):
    import serve_mixed
    import tracing

    if not args.trace:
        out = serve_mixed.serve_mixed(args.seed, args.seconds, run)
        return (out, serve_mixed.end_to_end(out),
                serve_mixed.diagnostics(out), None)
    plain = serve_mixed.serve_mixed(args.seed, args.seconds, run)
    traced = serve_mixed.serve_mixed(args.seed, args.seconds, run,
                                     run.fresh("trace"))
    process = tracing.Process(traced.trace_file, traced.server_spawned_at,
                              window_start=traced.window_epoch)
    latency_s = sum(o.latency_s for o in traced.outcomes)
    layers = tracing.fold([process], len(traced.outcomes), latency_s,
                          traced.cache_dir, _trace_path("serve-mixed",
                                                        args.seed))
    layers["bench.configs"] = 0
    layers.update({name: value for name, (value, _, _)
                   in serve_mixed.diagnostics(traced).items()})
    _overhead(layers, serve_mixed.end_to_end(traced),
              serve_mixed.end_to_end(plain))
    return (_Both(traced, plain), serve_mixed.end_to_end(plain),
            serve_mixed.diagnostics(plain), layers)


def _overhead(layers: dict, traced: dict, plain: dict) -> None:
    """Tracing overhead: the traced twin's p50 minus the untraced one's."""
    delta = traced["p50_ms"][0] - plain["p50_ms"][0]
    layers["trace.overhead_ms"] = delta
    layers["trace.overhead_share"] = delta / plain["p50_ms"][0]


class _Both:
    """Counts of a traced run and its untraced twin, taken together."""

    def __init__(self, *runs):
        self.attempted = sum(r.attempted for r in runs)
        self.failed = sum(r.failed for r in runs)
        self.mismatched = sum(r.mismatched for r in runs)
        self.errors = [e for r in runs for e in r.errors]


def _trace_path(workload: str, seed: int):
    return OUT_DIR / f"trace-{workload}-seed{seed}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    with RunDir(args.workload) as run:
        host = host_record(run)
        if args.workload == "serve-mixed":
            out, end_to_end, extra, layers = _run_serve(args, run)
        else:
            out, end_to_end, extra, layers = _run_figs(args.workload, args,
                                                       run)

    print("host: " + json.dumps(host, sort_keys=True))
    for error in out.errors[:20]:
        print(f"error: {error}")
    # Diagnostics of the untraced run follow its end-to-end metrics.
    for name, (value, unit, samples) in {**end_to_end, **extra}.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    if layers is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in end_to_end.items()}
    else:
        import tracing

        print(f"trace: {_trace_path(args.workload, args.seed)}")
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": out.mismatched == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
