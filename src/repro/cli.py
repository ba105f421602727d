"""Command-line interface: ``python -m repro <command> …``.

Commands
--------
``simdize FILE``
    Compile a mini-C loop and print the simdized vector program
    (AltiVec-style by default).
``run FILE``
    Simdize, execute on the virtual SIMD machine, verify against the
    scalar reference, and print operation counts and speedup.
``export FILE``
    Emit a compilable C translation unit (SSE or AltiVec intrinsics);
    ``--validate`` additionally compiles and runs it against scalar
    semantics (needs a host C compiler).
``explain FILE``
    Show the loop's alignment table, dependence report, stream
    diagrams, and the shift counts of every placement policy.
``bench NAME``
    Regenerate one of the paper's evaluation artifacts
    (``table1``, ``table2``, ``fig11``, ``fig12``, ``coverage``).
``serve``
    Run the long-lived simdization service (``/simdize``, ``/verify``,
    ``/sweep``, ``/healthz``, ``/stats``) until SIGTERM, then drain
    gracefully.  See DESIGN.md §7.

Every command reads the loop from a mini-C source file (see
``repro.lang``), or from stdin when FILE is ``-``.

``python -m repro`` and ``python -m repro.cli`` run :func:`entry`,
which freezes the collector's view of the heap once :func:`main`
returns; library calls of :func:`main` keep the default collector.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager

from repro.errors import SimdalError, SweepInterrupted, VerificationError
from repro.lang import compile_source
from repro.machine.backend import BACKEND_CHOICES, SCALAR_BACKEND_CHOICES
from repro.simdize.options import SimdOptions


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _options(args: argparse.Namespace) -> SimdOptions:
    return SimdOptions(
        policy=args.policy,
        reuse=args.reuse,
        unroll=args.unroll,
        offset_reassoc=args.reassoc,
    )


def _add_simd_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", default="auto",
                        choices=["auto", "zero", "eager", "lazy", "dominant"],
                        help="stream-shift placement policy")
    parser.add_argument("--reuse", default="sp",
                        choices=["none", "sp", "pc", "sp+pc"],
                        help="cross-iteration reuse optimization")
    parser.add_argument("--unroll", type=int, default=1, metavar="U",
                        help="steady-loop unroll factor")
    parser.add_argument("--reassoc", action="store_true",
                        help="enable common-offset reassociation")
    parser.add_argument("--vector-bytes", type=int, default=16, dest="V",
                        help="vector register length in bytes")


def _add_perf_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="auto", dest="exec_backend",
                        choices=list(BACKEND_CHOICES),
                        help="execution engine (auto = numpy when available; "
                             "jit compiles each program once and caches it; "
                             "native additionally compiles kernels to machine "
                             "code with the host C compiler, degrading to jit "
                             "when no compiler is found)")
    parser.add_argument("--scalar-backend", default="auto",
                        dest="scalar_backend",
                        choices=list(SCALAR_BACKEND_CHOICES),
                        help="scalar-reference engine (auto = numpy when "
                             "available)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wall-clock timings and cache "
                             "hit rates")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk cache for compiled artifacts (default "
                             "~/.cache/repro or $REPRO_CACHE_DIR; '' disables)")


def _apply_cache_dir(args: argparse.Namespace) -> None:
    if args.cache_dir is not None:
        from repro.cache import set_cache_dir

        set_cache_dir(args.cache_dir if args.cache_dir else None)


@contextmanager
def _profiling(args: argparse.Namespace):
    """The command's ``--profile`` (None without the flag).

    Inside the block the profile also counts the collector's pauses;
    without ``--profile`` nothing is installed.
    """
    if not args.profile:
        yield None
        return
    from repro.profiling import PhaseProfile

    profile = PhaseProfile()
    with profile.gc_pauses():
        yield profile


def _bindings(args: argparse.Namespace) -> tuple[int | None, dict[str, int]]:
    scalars: dict[str, int] = {}
    for binding in args.set or []:
        name, _, value = binding.partition("=")
        if not value:
            raise SimdalError(f"--set needs name=value, got {binding!r}")
        scalars[name] = int(value)
    return args.trip, scalars


def cmd_simdize(args: argparse.Namespace) -> int:
    from repro.simdize.driver import simdize
    from repro.vir.printer import format_program

    loop = compile_source(_read_source(args.file), name=args.name)
    result = simdize(loop, args.V, _options(args))
    print(f"// policy: {result.policy}, stream shifts: {result.shift_count}")
    print(format_program(result.program, altivec=(args.dialect == "altivec")))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro import run_and_verify
    from repro.simdize.driver import simdize

    _apply_cache_dir(args)
    with _profiling(args) as profile:
        loop = compile_source(_read_source(args.file), name=args.name)
        result = simdize(loop, args.V, _options(args))
        trip, scalars = _bindings(args)
        report = run_and_verify(result.program, seed=args.seed, trip=trip,
                                scalars=scalars, backend=args.exec_backend,
                                scalar_backend=args.scalar_backend,
                                profile=profile)
    print(f"verified: simdized execution matches scalar semantics "
          f"(trip {report.trip})")
    print(f"policy {result.policy}, static stream shifts {result.shift_count}")
    print(f"scalar ops   {report.scalar_total:>10d}   "
          f"({report.scalar_opd:.2f} per datum)")
    print(f"simdized ops {report.vector_total:>10d}   "
          f"({report.vector_opd:.2f} per datum)")
    print(f"speedup      {report.speedup:>10.2f}x")
    if report.used_fallback:
        print("note: the engine took a fallback path (guarded scalar run "
              "for small trips, or per-iteration steady execution)")
    if report.fallback is not None:
        fb = report.fallback
        print(f"note: backend degraded to {fb['tier']!r} after a "
              f"{fb['phase']} failure in {'/'.join(fb['failed'])} "
              f"({fb['reason']})")
    if profile is not None:
        print()
        print(profile.format())
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.export import cross_validate, export_c
    from repro.simdize.driver import simdize

    loop = compile_source(_read_source(args.file), name=args.name)
    result = simdize(loop, args.V, _options(args))
    source = export_c(result.program, backend=args.backend)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output} ({args.backend} backend)")
    else:
        print(source)
    if args.validate:
        trip, scalars = _bindings(args)
        report = cross_validate(loop, _options(args), args.V, trip=trip,
                                scalars=scalars, backend=args.backend)
        print(f"cross-validation: {report.output} (compiled with {report.compiler})")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.deps.analysis import dependence_report
    from repro.reorg import apply_policy, build_loop_graph
    from repro.viz.streams import loop_alignment_table, memory_stream

    loop = compile_source(_read_source(args.file), name=args.name)
    print(loop)
    print()
    print("alignment of each reference:")
    print(loop_alignment_table(loop, args.V))
    print()
    print("dependences:")
    print(dependence_report(loop.statements))
    print()
    if not loop.has_reductions:
        graph = build_loop_graph(loop, args.V)
        print("stream shifts per placement policy:")
        for policy in ("zero", "eager", "lazy", "dominant"):
            try:
                count = apply_policy(graph, policy).shift_count()
                print(f"  {policy:9s} {count}")
            except SimdalError as exc:
                print(f"  {policy:9s} not applicable ({exc})")
        print()
    first = loop.statements[0]
    refs = list(first.loads())[:2]
    for ref in refs:
        try:
            print(memory_stream(ref, args.V).text)
            print()
        except SimdalError:
            pass
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import coverage_sweep, figure11, figure12, table1, table2

    from repro.bench.runner import RunPolicy

    _apply_cache_dir(args)
    policy = RunPolicy(
        max_retries=args.max_retries,
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    with _profiling(args) as profile:
        sweep = dict(count=args.count, trip=args.trip_count, jobs=args.jobs,
                     backend=args.exec_backend,
                     scalar_backend=args.scalar_backend, profile=profile,
                     run_policy=policy)
        builders = {
            "table1": lambda: table1(**sweep),
            "table2": lambda: table2(**sweep),
            "fig11": lambda: figure11(**sweep),
            "fig12": lambda: figure12(**sweep),
            "coverage": lambda: coverage_sweep(count=args.count * 10),
        }
        result = builders[args.name]()
    print(result.format())
    if profile is not None:
        print()
        print(profile.format())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, serve_forever

    _apply_cache_dir(args)
    config = ServeConfig.from_env()
    overrides = {
        "host": args.host, "port": args.port, "workers": args.workers,
        "max_inflight": args.max_inflight, "max_queue": args.max_queue,
        "deadline": args.deadline, "compile_budget": args.compile_budget,
        "breaker_threshold": args.breaker_threshold,
        "breaker_cooldown": args.breaker_cooldown,
        "drain_timeout": args.drain_timeout,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    return asyncio.run(serve_forever(config))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="simdal: simdization with alignment constraints "
                    "(PLDI 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_file = dict(help="mini-C source file ('-' for stdin)")

    p = sub.add_parser("simdize", help="print the simdized vector program")
    p.add_argument("file", **common_file)
    p.add_argument("--name", default="loop")
    p.add_argument("--dialect", default="altivec", choices=["altivec", "generic"])
    _add_simd_options(p)
    p.set_defaults(func=cmd_simdize)

    p = sub.add_parser("run", help="execute on the VM, verify, report metrics")
    p.add_argument("file", **common_file)
    p.add_argument("--name", default="loop")
    p.add_argument("--trip", type=int, default=None,
                   help="runtime trip count (for 'int n;' bounds)")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="bind a runtime scalar")
    p.add_argument("--seed", type=int, default=0)
    _add_perf_options(p)
    _add_simd_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("export", help="emit C intrinsics code")
    p.add_argument("file", **common_file)
    p.add_argument("--name", default="loop")
    p.add_argument("--backend", default="sse", choices=["sse", "altivec"])
    p.add_argument("-o", "--output", default=None, help="write to a file")
    p.add_argument("--validate", action="store_true",
                   help="compile and run the exported code against scalar "
                        "semantics (needs a C compiler)")
    p.add_argument("--trip", type=int, default=None)
    p.add_argument("--set", action="append", metavar="NAME=VALUE")
    _add_simd_options(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("explain", help="alignments, dependences, policies")
    p.add_argument("file", **common_file)
    p.add_argument("--name", default="loop")
    p.add_argument("--vector-bytes", type=int, default=16, dest="V")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("bench", help="regenerate a paper table/figure")
    p.add_argument("name", choices=["table1", "table2", "fig11", "fig12",
                                    "coverage"])
    p.add_argument("--count", type=int, default=10,
                   help="loops per suite (paper uses 50)")
    p.add_argument("--trip-count", type=int, default=509,
                   help="loop trip count (paper uses ~1000)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep (1 = serial)")
    p.add_argument("--max-retries", type=int, default=2, dest="max_retries",
                   help="re-attempts per failing sweep config before it is "
                        "reported as failed (default 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-chunk wall-clock budget when --jobs > 1; an "
                        "overrunning chunk is treated like a worker death")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal completed configs to a JSONL file as the "
                        "sweep runs")
    p.add_argument("--resume", action="store_true",
                   help="skip configs already journaled in --checkpoint "
                        "(tables stay byte-identical to an uninterrupted run)")
    _add_perf_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="run the simdization HTTP service")
    p.add_argument("--host", default=None,
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port (default 8787; 0 picks a free port, "
                        "printed on the ready line)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads for CPU-bound request work")
    p.add_argument("--max-inflight", type=int, default=None,
                   dest="max_inflight",
                   help="concurrent requests admitted (default 8)")
    p.add_argument("--max-queue", type=int, default=None, dest="max_queue",
                   help="waiting requests beyond which the server sheds "
                        "load with 429 (default 32)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="default per-request budget; requests may lower or "
                        "raise theirs with an X-Repro-Deadline header")
    p.add_argument("--compile-budget", type=float, default=None,
                   dest="compile_budget", metavar="SECONDS",
                   help="native warmup budget before the circuit breaker "
                        "counts a failure")
    p.add_argument("--breaker-threshold", type=int, default=None,
                   dest="breaker_threshold",
                   help="consecutive compile failures that trip the breaker")
    p.add_argument("--breaker-cooldown", type=float, default=None,
                   dest="breaker_cooldown", metavar="SECONDS",
                   help="open time before a half-open probe is admitted")
    p.add_argument("--drain-timeout", type=float, default=None,
                   dest="drain_timeout", metavar="SECONDS",
                   help="grace for in-flight requests on SIGTERM")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="disk cache for compiled artifacts (default "
                        "~/.cache/repro or $REPRO_CACHE_DIR; '' disables)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command.

    Exit codes: 0 success, 1 any library error
    (:class:`~repro.errors.SimdalError`), 2 usage errors (argparse),
    3 a verification mismatch — the one failure a reproduction must
    never paper over, so scripts can tell it apart from I/O or
    configuration problems.  A checkpointed sweep stopped by
    SIGTERM/SIGINT also exits 3 (:class:`~repro.errors.SweepInterrupted`):
    the journal is intact and ``--resume`` completes the table
    byte-identically, so scripts must not mistake it for success or for
    a data-loss failure.  Library errors print one ``error:`` line,
    never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    except SimdalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `repro explain … | head`
        return 0


def entry() -> None:
    """Process entry of ``python -m repro`` and ``python -m repro.cli``.

    A command's modules, IR and caches live until the process exits, so
    once :func:`main` returns, freeze the heap: the collections of
    interpreter shutdown then skip it instead of walking every object
    the command made.  An exception or argparse's ``SystemExit`` skips
    the freeze.  Nothing may rely on the collector at exit: there is no
    ``__del__`` or ``weakref.finalize``, and every file a command writes
    is closed before :func:`main` returns.  :func:`main` itself never
    freezes or disables the collector, so library callers keep the
    default one.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
