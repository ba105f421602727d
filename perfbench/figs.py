"""The two figure workloads: ``repro bench fig11``/``fig12`` as CLI children.

``figs-warm-native``
    Set-up builds both figures once with ``--backend native`` into a
    fresh cache dir (the cold ``cc`` build is ``setup_s``).  The timed
    window then re-runs fig11 and fig12 in pairs, order chosen by the
    seed, against that warm cache until ``--seconds`` have passed.
    Pairs keep the median a mix of both figures whatever the count.
``figs-cold-jit``
    A fixed, seeded sequence of ``--backend jit --trip-count T``
    commands, every ``T`` distinct, all sharing one cache dir that is
    empty when the window opens: first-time regeneration through the
    paper's compiler and the jit codegen, writing the disk cache as it
    goes.  The sequence length depends only on ``--seconds``, so a
    faster program does the same work sooner rather than more work.

Every command runs alone (one CLI child at a time) and counts as
correct only if it exits 0 with stdout byte-equal to the bytes oracle.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ChildResult,
    RunDir,
    child_env,
    median,
    percentile,
    repro_argv,
    run_child,
)
from oracle import DEFAULT_TRIP, TRIP_POOL, expected_output

#: Configs one figure command verifies (CLI defaults: 10 loops x 14 schemes).
CONFIGS_PER_FIGURE = 140
#: The cold sequence has one fig11+fig12 pair for every whole this many
#: seconds of ``--seconds`` (at least one).  The count is fixed rather
#: than timed, so every commit does the same work; one pair takes ≈8 s
#: on the reference host and later pairs take longer, because each
#: command finds a larger cache.
COLD_PAIR_S = 20.0


@dataclass
class Command:
    figure: str
    trip: int
    backend: str

    def args(self, cache_dir: Path) -> list[str]:
        return ["bench", self.figure, "--backend", self.backend,
                "--trip-count", str(self.trip), "--cache-dir", str(cache_dir)]


@dataclass
class FigsRun:
    """What one figure workload observed (samples are CLI commands)."""

    setup_s: list[float] = field(default_factory=list)
    command_s: list[float] = field(default_factory=list)
    window_s: float = 0.0
    configs: int = 0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    peak_rss_mb: float = 0.0
    cache_dir: Path | None = None
    children: list[tuple[str, ChildResult, Path | None]] = field(
        default_factory=list)
    errors: list[str] = field(default_factory=list)


def _check(cmd: Command, result: ChildResult, run: RunDir,
           out: FigsRun) -> bool:
    if result.returncode != 0:
        stderr = result.stderr.decode(errors="replace")[-300:]
        out.errors.append(f"{cmd.figure} t{cmd.trip} exit "
                          f"{result.returncode}: {stderr}")
        return False
    if result.stdout != expected_output(cmd.figure, cmd.trip, run):
        out.mismatched += 1
        out.errors.append(f"{cmd.figure} t{cmd.trip}: stdout differs from "
                          "the bytes oracle")
        return False
    return True


def _execute(cmd: Command, cache_dir: Path, run: RunDir, out: FigsRun,
             phase: str, trace_dir: Path | None) -> ChildResult:
    trace_out = None
    if trace_dir is not None:
        trace_out = trace_dir / f"child-{len(out.children):03d}.json"
    result = run_child(repro_argv(cmd.args(cache_dir), trace_out),
                       child_env(run, cache_dir))
    out.children.append((phase, result, trace_out))
    return result


def _timed_commands(commands, cache_dir: Path, run: RunDir, out: FigsRun,
                    trace_dir: Path | None, seconds: float | None) -> None:
    """Run commands one at a time; stop between pairs once time is up."""
    # Oracle files are read (or generated) before the window opens.
    for cmd in commands:
        expected_output(cmd.figure, cmd.trip, run)
    started = time.perf_counter()
    for index, cmd in enumerate(commands):
        if (seconds is not None and index % 2 == 0 and index
                and time.perf_counter() - started >= seconds):
            break
        result = _execute(cmd, cache_dir, run, out, "window", trace_dir)
        out.attempted += 1
        out.command_s.append(result.seconds)
        out.peak_rss_mb = max(out.peak_rss_mb, result.maxrss_mb)
        if _check(cmd, result, run, out):
            out.configs += CONFIGS_PER_FIGURE
        else:
            out.failed += 1
    out.window_s = time.perf_counter() - started


def warm_native(seed: int, seconds: float, run: RunDir,
                trace_dir: Path | None = None,
                warm_cache: Path | None = None) -> FigsRun:
    """``warm_cache`` (a cache dir an earlier run built) skips the set-up."""
    out = FigsRun(cache_dir=warm_cache)
    first, second = ("fig11", "fig12") if seed % 2 == 0 else ("fig12", "fig11")
    if warm_cache is None:
        out.cache_dir = run.fresh("cache")
        started = time.perf_counter()
        for figure in ("fig11", "fig12"):
            cmd = Command(figure, DEFAULT_TRIP, "native")
            result = _execute(cmd, out.cache_dir, run, out, "setup",
                              trace_dir)
            out.attempted += 1
            if not _check(cmd, result, run, out):
                out.failed += 1
        out.setup_s.append(time.perf_counter() - started)
    pair = [Command(first, DEFAULT_TRIP, "native"),
            Command(second, DEFAULT_TRIP, "native")]
    # Enough pairs for any window; the loop stops once time is up.
    _timed_commands(pair * 64, out.cache_dir, run, out, trace_dir, seconds)
    return out


def cold_sequence(seed: int, seconds: float) -> list[Command]:
    """The seeded cold command list: fig11, fig12, fig11, ... with
    distinct trips.  The order is fixed because later commands find a
    larger cache; only the trips depend on the seed."""
    pairs = max(1, math.floor(seconds / COLD_PAIR_S))
    trips = random.Random(seed).sample(TRIP_POOL, 2 * pairs)
    return [Command(("fig11", "fig12")[i % 2], trip, "jit")
            for i, trip in enumerate(trips)]


def cold_jit(seed: int, seconds: float, run: RunDir,
             trace_dir: Path | None = None,
             warm_cache: Path | None = None) -> FigsRun:
    """Always starts from an empty cache; ``warm_cache`` is ignored."""
    out = FigsRun(cache_dir=run.fresh("cache"))
    commands = cold_sequence(seed, seconds)
    # The set-up is the interpreter and import warm-up every command
    # pays: `repro bench --help` nine times (setup_s is the median), so
    # that the first timed command does not also pay for a cold page
    # cache.  The empty cache itself is the workload, not set-up.
    for _ in range(9):
        probe = run_child(repro_argv(["bench", "--help"]),
                          child_env(run, None))
        out.attempted += 1
        if probe.returncode != 0:
            out.errors.append("repro bench --help failed")
            out.failed += 1
        out.setup_s.append(probe.seconds)
    _timed_commands(commands, out.cache_dir, run, out, trace_dir, None)
    return out


def end_to_end(out: FigsRun) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics: name -> (value, unit, sample count)."""
    samples_ms = [s * 1000.0 for s in out.command_s]
    n = len(samples_ms)
    return {
        "setup_s": (median(out.setup_s) if out.setup_s else 0.0, "s",
                    len(out.setup_s)),
        "configs_per_s": (out.configs / out.window_s, "1/s", n),
        "p50_ms": (median(samples_ms), "ms", n),
        "tail_ms": (percentile(samples_ms, 0.9), "ms", n),
        "peak_rss_mb": (out.peak_rss_mb, "MB", n),
        "ok_share": ((out.attempted - out.failed) / out.attempted, "ratio",
                     out.attempted),
    }
