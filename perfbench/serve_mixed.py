"""The ``serve-mixed`` workload: open-loop HTTP traffic to ``repro serve``.

One asyncio client sends requests on an even schedule at ``RATE`` per
second, whatever the server's state (independent users), over at most
``os.cpu_count()`` connections at once, and times every request from
the moment it was due.  The seeded mix:

* 70 % ``/verify`` of a 32-loop hot set the set-up warmed;
* 20 % ``/verify`` of loops the server has never seen;
* 10 % ``/simdize`` of loops the server has never seen.

A request counts only if it answers 200 within ``LIMIT_S`` of its due
time; 429/504 answers, dropped connections and timeouts are failures.
After the window the hot set and a seeded sample of the fresh requests
are re-derived with the bytes engines and compared field by field.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from common import (ROOT, SRC, RunDir, child_env, median, percentile,
                    repro_argv)
from sources import LoopSpec, SourceGenerator

#: Requests per second, open loop.  Every fresh request adds cache
#: files and every cache write rescans the whole cache, so fresh
#: requests slow down as a window goes on and the server's knee falls;
#: the rate is low enough that a slower host stays far from it
#: (README.md, "serve-mixed rate").
RATE = 20.0
LIMIT_S = 0.25          # a slower answer misses the latency limit
HOT_SET = 32
SETUPS = 5              # set-ups per run; setup_s is their median
ORACLE_FRESH_SAMPLE = 16
CONNECTIONS = os.cpu_count() or 1
HARD_TIMEOUT_S = 10.0   # give up on a request entirely
START_TIMEOUT_S = 60.0


@dataclass
class Request:
    kind: str           # "hot", "fresh", "simdize"
    spec: LoopSpec
    seed: int

    @property
    def path(self) -> str:
        return "/simdize" if self.kind == "simdize" else "/verify"

    def body(self) -> bytes:
        payload = {"source": self.spec.source()}
        if self.kind != "simdize":
            payload["seed"] = self.seed
        return json.dumps(payload).encode()


@dataclass
class Outcome:
    request: Request
    status: int | None
    latency_s: float
    late_s: float
    body: dict | None
    ok: bool = False


@dataclass
class ServeRun:
    setup_s: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    window_s: float = 0.0
    window_epoch: float = 0.0
    server_spawned_at: float = 0.0
    cache_dir: Path | None = None
    peak_rss_mb: float = 0.0
    stats: dict = field(default_factory=dict)
    mismatched: int = 0
    setup_attempted: int = 0
    setup_failures: int = 0
    errors: list[str] = field(default_factory=list)
    trace_file: Path | None = None

    @property
    def attempted(self) -> int:
        return len(self.outcomes) + self.setup_attempted

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok) + self.setup_failures


def traffic(seed: int, count: int) -> tuple[list[Request], list[Request]]:
    """(hot set, the seeded request schedule) for one run.

    Every block of ten requests holds exactly seven hot, two fresh
    /verify and one fresh /simdize request in a seeded order, and the
    hot requests cycle through the whole hot set, so each seed offers
    the same mix and only the loops and the order differ.
    """
    gen = SourceGenerator(seed)
    hot = [Request("hot", gen.draw(), k) for k in range(HOT_SET)]
    rng = random.Random(seed ^ 0x5EED)
    hot_order = rng.sample(hot, HOT_SET)
    block = ["hot"] * 7 + ["fresh"] * 2 + ["simdize"]
    schedule: list[Request] = []
    while len(schedule) < count:
        for kind in rng.sample(block, len(block)):
            index = len(schedule)
            if kind == "hot":
                schedule.append(hot_order[index % HOT_SET])
            else:
                schedule.append(Request(kind, gen.draw(), index))
    return hot, schedule[:count]


# -- the HTTP client ---------------------------------------------------

async def fetch(port: int, method: str, path: str,
                body: bytes = b"") -> tuple[int, bytes]:
    """One request on a fresh connection (the server closes each one)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, payload


async def _one(port: int, request: Request, due: float, late: float,
               slots: asyncio.Semaphore) -> Outcome:
    loop = asyncio.get_running_loop()
    status, body = None, None
    async with slots:
        try:
            status, raw = await asyncio.wait_for(
                fetch(port, "POST", request.path, request.body()),
                HARD_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            status = None
    # The answer is in; decoding it is the client's time, not the server's.
    latency = loop.time() - due
    if status == 200:
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
    ok = (status == 200 and latency <= LIMIT_S and body is not None
          and (request.kind == "simdize" or body.get("verified") is True))
    return Outcome(request, status, latency, late, body, ok)


async def drive(port: int, schedule: list[Request]):
    """Send the schedule open-loop; outcomes, the window's length and
    its start as wall-clock time."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    start = loop.time() + 0.05
    epoch = time.time() + 0.05
    tasks = []
    for index, request in enumerate(schedule):
        due = start + index / RATE
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            _one(port, request, due, loop.time() - due, slots)))
    outcomes = await asyncio.gather(*tasks)
    return list(outcomes), loop.time() - start, epoch


async def warm(port: int, hot: list[Request]) -> int:
    """Send each hot request once, sequentially; returns failures."""
    failures = 0
    for request in hot:
        try:
            status, raw = await asyncio.wait_for(
                fetch(port, "POST", request.path, request.body()),
                HARD_TIMEOUT_S)
            verified = status == 200 and json.loads(raw).get("verified")
        except (OSError, asyncio.TimeoutError, IndexError, ValueError):
            verified = False
        if verified is not True:
            failures += 1
    return failures


# -- the server process ------------------------------------------------

class Server:
    """``repro serve --port 0`` in a child; the port comes from its
    ``listening on`` line."""

    def __init__(self, run: RunDir, trace_out: Path | None):
        self.cache_dir = run.fresh("cache")
        self._log = open(run.path / f"serve-{self.cache_dir.name}.log", "wb")
        args = ["serve", "--port", "0", "--cache-dir", str(self.cache_dir)]
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(
            repro_argv(args, trace_out), cwd=ROOT,
            env=child_env(run, self.cache_dir), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log)
        self.port = self._await_port()

    def _await_port(self) -> int:
        timer = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            while True:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if b"listening on" in line:
                    return int(line.rsplit(b":", 1)[1])
        finally:
            timer.cancel()
        self.stop()
        raise RuntimeError("repro serve did not report a listening port")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- the oracle ----------------------------------------------------------

def oracle_fields(request: Request) -> dict:
    """What the bytes engines say the answer to ``request`` must hold."""
    import repro

    loop = repro.compile_source(request.spec.source())
    result = repro.simdize(loop, V=16, options=repro.SimdOptions())
    fields = {"policy": result.policy, "shift_count": result.shift_count}
    if request.kind != "simdize":
        report = repro.run_and_verify(result.program, seed=request.seed,
                                      backend="bytes", scalar_backend="bytes")
        fields["scalar_ops"] = report.scalar_total
        fields["vector_ops"] = report.vector_total
    return fields


def check_against_oracle(out: ServeRun, seed: int) -> None:
    """Compare every hot answer and a seeded sample of fresh ones with
    :func:`oracle_fields`; a differing field fails that request."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fresh = [o for o in out.outcomes if o.ok and o.request.kind != "hot"]
    sample = random.Random(seed ^ 0x0AC1E).sample(
        fresh, min(ORACLE_FRESH_SAMPLE, len(fresh)))
    hot = [o for o in out.outcomes if o.ok and o.request.kind == "hot"]
    expected: dict[tuple, dict] = {}
    for outcome in hot + sample:
        request = outcome.request
        key = (request.kind, request.spec, request.seed)
        if key not in expected:
            expected[key] = oracle_fields(request)
        want = expected[key]
        got = {name: outcome.body.get(name) for name in want}
        if got != want:
            outcome.ok = False
            out.mismatched += 1
            out.errors.append(f"{request.kind} {request.path}: got {got}, "
                              f"oracle {want}")


# -- the workload --------------------------------------------------------

def serve_mixed(seed: int, seconds: float, run: RunDir,
                trace_dir: Path | None = None) -> ServeRun:
    out = ServeRun()
    hot, schedule = traffic(seed, max(1, round(seconds * RATE)))
    server = None
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
            trace_out = None
            if trace_dir is not None and attempt == SETUPS - 1:
                trace_out = trace_dir / "server.json"
                out.trace_file = trace_out
            started = time.perf_counter()
            server = Server(run, trace_out)
            failures = asyncio.run(warm(server.port, hot))
            out.setup_s.append(time.perf_counter() - started)
            out.setup_attempted += len(hot)
            if failures:
                out.setup_failures += failures
                out.errors.append(f"warm-up: {failures} hot requests failed")
        out.server_spawned_at = server.spawned_at
        out.cache_dir = server.cache_dir
        # A collection in the load generator would show as latency.
        gc.collect()
        gc.disable()
        try:
            out.outcomes, out.window_s, out.window_epoch = asyncio.run(
                drive(server.port, schedule))
        finally:
            gc.enable()
        missed = Counter(o.status for o in out.outcomes if not o.ok)
        if missed:
            out.errors.append(f"{sum(missed.values())} requests failed or "
                              f"missed {LIMIT_S * 1000:.0f} ms, by status: "
                              f"{dict(missed)}")
        out.peak_rss_mb = server.peak_rss_mb()
        status, raw = asyncio.run(fetch(server.port, "GET", "/stats"))
        out.stats = json.loads(raw) if status == 200 else {}
    finally:
        if server is not None:
            server.stop()
    check_against_oracle(out, seed)
    return out


def end_to_end(out: ServeRun) -> dict[str, tuple[float, str, int]]:
    latencies_ms = [o.latency_s * 1000.0 for o in out.outcomes]
    n = len(latencies_ms)
    completed = sum(1 for o in out.outcomes if o.ok)
    return {
        "setup_s": (median(out.setup_s), "s", len(out.setup_s)),
        "configs_per_s": (completed / out.window_s, "1/s", n),
        "p50_ms": (median(latencies_ms), "ms", n),
        "tail_ms": (percentile(latencies_ms, 0.9), "ms", n),
        "peak_rss_mb": (out.peak_rss_mb, "MB", 1),
        "ok_share": ((out.attempted - out.failed) / out.attempted, "ratio",
                     out.attempted),
    }


def diagnostics(out: ServeRun) -> dict[str, tuple[float, str, int]]:
    """Client-side and /stats figures for the per-layer report."""
    by_kind: dict[str, list[float]] = {"hot": [], "fresh": [], "simdize": []}
    for o in out.outcomes:
        by_kind[o.request.kind].append(o.latency_s * 1000.0)
    late_ms = [o.late_s * 1000.0 for o in out.outcomes]
    all_ms = [o.latency_s * 1000.0 for o in out.outcomes]
    flight = out.stats.get("singleflight", {})
    counters = out.stats.get("counters", {})
    shared = flight.get("leaders", 0) + flight.get("coalesced", 0)

    def p50(values):
        return median(values) if values else 0.0

    return {
        "serve.hot_p50_ms": (p50(by_kind["hot"]), "ms", len(by_kind["hot"])),
        "serve.fresh_p50_ms": (p50(by_kind["fresh"]), "ms",
                               len(by_kind["fresh"])),
        "serve.simdize_p50_ms": (p50(by_kind["simdize"]), "ms",
                                 len(by_kind["simdize"])),
        "serve.p99_ms": (percentile(all_ms, 0.99), "ms", len(all_ms)),
        "serve.coalesced_ratio": (flight.get("coalesced", 0) / shared
                                  if shared else 0.0, "ratio", shared),
        "serve.rows_per_batch": (counters.get("batch_rows", 0)
                                 / max(1, counters.get("batches", 0)), "rows",
                                 counters.get("batches", 0)),
        "serve.shed": (counters.get("rejected_429", 0), "count", 1),
        "serve.late_p99_ms": (percentile(late_ms, 0.99), "ms", len(late_ms)),
    }
