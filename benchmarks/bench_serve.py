#!/usr/bin/env python
"""Load harness for the ``repro serve`` HTTP tier (``BENCH_interp.json``).

Drives a server — self-hosted in-process by default, or an already
running one via ``--port`` — with a raw asyncio HTTP client and
records the serving-layer numbers the PR 10 acceptance bars ask for:

* **cold vs warm** — /verify latency on first sight of a program
  (compile + simdize + kernel build) vs repeat requests against the
  warm memo/kernel/disk caches, both sent one at a time so the
  cold/warm ratio compares like loads; p50/p99 and the ratio.
* **throughput vs concurrency** — warm /verify requests at 1, 4 and
  16 concurrent connections; requests per second and p99.
* **coalescing** — N identical concurrent requests must all succeed
  and collapse onto a shared flight (observable in /stats).
* **under faults** — the same warm load with ``serve:reject`` /
  ``serve:disconnect`` probabilistically armed and with
  ``compile:raise`` degrading the native tier: the error budget is
  explicit (shed requests answer 429, disconnects are visible client
  errors, everything served answers 200) and the server must stay up.
  Fault scenarios need the in-process server (they arm ``REPRO_FAULT``
  in this very process) and are skipped with ``--port``.

``--smoke`` runs a seconds-long version of the unfaulted scenarios
and skips the results write — CI uses it as a liveness + latency
sanity gate against the server it started.  The full run read-modify-
writes the ``serve`` section of ``BENCH_interp.json`` (other sections
are owned by bench_speed.py and left untouched) and appends a text
report under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SOURCES = [
    ("int a[512]; int b[512]; int c[512]; "
     f"for (i = 0; i < {trip}; i++) {{ a[i] = b[i+1] + c[i+{off}]; }}")
    for trip, off in ((150, 2), (200, 3), (250, 1), (300, 2))
]


async def fetch(port, method, path, body=None, headers=None):
    """One request on a fresh connection; (status|None, body, seconds)."""
    started = time.perf_counter()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return None, b"", time.perf_counter() - started
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\n")
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    try:
        writer.write(head.encode() + b"\r\n" + payload)
        await writer.drain()
        data = await reader.read()
    except (ConnectionError, OSError):
        data = b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    elapsed = time.perf_counter() - started
    head_bytes, _, rest = data.partition(b"\r\n\r\n")
    if not head_bytes:
        return None, b"", elapsed
    return int(head_bytes.split()[1]), rest, elapsed


async def run_load(port, requests, concurrency, payload_of):
    """``requests`` POST /verify calls at fixed concurrency.

    Returns (status histogram, sorted latencies, wall seconds).
    """
    statuses: dict = {}
    latencies: list[float] = []
    queue: asyncio.Queue = asyncio.Queue()
    for i in range(requests):
        queue.put_nowait(i)

    async def worker():
        while True:
            try:
                i = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            status, _, seconds = await fetch(port, "POST", "/verify",
                                             payload_of(i))
            key = status if status is not None else "dropped"
            statuses[key] = statuses.get(key, 0) + 1
            latencies.append(seconds)

    started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    wall = time.perf_counter() - started
    return statuses, sorted(latencies), wall


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def summarize(name, statuses, latencies, wall):
    total = sum(statuses.values())
    line = (f"{name}: {total} requests in {wall:.2f}s "
            f"({total / wall:.1f} rps)  "
            f"p50 {percentile(latencies, 0.50) * 1e3:.1f}ms  "
            f"p99 {percentile(latencies, 0.99) * 1e3:.1f}ms  "
            f"statuses {dict(sorted(statuses.items(), key=str))}")
    print(line, flush=True)
    return line


class Harness:
    """A server to aim at: external (--port) or in-process."""

    def __init__(self, port=None):
        self.external = port is not None
        self.port = port
        self._server = None
        self._app = None

    async def __aenter__(self):
        if not self.external:
            from repro.serve.app import ServeApp, ServeConfig

            self._app = ServeApp(ServeConfig(
                port=0, workers=4, max_inflight=8, max_queue=64,
                deadline=120.0, compile_budget=60.0))
            self._server = await asyncio.start_server(
                self._app.handle_connection, "127.0.0.1", 0)
            self.port = self._server.sockets[0].getsockname()[1]
        status, _, _ = await fetch(self.port, "GET", "/healthz")
        if status != 200:
            raise SystemExit(f"server on port {self.port} is not healthy "
                             f"(healthz -> {status})")
        return self

    async def __aexit__(self, *exc):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._app.close()

    async def stats(self):
        _, body, _ = await fetch(self.port, "GET", "/stats")
        return json.loads(body)


def _arm(spec):
    if spec:
        os.environ["REPRO_FAULT"] = spec
    else:
        os.environ.pop("REPRO_FAULT", None)
    from repro import faults

    faults.reload()


async def scenario_cold_warm(h, repeats):
    section = {}
    cold_lat = []
    for i, src in enumerate(SOURCES):
        status, _, seconds = await fetch(
            h.port, "POST", "/verify", {"source": src, "seed": i})
        assert status == 200, f"cold verify -> {status}"
        cold_lat.append(seconds)
    # Concurrency 1, like the cold pass: throughput under concurrent
    # load is the ladder's job (scenario_concurrency).
    statuses, warm_lat, _ = await run_load(
        h.port, repeats * len(SOURCES), 1,
        lambda i: {"source": SOURCES[i % len(SOURCES)],
                   "seed": i % len(SOURCES)})
    assert set(statuses) == {200}, f"warm load statuses {statuses}"
    cold_p50 = statistics.median(cold_lat)
    warm_p50 = percentile(warm_lat, 0.50)
    section["cold_p50_ms"] = round(cold_p50 * 1e3, 2)
    section["warm_p50_ms"] = round(warm_p50 * 1e3, 2)
    section["warm_p99_ms"] = round(percentile(warm_lat, 0.99) * 1e3, 2)
    section["cold_over_warm"] = round(cold_p50 / max(warm_p50, 1e-9), 1)
    print(f"cold/warm: cold p50 {section['cold_p50_ms']}ms, "
          f"warm p50 {section['warm_p50_ms']}ms "
          f"({section['cold_over_warm']}x)", flush=True)
    return section


async def scenario_concurrency(h, requests):
    payload = {"source": SOURCES[0], "seed": 0}
    section = {}
    for concurrency in (1, 4, 16):
        statuses, latencies, wall = await run_load(
            h.port, requests, concurrency, lambda i: payload)
        assert set(statuses) == {200}, statuses
        summarize(f"concurrency {concurrency}", statuses, latencies, wall)
        section[f"c{concurrency}"] = {
            "rps": round(len(latencies) / wall, 1),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
        }
    return section


async def scenario_coalescing(h, twins):
    before = (await h.stats())["singleflight"]
    results = await asyncio.gather(*[
        fetch(h.port, "POST", "/verify", {"source": SOURCES[1], "seed": 77})
        for _ in range(twins)])
    assert all(status == 200 for status, _, _ in results)
    assert len({body for _, body, _ in results}) == 1
    after = (await h.stats())["singleflight"]
    coalesced = after["coalesced"] - before["coalesced"]
    print(f"coalescing: {twins} identical concurrent requests, "
          f"{coalesced} coalesced onto shared flights", flush=True)
    return {"twins": twins, "coalesced": coalesced}


async def scenario_faults(h, requests):
    """Warm load with the serve/compile fault surface armed."""
    section = {}
    payload_of = (lambda i: {"source": SOURCES[i % len(SOURCES)],
                             "seed": i % len(SOURCES)})
    for name, spec, ok_statuses in (
            ("reject_30pct", "serve:reject:0.3:11", {200, 429}),
            ("disconnect_30pct", "serve:disconnect:0.3:12",
             {200, "dropped"}),
            ("compile_raise_native", "compile:raise", {200})):
        _arm(spec)
        try:
            if name == "compile_raise_native":
                def payload_of(i, _base=payload_of):  # noqa: E306
                    doc = dict(_base(i))
                    doc["backend"] = "native"
                    return doc
            statuses, latencies, wall = await run_load(
                h.port, requests, 4, payload_of)
        finally:
            _arm("")
        assert set(statuses) <= ok_statuses, (name, statuses)
        assert statuses.get(200, 0) > 0, (name, statuses)
        line = summarize(f"fault {name}", statuses, latencies, wall)
        section[name] = {
            "statuses": {str(k): v for k, v in statuses.items()},
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
        }
        # The server itself must have stayed healthy throughout.
        status, _, _ = await fetch(h.port, "GET", "/healthz")
        assert status == 200, f"unhealthy after {name}: {status}"
        del line
    stats = await h.stats()
    section["breaker_trips"] = stats["breaker"]["trips"]
    section["degraded_native"] = stats["counters"].get("degraded_native", 0)
    assert section["degraded_native"] > 0  # compile:raise really degraded
    return section


async def run(args) -> dict:
    async with Harness(args.port) as h:
        repeats = 2 if args.smoke else 25
        requests = 8 if args.smoke else 200
        sections = {
            "cold_warm": await scenario_cold_warm(h, repeats),
            "throughput": await scenario_concurrency(h, requests),
            "coalescing": await scenario_coalescing(h, 4 if args.smoke
                                                    else 16),
        }
        if h.external:
            print("faults: skipped (external server; REPRO_FAULT is "
                  "per-process)", flush=True)
        else:
            sections["faults"] = await scenario_faults(
                h, 16 if args.smoke else 120)
        stats = await h.stats()
        sections["server_counters"] = {
            "requests_total": stats["counters"]["requests_total"],
            "rejected_429": stats["counters"].get("rejected_429", 0),
            "unhandled_errors": stats["counters"].get("unhandled_errors", 0),
        }
        assert sections["server_counters"]["unhandled_errors"] == 0
        return sections


def write_results(sections) -> None:
    from repro.reporting import atomic_write_text

    bench_path = ROOT / "BENCH_interp.json"
    try:
        merged = json.loads(bench_path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged["serve"] = sections
    atomic_write_text(bench_path, json.dumps(merged, indent=2) + "\n")
    results = ROOT / "benchmarks" / "results"
    results.mkdir(exist_ok=True)
    atomic_write_text(results / "serve.txt",
                      json.dumps(sections, indent=2, sort_keys=True) + "\n")
    print(f"wrote serve section to {bench_path}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI gate; no results write")
    parser.add_argument("--port", type=int, default=None,
                        help="aim at an already-running server instead of "
                             "self-hosting one in-process")
    args = parser.parse_args(argv)
    if args.port is None:
        os.environ.setdefault("REPRO_CACHE_DIR",
                              str(ROOT / ".bench-serve-cache"))
    sections = asyncio.run(run(args))
    if not args.smoke:
        write_results(sections)
    print("bench_serve: OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
