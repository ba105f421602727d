"""The hardened ``repro serve`` HTTP tier (DESIGN.md §7).

Every hardening layer is driven end to end against a real asyncio
server on a loopback socket: admission shedding (429 + Retry-After),
single-flight coalescing (N identical concurrent requests, one
computation — and one ``cc`` for one signature), concurrent same-class
/verify requests answered as if each came alone, per-request deadlines (504, with no
shared state mutated by the abandoned work), the native-compile
circuit breaker (trips under injected compile faults, recovers through
a half-open probe), the ``serve`` fault phase (reject / delay /
disconnect), graceful drain, and the byte-parity contract: a /sweep
response body is exactly the ``repro bench`` CLI output.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import faults
from repro.machine.backend import numpy_available
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.breaker import CircuitBreaker

SRC = ("int a[256]; int b[256]; int c[256]; "
       "for (i = 0; i < 150; i++) { a[i] = b[i+1] + c[i+2]; }")

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.setenv("REPRO_FAULT_SLEEP", "0.4")
    faults.reload()
    yield
    faults.reload()


def _arm(monkeypatch, spec: str) -> None:
    monkeypatch.setenv("REPRO_FAULT", spec)
    faults.reload()


def _config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, max_inflight=4, max_queue=8,
                deadline=30.0, compile_budget=5.0, breaker_threshold=2,
                breaker_cooldown=0.2, drain_timeout=5.0)
    base.update(overrides)
    return ServeConfig(**base)


async def _fetch(port, method, path, body=None, headers=None):
    """One request over a fresh connection; (status|None, body bytes).

    ``None`` status means the server closed without answering — the
    observable shape of an injected ``serve:disconnect``.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n")
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    writer.write(head.encode() + b"\r\n" + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_bytes, _, rest = data.partition(b"\r\n\r\n")
    if not head_bytes:
        return None, b""
    return int(head_bytes.split()[1]), rest


class _Server:
    """An in-process server bound to a loopback port."""

    def __init__(self, app: ServeApp, server, port: int):
        self.app = app
        self.server = server
        self.port = port

    async def fetch(self, method, path, body=None, headers=None):
        return await _fetch(self.port, method, path, body, headers)

    async def close(self):
        self.server.close()
        await self.server.wait_closed()
        self.app.close()


async def _start(config: ServeConfig | None = None) -> _Server:
    app = ServeApp(config or _config())
    server = await asyncio.start_server(app.handle_connection,
                                        "127.0.0.1", 0)
    return _Server(app, server, server.sockets[0].getsockname()[1])


def run(coro):
    return asyncio.run(coro)


class TestProtocol:
    def test_healthz_and_stats(self):
        async def scenario():
            srv = await _start()
            try:
                status, body = await srv.fetch("GET", "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["breaker"] == "closed"
                status, body = await srv.fetch("GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["counters"]["requests_total"] >= 1
                assert stats["breaker"]["state"] == "closed"
                assert "singleflight" in stats and "native" in stats
            finally:
                await srv.close()
        run(scenario())

    def test_stats_report_disk_cache_scans(self):
        from repro.cache import get_cache

        async def scenario():
            srv = await _start()
            try:
                get_cache().put("serve-stats-probe", 1)
                status, body = await srv.fetch("GET", "/stats")
                assert status == 200
                disk = json.loads(body)["disk_cache"]
                assert disk["puts"] >= 1 and disk["scans"] >= 1
            finally:
                await srv.close()
        run(scenario())

    def test_simdize_and_verify(self):
        async def scenario():
            srv = await _start()
            try:
                status, body = await srv.fetch("POST", "/simdize",
                                               {"source": SRC})
                assert status == 200
                doc = json.loads(body)
                assert doc["policy"] in ("zero", "eager", "lazy", "dominant")
                assert "vec_" in doc["program"]
                status, body = await srv.fetch("POST", "/verify",
                                               {"source": SRC, "seed": 3})
                assert status == 200
                doc = json.loads(body)
                assert doc["verified"] is True
                assert doc["scalar_ops"] > doc["vector_ops"] > 0
                assert doc["degraded"] is None
            finally:
                await srv.close()
        run(scenario())

    def test_verify_matches_cli_run_exactly(self):
        from repro import run_and_verify
        from repro.lang import compile_source
        from repro.simdize import SimdOptions, simdize

        loop = compile_source(SRC)
        result = simdize(loop, 16, SimdOptions())
        oracle = run_and_verify(result.program, seed=11)

        async def scenario():
            srv = await _start()
            try:
                status, body = await srv.fetch("POST", "/verify",
                                               {"source": SRC, "seed": 11})
                assert status == 200
                doc = json.loads(body)
                assert doc["scalar_ops"] == oracle.scalar_total
                assert doc["vector_ops"] == oracle.vector_total
                assert doc["speedup"] == oracle.speedup
            finally:
                await srv.close()
        run(scenario())

    def test_malformed_requests_get_4xx_not_crashes(self):
        async def scenario():
            srv = await _start()
            try:
                status, _ = await srv.fetch("POST", "/verify")
                assert status == 400          # empty body
                status, _ = await srv.fetch("GET", "/nope")
                assert status == 404
                status, _ = await srv.fetch("GET", "/verify")
                assert status == 405
                status, body = await srv.fetch(
                    "POST", "/verify", {"source": "garbage("})
                assert status == 400
                assert b"ParseError" in body
                status, _ = await srv.fetch(
                    "POST", "/verify", {"source": SRC, "bogus": 1})
                assert status == 400          # unknown field
                # raw non-JSON body
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port)
                writer.write(b"POST /verify HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 3\r\n\r\nxyz")
                await writer.drain()
                data = await reader.read()
                writer.close()
                assert b" 400 " in data.split(b"\r\n", 1)[0]
                # the server survived all of it
                status, _ = await srv.fetch("GET", "/healthz")
                assert status == 200
                assert srv.app.counters["unhandled_errors"] == 0
            finally:
                await srv.close()
        run(scenario())


class TestCoalescingAndBatching:
    def test_identical_concurrent_requests_coalesce(self):
        async def scenario():
            srv = await _start()
            try:
                payload = {"source": SRC, "seed": 5}
                results = await asyncio.gather(*[
                    srv.fetch("POST", "/verify", payload) for _ in range(6)])
                assert [s for s, _ in results] == [200] * 6
                assert len({b for _, b in results}) == 1  # one shared answer
                # Every request was either a flight leader or coalesced
                # onto one; sockets that connect after a leader finishes
                # start a new flight, so only the split varies.
                snap = srv.app.flight.snapshot()
                assert snap["leaders"] + snap["coalesced"] == 6
                assert snap["coalesced"] >= 1
                assert snap["leaders"] < 6
            finally:
                await srv.close()
        run(scenario())

    @needs_numpy
    def test_same_class_verifies_micro_batch(self):
        async def scenario():
            srv = await _start()
            try:
                # Same program structure, different seeds: distinct
                # requests of one signature class, sent concurrently,
                # each answered as if it came alone.
                payloads = [{"source": SRC, "seed": seed, "backend": "jit"}
                            for seed in range(4)]
                together = await asyncio.gather(*[
                    srv.fetch("POST", "/verify", p) for p in payloads])
                assert [s for s, _ in together] == [200] * 4
                for payload, answer in zip(payloads, together):
                    assert answer == await srv.fetch("POST", "/verify",
                                                     payload)
            finally:
                await srv.close()
        run(scenario())

    @needs_numpy
    def test_duplicate_native_signatures_cost_one_cc(self):
        from repro.machine import jit, native

        if native._compiler_identity()[0] is None:
            pytest.skip("no host C compiler")

        async def scenario():
            jit.clear_memory_cache()
            native.clear_memory_cache()
            before = native.STATS["cc_invocations"]
            srv = await _start()
            try:
                results = await asyncio.gather(*[
                    srv.fetch("POST", "/verify",
                              {"source": SRC, "seed": seed,
                               "backend": "native"})
                    for seed in range(5)])
                assert [s for s, _ in results] == [200] * 5
                # One signature, five concurrent requests, at most one
                # compiler launch (zero when the disk cache is warm).
                assert native.STATS["cc_invocations"] - before <= 1
            finally:
                await srv.close()
        run(scenario())


class TestAdmissionAndDeadlines:
    def test_overload_sheds_429_with_retry_after(self, monkeypatch):
        async def scenario():
            srv = await _start(_config(max_inflight=1, max_queue=0))
            try:
                # One slow request occupies the only slot...
                _arm(monkeypatch, "serve:delay:once")
                slow = asyncio.ensure_future(
                    srv.fetch("POST", "/simdize", {"source": SRC}))
                await asyncio.sleep(0.1)
                # ...so the next is shed immediately, not queued.
                status, body = await srv.fetch("POST", "/simdize",
                                               {"source": SRC})
                assert status == 429
                assert json.loads(body)["retry_after"] == 1
                status, _ = await slow
                assert status == 200
                assert srv.app.counters["rejected_429"] >= 1
            finally:
                await srv.close()
        run(scenario())

    def test_deadline_answers_504(self, monkeypatch):
        async def scenario():
            srv = await _start()
            try:
                _arm(monkeypatch, "serve:delay")
                status, body = await srv.fetch(
                    "POST", "/simdize", {"source": SRC},
                    {"X-Repro-Deadline": "0.05"})
                assert status == 504
                assert b"deadline" in body
                assert srv.app.counters["deadline_timeouts"] == 1
                # The slot was released and the server still works.
                _arm(monkeypatch, "")
                status, _ = await srv.fetch("POST", "/simdize",
                                            {"source": SRC})
                assert status == 200
            finally:
                await srv.close()
        run(scenario())

    def test_bad_deadline_header_is_400(self):
        async def scenario():
            srv = await _start()
            try:
                status, _ = await srv.fetch("POST", "/simdize",
                                            {"source": SRC},
                                            {"X-Repro-Deadline": "soon"})
                assert status == 400
            finally:
                await srv.close()
        run(scenario())


class TestServeFaults:
    def test_reject_fault_sheds_before_admission(self, monkeypatch):
        async def scenario():
            srv = await _start()
            try:
                _arm(monkeypatch, "serve:reject")
                status, body = await srv.fetch("POST", "/simdize",
                                               {"source": SRC})
                assert status == 429
                assert b"injected" in body
                # Ops endpoints are exempt: degraded != unobservable.
                status, _ = await srv.fetch("GET", "/healthz")
                assert status == 200
            finally:
                await srv.close()
        run(scenario())

    def test_disconnect_fault_drops_connection(self, monkeypatch):
        async def scenario():
            srv = await _start()
            try:
                _arm(monkeypatch, "serve:disconnect:once")
                status, body = await srv.fetch("POST", "/simdize",
                                               {"source": SRC})
                assert status is None and body == b""
                status, _ = await srv.fetch("POST", "/simdize",
                                            {"source": SRC})
                assert status == 200
                assert srv.app.counters["fault_disconnects"] == 1
            finally:
                await srv.close()
        run(scenario())

    def test_raise_fault_answers_500(self, monkeypatch):
        async def scenario():
            srv = await _start()
            try:
                _arm(monkeypatch, "serve:raise:once")
                status, body = await srv.fetch("POST", "/simdize",
                                               {"source": SRC})
                assert status == 500
                assert b"injected fault" in body
                status, _ = await srv.fetch("GET", "/healthz")
                assert status == 200
            finally:
                await srv.close()
        run(scenario())


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown=1.0,
                                 clock=lambda: clock[0])
        assert breaker.allow() and breaker.state == "closed"
        breaker.failure()
        assert breaker.state == "closed"     # 1 < threshold
        breaker.failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow()           # cooling down
        clock[0] = 1.5
        assert breaker.state == "half-open"
        assert breaker.allow()               # the probe
        assert not breaker.allow()           # only one probe at a time
        breaker.failure()                    # probe failed: re-open
        assert breaker.state == "open" and breaker.trips == 2
        clock[0] = 3.0
        assert breaker.allow()
        breaker.success()
        assert breaker.state == "closed" and breaker.recoveries == 1
        breaker.failure()
        assert breaker.state == "closed"     # streak was reset

    @needs_numpy
    def test_trips_under_injected_compile_faults_and_recovers(
            self, monkeypatch):
        async def scenario():
            srv = await _start(_config(breaker_threshold=2,
                                       breaker_cooldown=0.2))
            try:
                _arm(monkeypatch, "compile:raise")
                records = []
                for seed in range(3):
                    status, body = await srv.fetch(
                        "POST", "/verify",
                        {"source": SRC, "seed": seed, "backend": "native"})
                    assert status == 200       # degraded, not failed
                    records.append(json.loads(body))
                # Every degraded response carries the structured record.
                for doc in records:
                    assert doc["backend"] == "jit"
                    assert doc["degraded"]["tier"] == "jit"
                    assert doc["degraded"]["failed"] == ["native"]
                assert records[2]["degraded"]["reason"] == "circuit open"
                assert srv.app.breaker.state == "open"
                assert srv.app.breaker.trips == 1

                # Recovery: faults cleared, cooldown elapsed, half-open
                # probe succeeds, native serving resumes.
                _arm(monkeypatch, "")
                await asyncio.sleep(0.25)
                status, body = await srv.fetch(
                    "POST", "/verify",
                    {"source": SRC, "seed": 9, "backend": "native"})
                assert status == 200
                doc = json.loads(body)
                assert doc["degraded"] is None
                assert doc["backend"] == "native"
                assert srv.app.breaker.state == "closed"
                assert srv.app.breaker.recoveries == 1
            finally:
                await srv.close()
        run(scenario())

    @needs_numpy
    def test_compile_timeout_trips_breaker(self, monkeypatch):
        async def scenario():
            srv = await _start(_config(breaker_threshold=1,
                                       compile_budget=0.05,
                                       breaker_cooldown=10.0))
            try:
                monkeypatch.setenv("REPRO_FAULT_SLEEP", "0.5")
                _arm(monkeypatch, "compile:timeout:once")
                status, body = await srv.fetch(
                    "POST", "/verify",
                    {"source": SRC, "seed": 1, "backend": "native"})
                assert status == 200
                doc = json.loads(body)
                assert doc["degraded"]["reason"] == "compile budget exceeded"
                assert srv.app.breaker.state == "open"
            finally:
                await srv.close()
        run(scenario())


class TestSweepParity:
    def test_sweep_body_is_byte_identical_to_cli(self, capsys):
        from repro.cli import main

        assert main(["bench", "fig11", "--count", "2",
                     "--trip-count", "64"]) == 0
        oracle = capsys.readouterr().out.encode()

        async def scenario():
            srv = await _start()
            try:
                status, body = await srv.fetch(
                    "GET", "/sweep?figure=fig11&count=2&trip=64")
                assert status == 200
                assert body == oracle
                # Served again from the warm response cache, still
                # byte-identical.
                status, again = await srv.fetch(
                    "GET", "/sweep?figure=fig11&count=2&trip=64")
                assert again == body
                assert srv.app.counters["sweep_cache_hits"] == 1
            finally:
                await srv.close()
        run(scenario())

    def test_sweep_parity_survives_fault_matrix(self, monkeypatch, capsys):
        from repro.cli import main

        assert main(["bench", "fig11", "--count", "2",
                     "--trip-count", "64"]) == 0
        oracle = capsys.readouterr().out.encode()

        async def scenario():
            srv = await _start()
            try:
                _arm(monkeypatch,
                     "serve:disconnect:0.4:7,compile:raise:0.5:3")
                body = None
                for _ in range(20):   # retry through disconnects
                    status, data = await srv.fetch(
                        "GET", "/sweep?figure=fig11&count=2&trip=64")
                    if status == 200:
                        body = data
                        break
                assert body == oracle
            finally:
                await srv.close()
        run(scenario())

    def test_sweep_validates_parameters(self):
        async def scenario():
            srv = await _start()
            try:
                status, _ = await srv.fetch("GET", "/sweep")
                assert status == 400
                status, _ = await srv.fetch("GET", "/sweep?figure=fig99")
                assert status == 400
                status, _ = await srv.fetch(
                    "GET", "/sweep?figure=fig11&count=0")
                assert status == 400
            finally:
                await srv.close()
        run(scenario())


class TestDrain:
    def test_drain_stops_admission_and_reports_unhealthy(self):
        async def scenario():
            srv = await _start()
            try:
                srv.app.request_drain()
                status, body = await srv.fetch("GET", "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "draining"
                status, _ = await srv.fetch("POST", "/simdize",
                                            {"source": SRC})
                assert status == 503
                # /stats still answers during drain.
                status, body = await srv.fetch("GET", "/stats")
                assert status == 200
                assert json.loads(body)["draining"] is True
                assert await srv.app.wait_idle(2.0)
            finally:
                await srv.close()
        run(scenario())

    def test_inflight_requests_finish_during_drain(self, monkeypatch):
        async def scenario():
            srv = await _start()
            try:
                monkeypatch.setenv("REPRO_FAULT_SLEEP", "0.2")
                _arm(monkeypatch, "serve:delay:once")
                slow = asyncio.ensure_future(
                    srv.fetch("POST", "/simdize", {"source": SRC}))
                await asyncio.sleep(0.05)
                srv.app.request_drain()
                status, _ = await slow
                assert status == 200           # admitted work completes
                assert await srv.app.wait_idle(2.0)
            finally:
                await srv.close()
        run(scenario())


class TestServeCliContract:
    def test_sigterm_drains_cleanly_end_to_end(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            port = int(line.rsplit(":", 1)[1])
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert "drain requested" in stderr
            assert "drained (clean)" in stderr
            assert "final stats" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
