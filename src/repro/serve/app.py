"""Simdization-as-a-service: the long-lived ``repro serve`` app.

One asyncio process turns the library into a service that amortizes
its warm state — the simdize memo, the jit kernel LRU, the native
``.so`` cache, the shared disk cache — across every request instead of
across one CLI invocation.  The request path is hardened in layers:

1. **Admission.**  At most ``max_inflight`` requests execute at once;
   at most ``max_queue`` more may wait.  Beyond that the server sheds
   load immediately with ``429`` + ``Retry-After`` instead of growing
   an unbounded queue.  A second, independent bound is the worker
   thread pool: CPU-bound work abandoned by a timed-out request keeps
   occupying its pool thread (threads cannot be cancelled), so the
   pool — not the abandoned request — backpressures later arrivals.
2. **Single-flight.**  Identical concurrent requests (and concurrent
   native warmups of one program signature) coalesce onto one task
   (:mod:`repro.serve.singleflight`): N twins, one simdize, one ``cc``.
   Every other ``/verify`` runs
   :func:`~repro.simdize.verify.verify_equivalence` on a worker thread
   as soon as it is admitted.
3. **Deadlines.**  Every request carries a budget (``X-Repro-Deadline``
   header, default ``deadline``); exceeding it answers ``504``.
   Cancellation is memory-safe by construction: requests only ever
   mutate request-local ``Memory`` objects built from their own seed,
   and shared caches are touched from worker threads, which cancellation
   abandons but never interrupts — so no deadline can leave a
   half-mutated memory or a torn cache behind.
4. **Circuit breaker.**  The native tier's compile pipeline sits
   behind a :class:`~repro.serve.breaker.CircuitBreaker`; repeated
   compile failures or budget overruns trip it and requests degrade to
   jit-only serving — recorded in response metadata with the same
   structured shape as :class:`~repro.machine.backend.ResilientBackend`
   fallback records — until a half-open probe recovers.
5. **Graceful drain.**  SIGTERM/SIGINT stop the listener, let
   in-flight requests finish (bounded by ``drain_timeout``), flush a
   final stats line, and exit 0.

Fault injection: the ``serve`` phase of ``REPRO_FAULT`` is consumed
per request via :func:`repro.faults.decision` — ``reject`` sheds with
429 before admission, ``disconnect`` drops the connection without a
response, ``delay`` stalls inside the admission slot (driving deadline
and overload paths), ``raise`` answers 500.  ``/healthz`` and
``/stats`` bypass faults and admission so the service stays
observable while it degrades.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import time
from collections import OrderedDict, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import faults
from repro.errors import FaultInjected, ServeError, SimdalError
from repro.serve import http
from repro.serve.breaker import CircuitBreaker
from repro.serve.singleflight import SingleFlight

#: Figures /sweep can regenerate, mirroring ``repro bench``.
SWEEP_FIGURES = ("fig11", "fig12", "table1", "table2")

_SWEEP_CACHE_MAX = 32


def _env_float(name: str, default: float) -> float:
    raw = __import__("os").environ.get(name, "")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return default


def _env_int(name: str, default: int) -> int:
    return int(_env_float(name, float(default)))


@dataclass
class ServeConfig:
    """Tunables for one server process (env defaults: ``REPRO_SERVE_*``)."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 4              # executor threads (CPU-bound work)
    max_inflight: int = 8         # admission slots
    max_queue: int = 32           # waiters beyond which 429
    deadline: float = 30.0        # default per-request budget (seconds)
    compile_budget: float = 15.0  # breaker-guarded native warmup budget
    breaker_threshold: int = 3    # consecutive failures that trip it
    breaker_cooldown: float = 5.0
    drain_timeout: float = 30.0   # grace for in-flight work on SIGTERM

    @classmethod
    def from_env(cls) -> "ServeConfig":
        base = cls()
        return cls(
            host=base.host,
            port=_env_int("REPRO_SERVE_PORT", base.port),
            workers=_env_int("REPRO_SERVE_WORKERS", base.workers),
            max_inflight=_env_int("REPRO_SERVE_MAX_INFLIGHT",
                                  base.max_inflight),
            max_queue=_env_int("REPRO_SERVE_MAX_QUEUE", base.max_queue),
            deadline=_env_float("REPRO_SERVE_DEADLINE", base.deadline),
            compile_budget=_env_float("REPRO_SERVE_COMPILE_BUDGET",
                                      base.compile_budget),
            breaker_threshold=_env_int("REPRO_SERVE_BREAKER_THRESHOLD",
                                       base.breaker_threshold),
            breaker_cooldown=_env_float("REPRO_SERVE_BREAKER_COOLDOWN",
                                        base.breaker_cooldown),
            drain_timeout=_env_float("REPRO_SERVE_DRAIN_TIMEOUT",
                                     base.drain_timeout),
        )


@dataclass
class _VerifySpec:
    """Validated /verify (and /simdize) request parameters."""

    source: str
    name: str = "loop"
    V: int = 16
    seed: int = 0
    trip: int | None = None
    scalars: dict[str, int] = field(default_factory=dict)
    backend: str = "auto"
    scalar_backend: str = "auto"
    options: object = None  # SimdOptions


def _json_response(status: int, payload: dict,
                   extra: dict[str, str] | None = None):
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return status, body, "application/json", (extra or {})


class ServeApp:
    """The request-handling core, independent of any real socket.

    Tests drive it through :meth:`handle_connection` with in-memory
    stream pairs or through a real ``asyncio.start_server``; the CLI
    wraps it in :func:`serve_forever`.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig.from_env()
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown)
        self.flight = SingleFlight()
        self.counters: dict[str, int] = defaultdict(int)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve")
        # Serializes the cache-mutating phases (simdize memo, native
        # warmup, whole sweeps) across worker threads; execution itself
        # runs concurrently on request-local memories.
        self._compile_lock = threading.Lock()
        self._sem = asyncio.Semaphore(self.config.max_inflight)
        self._inflight = 0
        self._waiting = 0
        self._threads_busy = 0
        self._draining = False
        self._drain_event: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self._sweep_cache: OrderedDict[tuple, bytes] = OrderedDict()
        self._started = time.monotonic()

    # -- plumbing -----------------------------------------------------

    def _log(self, message: str) -> None:
        print(f"serve: {message}", file=sys.stderr, flush=True)

    async def _offload(self, fn, *args):
        """Run ``fn`` on the worker pool, shielded from cancellation.

        A request abandoning the await (deadline) leaves the thread
        running to completion — threads cannot be interrupted — so the
        shared caches it touches are never torn; the done callback
        keeps the busy gauge honest and consumes the exception of
        abandoned futures.
        """
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(self._pool, fn, *args)
        self._threads_busy += 1

        def _done(finished) -> None:
            self._threads_busy -= 1
            if not finished.cancelled():
                finished.exception()

        fut.add_done_callback(_done)
        return await asyncio.shield(fut)

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal handlers call this)."""
        if not self._draining:
            self._draining = True
            self.counters["drains"] += 1
            self._log("drain requested; no longer accepting work")
        if self._drain_event is not None:
            self._drain_event.set()

    async def wait_idle(self, timeout: float) -> bool:
        """Wait for in-flight connections to finish; False on timeout."""
        deadline = time.monotonic() + timeout
        while self._connections or self._threads_busy:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    def close(self) -> None:
        self._pool.shutdown(wait=False)

    # -- connection handling ------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Last resort: a handler bug must cost one response, never
            # the process.
            self.counters["unhandled_errors"] += 1
            self._log(f"unhandled handler error: {type(exc).__name__}: {exc}")
            self._try_write(writer, 500, {"error": "internal server error"})
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _try_write(self, writer, status: int, payload: dict) -> None:
        try:
            _, body, ctype, extra = _json_response(status, payload)
            writer.write(http.response_bytes(status, body, ctype, extra))
        except (ConnectionError, OSError):
            pass

    async def _serve_one(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(http.read_request(reader), 10.0)
        except http.BadRequest as exc:
            self.counters["bad_requests"] += 1
            self._try_write(writer, exc.status, {"error": str(exc)})
            return
        except asyncio.TimeoutError:
            self.counters["bad_requests"] += 1
            self._try_write(writer, 408, {"error": "request header timeout"})
            return
        if request is None:
            return
        self.counters["requests_total"] += 1

        # Ops endpoints bypass faults and admission: the service stays
        # observable precisely when it is shedding or degrading.
        if request.path == "/healthz":
            status, body, ctype, extra = self._healthz()
        elif request.path == "/stats":
            status, body, ctype, extra = self._stats()
        else:
            kind = faults.decision("serve")
            if kind == "disconnect":
                self.counters["fault_disconnects"] += 1
                self._log("injected disconnect")
                return  # close without a response
            if kind == "reject":
                self.counters["rejected_429"] += 1
                self._log("injected reject: 429 shed")
                status, body, ctype, extra = _json_response(
                    429, {"error": "server busy (injected reject)",
                          "retry_after": 1},
                    {"Retry-After": "1"})
            else:
                status, body, ctype, extra = await self._admit(request, kind)
        self.counters[f"responses_{status}"] += 1
        try:
            writer.write(http.response_bytes(status, body, ctype, extra))
            await writer.drain()
        except (ConnectionError, OSError):
            self.counters["client_disconnects"] += 1

    async def _admit(self, request: http.Request, kind: str | None):
        """Admission control + deadline around the routed handler."""
        if self._draining:
            return _json_response(503, {"error": "server draining"},
                                  {"Retry-After": "1"})
        try:
            deadline = float(request.headers.get("x-repro-deadline",
                                                 self.config.deadline))
        except ValueError:
            return _json_response(400, {"error": "bad X-Repro-Deadline"})
        if deadline <= 0:
            return _json_response(400, {"error": "bad X-Repro-Deadline"})

        if (self._inflight >= self.config.max_inflight
                and self._waiting >= self.config.max_queue):
            self.counters["rejected_429"] += 1
            self._log(f"429 shed (inflight {self._inflight}, "
                      f"queue {self._waiting} full)")
            return _json_response(
                429, {"error": "server busy", "retry_after": 1},
                {"Retry-After": "1"})

        loop = asyncio.get_running_loop()
        started = loop.time()
        self._waiting += 1
        try:
            try:
                await asyncio.wait_for(self._sem.acquire(), deadline)
            except asyncio.TimeoutError:
                self.counters["deadline_timeouts"] += 1
                return _json_response(
                    504, {"error": "deadline exceeded waiting for a slot"})
        finally:
            self._waiting -= 1
        self._inflight += 1
        try:
            remaining = deadline - (loop.time() - started)
            if remaining <= 0:
                self.counters["deadline_timeouts"] += 1
                return _json_response(504, {"error": "deadline exceeded"})
            try:
                return await asyncio.wait_for(self._route(request, kind),
                                              remaining)
            except asyncio.TimeoutError:
                self.counters["deadline_timeouts"] += 1
                return _json_response(504, {"error": "deadline exceeded"})
        finally:
            self._inflight -= 1
            self._sem.release()

    async def _route(self, request: http.Request, kind: str | None):
        if kind == "delay":
            self.counters["fault_delays"] += 1
            await asyncio.sleep(faults.sleep_seconds())
        try:
            if kind == "raise":
                raise FaultInjected("serve")
            if request.path == "/simdize":
                if request.method != "POST":
                    return _json_response(405, {"error": "POST required"})
                return await self._coalesced("simdize", request.body,
                                             self._do_simdize)
            if request.path == "/verify":
                if request.method != "POST":
                    return _json_response(405, {"error": "POST required"})
                return await self._coalesced("verify", request.body,
                                             self._do_verify)
            if request.path == "/sweep":
                if request.method not in ("GET", "POST"):
                    return _json_response(405, {"error": "GET/POST required"})
                return await self._handle_sweep(request)
            return _json_response(404, {"error": f"no route {request.path}"})
        except FaultInjected as exc:
            self.counters["fault_raises"] += 1
            return _json_response(500, {"error": str(exc)})
        except ServeError as exc:
            return _json_response(400, {"error": str(exc)})
        except SimdalError as exc:
            # The client's program is at fault, not the server.
            return _json_response(
                400, {"error": f"{type(exc).__name__}: {exc}"})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.counters["unhandled_errors"] += 1
            self._log(f"handler error: {type(exc).__name__}: {exc}")
            return _json_response(500, {"error": "internal server error"})

    async def _coalesced(self, endpoint: str, body: bytes, worker):
        """Single-flight identical POST bodies onto one shared task."""
        payload = self._parse_json(body)
        key = (endpoint, json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")))
        task, _leader = self.flight.task_for(
            key, lambda: worker(payload))
        return await asyncio.shield(task)

    def _parse_json(self, body: bytes) -> dict:
        if not body:
            raise ServeError("empty request body (JSON object expected)")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ServeError(f"bad JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ServeError("JSON body must be an object")
        return payload

    # -- request parsing ----------------------------------------------

    def _parse_spec(self, payload: dict) -> _VerifySpec:
        from repro.simdize.options import SimdOptions

        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServeError("'source' (mini-C text) is required")
        unknown = set(payload) - {
            "source", "name", "V", "seed", "trip", "scalars", "backend",
            "scalar_backend", "policy", "reuse", "unroll", "reassoc",
        }
        if unknown:
            raise ServeError(f"unknown fields: {sorted(unknown)}")
        try:
            spec = _VerifySpec(
                source=source,
                name=str(payload.get("name", "loop")),
                V=int(payload.get("V", 16)),
                seed=int(payload.get("seed", 0)),
                trip=(None if payload.get("trip") is None
                      else int(payload["trip"])),
                scalars={str(k): int(v)
                         for k, v in (payload.get("scalars") or {}).items()},
                backend=str(payload.get("backend", "auto")),
                scalar_backend=str(payload.get("scalar_backend", "auto")),
            )
            spec.options = SimdOptions(
                policy=str(payload.get("policy", "auto")),
                reuse=str(payload.get("reuse", "sp")),
                unroll=int(payload.get("unroll", 1)),
                offset_reassoc=bool(payload.get("reassoc", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad parameter: {exc}") from None
        from repro.machine.backend import (BACKEND_CHOICES,
                                           SCALAR_BACKEND_CHOICES)

        if spec.backend not in BACKEND_CHOICES:
            raise ServeError(f"unknown backend {spec.backend!r}")
        if spec.scalar_backend not in SCALAR_BACKEND_CHOICES:
            raise ServeError(f"unknown scalar backend {spec.scalar_backend!r}")
        return spec

    # -- /simdize -----------------------------------------------------

    async def _do_simdize(self, payload: dict):
        spec = self._parse_spec(payload)
        result, program_text = await self._offload(self._simdize_work, spec)
        return _json_response(200, {
            "policy": result.policy,
            "shift_count": result.shift_count,
            "program": program_text,
        })

    def _simdize_work(self, spec: _VerifySpec):
        from repro.bench.runner import _cached_simdize
        from repro.lang import compile_source
        from repro.vir.printer import format_program

        with self._compile_lock:
            loop_ir = compile_source(spec.source, name=spec.name)
            result = _cached_simdize(loop_ir, spec.V, spec.options)
        return result, format_program(result.program, altivec=True)

    # -- /verify ------------------------------------------------------

    async def _do_verify(self, payload: dict):
        spec = self._parse_spec(payload)
        result, run = await self._offload(self._verify_prepare, spec)
        backend, degraded = await self._gate_native(spec.backend,
                                                    result.program)
        report = await self._offload(self._verify_run, run, backend,
                                     spec.scalar_backend)
        body = {
            "verified": True,
            "policy": result.policy,
            "shift_count": result.shift_count,
            "trip": report.trip,
            "scalar_ops": report.scalar_total,
            "vector_ops": report.vector_total,
            "scalar_opd": report.scalar_opd,
            "vector_opd": report.vector_opd,
            "speedup": report.speedup,
            "backend": backend,
            "used_fallback": report.used_fallback,
            # Structured degradation, innermost first: the resilient
            # chain's own record, then the serve-level circuit/budget
            # record.
            "fallback": report.fallback,
            "scalar_fallback": report.scalar_fallback,
            "degraded": degraded,
        }
        return _json_response(200, body)

    def _verify_prepare(self, spec: _VerifySpec):
        """Compile + simdize + build the request-local memory image.

        Seeding matches :func:`repro.run_and_verify` exactly, so a
        /verify response is byte-for-byte the CLI ``repro run`` result
        for the same source and seed.
        """
        from repro.bench.runner import _cached_simdize
        from repro.lang import compile_source
        from repro.machine.scalar import RunBindings
        from repro.simdize.verify import fill_random, make_space

        with self._compile_lock:
            loop_ir = compile_source(spec.source, name=spec.name)
            result = _cached_simdize(loop_ir, spec.V, spec.options)
        rng = random.Random(spec.seed)
        space = make_space(loop_ir, spec.V, rng)
        mem = space.make_memory()
        fill_random(space, mem, rng)
        bindings = RunBindings(trip=spec.trip, scalars=spec.scalars)
        return result, (result.program, space, mem, bindings)

    def _verify_run(self, run, backend: str, scalar_backend: str):
        from repro.simdize.verify import verify_equivalence

        program, space, mem, bindings = run
        return verify_equivalence(program, space, mem, bindings,
                                  backend=backend,
                                  scalar_backend=scalar_backend)

    # -- the breaker-guarded native warmup ----------------------------

    async def _gate_native(self, backend: str, program):
        """Admit/degrade the native tier for one request.

        Returns ``(effective backend, degradation record | None)``.
        The warmup itself — one batched ``cc`` via ``precompile`` — is
        single-flighted per program signature, so concurrent requests
        for one signature cost one compiler invocation total.
        """
        from repro.machine.backend import numpy_available

        if backend != "native" or not numpy_available():
            # Without numpy there is no native tier to warm; execution
            # raises the same friendly needs-numpy error as the CLI.
            return backend, None
        if not self.breaker.allow():
            self.counters["degraded_native"] += 1
            self._log("circuit open: native tier suspended, serving jit")
            return "jit", {"tier": "jit", "phase": "compile",
                           "reason": "circuit open", "failed": ["native"]}
        key = ("warm", self._program_signature(program))
        task, _ = self.flight.task_for(
            key, lambda: self._offload(self._warm_native, program))
        try:
            await asyncio.wait_for(asyncio.shield(task),
                                   self.config.compile_budget)
        except asyncio.TimeoutError:
            self.breaker.failure()
            self.counters["degraded_native"] += 1
            self._log(f"native warmup exceeded compile budget "
                      f"({self.config.compile_budget:g}s); "
                      f"breaker {self.breaker.state}")
            return "jit", {"tier": "jit", "phase": "compile",
                           "reason": "compile budget exceeded",
                           "failed": ["native"]}
        except Exception as exc:
            self.breaker.failure()
            self.counters["degraded_native"] += 1
            self._log(f"native warmup failed ({exc}); "
                      f"breaker {self.breaker.state}")
            return "jit", {"tier": "jit", "phase": "compile",
                           "reason": str(exc), "failed": ["native"]}
        self.breaker.success()
        return "native", None

    def _program_signature(self, program) -> str:
        # Callers gate on numpy: without it there is no native tier.
        from repro.machine import jit

        return jit.program_signature(program)

    def _warm_native(self, program) -> None:
        """Compile the program's native kernel ahead of execution.

        Raises on injected compile faults and on real (memoized) cc
        failures so the breaker sees them; a missing compiler makes
        this a cheap no-op and the resilient chain handles tier
        selection at execution time.
        """
        faults.fault("compile")
        from repro.machine import compilequeue, native

        with self._compile_lock:
            compilequeue.precompile([program])
            cc, identity = native._compiler_identity()
            if cc is not None:
                signature = self._program_signature(program)
                key = native._disk_key(signature, identity)
                reason = native._FAILED.get(key)
                if reason is not None:
                    raise ServeError(f"native compile failed: {reason}")

    # -- /sweep -------------------------------------------------------

    async def _handle_sweep(self, request: http.Request):
        params: dict = dict(request.query)
        if request.method == "POST" and request.body:
            body = self._parse_json(request.body)
            params.update(body)
        figure = str(params.get("figure", ""))
        if figure not in SWEEP_FIGURES:
            raise ServeError(
                f"'figure' must be one of {list(SWEEP_FIGURES)}")
        try:
            count = int(params.get("count", 10))
            trip = int(params.get("trip", 509))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad parameter: {exc}") from None
        backend = str(params.get("backend", "auto"))
        if count < 1 or trip < 1:
            raise ServeError("count and trip must be positive")

        cache_key = (figure, count, trip, backend)
        cached = self._sweep_cache.get(cache_key)
        if cached is not None:
            self._sweep_cache.move_to_end(cache_key)
            self.counters["sweep_cache_hits"] += 1
            return 200, cached, "text/plain; charset=utf-8", {}
        self.counters["sweep_cache_misses"] += 1
        task, _ = self.flight.task_for(
            ("sweep",) + cache_key,
            lambda: self._offload(self._sweep_work, figure, count, trip,
                                  backend))
        body = await asyncio.shield(task)
        if len(self._sweep_cache) >= _SWEEP_CACHE_MAX:
            self._sweep_cache.popitem(last=False)
        self._sweep_cache[cache_key] = body
        return 200, body, "text/plain; charset=utf-8", {}

    def _sweep_work(self, figure: str, count: int, trip: int,
                    backend: str) -> bytes:
        """Regenerate one figure, byte-identical to the CLI.

        Same builders, same defaults, same ``RunPolicy()`` as
        ``repro bench`` — the response body is exactly what
        ``python -m repro bench <figure> --count N --trip-count T``
        prints, which is what CI's byte-parity ``cmp`` checks.
        """
        from repro.bench import figure11, figure12, table1, table2
        from repro.bench.runner import RunPolicy

        builders = {"fig11": figure11, "fig12": figure12,
                    "table1": table1, "table2": table2}
        with self._compile_lock:
            result = builders[figure](
                count=count, trip=trip, jobs=1, backend=backend,
                scalar_backend="auto", profile=None, run_policy=RunPolicy())
        return (result.format() + "\n").encode()

    # -- ops endpoints ------------------------------------------------

    def _healthz(self):
        healthy = not self._draining
        payload = {
            "status": "ok" if healthy else "draining",
            "breaker": self.breaker.state,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        return _json_response(200 if healthy else 503, payload)

    def _stats(self):
        from repro.cache import get_cache

        try:
            from repro.machine import native
            native_stats = {k: v for k, v in native.STATS.items()
                            if isinstance(v, (int, float))}
        except ImportError:      # no numpy: no jit/native tiers
            native_stats = None
        cache = get_cache()
        payload = {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "threads_busy": self._threads_busy,
            "counters": dict(sorted(self.counters.items())),
            "singleflight": self.flight.snapshot(),
            "breaker": self.breaker.snapshot(),
            "native": native_stats,
            "disk_cache": cache.stats() if cache is not None else None,
            "config": {
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "deadline_s": self.config.deadline,
                "compile_budget_s": self.config.compile_budget,
                "workers": self.config.workers,
            },
        }
        return _json_response(200, payload)

    def stats_payload(self) -> dict:
        """The /stats document as a dict (drain flush + tests)."""
        _, body, _, _ = self._stats()
        return json.loads(body)


async def serve_forever(config: ServeConfig | None = None,
                        ready=None) -> int:
    """Run the server until SIGTERM/SIGINT, then drain gracefully.

    ``ready`` (if given) is called with the bound ``(host, port)`` once
    the listener is up — the bench harness and tests use it instead of
    parsing stdout.  Returns the process exit code (0: clean drain).
    """
    import signal as _signal

    app = ServeApp(config)
    app._drain_event = asyncio.Event()
    server = await asyncio.start_server(app.handle_connection,
                                        app.config.host, app.config.port)
    host, port = server.sockets[0].getsockname()[:2]
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            loop.add_signal_handler(sig, app.request_drain)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass
    print(f"serve: listening on http://{host}:{port}", flush=True)
    if ready is not None:
        ready((host, port))
    try:
        await app._drain_event.wait()
        server.close()
        await server.wait_closed()
        clean = await app.wait_idle(app.config.drain_timeout)
        stats = json.dumps(app.stats_payload(), sort_keys=True)
        print(f"serve: drained ({'clean' if clean else 'timed out'}); "
              f"final stats: {stats}", file=sys.stderr, flush=True)
        return 0 if clean else 1
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        app.close()
