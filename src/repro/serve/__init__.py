"""Simdization-as-a-service: the ``repro serve`` HTTP tier.

Layout:

* :mod:`repro.serve.http` — minimal HTTP/1.1 over asyncio streams.
* :mod:`repro.serve.singleflight` — coalescing of identical work.
* :mod:`repro.serve.breaker` — the native-compile circuit breaker.
* :mod:`repro.serve.app` — admission, deadlines, degradation, drain;
  :func:`~repro.serve.app.serve_forever` is the CLI entry point.

See DESIGN.md §7 (Serving) for the architecture and the HTTP status
contract, and ``benchmarks/bench_serve.py`` for the load harness.
"""

from repro.serve.app import ServeApp, ServeConfig, serve_forever
from repro.serve.breaker import CircuitBreaker
from repro.serve.singleflight import SingleFlight

__all__ = [
    "CircuitBreaker",
    "ServeApp",
    "ServeConfig",
    "SingleFlight",
    "serve_forever",
]
